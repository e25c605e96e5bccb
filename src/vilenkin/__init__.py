"""Harmonic analysis on bounded Vilenkin groups at finite resolution."""

# each module's __all__ is its list of public names; the oracle routes are
# read from vilenkin.oracles, which only an import of it loads
from .group import *  # noqa: F403
from .kernels import *  # noqa: F403
from .points import *  # noqa: F403
from .transform import *  # noqa: F403
from .weights import *  # noqa: F403

__version__ = "0.1.0"
