"""Harmonic analysis on bounded Vilenkin groups at finite resolution."""

import importlib.util

# each module's __all__ is its list of public names
from .group import *  # noqa: F403
from .kernels import *  # noqa: F403
from .points import *  # noqa: F403
from .transform import *  # noqa: F403
from .weights import *  # noqa: F403

__version__ = "0.1.0"


def __getattr__(name: str):
    # vilenkin.oracles loads on first use, so a job that runs no oracle never
    # compiles it; `from . import oracles` here would ask this hook again.
    # `from vilenkin import cli` asks here before it imports the submodule,
    # so a submodule's name is refused without loading the oracles
    public = name.isidentifier() and not name.startswith("_")
    if public and importlib.util.find_spec(f"{__name__}.{name}") is None:
        oracles = importlib.import_module(".oracles", __name__)
        if name in oracles.__all__:
            return getattr(oracles, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
