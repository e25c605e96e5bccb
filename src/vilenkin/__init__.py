"""Harmonic analysis on bounded Vilenkin groups at finite resolution."""

# each module's __all__ is its list of public names
from .group import *  # noqa: F403
from .kernels import *  # noqa: F403
from .means import *  # noqa: F403
from .points import *  # noqa: F403
from .transform import *  # noqa: F403

__version__ = "0.1.0"

# The oracle routes of vilenkin.oracles load on first use: every CLI job runs
# this module, and a job that needs no oracle should not compile them.
_ORACLES = frozenset(
    {
        "abel_kernel_residuals",
        "abel_weight_residual",
        "identity_residual",
        "reflection_residuals",
        "t_mean_oracles",
    }
)


def __getattr__(name: str):
    if name in _ORACLES:
        from . import oracles

        return getattr(oracles, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
