"""Harmonic analysis on bounded Vilenkin groups at finite resolution."""

from .group import (
    Element,
    GroupSpec,
    generator,
    interval_members,
    make_group,
)
from .kernels import (
    KernelProfileRow,
    dirichlet,
    domination_constant,
    fejer,
    l1_profile,
    multiplier,
    norlund_kernel,
    t_kernel,
)
from .means import (
    Classification,
    WeightSequence,
    binomial_sequence,
    classify,
    norlund_mean,
    parse_weights,
    passes_gate,
    t_mean,
)
from .points import (
    ConvergenceRow,
    convergence_profile,
    lebesgue_modulus,
    maximal_profile,
    w_modulus,
)
from .transform import (
    GridFunction,
    Spectrum,
    character_row,
    convolve,
    forward,
    inverse,
    norm,
    partial_sum,
    synthesize,
    weak_norm,
)

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
