"""Harmonic analysis on bounded Vilenkin groups at finite resolution."""

from .group import (
    Element,
    GroupSpec,
    add,
    generator,
    interval_members,
    make_group,
    subtract,
)
from .kernels import (
    KernelProfileRow,
    abel_kernel_residuals,
    dirichlet,
    domination_constant,
    fejer,
    identity_residual,
    l1_profile,
    multiplier,
    norlund_kernel,
    reflection_residuals,
    synthesize,
    t_kernel,
)
from .means import (
    Classification,
    WeightSequence,
    abel_weight_residual,
    binomial_sequence,
    classify,
    named_mean,
    norlund_mean,
    parse_weights,
    passes_gate,
    t_mean,
    t_mean_oracles,
    weights,
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
    psi,
    rademacher,
    weak_norm,
)

__version__ = "0.1.0"
