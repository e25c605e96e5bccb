"""The library's contract: a wrong argument raises TypeError or ValueError, never anything else.

CALLS holds one valid call of every public name of the package's modules
and of vilenkin.oracles, and of the classes' alternate constructors.  Each
argument of each call is replaced in turn by every value of POOL; the call,
with a returned generator advanced once, must then return or raise
TypeError or ValueError.  An AttributeError from reading a field of the
wrong argument, or any other exception, is a breach.  The messages that name
the argument are pinned case by case in test_values.py.
"""

import math

import numpy as np

from vilenkin import group, kernels, oracles, points, transform, weights
from vilenkin.group import Element, GroupSpec, generator, interval_members, make_group
from vilenkin.kernels import (
    KernelProfileRow,
    dirichlet,
    domination_constant,
    fejer,
    l1_profile,
    multiplier,
    norlund_kernel,
    norlund_mean,
    t_kernel,
    t_mean,
)
from vilenkin.oracles import (
    abel_kernel_residuals,
    abel_weight_residual,
    identity_residual,
    reflection_residuals,
    t_mean_oracles,
)
from vilenkin.points import ConvergenceRow, convergence_profile, lebesgue_modulus, w_modulus
from vilenkin.transform import (
    GridFunction,
    character_row,
    convolve,
    forward,
    norm,
    partial_sum,
    synthesize,
)
from vilenkin.weights import (
    Classification,
    WeightSequence,
    binomial_sequence,
    classify,
    parse_weights,
    passes_gate,
)

SPEC = make_group([2, 3], 3)
W = WeightSequence("riesz-log")
F = GridFunction.random(SPEC, seed=1)
X = Element(SPEC, (1, 2, 1))
OTHER = make_group([3], 2)
POOL = (
    None, -1, 0, np.int64(3), 2.5, 10**30, 10**400, 1e308, math.nan, math.inf, "x", True, X, F,
    OTHER, Element(OTHER, (1, 2)), GridFunction.random(OTHER, seed=1), [1, 2],
)

# (callable, positional arguments, keyword arguments): one valid call each
CALLS = [
    (GroupSpec, ([2, 3],), {}),
    (make_group, ([2, 3], 3), {}),
    (Element, (SPEC, (1, 2, 1)), {}),
    (Element.from_index, (SPEC, 5), {}),
    (Element.zero, (SPEC,), {}),
    (generator, (0, SPEC), {}),
    (interval_members, (X, 1), {}),
    (GridFunction, (SPEC, np.ones(SPEC.size)), {}),
    (GridFunction.constant, (SPEC, 2.0), {}),
    (GridFunction.character, (SPEC, 1), {}),
    (GridFunction.indicator, (SPEC, 1, 0), {}),
    (GridFunction.random, (SPEC, 1), {"rank": 2}),
    (character_row, (SPEC, 1), {}),
    (forward, (F,), {"method": "fast"}),
    (synthesize, (SPEC, [1, 2]), {}),
    (partial_sum, (F, 3), {}),
    (convolve, (F, F), {}),
    (norm, (F, 2), {}),
    (multiplier, ("t", 3, SPEC, W), {}),
    (dirichlet, (3, SPEC), {}),
    (fejer, (3, SPEC), {}),
    (t_kernel, (W, 3, SPEC), {}),
    (norlund_kernel, (W, 3, SPEC), {}),
    (KernelProfileRow, (1, 1.0, 1.0, 0.0), {}),
    (l1_profile, ("t", [2, 3], SPEC), {"weights": W, "tail_rank": 1}),
    (domination_constant, ([2, 3], SPEC), {}),
    (WeightSequence, ("cesaro", 0.5), {}),
    (binomial_sequence, (0.5, 4), {}),
    (parse_weights, ("cesaro:0.5",), {}),
    (classify, (W, 10), {}),
    (Classification, ("riesz", 10, 0.0, "a", 1.0, 0.0, True, 1.5, "a"), {}),
    (passes_gate, (classify(W, 10),), {}),
    (t_mean, (F, W, 3), {"method": "multiplier"}),
    (norlund_mean, (F, W, 3), {}),
    (lebesgue_modulus, (F, X, 1), {}),
    (w_modulus, (F, X, 2), {}),
    (ConvergenceRow, (2, 0.5, "riesz|t"), {}),
    (convergence_profile, (F, W, [2, 3]), {"form": "t", "p": 1}),
    (convergence_profile, (F, W, [2, 3]), {"form": "norlund", "point": X}),
    (identity_residual, ("reflection", SPEC), {"rank": 2, "j": 1}),
    (identity_residual, ("abel-kernel", SPEC), {"weights": W, "n": 3}),
    (identity_residual, ("block", SPEC), {"weights": W, "rank": 1}),
    (reflection_residuals, (SPEC,), {}),
    (abel_kernel_residuals, (SPEC, W, [2, 3]), {}),
    (t_mean_oracles, (F, W, [2, 3]), {}),
    (abel_weight_residual, (W, 5), {}),
]


def _called(call, args, kwargs):
    result = call(*args, **kwargs)
    if hasattr(result, "__next__"):  # a sweep does its work when advanced
        next(result, None)


def test_every_public_name_has_a_valid_call():
    modules = (group, transform, weights, kernels, points, oracles)
    public = {name for module in modules for name in module.__all__}
    covered = {call.__qualname__.split(".")[0] for call, _, _ in CALLS}
    assert public <= covered, f"no valid call in CALLS for {sorted(public - covered)}"
    for call, args, kwargs in CALLS:
        _called(call, args, kwargs)


def test_a_wrong_argument_raises_type_error_or_value_error():
    breaches = {}
    for call, args, kwargs in CALLS:
        slots = [*range(len(args)), *kwargs]
        for slot in slots:
            for value in POOL:
                if isinstance(slot, int):
                    tried = args[:slot] + (value,) + args[slot + 1 :], kwargs
                else:
                    tried = args, {**kwargs, slot: value}
                try:
                    _called(call, *tried)
                except (TypeError, ValueError):
                    pass
                except Exception as exc:  # noqa: BLE001 - any other exception is the breach
                    breaches.setdefault((call.__qualname__, slot), f"{value!r:.20}: {exc!r:.80}")
    report = (f"{name} argument {slot}: {why}" for (name, slot), why in breaches.items())
    assert not breaches, "\n".join(report)
