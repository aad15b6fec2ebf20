"""Negative controls: each check of a claim must fail when the code behind
the claim is broken.

Each mutation replaces, by ``monkeypatch``, one function with a plausible
bug: ``dual._maximizing`` (the argmax rows behind every ``dual_max``), the
one-sided sweep ``dual._one_sided_primal`` whose sign pattern picks those
rows, the sampler ``dual.sample_optimal_branches`` or ``dual.canonical``.
A small exp3 run must then fail exactly the named checks; the unmutated run
passes every check.  The two FD checks compare the finite-difference slopes
with ``dual_max``, so every wrong support function fails them as well.  A
wrong pick that stays optimal (the canonical corner, the sign rule flipped,
the tips' ball term dropped) leaves ``exp3-argmax-optimal`` passing, since
every such row is still a feasible optimal branch; rows off the optimal set
(no quadratic multipliers, free coordinates at twice their bound) fail it.

``exp3-min-norm`` fails for a sampler whose draws all land on the canonical
branch and for a canonical branch off the minimum-norm one, and
``exp3-canonical-optimal`` alone for a canonical branch whose ReLU part is
zeroed: no other check reads the canonical ReLU multipliers tightly
enough.  No mutation here fails ``exp3-support-margin``.  The sampler is built on the canonical
quadratic and off-tip conic multipliers, so a wrong one of those stops the
run with a ``ConstructionError``.  Every probe's margin exceeds 0.82 times
its step length at seeds 0 and 99, so only a slope error longer than 0.82
can fail the check, while the whole canonical slope is 0.79 long: seven
mutations of the ReLU part (among them zeroed, negated, doubled and with the
layers swapped) left the smallest margin at 0.024 to 0.19.

exp3's support check cannot see a hull pre-filter in ``geometry._support_maxima``
that drops too much: an under-estimated maximum only widens the
``exp3-no-violation`` margin, and the run passes every check.  So
``HULL_MARGIN`` with its sign flipped, which drops the polygon's own
vertices, is pinned against the branch-major reference of
``conftest.py`` on exp3's own inputs instead.

The white-box line search's certified floor has its own controls: a mutated
``inference._armijo_floor`` must skip a step that passes the Armijo test when
traced after the run (``TestCertifiedFloor`` in ``test_inference.py`` runs the
unmutated cases).  A lower model of curvature ``2 beta`` does so on the
medium model and at ``near_kink_unit``.  One that drops the gap bound does so
only at ``near_kink_unit``, whose first step passes by less than the gap: at
``planted_kinks(shift=tol / 2)`` and ``beta = 10`` no step lands within the
gap of the bound.
"""

from dataclasses import replace

import numpy as np
import pytest

from socicnn import InferenceConfig, dual, geometry, inference, model, solve
from socicnn.experiments import Exp3Config, run_exp3

from conftest import exp3_support_inputs, gaussian_points, near_kink_unit, record_line_searches
from conftest import reference_support_maxima, skipped_passes

SMALL = dict(directions=60, branches=100, probes=100)
MAXIMIZING = dual._maximizing
SWEEP = dual._one_sided_primal
CANONICAL = dual.canonical


def argmax_without_tips(params, trace, units, tol, canon):
    """``_maximizing`` whose cone-tip rows keep the canonical ``+0.0``: the
    tips' ``lam_g * ||A_g u||`` dropped."""
    slopes, stack = MAXIMIZING(params, trace, units, tol, canon)
    cone = tuple(np.broadcast_to(r, s.shape) for r, s in zip(canon.cone, stack.cone))
    return slopes, replace(stack, cone=cone)


def argmax_without_quad(params, trace, units, tol, canon):
    """``_maximizing`` whose rows carry zero quadratic multipliers."""
    slopes, stack = MAXIMIZING(params, trace, units, tol, canon)
    return slopes, replace(stack, quad=tuple(np.zeros_like(p) for p in stack.quad))


def sweep_drawing(change):
    """``_one_sided_primal`` whose sign pattern, when one is asked for, goes
    through ``change`` on its way to the box recursion."""

    def mutant(params, trace, units, tol, free=None):
        if free is None:
            return SWEEP(params, trace, units, tol)
        slopes, draws = SWEEP(params, trace, units, tol, free)
        return slopes, change(draws)

    return mutant


def sampler_ignores_draws(params, trace, tol, n, seed):
    """``sample_optimal_branches`` whose every draw lands on the canonical
    branch: ``n`` copies of it."""
    canon = dual.canonical(params, trace, tol)
    groups = (canon.relu, canon.quad, canon.cone)
    return dual.DualBranch(*(tuple(np.broadcast_to(a, (n, a.size)) for a in g) for g in groups))


def canonical_bound_on_kink(params, trace, tol=model.DEFAULT_TAU):
    """``canonical`` that puts the units on their kink at their bound with
    those above it (``a >= -tol`` for ``a > tol``): an optimal corner, but
    not the minimum-norm branch."""
    below = model._kinks(trace, tol)[1]
    relu = dual._box_recursion(params, [~down for down in below])
    return replace(CANONICAL(params, trace, tol), relu=relu)


def canonical_without_relu(params, trace, tol=model.DEFAULT_TAU):
    """``canonical`` whose ReLU multipliers are all zero: a feasible branch,
    but its minorant sits below the model value (0.275 below at the built
    kink), so it is not optimal."""
    canon = CANONICAL(params, trace, tol)
    return replace(canon, relu=tuple(np.zeros_like(nu) for nu in canon.relu))


FD = {"exp3-fd-mean", "exp3-fd-max"}
MUTATIONS = {
    "drop-tip-terms": (
        dual,
        "_maximizing",
        argmax_without_tips,
        FD | {"exp3-primal-exact", "exp3-no-violation", "exp3-gap-fraction"},
    ),
    "canonical-corner-only": (
        dual,
        "_one_sided_primal",
        sweep_drawing(np.zeros_like),
        FD | {"exp3-primal-exact", "exp3-no-violation"},
    ),
    "argmax-without-quad": (
        dual,
        "_maximizing",
        argmax_without_quad,
        FD | {"exp3-primal-exact", "exp3-no-violation", "exp3-argmax-optimal"},
    ),
    "free-at-twice-the-bound": (
        dual,
        "_one_sided_primal",
        sweep_drawing(lambda draws: 2.0 * draws),
        FD | {"exp3-primal-exact", "exp3-argmax-optimal"},
    ),
    "sign-rule-flipped": (
        dual,
        "_one_sided_primal",
        sweep_drawing(np.logical_not),
        FD | {"exp3-primal-exact", "exp3-no-violation", "exp3-gap-fraction"},
    ),
    "sampler-ignores-draws": (
        dual,
        "sample_optimal_branches",
        sampler_ignores_draws,
        {"exp3-min-norm"},
    ),
    "canonical-bound-on-kink": (
        dual,
        "canonical",
        canonical_bound_on_kink,
        {"exp3-min-norm"},
    ),
    "canonical-without-relu": (
        dual,
        "canonical",
        canonical_without_relu,
        {"exp3-canonical-optimal"},
    ),
}


def failed_checks(seed):
    out = run_exp3(Exp3Config(seed=seed, **SMALL))
    return {check.name for check in out.checks if not check.passed}


@pytest.mark.parametrize("seed", [0, 99])
def test_unmutated_run_passes_every_check(seed):
    assert failed_checks(seed) == set()


@pytest.mark.parametrize("seed", [0, 99])
@pytest.mark.parametrize("name", sorted(MUTATIONS))
def test_mutation_fails_its_checks(monkeypatch, name, seed):
    owner, attribute, mutant, expected = MUTATIONS[name]
    monkeypatch.setattr(owner, attribute, mutant)
    assert failed_checks(seed) == expected


@pytest.mark.parametrize("seed", [0, 99])
def test_hull_margin_flipped_fails_only_the_reference(monkeypatch, seed):
    monkeypatch.setattr(geometry, "HULL_MARGIN", -geometry.HULL_MARGIN)
    out = run_exp3(Exp3Config(seed=seed, **SMALL))
    assert out.all_passed()
    dirs, readouts = exp3_support_inputs(seed, **SMALL)
    got = geometry._support_maxima(dirs, readouts)
    want = reference_support_maxima(dirs, readouts)
    assert np.all(got <= want) and np.any(got < want)


FLOOR = inference._armijo_floor


def floor_double_curvature(config, gap, etas, f, slope, pp):
    """``_armijo_floor`` whose lower model has curvature ``2 beta``."""
    return FLOOR(replace(config, beta=2.0 * config.beta), gap, etas, f, slope, pp)


def floor_without_gap(config, gap, etas, f, slope, pp):
    """``_armijo_floor`` that takes the canonical minorant as exact at ``x``."""
    return FLOOR(config, 0.0, etas, f, slope, pp)


FLOOR_MUTATIONS = {
    "double-curvature": (floor_double_curvature, {"medium", "near-kink-unit"}),
    "without-gap": (floor_without_gap, {"near-kink-unit"}),
}


def floor_cases(medium_model):
    return {
        "medium": (medium_model, gaussian_points(104, 3, medium_model.input_dim),
                   InferenceConfig(beta=10.0)),
        "near-kink-unit": near_kink_unit(),
    }


def cases_with_passing_skips(monkeypatch, medium_model):
    failing = set()
    blocks, floors = record_line_searches(monkeypatch)
    for case, (params, Y, config) in floor_cases(medium_model).items():
        blocks.clear()
        floors.clear()
        solve(params, Y, config, "whitebox-gd")
        if skipped_passes(params, blocks, floors):
            failing.add(case)
    return failing


@pytest.mark.parametrize("name", sorted(FLOOR_MUTATIONS))
def test_floor_mutation_skips_a_passing_step(monkeypatch, medium_model, name):
    mutant, expected = FLOOR_MUTATIONS[name]
    monkeypatch.setattr(inference, "_armijo_floor", mutant)
    assert cases_with_passing_skips(monkeypatch, medium_model) == expected
