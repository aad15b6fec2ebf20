"""Shared fixtures: hand-built models whose values are known in closed form."""

import numpy as np
import pytest

from socicnn import ArchSpec, DualBranch, SocIcnnParams, build_degenerate_2d, build_random
from socicnn import canonical, curvature, degeneracy_report, experiments, forward, geometry
from socicnn import inference, model
from socicnn.dual import relu_corner_assignments


def inert_backbone(input_dim):
    """Backbone contributing exactly zero: one unit, frozen inactive.

    The single preactivation is the constant -1, so the unit is off with
    margin 1 at every input and the readout reduces to the module terms.
    """
    return dict(
        W=(np.zeros((1, input_dim)),),
        U=(np.zeros((1, 0)),),
        b=(np.array([-1.0]),),
        c=np.array([0.0]),
        v=np.zeros(input_dim),
        b0=0.0,
    )


def quad_only_params(alpha=2.0, dim=2):
    """f(x) = (alpha / 2) * ||x||^2 through a single identity quadratic module."""
    return SocIcnnParams(
        alpha=(alpha,),
        B=(np.eye(dim),),
        e=(np.zeros(dim),),
        **inert_backbone(dim),
    )


def cone_only_params(lam=0.8, A=None, shift=None, dim=2):
    """f(x) = lam * ||A x + shift|| through a single conic module."""
    if A is None:
        A = np.eye(dim)
    A = np.asarray(A, dtype=float)
    if shift is None:
        shift = np.zeros(A.shape[0])
    return SocIcnnParams(
        lam=(lam,),
        A=(A,),
        d=(np.asarray(shift, dtype=float),),
        **inert_backbone(dim),
    )


def constant_params(b0=3.5, dim=2):
    """f(x) = b0 for every x: zero weights everywhere."""
    base = inert_backbone(dim)
    base["b0"] = b0
    return SocIcnnParams(**base)


@pytest.fixture(scope="session")
def degenerate_model():
    """The hand-built 2D model with one ReLU kink and one conic tip at x0."""
    return build_degenerate_2d()


@pytest.fixture(scope="session")
def small_model():
    """A small random model used where the architecture does not matter."""
    return build_random(3, ArchSpec(4, (6, 5), quad_dims=(3,), cone_dims=(3,)))


@pytest.fixture(scope="session")
def medium_model():
    """A mid-sized random model for oracle comparisons."""
    return build_random(11, ArchSpec(6, (12, 10, 8), quad_dims=(5,), cone_dims=(4, 4)))


def gaussian_points(seed, n, dim, scale=1.0):
    rng = np.random.default_rng(seed)
    return scale * rng.standard_normal((n, dim))


def branch_row(stack, k):
    """Row ``k`` of a stacked ``DualBranch`` as a one-branch ``DualBranch``."""
    groups = (stack.relu, stack.quad, stack.cone)
    return DualBranch(*(tuple(a[k] for a in group) for group in groups))


def stack_branches(branches):
    """One stacked ``DualBranch`` holding the rows of every given branch or
    stack, in order."""

    def join(field):
        groups = zip(*(getattr(br, field) for br in branches))
        return tuple(np.concatenate([np.atleast_2d(a) for a in arrays]) for arrays in groups)

    return DualBranch(join("relu"), join("quad"), join("cone"))


def corner_branches(params, trace):
    """The ReLU corners of the optimal set at one point's trace as one
    stacked ``DualBranch``, in ``relu_corner_assignments`` order, each row
    with the canonical quadratic and conic multipliers (``+0.0`` at a cone
    tip)."""
    base = canonical(params, trace)
    relu = list(relu_corner_assignments(params, degeneracy_report(trace)))
    n = len(relu)
    return DualBranch(
        tuple(np.array(layer) for layer in zip(*relu)),
        tuple(np.broadcast_to(p, (n, p.shape[0])) for p in base.quad),
        tuple(np.broadcast_to(r, (n, r.shape[0])) for r in base.cone),
    )


def record_traces(monkeypatch):
    """Patch ``forward`` wherever the package reaches it to record the
    points each call traces, as one ``(rows, d)`` array per call, and to
    fail any call that a solver's gradient or Newton direction makes.

    Returns the record and the descent runs, each as ``(reports, calls)``:
    the reports of one lockstep batch of queries (a single query is a batch
    of one), and the part of the record that batch made.
    """
    traced, runs, inside = [], [], []

    def recording_forward(params, x):
        assert not inside, "a gradient or direction traced a point"
        traced.append(np.atleast_2d(x).copy())
        return forward(params, x)

    def guarded(fn):
        def wrapper(*args):
            inside.append(fn)
            try:
                return fn(*args)
            finally:
                inside.pop()

        return wrapper

    descent = inference._descent

    def recording_descent(params, Y, config, method, grad_fn, direction_fn):
        first = len(traced)
        direction_fn = direction_fn and guarded(direction_fn)
        reports = descent(params, Y, config, method, guarded(grad_fn), direction_fn)
        runs.append((reports, traced[first:]))
        return reports

    for module in (curvature, experiments, geometry, inference, model):
        monkeypatch.setattr(module, "forward", recording_forward)
    monkeypatch.setattr(inference, "_descent", recording_descent)
    return traced, runs
