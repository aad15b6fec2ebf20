"""Shared fixtures: hand-built models whose values are known in closed form."""

from dataclasses import replace

import numpy as np
import pytest

from socicnn import ArchSpec, DualBranch, SocIcnnParams, build_degenerate_2d, build_random
from socicnn import canonical, curvature, degeneracy_report, dual, experiments, forward
from socicnn import forward_values, geometry, inference, model
from socicnn.experiments import Exp3Config


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


def single_layer_params(b_value):
    """Two-unit, one-layer net z = relu(x + b) read out with c = (0.9, 0.4)."""
    return SocIcnnParams(
        W=(np.eye(2),),
        U=(np.zeros((2, 0)),),
        b=(np.array([b_value, b_value]),),
        c=np.array([0.9, 0.4]),
        v=np.array([0.1, -0.2]),
        b0=0.25,
    )


def zero_preact_pair():
    """f(x) = relu(x) + relu(-x) = |x| with both preactivations zero at 0."""
    return SocIcnnParams(
        W=(np.array([[1.0], [-1.0]]),),
        U=(np.zeros((2, 0)),),
        b=(np.zeros(2),),
        c=np.array([1.0, 1.0]),
        v=np.array([0.0]),
        b0=0.0,
    )


def planted_kinks(seed=5, arch=ArchSpec(6, (8, 8), quad_dims=(3,), cone_dims=(3, 5)),
                  coords=((0, 1), (0, 4), (1, 2)), tips=(0, 1), shift=0.0):
    """``build_random(seed, arch)`` moved onto kinks at a Gaussian point ``x``
    by the bias trick.  Unit ``i`` of layer ``l``, for each ``(l, i)`` in
    ``coords``, takes the bias ``-(matvec(W_l, x) + matvec(U_l, z))[i]``,
    which ``forward`` cancels bitwise, and each conic module in ``tips`` the
    offset ``-matvec(A_g, x)``, which puts its residual at the cone tip.  By
    default: three free ReLU coordinates over two layers and cone tips of
    dimensions 3 and 5.  A positive ``shift`` moves the point just off its
    kinks: the units take ``shift`` more bias (``a`` about ``shift``) and the
    tips' residuals are ``shift`` times the first unit vector."""
    params = build_random(seed, arch)
    x = np.random.default_rng(seed).standard_normal(arch.input_dim)
    b = [bl.copy() for bl in params.b]
    z = np.zeros(0)
    for l, (W, U) in enumerate(zip(params.W, params.U)):
        s = np.matvec(W, x) + np.matvec(U, z)
        kinked = [i for k, i in coords if k == l]
        b[l][kinked] = shift - s[kinked]
        z = np.maximum(s + b[l], 0.0)
    d = [shift * (np.arange(len(dg)) == 0) - np.matvec(A, x) if g in tips else dg
         for g, (A, dg) in enumerate(zip(params.A, params.d))]
    return replace(params, b=b, d=d), x


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


def midpoint_violation(f, dim, n_triples, seed):
    """Largest midpoint-convexity violation ``f(t x + (1 - t) y) - t f(x) -
    (1 - t) f(y)`` of a row-batched value field ``f``, clamped at zero, over
    ``n_triples`` triples of standard Gaussian endpoints and uniform ``t``,
    all ``3 n_triples`` points in one call: rounding level for a convex
    ``f``, clearly positive for a nonconvex one."""
    rng = np.random.default_rng(seed)
    X, Y = rng.standard_normal((2, n_triples, dim))
    t = rng.uniform(size=n_triples)
    fm, fx, fy = f(np.concatenate([t[:, None] * X + (1.0 - t[:, None]) * Y, X, Y])).reshape(3, -1)
    assert np.isfinite(fm).all() and np.isfinite(fx).all() and np.isfinite(fy).all()
    return max(0.0, float(np.max(fm - (t * fx + (1.0 - t) * fy))))


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


def reference_corners(params, trace):
    """Every ReLU corner of the optimal set at one point's trace, as one
    stacked ``DualBranch``: the tests' "max over every corner" route to the
    support function, which the package reads off one sweep.  Row ``k``
    puts free coordinate ``j`` (top layer first, ascending index within a
    layer, as ``dual._box_recursion`` reads its draws) at its bound when bit
    ``j`` of ``k`` is set and at 0 otherwise, so row 0 is the canonical
    corner; every row carries the canonical quadratic and conic multipliers
    (``+0.0`` at a cone tip).  ``2**n_free`` rows: meant for 16 free
    coordinates and below."""
    base = canonical(params, trace)
    report = degeneracy_report(trace)
    n_free = len(report.relu_zero_coords)
    bits = (np.arange(2 ** n_free)[:, None] >> np.arange(n_free)) & 1
    relu = dual._box_recursion(params, report.upper, report.free, bits)
    n = len(bits)
    return DualBranch(
        relu,
        tuple(np.broadcast_to(p, (n, p.shape[0])) for p in base.quad),
        tuple(np.broadcast_to(r, (n, r.shape[0])) for r in base.cone),
    )


def record_traces(monkeypatch):
    """Patch ``forward`` wherever the package reaches it to record the
    points each call traces, as one ``(rows, d)`` array per call, and to
    fail any call that a solver's gradient ``grad_fn(trace, rows)`` or
    Newton direction ``direction_fn(G, trace, rows)`` makes.

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

    def recording_descent(params, Y, config, method, grad_fn, direction_fn, floor):
        first = len(traced)
        direction_fn = direction_fn and guarded(direction_fn)
        reports = descent(params, Y, config, method, guarded(grad_fn), direction_fn, floor)
        runs.append((reports, traced[first:]))
        return reports

    for module in (curvature, experiments, geometry, inference, model):
        monkeypatch.setattr(module, "forward", recording_forward)
    monkeypatch.setattr(inference, "_descent", recording_descent)
    return traced, runs


def near_kink_unit(delta=model.DEFAULT_TAU):
    """One ReLU unit planted by the bias trick at ``a = delta`` above its kink at the
    query ``0``: ``f(x) = max(x + delta, 0) + x``, whose canonical branch zeroes the unit
    (gap ``delta``).  At ``beta = 2 (1 - armijo) + delta`` the first steepest-descent
    step, ``eta = 1``, passes the Armijo test by ``delta / 2``, while the canonical
    minorant without its gap bound rules it out by ``delta / 2``."""
    params = SocIcnnParams(W=(np.ones((1, 1)),), U=(np.zeros((1, 0)),), b=(np.array([delta]),),
                           c=np.ones(1), v=np.ones(1), b0=0.0)
    config = inference.InferenceConfig()
    return params, np.zeros(1), replace(config, beta=2.0 * (1.0 - config.armijo) + delta)


def record_line_searches(monkeypatch):
    """Patch ``inference._trial_block`` and ``inference._armijo_floor`` to record
    every trial block as ``(Y, x, p, X)``, the queries, starts and directions of its
    rows and the points it traces, and every certified ladder start as ``(config,
    gap, etas, f, slope, pp, k)``, ``k`` being the number of steps it skipped.
    Returns the two lists."""
    blocks, floors = [], []
    trial_block, floor = inference._trial_block, inference._armijo_floor

    def recording_block(params, Y, beta, x, p, etas):
        out = trial_block(params, Y, beta, x, p, etas)
        blocks.append((Y, x, p, out[0]))
        return out

    def recording_floor(config, gap, etas, f, slope, pp):
        k = floor(config, gap, etas, f, slope, pp)
        floors.append((config, gap, etas, f, slope, pp, k))
        return k

    monkeypatch.setattr(inference, "_trial_block", recording_block)
    monkeypatch.setattr(inference, "_armijo_floor", recording_floor)
    return blocks, floors


def skipped_passes(params, blocks, floors):
    """Trace every step the recorded floors skipped and return those that pass
    the Armijo test, as ``(f, eta, value)``: an empty list when the floor is
    sound.  A search's ray is the trial-block row whose start has the search's
    objective ``f``, traced again as the solver traced it."""
    passing = []
    if not floors:
        return passing
    beta = floors[0][0].beta
    starts = {x.tobytes(): (x, p, y) for Y, X0, P, _ in blocks for x, p, y in zip(X0, P, Y)}
    X0, P, Y = map(np.array, zip(*starts.values()))
    rays = dict(zip(inference._values(params, Y, beta, X0)[0], zip(X0, P, Y)))
    for config, _, etas, f, slope, pp, k in floors:
        if k:
            x, p, y = rays[f]
            assert pp == np.vecdot(p, p)
            steps = np.array(etas[:k])
            values, _ = inference._values(params, y, beta, x + steps[:, None] * p)
            passing += [(f, eta, v) for eta, v in zip(etas, values)
                        if v <= f + config.armijo * eta * slope]
    return passing


def count_value_rows(monkeypatch):
    """Patch ``inference.forward_values`` and ``inference._descent`` to count,
    per descent run, the gradient points and Newton directions the solver
    asks for, as the ``rows`` of its round calls ``grad_fn(trace, rows)`` and
    ``direction_fn(G, trace, rows)``, and the value rows evaluated inside
    each kind of call.

    Returns one dict per run, in run order, with the counts ``grads``,
    ``grad_rows``, ``directions`` and ``direction_rows``.
    """
    runs, inside = [], []

    def counting_values(params, X):
        if inside:
            runs[-1][inside[-1]] += X.size // X.shape[-1]
        return forward_values(params, X)

    def counted(fn, kind):
        def wrapper(*args):
            runs[-1][kind + "s"] += len(args[-1])
            inside.append(kind + "_rows")
            try:
                return fn(*args)
            finally:
                inside.pop()

        return wrapper

    descent = inference._descent

    def counting_descent(params, Y, config, method, grad_fn, direction_fn, floor):
        runs.append(dict.fromkeys(("grads", "grad_rows", "directions", "direction_rows"), 0))
        direction_fn = direction_fn and counted(direction_fn, "direction")
        return descent(params, Y, config, method, counted(grad_fn, "grad"), direction_fn, floor)

    monkeypatch.setattr(inference, "forward_values", counting_values)
    monkeypatch.setattr(inference, "_descent", counting_descent)
    return runs


def reference_support_maxima(dirs, readouts, chunk=128):
    """``max_i d_j . r_i`` for each row ``d_j`` of ``dirs``, branch-major: blocks of
    ``chunk`` rows of ``readouts`` against every direction, as exp3 first scanned them."""
    col_max = np.full(len(dirs), -np.inf)
    for start in range(0, len(readouts), chunk):
        block = readouts[start:start + chunk] @ dirs.T
        np.maximum(col_max, np.max(block, axis=0), out=col_max)
    return col_max


def exp3_support_inputs(seed, **overrides):
    """The directions and sampled readouts exactly as ``run_exp3`` builds them at
    ``Exp3Config(seed=seed, **overrides)``."""
    cfg = Exp3Config(seed=seed, **overrides)
    params, x0 = build_degenerate_2d(cfg.degeneracy)
    dirs, _ = model._gaussian_nonzero(np.random.default_rng([cfg.seed, 1]), 2, cfg.directions)
    dirs /= np.linalg.norm(dirs, axis=1)[:, None]
    branches = dual.sample_optimal_branches(
        params, forward(params, x0), cfg.tol, n=cfg.branches, seed=cfg.seed + 3
    )
    return dirs, dual.readout(params, branches)
