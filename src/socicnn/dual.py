"""Multiplier branches of the support representation and their samplers.

The model value admits an exact representation as a maximum of affine
minorants indexed by a multiplier triple: per-layer ReLU multipliers living
in a box recursion, quadratic multipliers (unconstrained, with a concave
penalty), and conic multipliers confined to balls of radius ``lam_g``.  At a
fixed input the optimal triples form a product set: an interval box over the
ReLU coordinates whose preactivation sits at zero, times a ball for every
conic module whose residual sits at the cone tip, times singletons elsewhere.
Everything in this module manipulates that set: evaluating the minorant,
reading out its input slope, selecting the minimum-norm element, sampling
the whole set, and picking the element of largest slope along a direction
from the sign pattern of the one-sided chain rule's sweep.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConstructionError, InfeasibleBranchError, ValidationError
from .model import DEFAULT_TAU, ForwardTrace, SocIcnnParams, degeneracy_report
from .model import _check_kind, _check_number, _check_trace, _kinks, _nonzero_rows, _per_row
from .model import _points

_FEAS_TOL = 1e-9  # largest constraint violation ``dual_value`` accepts


@dataclass(frozen=True, eq=False)
class DualBranch:
    """One multiplier triple, or a stack of ``n`` of them.

    ``relu`` holds one nonnegative vector per layer, ``quad`` one vector per
    quadratic module, ``cone`` one vector per conic module.  A stack holds
    an ``(n, width)`` array in each place instead, row ``k`` being branch
    ``k``.  Every function here that takes a branch takes a stack as well
    and gives one result per row, bitwise what that row alone gives.
    """

    relu: tuple
    quad: tuple
    cone: tuple

    def norm(self) -> float | np.ndarray:
        """Euclidean norm of the stacked multiplier vector, summed group by
        group in a fixed order; an ``(n,)`` array for a stack."""
        total = 0.0
        for vec in self.relu + self.quad + self.cone:
            total = total + np.vecdot(vec, vec)
        return _per_row(np.sqrt(total))


def _box_recursion(params: SocIcnnParams, upper, free=None, draws=None) -> tuple:
    """Backward recursion through the ReLU box, top layer first.

    Coordinates in ``upper[l]`` take their bound, the rest zero.  The last
    layer is bounded by ``c`` and layer ``l - 1`` by ``U[l].T`` times the
    multipliers just chosen, so every result is feasible.  With ``draws``, an
    ``(n, n_free)`` array of numbers in ``[0, 1]``, the result is a stack of
    ``n`` branches (one ``(n, width)`` array per layer) in which the
    coordinates in ``free[l]`` take their bound times the next columns of
    ``draws``: top layer first, ascending index within a layer.  Each row is
    bitwise what a one-row ``draws`` gives.  0/1 draws give box corners.
    """
    L = params.n_layers
    relu = [None] * L
    bound = params.c
    if draws is not None:
        bound = np.broadcast_to(bound, (draws.shape[0], bound.shape[0]))
    col = 0
    for l in range(L - 1, -1, -1):
        nu = np.where(upper[l], bound, 0.0)
        if draws is not None:
            cols = np.flatnonzero(free[l])
            if cols.size:  # an empty scatter costs about what a full one does
                nu[:, cols] = bound[:, cols] * draws[:, col:col + cols.size]
                col += cols.size
        relu[l] = nu
        if l > 0:
            bound = np.matvec(params.U[l].T, nu)
    return tuple(relu)


def _cone_scales(params: SocIcnnParams, trace: ForwardTrace, tips) -> list:
    """``lam_g / ||u_g||`` per conic module, ``0.0`` at its cone tip (``tips``,
    from ``model._kinks``): a float at a point, an ``(n,)`` array at a stack."""
    return [(1 - t) * lg / (un + t) for lg, un, t in zip(params.lam, trace.u_norms, tips)]


def canonical(params: SocIcnnParams, trace: ForwardTrace, tol: float = DEFAULT_TAU) -> DualBranch:
    """Minimum-norm optimal branch at this trace, or a stack of them at a
    stacked trace (row ``k`` bitwise the branch at row ``k``'s own trace).

    ReLU multipliers take their bound strictly above the kink and zero
    elsewhere (interval coordinates included); quadratic multipliers are
    ``alpha_h * q_h``; conic multipliers point along the residual with
    length ``lam_g``, or are exactly ``+0.0`` at the cone tip.  Every optimal
    branch agrees with it off the interval coordinates and the cone tips.
    """
    _check_trace(params, trace)
    above, _, tips = _kinks(trace, tol)
    quad = tuple(al * qh for al, qh in zip(params.alpha, trace.q))
    # ``ug.T`` lines a stack's scales up with its rows and leaves a point's
    # vector as it is; adding +0.0 turns every -0.0, the tip rows' included,
    # into +0.0 and leaves every other entry as it is.
    cone = tuple(
        (s * ug.T).T + 0.0 for s, ug in zip(_cone_scales(params, trace, tips), trace.u)
    )
    return DualBranch(_box_recursion(params, [*above]), quad, cone)


def feasibility_violation(params: SocIcnnParams, branch: DualBranch) -> float | np.ndarray:
    """Largest constraint violation of the branch; nonpositive means feasible.

    Covers the box constraints on every ReLU layer and the ball constraints
    on every conic module.  Quadratic multipliers are unconstrained.  Layer
    ``l`` is bounded by ``U[l+1].T @ relu[l+1]`` (row by row), the top by
    ``c``.  A stack gives each row's violation as an ``(n,)`` array.
    """
    _check_kind(branch, DualBranch, "branch")
    worst = np.full(np.shape(branch.relu[0])[:-1], -np.inf)
    top = params.n_layers - 1
    for l, nu in enumerate(branch.relu):
        bound = params.c if l == top else np.matvec(params.U[l + 1].T, branch.relu[l + 1])
        if nu.shape[-1]:  # a C-ordered transpose: one pass per unit, not a loop per row
            worst = np.maximum(worst, np.max(np.ascontiguousarray(-nu.T), axis=0))
            worst = np.maximum(worst, np.max(np.ascontiguousarray((nu - bound).T), axis=0))
    for lg, r in zip(params.lam, branch.cone):
        worst = np.maximum(worst, np.sqrt(np.vecdot(r, r)) - lg)
    return _per_row(np.where(worst == -np.inf, 0.0, worst))


def _minorant_values(params: SocIcnnParams, x, branch: DualBranch):
    """Value at ``x`` of the branch's affine minorant, or of every row's."""
    total = float(params.v @ x) + params.b0
    for nu, W, b in zip(branch.relu, params.W, params.b):
        total = total + np.vecdot(nu, W @ x + b)
    for p, al, B, e in zip(branch.quad, params.alpha, params.B, params.e):
        total = total + (np.vecdot(p, B @ x + e) - np.vecdot(p, p) / (2.0 * al))
    for r, A, d in zip(branch.cone, params.A, params.d):
        total = total + np.vecdot(r, A @ x + d)
    return total


def dual_value(params: SocIcnnParams, x, branch: DualBranch) -> float | np.ndarray:
    """Value of the affine minorant indexed by ``branch`` at the point ``x``,
    or of each row's as an ``(n,)`` array for a stack.

    For any feasible branch this lower-bounds the model value everywhere,
    with equality exactly on the optimal set of ``x``.  The feasibility
    check forgives a violation up to ``_FEAS_TOL`` and names the first
    infeasible row of a stack.
    """
    x = _points(x, params.input_dim, "x", stack=False)
    viol = np.reshape(feasibility_violation(params, branch), -1)
    bad = np.flatnonzero(viol > _FEAS_TOL)
    if bad.size:
        k = bad[0]
        raise InfeasibleBranchError(f"branch {k} violates constraints by {viol[k]:.3e}")
    return _per_row(_minorant_values(params, x, branch))


def readout(params: SocIcnnParams, branch: DualBranch) -> np.ndarray:
    """Input slope of the branch's affine minorant.

    ``v + sum_l W_l.T nu_l + sum_h B_h.T p_h + sum_g A_g.T r_g``; on the
    optimal set this enumerates exactly the subgradients of the model.  A
    stack gives an ``(n, d)`` array whose row ``k`` is bitwise the readout
    of branch ``k``.
    """
    _check_kind(branch, DualBranch, "branch")
    g = params.v
    for M, vec in zip(params.W + params.B + params.A, branch.relu + branch.quad + branch.cone):
        g = g + np.matvec(M.T, vec)
    return g


def _check_optimal(params, trace, branch: DualBranch, tol: float = DEFAULT_TAU) -> DualBranch:
    """Return ``branch`` (one or a stack) once every row attains the model
    value at the trace point; raise ``ConstructionError`` naming the first
    row that does not and the tolerance ``tol`` its kinks were classified at."""
    values = np.reshape(_minorant_values(params, trace.x, branch), -1)
    bad = np.flatnonzero(np.abs(values - trace.value) > 1e-10 * (1.0 + abs(trace.value)))
    if bad.size:
        k = bad[0]
        raise ConstructionError(
            f"constructed branch {k} is not optimal: minorant {values[k]} vs value "
            f"{trace.value} with kinks classified at tolerance {tol:g}"
        )
    return branch


def _optimal_stack(params: SocIcnnParams, report, canon: DualBranch, draws, balls) -> DualBranch:
    """The ``len(draws)`` optimal branches at ``report``'s point: ReLU layers from
    ``_box_recursion`` over ``draws``, the rows ``balls[g]`` at each cone tip ``g``,
    and ``canon``'s quadratic and off-tip conic multipliers on every row."""
    n = len(draws)
    return DualBranch(
        _box_recursion(params, report.upper, report.free, draws),
        tuple(np.broadcast_to(p, (n, p.shape[0])) for p in canon.quad),
        tuple(balls.get(g, np.broadcast_to(r, (n, r.shape[0]))) for g, r in enumerate(canon.cone)),
    )


def sample_optimal_branches(
    params: SocIcnnParams,
    trace: ForwardTrace,
    tol: float = DEFAULT_TAU,
    n: int = 1,
    seed: int = 0,
) -> DualBranch:
    """Draw ``n`` optimal branches around ``canonical`` at this trace.

    Every branch keeps the canonical quadratic and off-tip conic multipliers.
    Free interval coordinates are resampled uniformly on ``[0, bound]``
    top-down (the bound of a lower layer is recomputed from the draws above
    it), and each cone-tip module draws uniformly from its ball.  Each kind
    of draw is one row-major array from its own child generator
    ``default_rng([seed, kind])``, row ``k`` serving branch ``k``:

    - kind 0, ``random((n, n_free))``: the free coordinates, top layer
      first, ascending index within a layer (``bound * u``);
    - kind 1, ``standard_normal((n, sum of tip dims))``: the cone-tip
      directions, split by column tip by tip in module order;
    - kind 2, ``random((n, n_tips))``: the cone-tip radii,
      ``lam_g * u ** (1 / dim)``.

    So any prefix of the result is reproducible, with any number of tips.
    A direction that comes out exactly zero is redrawn from generator 1
    after the whole block, tip by tip and row by row; only then does a
    prefix depend on ``n``.  All draws go through one stacked box recursion.
    The result is a stacked ``DualBranch``; every row is verified to attain
    the model value at the trace point.
    """
    _check_number(n, "branch count", count=True)
    _check_number(seed, "seed", count=True)
    _check_trace(params, trace)
    report = degeneracy_report(trace, tol)
    tips = report.conic_zero_modules
    dims = [params.A[g].shape[0] for g in tips]
    widest = max(*params.widths, len(report.relu_zero_coords), sum(dims), len(tips))
    if n > np.iinfo(np.intp).max // (8 * widest):  # no (n, widest) float array has this size
        raise ValidationError("invalid-descriptor", f"branch count {n} is too large to draw")
    canon = canonical(params, trace, tol)
    free_rng, dir_rng, radius_rng = (np.random.default_rng([seed, kind]) for kind in range(3))
    draws = free_rng.random((n, len(report.relu_zero_coords)))
    directions = dir_rng.standard_normal((n, sum(dims)))
    radii = radius_rng.random((n, len(tips)))
    balls, start = {}, 0
    for g, dim, u in zip(tips, dims, radii.T):
        V = directions[:, start:start + dim]
        start += dim
        if dim:
            V = (params.lam[g] * u ** (1.0 / dim) / _nonzero_rows(dir_rng, V))[:, None] * V
        balls[g] = V
    return _check_optimal(params, trace, _optimal_stack(params, report, canon, draws, balls), tol)


def _one_sided_primal(params: SocIcnnParams, trace, units, tol: float, free=None):
    """Exact one-sided chain rule along each row of ``units``, in forward mode
    over the trace's pattern: ReLU kinks pass the positive part of their
    incoming slope, cone tips contribute the full residual speed, smooth
    parts differentiate as usual.  ``(m,)`` at a point, ``(n, m)`` at a
    stacked trace, each row bitwise its point's.  Off every kink, the sweep
    along ``np.eye(d)`` is the gradient: the primal route of every check.

    Given one point's on-kink masks ``free``, it also returns where their
    pre-clamp slopes ``W_l u + U_l dZ`` are positive, as ``(m, n_free)`` draws
    for ``_box_recursion``.  As ``U, nu >= 0``, these slopes are the weights of
    the backward program that maximizes ``u . readout`` over the ReLU box."""
    above, below, tips = _kinks(trace, tol)
    dZ = np.zeros(np.shape(trace.value) + (0, units.shape[0]))
    signs = []
    for l, (up, down, W, U) in enumerate(zip(above, below, params.W, params.U)):
        # Layout (..., width, m): at exp1's widths an 8-point block's ``U @ dZ`` took
        # 28 us, ``dZ @ U.T`` in the transposed layout 48 us (2-vCPU Xeon, NumPy 2.4.6).
        dZ = U @ dZ
        dZ += W @ units.T
        if free is not None:
            signs.append(dZ[free[l]] > 0.0)
        # Clamp per unit: above the kink the slope passes, below it 0, on it its positive part.
        np.maximum(dZ, np.where(up, -np.inf, 0.0)[..., None], out=dZ)
        np.minimum(dZ, np.where(down, 0.0, np.inf)[..., None], out=dZ)
    total = units @ params.v + params.c @ dZ
    for al, B, qh in zip(params.alpha, params.B, trace.q):
        total += al * np.matvec(units @ B.T, qh)
    for lg, A, ug, un, tip in zip(params.lam, params.A, trace.u, trace.u_norms, tips):
        Ad = units @ A.T
        tip = np.reshape(tip, np.shape(tip) + (1,))
        # A tip row divides by ``un + 1``, not by zero, and takes the norm term.
        off_tip = lg * np.matvec(Ad, ug) / (np.reshape(un, tip.shape) + tip)
        total += np.where(tip, lg * np.sqrt(np.vecdot(Ad, Ad)), off_tip)
    return total if free is None else (total, np.concatenate(signs[::-1]).T)


def _maximizing(params: SocIcnnParams, trace, units, tol: float, canon: DualBranch):
    """``(slopes, stack)``: the one-sided slopes along the rows of ``units`` and
    ``argmax_branch``'s rows around ``canon``, from one sweep of ``trace``."""
    report = degeneracy_report(trace, tol)
    slopes, draws = _one_sided_primal(params, trace, units, tol, report.free)
    balls = {}
    for g in report.conic_zero_modules:
        Au = units @ params.A[g].T
        norm = np.sqrt(np.vecdot(Au, Au))[:, None]
        balls[g] = params.lam[g] * Au / np.where(norm > 0.0, norm, 1.0) + 0.0
    return slopes, _optimal_stack(params, report, canon, draws, balls)


def argmax_branch(
    params: SocIcnnParams, trace: ForwardTrace, units, tol: float = DEFAULT_TAU
) -> DualBranch:
    """A stack of one optimal branch per row ``u`` of ``units`` (``(m, d)``, or
    ``(d,)`` as a stack of one) at one point's trace, whose slope ``u . readout``
    is the largest on the optimal set: the one-sided derivative along ``u``.
    Free ReLU coordinates take their bound where the sweep's pre-clamp slope
    is positive and 0 elsewhere (through ``_box_recursion``, so feasibly), each
    cone tip ``lam_g A_g u / ||A_g u||`` (``+0.0`` where ``A_g u = 0``), the rest
    what ``canonical`` takes.  Rows are scaled by powers of two first, lest a
    norm over- or underflow."""
    _check_kind(params, SocIcnnParams, "params")
    canon = canonical(params, trace, tol)
    units = np.atleast_2d(_points(units, params.input_dim, "units"))
    _, shift = np.frexp(np.max(np.abs(units), axis=1, keepdims=True))
    return _maximizing(params, trace, np.ldexp(units, -shift), tol, canon)[1]
