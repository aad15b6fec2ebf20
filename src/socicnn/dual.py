"""Multiplier branches of the support representation and their samplers.

The model value admits an exact representation as a maximum of affine
minorants indexed by a multiplier triple: per-layer ReLU multipliers living
in a box recursion, quadratic multipliers (unconstrained, with a concave
penalty), and conic multipliers confined to balls of radius ``lam_g``.  At a
fixed input the optimal triples form a product set: an interval box over the
ReLU coordinates whose preactivation sits at zero, times a ball for every
conic module whose residual sits at the cone tip, times singletons elsewhere.
Everything in this module manipulates that set: evaluating the minorant,
reading out its input slope, selecting the minimum-norm element, enumerating
the corners of the box and sampling the whole set.  No ball is enumerated:
``geometry`` adds its support term ``lam_g * ||A_g d||`` in closed form.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConstructionError, InfeasibleBranchError, TooManyDegeneraciesError
from .errors import ValidationError
from .model import DEFAULT_TAU, DegeneracyReport, ForwardTrace, SocIcnnParams, degeneracy_report
from .model import _check_kind, _check_number, _check_trace, _kinks, _nonzero_rows, _per_row
from .model import _points

# Hard cap on interval coordinates for exact corner enumeration: 2**16 ReLU
# corner assignments is the most the exhaustive routines will materialize.
MAX_FREE_COORDS = 16
# Doubles per block of corner multipliers and of ``geometry._support_maxima``'s direction-
# readout products (2-vCPU Xeon VM).  Products: at exp3's defaults, 16 directions x 5000
# branches were the fastest of 2-128 (3.0 ms against 12.4 ms unblocked).  Corners: at 16
# free coordinates and widths (64, 64, 64, 64), two sweeps read 0.17-0.25 s and 0.35-0.37 s
# for blocks of 256-4,096 corners (these are 312) and 0.25 s and 0.50 s for 64-corner
# ones; 16,384-corner blocks raised the traced peak from 21 to 87 MB.
SUPPORT_BLOCK = 80_000
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
        if nu.shape[-1]:
            worst = np.maximum(worst, np.max(-nu, axis=-1))
            worst = np.maximum(worst, np.max(nu - bound, axis=-1))
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


def dual_value(
    params: SocIcnnParams, x, branch: DualBranch, check_feasible: bool = True
) -> float | np.ndarray:
    """Value of the affine minorant indexed by ``branch`` at the point ``x``,
    or of each row's as an ``(n,)`` array for a stack.

    For any feasible branch this lower-bounds the model value everywhere,
    with equality exactly on the optimal set of ``x``.  The feasibility
    check forgives a violation up to ``_FEAS_TOL`` and names the first
    infeasible row of a stack.
    """
    x = _points(x, params.input_dim, "x", stack=False)
    _check_kind(branch, DualBranch, "branch")
    if check_feasible:
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
    if type(n) is not int or n < 0:
        raise ValidationError("invalid-descriptor", f"branch count must be a nonnegative int: {n}")
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
    cone = [np.broadcast_to(r, (n, r.shape[0])) for r in canon.cone]
    start = 0
    for g, dim, u in zip(tips, dims, radii.T):
        V = directions[:, start:start + dim]
        start += dim
        if dim == 0:
            cone[g] = V
            continue
        nrm = _nonzero_rows(dir_rng, V)
        cone[g] = (params.lam[g] * u ** (1.0 / dim) / nrm)[:, None] * V
    stack = DualBranch(
        relu=_box_recursion(params, report.upper, report.free, draws),
        quad=tuple(np.broadcast_to(p, (n, p.shape[0])) for p in canon.quad),
        cone=tuple(cone),
    )
    return _check_optimal(params, trace, stack, tol)


def relu_corner_assignments(params: SocIcnnParams, report: DegeneracyReport):
    """Every corner of the interval box, as an iterator over stacked blocks of at
    most ``SUPPORT_BLOCK`` doubles (one corner at the least): ``_box_recursion``
    under 0/1 draws, one ``(n, width)`` array per layer, so every corner is
    feasible.  Row ``k`` of the sequence is corner ``k``, whose draw column
    ``j`` is bit ``j`` of ``k``: corner 0 is ``canonical``'s.  Raises, on the
    call, when more than ``MAX_FREE_COORDS`` coordinates are free, and
    ``ValidationError`` for a report whose masks do not have the model's widths.
    """
    _check_kind(params, SocIcnnParams, "params")
    _check_kind(report, DegeneracyReport, "report")
    widths = params.widths
    if tuple(map(len, report.upper)) != widths or tuple(map(len, report.free)) != widths:
        raise ValidationError("dimension-mismatch", f"report masks are not of the widths {widths}")
    n_free = len(report.relu_zero_coords)
    if n_free > MAX_FREE_COORDS:
        raise TooManyDegeneraciesError(
            f"{n_free} interval coordinates; corner enumeration caps at {MAX_FREE_COORDS}"
        )
    step, bits = max(1, SUPPORT_BLOCK // max(1, sum(widths))), np.arange(n_free)
    blocks = (np.arange(k, min(k + step, 2 ** n_free)) for k in range(0, 2 ** n_free, step))
    return (_box_recursion(params, report.upper, report.free, (corners[:, None] >> bits) & 1)
            for corners in blocks)
