"""Multiplier branches of the support representation and their samplers.

The model value admits an exact representation as a maximum of affine
minorants indexed by a multiplier triple: per-layer ReLU multipliers living
in a box recursion, quadratic multipliers (unconstrained, with a concave
penalty), and conic multipliers confined to balls of radius ``lam_g``.  At a
fixed input the optimal triples form a product set: an interval box over the
ReLU coordinates whose preactivation sits at zero, times a ball for every
conic module whose residual sits at the cone tip, times singletons elsewhere.
Everything in this module manipulates that set: evaluating the minorant,
reading out its input slope, selecting the minimum-norm element, and
enumerating or sampling the rest.
"""

from __future__ import annotations

import itertools
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .errors import ConstructionError, InfeasibleBranchError, TooManyDegeneraciesError
from .model import DEFAULT_TAU, ForwardTrace, SocIcnnParams, _gaussian_nonzero, degeneracy_report

# Hard cap on interval coordinates for exact corner enumeration: 2**16 ReLU
# corner assignments is the most the exhaustive routines will materialize.
MAX_FREE_COORDS = 16


def _matvec(M, X):
    """``M @ x`` for ``X`` itself when 1-D, else for every row of ``X``.

    A stack runs one BLAS matrix-vector product per row (not one
    matrix-matrix product), so every row is bitwise what the single-vector
    call gives.
    """
    if X.ndim == 1:
        return M @ X
    return (M @ X[:, :, None])[:, :, 0]


def _norm(relu, quad, cone):
    """Euclidean norm of the stacked multiplier vector, or of each row of a
    stack, summed group by group in a fixed order."""
    total = 0.0
    for group in (relu, quad, cone):
        for vec in group:
            total = total + (vec[..., None, :] @ vec[..., :, None])[..., 0, 0]
    return np.sqrt(total)


@dataclass(frozen=True, eq=False)
class DualBranch:
    """One multiplier triple.

    ``relu`` holds one nonnegative vector per layer, ``quad`` one vector per
    quadratic module, ``cone`` one vector per conic module.
    """

    relu: tuple
    quad: tuple
    cone: tuple

    def norm(self) -> float:
        """Euclidean norm of the stacked multiplier vector."""
        return float(_norm(self.relu, self.quad, self.cone))


@dataclass(frozen=True, eq=False)
class BranchStack(Sequence):
    """``n`` multiplier triples held as one ``(n, width)`` array per layer
    and module, in the field layout of ``DualBranch``.

    As a sequence it holds ``DualBranch`` row views: ``stack[k]`` shares
    memory with the stacks, a slice is a list of row views, and ``+`` with
    another sequence of branches gives a list.
    """

    relu: tuple
    quad: tuple
    cone: tuple

    @classmethod
    def of(cls, params: SocIcnnParams, branches) -> BranchStack:
        """Stack a sequence of branches; a ``BranchStack`` comes back as is."""
        if isinstance(branches, cls):
            return branches
        k = len(branches)

        def stack(field, j, width):
            return np.reshape([getattr(br, field)[j] for br in branches], (k, width))

        return cls(
            relu=tuple(stack("relu", l, w) for l, w in enumerate(params.widths)),
            quad=tuple(stack("quad", h, B.shape[0]) for h, B in enumerate(params.B)),
            cone=tuple(stack("cone", g, A.shape[0]) for g, A in enumerate(params.A)),
        )

    def __len__(self) -> int:
        return self.relu[0].shape[0]

    def __getitem__(self, k):
        if isinstance(k, slice):
            return [self[i] for i in range(*k.indices(len(self)))]
        return DualBranch(
            relu=tuple(a[k] for a in self.relu),
            quad=tuple(a[k] for a in self.quad),
            cone=tuple(a[k] for a in self.cone),
        )

    def __add__(self, other) -> list:
        return list(self) + list(other)

    def norms(self) -> np.ndarray:
        """Per-row ``DualBranch.norm``, bitwise, as one ``(n,)`` array."""
        return _norm(self.relu, self.quad, self.cone)


@dataclass(frozen=True, eq=False)
class ReluBranchBox:
    """Per-coordinate classification of the optimal ReLU multiplier set.

    ``upper`` and ``free`` hold one boolean mask per layer: coordinates whose
    preactivation lies above ``tol`` (multiplier pinned to its bound) and
    within ``tol`` of the kink (multiplier free on its interval); the rest
    are pinned to zero.  ``free_coords`` lists the interval coordinates as
    ``(layer, index)`` pairs.
    """

    upper: tuple
    free: tuple
    free_coords: tuple


def branch_box(trace: ForwardTrace, tol: float = DEFAULT_TAU) -> ReluBranchBox:
    """Classify every ReLU coordinate of the optimal set at this trace."""
    free_coords = degeneracy_report(trace, tol).relu_zero_coords
    return ReluBranchBox(
        upper=tuple(a > tol for a in trace.a),
        free=tuple(np.abs(a) <= tol for a in trace.a),
        free_coords=free_coords,
    )


def upper_bounds(params: SocIcnnParams, relu: tuple) -> list:
    """Box upper bounds per layer implied by the multipliers one layer up.

    The last layer is bounded by ``c``; layer ``l`` is bounded by
    ``U[l+1].T @ relu[l+1]``.  Nonnegativity of ``U`` and ``c`` keeps every
    bound nonnegative.
    """
    L = params.n_layers
    ub = [None] * L
    ub[L - 1] = params.c
    for l in range(L - 2, -1, -1):
        ub[l] = params.U[l + 1].T @ relu[l + 1]
    return ub


def _box_recursion(params: SocIcnnParams, upper, free=None, draws=None) -> tuple:
    """Backward recursion through the ReLU box, top layer first.

    Coordinates in ``upper[l]`` take their bound, the rest zero.  The last
    layer is bounded by ``c`` and layer ``l - 1`` by ``U[l].T`` times the
    multipliers just chosen, so every result is feasible.  With ``draws``, an
    ``(n, n_free)`` array of numbers in ``[0, 1]``, the result is a stack of
    ``n`` branches (one ``(n, width)`` array per layer) in which the
    coordinates in ``free[l]`` take their bound times the next columns of
    ``draws``: top layer first, ascending index within a layer.  Each row is
    bitwise what a one-row ``draws`` gives.
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
            nu[:, cols] = bound[:, cols] * draws[:, col:col + cols.size]
            col += cols.size
        relu[l] = nu
        if l > 0:
            bound = _matvec(params.U[l].T, nu)
    return tuple(relu)


def masked_relu_multipliers(params: SocIcnnParams, masks) -> tuple:
    """Backward recursion pinning each coordinate to its bound or to zero.

    ``masks[l]`` is boolean per coordinate; True takes the upper bound,
    False takes zero.  This is the closed form of the optimal multipliers
    for a frozen activation pattern.
    """
    return _box_recursion(params, masks)


def _smooth_multipliers(params: SocIcnnParams, trace: ForwardTrace, tol: float):
    """Quadratic multipliers ``alpha_h * q_h`` and conic multipliers of length
    ``lam_g`` along the residual, None for each module at its cone tip."""
    quad = tuple(al * qh for al, qh in zip(params.alpha, trace.q))
    cone = tuple(
        (lg / un) * ug if un > tol else None
        for lg, ug, un in zip(params.lam, trace.u, trace.u_norms)
    )
    return quad, cone


def _add_smooth_slope(g, params: SocIcnnParams, trace: ForwardTrace, tol: float) -> list:
    """Add the quadratic and off-tip conic slopes to ``g`` in place and return
    ``(lam_g, A_g)`` for every module at its cone tip."""
    for al, B, qh in zip(params.alpha, params.B, trace.q):
        g += al * (B.T @ qh)
    tips = []
    for lg, A, ug, un in zip(params.lam, params.A, trace.u, trace.u_norms):
        if un > tol:
            g += (lg / un) * (A.T @ ug)
        else:
            tips.append((lg, A))
    return tips


def canonical(params: SocIcnnParams, trace: ForwardTrace, tol: float = DEFAULT_TAU) -> DualBranch:
    """Minimum-norm optimal branch at this trace.

    ReLU multipliers take their bound strictly above the kink and zero
    elsewhere (interval coordinates included); quadratic multipliers are
    ``alpha_h * q_h``; conic multipliers point along the residual with
    length ``lam_g``, or vanish at the cone tip.
    """
    masks = tuple(a > tol for a in trace.a)
    relu = masked_relu_multipliers(params, masks)
    quad, cone = _smooth_multipliers(params, trace, tol)
    cone = tuple(np.zeros_like(ug) if r is None else r for r, ug in zip(cone, trace.u))
    return DualBranch(relu=relu, quad=quad, cone=cone)


def feasibility_violation(params: SocIcnnParams, branch: DualBranch) -> float:
    """Largest constraint violation of the branch; nonpositive means feasible.

    Covers the box constraints on every ReLU layer and the ball constraints
    on every conic module.  Quadratic multipliers are unconstrained.
    """
    worst = -np.inf
    ub = upper_bounds(params, branch.relu)
    for nu, bound in zip(branch.relu, ub):
        if nu.size:
            worst = max(worst, float(np.max(-nu)), float(np.max(nu - bound)))
    for lg, r in zip(params.lam, branch.cone):
        worst = max(worst, float(np.linalg.norm(r)) - lg)
    if worst == -np.inf:
        worst = 0.0
    return worst


def _minorant_values(params: SocIcnnParams, x, stack: BranchStack) -> np.ndarray:
    """Values at ``x`` of the affine minorants of a stack of branches, with
    one product per layer and module."""
    x = np.asarray(x, dtype=np.float64)
    total = np.full(len(stack), float(params.v @ x) + params.b0)
    for NU, W, b in zip(stack.relu, params.W, params.b):
        total += NU @ (W @ x + b)
    for P, al, B, e in zip(stack.quad, params.alpha, params.B, params.e):
        total += P @ (B @ x + e) - np.einsum("ij,ij->i", P, P) / (2.0 * al)
    for R, A, d in zip(stack.cone, params.A, params.d):
        total += R @ (A @ x + d)
    return total


def dual_value(
    params: SocIcnnParams,
    x,
    branch: DualBranch,
    check_feasible: bool = True,
    feas_tol: float = 1e-9,
) -> float:
    """Value of the affine minorant indexed by ``branch`` at the point ``x``.

    For any feasible branch this lower-bounds the model value everywhere,
    with equality exactly on the optimal set of ``x``.
    """
    if check_feasible:
        viol = feasibility_violation(params, branch)
        if viol > feas_tol:
            raise InfeasibleBranchError(f"branch violates constraints by {viol:.3e}")
    return float(_minorant_values(params, x, BranchStack.of(params, [branch]))[0])


def _readout(params: SocIcnnParams, relu, quad, cone) -> np.ndarray:
    g = params.v
    for M, vec in zip(params.W + params.B + params.A, relu + quad + cone):
        g = g + _matvec(M.T, vec)
    return g


def readout(params: SocIcnnParams, branch: DualBranch) -> np.ndarray:
    """Input slope of the branch's affine minorant.

    ``v + sum_l W_l.T nu_l + sum_h B_h.T p_h + sum_g A_g.T r_g``; on the
    optimal set this enumerates exactly the subgradients of the model.
    """
    return _readout(params, branch.relu, branch.quad, branch.cone)


def readout_stack(params: SocIcnnParams, branches) -> np.ndarray:
    """Readouts of a ``BranchStack`` (or a sequence of branches) as the rows
    of an ``(n, d)`` array, ``v + sum_l NU_l @ W_l + sum_h P_h @ B_h +
    sum_g R_g @ A_g``; row ``k`` is bitwise ``readout`` of branch ``k``."""
    stack = BranchStack.of(params, branches)
    return _readout(params, stack.relu, stack.quad, stack.cone)


def _check_optimal(params, trace, branches):
    """Return ``branches`` (a ``BranchStack`` or a list) once every one
    attains the model value at the trace point; raise ``ConstructionError``
    naming the first that does not."""
    values = _minorant_values(params, trace.x, BranchStack.of(params, branches))
    bad = np.flatnonzero(np.abs(values - trace.value) > 1e-10 * (1.0 + abs(trace.value)))
    if bad.size:
        k = bad[0]
        raise ConstructionError(
            f"constructed branch {k} is not optimal: minorant {values[k]!r} "
            f"vs value {trace.value!r}"
        )
    return branches


def _ball_point(rng, radius: float, dim: int) -> np.ndarray:
    if radius == 0.0 or dim == 0:
        return np.zeros(dim)
    direction, nrm = _gaussian_nonzero(rng, dim)
    return (radius * rng.uniform() ** (1.0 / dim) / nrm) * direction


def sample_optimal_branches(
    params: SocIcnnParams,
    trace: ForwardTrace,
    tol: float = DEFAULT_TAU,
    n: int = 1,
    seed: int = 0,
) -> BranchStack:
    """Draw ``n`` optimal branches at this trace, canonical included as a case.

    Free interval coordinates are resampled uniformly on ``[0, bound]``
    top-down (the bound of a lower layer is recomputed from the draws above
    it), and each cone-tip module draws uniformly from its ball.  Sample
    ``k`` uses the child generator ``default_rng([seed, k])`` so any prefix
    of the result is reproducible.  The stream is that of drawing each
    branch on its own: ``rng.random(n_free)`` for the free coordinates (top
    layer first, ``bound * u`` equals ``rng.uniform(0, bound)`` bitwise),
    then the ball draws of each cone tip.  The draws of all branches then go
    through one stacked box recursion.  The result is a ``BranchStack``
    whose items are ``DualBranch`` row views; every branch is verified to
    attain the model value at the trace point.
    """
    box = branch_box(trace, tol)
    quad, smooth_cone = _smooth_multipliers(params, trace, tol)
    draws = np.empty((n, len(box.free_coords)))
    cone = tuple(
        np.empty((n, A.shape[0])) if r is None else np.broadcast_to(r, (n, r.shape[0]))
        for r, A in zip(smooth_cone, params.A)
    )
    tips = [(rows, lg) for rows, r, lg in zip(cone, smooth_cone, params.lam) if r is None]
    for k in range(n):
        rng = np.random.default_rng([seed, k])
        draws[k] = rng.random(draws.shape[1])
        for rows, lg in tips:
            rows[k] = _ball_point(rng, lg, rows.shape[1])
    stack = BranchStack(
        relu=_box_recursion(params, box.upper, box.free, draws),
        quad=tuple(np.broadcast_to(p, (n, p.shape[0])) for p in quad),
        cone=cone,
    )
    return _check_optimal(params, trace, stack)


def _sphere_directions(dim: int, count: int, rng) -> list:
    """Spread of unit vectors: exact endpoints in 1-d, an equispaced fan with
    a random phase in 2-d, normalized Gaussians above."""
    if dim == 1:
        return [np.array([1.0]), np.array([-1.0])]
    if dim == 2:
        phase = rng.uniform(0.0, 2.0 * np.pi)
        angles = phase + 2.0 * np.pi * np.arange(count) / count
        return [np.array([np.cos(t), np.sin(t)]) for t in angles]
    dirs = []
    for _ in range(count):
        vec, nrm = _gaussian_nonzero(rng, dim)
        dirs.append(vec / nrm)
    return dirs


def relu_corner_assignments(params: SocIcnnParams, box: ReluBranchBox):
    """Yield the ReLU multiplier stacks at every corner of the interval box.

    Each free coordinate independently takes zero or its bound; bounds of
    lower layers are recomputed under each assignment, so corners remain
    feasible.  Raises when more than ``MAX_FREE_COORDS`` coordinates are
    free.
    """
    free = box.free_coords
    if len(free) > MAX_FREE_COORDS:
        raise TooManyDegeneraciesError(
            f"{len(free)} interval coordinates; corner enumeration caps at {MAX_FREE_COORDS}"
        )
    for bits in itertools.product((False, True), repeat=len(free)):
        masks = [upper.copy() for upper in box.upper]
        for (l, i), bit in zip(free, bits):
            masks[l][i] = bit
        yield _box_recursion(params, masks)


def extreme_branches(
    params: SocIcnnParams,
    trace: ForwardTrace,
    tol: float = DEFAULT_TAU,
    sphere_samples: int = 64,
    seed: int = 0,
) -> list:
    """Extreme points of the optimal set, up to sphere discretization.

    ReLU corners are enumerated exactly.  Each cone-tip module contributes
    multipliers of full length ``lam_g`` along a direction spread
    (``sphere_samples`` of them, exact in one and two dimensions up to the
    fan density).  With no degeneracy the result is the single canonical
    branch.
    """
    box = branch_box(trace, tol)
    tip_modules = [g for g, un in enumerate(trace.u_norms) if un <= tol]
    if not box.free_coords and not tip_modules:
        return [canonical(params, trace, tol)]
    rng = np.random.default_rng(seed)
    quad, smooth_cone = _smooth_multipliers(params, trace, tol)
    tip_choices = []
    for g in tip_modules:
        dirs = _sphere_directions(params.A[g].shape[0], sphere_samples, rng)
        tip_choices.append([params.lam[g] * u for u in dirs])
    corners = list(relu_corner_assignments(params, box))
    out = []
    for relu in corners:
        for combo in itertools.product(*tip_choices):
            pick = dict(zip(tip_modules, combo))
            cone = tuple(pick.get(g, r) for g, r in enumerate(smooth_cone))
            out.append(DualBranch(relu=relu, quad=quad, cone=cone))
    return _check_optimal(params, trace, out)
