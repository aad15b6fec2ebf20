"""Parameters, construction, and forward evaluation of SOC-ICNN models.

A model is a scalar convex function of ``x`` built from three blocks:

* a ReLU backbone ``z_l = max(W_l x + U_l z_{l-1} + b_l, 0)`` with ``z_0``
  empty, read out as ``c @ z_L + v @ x + b0``, convex because every ``U_l``
  (for ``l >= 2``) and ``c`` are elementwise nonnegative;
* quadratic modules ``(alpha_h / 2) * ||B_h x + e_h||^2`` with
  ``alpha_h > 0``;
* conic modules ``lam_g * ||A_g x + d_g||`` with ``lam_g >= 0``, the only
  source of genuinely set-valued behavior away from the ReLU kinks.

Layers are indexed 0-based throughout the package.  ``forward``, the one
trace kernel, records the full trace (preactivations, activations, module
residuals) because almost every downstream quantity is a function of it; one
body takes a point ``(d,)`` as the 1-D case of a stack ``(n, d)``, each row
bitwise a one-point call.  ``forward_values`` is the only other kernel: values
alone, for many points, for callers such as the finite-difference oracles.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DegenerateInputError, ModelFormatError, NonFiniteError, ValidationError

DEFAULT_TAU = 1e-9

MODEL_FORMAT_VERSION = 1


def _frozen(a, dtype=np.float64) -> np.ndarray:
    arr = np.array(a, dtype=dtype)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class SocIcnnParams:
    """Immutable parameter bundle.  Arrays are float64 and read-only.

    Fields
    ------
    W, U, b : per-layer input weights, nonnegative skip weights, biases.
        ``U[0]`` has zero columns because the backbone starts from an empty
        activation vector.
    c, v, b0 : readout weights on the last activation, on ``x``, and the
        scalar offset.
    alpha, B, e : quadratic module curvatures, maps, and offsets.
    lam, A, d : conic module weights, maps, and offsets.
    seed : generator seed recorded at construction time, if any.
    """

    W: tuple
    U: tuple
    b: tuple
    c: np.ndarray
    v: np.ndarray
    b0: float
    alpha: tuple = ()
    B: tuple = ()
    e: tuple = ()
    lam: tuple = ()
    A: tuple = ()
    d: tuple = ()
    seed: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "W", tuple(_frozen(m) for m in self.W))
        object.__setattr__(self, "U", tuple(_frozen(m) for m in self.U))
        object.__setattr__(self, "b", tuple(_frozen(m) for m in self.b))
        object.__setattr__(self, "c", _frozen(self.c))
        object.__setattr__(self, "v", _frozen(self.v))
        object.__setattr__(self, "b0", float(self.b0))
        object.__setattr__(self, "alpha", tuple(float(a) for a in self.alpha))
        object.__setattr__(self, "B", tuple(_frozen(m) for m in self.B))
        object.__setattr__(self, "e", tuple(_frozen(m) for m in self.e))
        object.__setattr__(self, "lam", tuple(float(l) for l in self.lam))
        object.__setattr__(self, "A", tuple(_frozen(m) for m in self.A))
        object.__setattr__(self, "d", tuple(_frozen(m) for m in self.d))

    @property
    def n_layers(self) -> int:
        return len(self.W)

    @property
    def input_dim(self) -> int:
        return self.v.shape[0]

    @property
    def widths(self) -> tuple:
        return tuple(w.shape[0] for w in self.W)

    @cached_property
    def quad_hessian(self) -> np.ndarray:
        """``sum_h alpha_h B_h.T B_h``, the Hessian of the quadratic modules
        (read-only), summed once per model in module order."""
        H = np.zeros((self.input_dim, self.input_dim))
        for al, B in zip(self.alpha, self.B):
            H += al * (B.T @ B)
        return _frozen(H)


@dataclass(frozen=True, eq=False)
class ForwardTrace:
    """Everything recorded during one forward pass.

    ``a`` are preactivations, ``z = max(a, 0)`` activations, ``q`` and ``u``
    the quadratic and conic residual vectors, ``u_norms`` their Euclidean
    norms, ``value`` the scalar output.  The trace of a stack of ``n``
    points holds ``(n, width)`` arrays, ``(n,)`` norms and ``(n,)`` values.
    """

    x: np.ndarray
    a: tuple
    z: tuple
    q: tuple
    u: tuple
    u_norms: tuple
    value: float | np.ndarray

    def row(self, k) -> "ForwardTrace":
        """Row ``k`` of a stacked trace, bitwise ``forward(params, x[k])``:
        row views of the arrays, and Python floats for the norms and value.
        An index array ``k`` selects those rows, in its order, as a stacked
        trace."""
        rows = (tuple(arr[k] for arr in group) for group in (self.a, self.z, self.q, self.u))
        if np.ndim(k):
            return ForwardTrace(self.x[k], *rows, tuple(un[k] for un in self.u_norms),
                                self.value[k])
        norms = tuple(float(un[k]) for un in self.u_norms)
        return ForwardTrace(self.x[k], *rows, norms, float(self.value[k]))


@dataclass(frozen=True, eq=False)
class DegeneracyReport:
    """Locations where the trace sits within ``tol`` of a kink.  ``upper``
    and ``free`` mask, per layer, the preactivations above ``tol`` (ReLU
    multiplier at its bound) and within ``tol`` (multiplier free on its
    interval, at the ``relu_zero_coords``); the rest have multiplier zero."""

    relu_zero_coords: tuple
    conic_zero_modules: tuple
    is_nondegenerate: bool
    upper: tuple
    free: tuple


@dataclass(frozen=True)
class ArchSpec:
    """Architecture descriptor for random construction."""

    input_dim: int
    widths: tuple
    quad_dims: tuple = ()
    cone_dims: tuple = ()


@dataclass(frozen=True)
class DegeneracySpec:
    """Which kink the hand-built two-dimensional model should sit on.

    ``relu_layer``/``relu_coord`` pick the preactivation driven exactly to
    zero, ``conic_module`` picks the conic residual driven exactly to the
    cone tip.  Indices are 0-based; the default puts the zero preactivation
    in the last layer.
    """

    relu_layer: int = 1
    relu_coord: int = 0
    conic_module: int = 0


def validate(params: SocIcnnParams) -> None:
    """Raise ``ValidationError`` on the first violated structural rule.

    Checks, in order: array shape consistency across layers and modules,
    finiteness of every array entry, ``b0``, ``alpha`` and ``lam``,
    nonnegativity of skip weights ``U`` (layers beyond the first) and of the
    readout ``c``, strict positivity of every ``alpha``, and nonnegativity
    of every ``lam``.
    """
    L = params.n_layers
    if L < 1:
        raise ValidationError("dimension-mismatch", "backbone needs at least one layer")
    if params.v.ndim != 1:
        raise ValidationError("dimension-mismatch", "v must be a vector")
    d0 = params.input_dim
    if len(params.U) != L or len(params.b) != L:
        raise ValidationError("dimension-mismatch", "W, U, b must have one entry per layer")
    prev = 0
    for l, (W, U, b) in enumerate(zip(params.W, params.U, params.b)):
        if W.ndim != 2 or W.shape[1] != d0:
            raise ValidationError(
                "dimension-mismatch", f"layer {l}: W has shape {W.shape}, expected (*, {d0})"
            )
        width = W.shape[0]
        if U.shape != (width, prev):
            raise ValidationError(
                "dimension-mismatch",
                f"layer {l}: U has shape {U.shape}, expected ({width}, {prev})",
            )
        if b.shape != (width,):
            raise ValidationError(
                "dimension-mismatch", f"layer {l}: b has shape {b.shape}, expected ({width},)"
            )
        prev = width
    if params.c.shape != (prev,):
        raise ValidationError(
            "dimension-mismatch", f"c has shape {params.c.shape}, expected ({prev},)"
        )
    n_quad = len(params.B)
    if len(params.e) != n_quad or len(params.alpha) != n_quad:
        raise ValidationError("dimension-mismatch", "alpha, B, e must have equal length")
    for h, (Bm, em) in enumerate(zip(params.B, params.e)):
        if Bm.ndim != 2 or Bm.shape[1] != d0 or em.shape != (Bm.shape[0],):
            raise ValidationError(
                "dimension-mismatch", f"quadratic module {h}: inconsistent B/e shapes"
            )
    n_cone = len(params.A)
    if len(params.d) != n_cone or len(params.lam) != n_cone:
        raise ValidationError("dimension-mismatch", "lam, A, d must have equal length")
    for g, (Am, dm) in enumerate(zip(params.A, params.d)):
        if Am.ndim != 2 or Am.shape[1] != d0 or dm.shape != (Am.shape[0],):
            raise ValidationError(
                "dimension-mismatch", f"conic module {g}: inconsistent A/d shapes"
            )
    fields = {
        "W": params.W, "U": params.U, "b": params.b, "c": (params.c,), "v": (params.v,),
        "b0": (params.b0,), "alpha": params.alpha, "B": params.B, "e": params.e,
        "lam": params.lam, "A": params.A, "d": params.d,
    }
    for name, entries in fields.items():
        if not all(np.all(np.isfinite(a)) for a in entries):
            raise ValidationError("non-finite", f"{name} has NaN or infinite entries")
    for l in range(1, L):
        if np.any(params.U[l] < 0):
            raise ValidationError("negativity", f"layer {l}: U has negative entries")
    if np.any(params.c < 0):
        raise ValidationError("negativity", "readout c has negative entries")
    for h, a in enumerate(params.alpha):
        if not a > 0:
            raise ValidationError("nonpositive-alpha", f"quadratic module {h}: alpha = {a}")
    for g, l in enumerate(params.lam):
        if l < 0:
            raise ValidationError("negative-lambda", f"conic module {g}: lam = {l}")


def _matvec(M, X):
    """``M @ x`` for ``X`` itself when 1-D, else for every row of ``X``.

    A stack runs one BLAS matrix-vector product per row (not one
    matrix-matrix product), so every row is bitwise what the single-vector
    call gives.
    """
    if X.ndim == 1:
        return M @ X
    return (M @ X[:, :, None])[:, :, 0]


def _dot(X, Y):
    """``x @ y`` for 1-D operands, else row by row after broadcasting, each
    row bitwise what the single-vector call gives."""
    if X.ndim == Y.ndim == 1:
        return X @ Y
    return (X[..., None, :] @ Y[..., :, None])[..., 0, 0]


def _norms(V):
    """Euclidean norm of each row, bitwise ``np.linalg.norm`` of that row."""
    return np.sqrt(_dot(V, V))


def _nonfinite_row(finite):
    """Where ``finite`` has a False flag: None when nowhere, ``""`` for a
    point's one flag, `` row k`` naming the first bad row of a stack."""
    if finite.ndim == 0:
        return None if finite else ""
    return None if finite.all() else f" row {np.argmin(finite)}"


@np.errstate(over="ignore", invalid="ignore")
def forward(params: SocIcnnParams, x) -> ForwardTrace:
    """Evaluate the model at ``x`` and record the full trace.

    ``x`` is one point of shape ``(d,)`` or a stack of ``n`` points of shape
    ``(n, d)``.  A stack gives one trace whose arrays are ``(n, width)`` per
    layer and module, whose ``u_norms`` are ``(n,)`` per conic module and
    whose ``value`` is ``(n,)``; a point gives vectors and Python floats.
    One body serves both: every product runs one matrix-vector product per
    row, so row ``k`` of a stack is bitwise ``forward(params, x[k])``.
    The preactivation is computed as ``W @ x + U @ z + b`` in exactly this
    association; the degenerate builder relies on that expression to land
    bitwise on zero.  A non-finite input or output value raises
    ``NonFiniteError``, naming the first bad row of a stack, and an overflow
    on the way there raises that error, not a NumPy warning.
    """
    X = np.asarray(x, dtype=np.float64)
    d0 = params.input_dim
    if X.ndim not in (1, 2) or X.shape[-1] != d0:
        raise ValidationError(
            "dimension-mismatch", f"input has shape {X.shape}, expected ({d0},) or (n, {d0})"
        )
    where = _nonfinite_row(np.isfinite(X).all(axis=-1))
    if where is not None:
        raise NonFiniteError(f"input{where} contains NaN or infinity")
    a_list, z_list = [], []
    z = np.zeros(X.shape[:-1] + (0,))
    for W, U, b in zip(params.W, params.U, params.b):
        a = _matvec(W, X) + _matvec(U, z) + b
        z = np.maximum(a, 0.0)
        a_list.append(a)
        z_list.append(z)
    value = _dot(params.c, z) + _dot(params.v, X) + params.b0
    q = tuple(_matvec(B, X) + e for B, e in zip(params.B, params.e))
    for al, qh in zip(params.alpha, q):
        value += 0.5 * al * _dot(qh, qh)
    u = tuple(_matvec(A, X) + d for A, d in zip(params.A, params.d))
    u_norms = tuple(np.sqrt(_dot(ug, ug)) for ug in u)
    for lg, un in zip(params.lam, u_norms):
        value += lg * un
    where = _nonfinite_row(np.isfinite(value))
    if where is not None:
        raise NonFiniteError(f"output value{where and ' of' + where} is NaN or infinite")
    if X.ndim == 1:
        u_norms, value = tuple(float(un) for un in u_norms), float(value)
    return ForwardTrace(_frozen(X), tuple(a_list), tuple(z_list), q, u, u_norms, value)


@np.errstate(over="ignore", invalid="ignore")
def forward_values(params: SocIcnnParams, X) -> np.ndarray:
    """Model values at the rows of an ``(..., m, d)`` array, without traces.

    Each layer and module is evaluated for all ``m`` rows at once, by
    matrix products whose summation order differs from ``forward``'s: values
    agree with ``forward(params, x).value`` to rounding, not bitwise, and
    the bitwise kinks of ``build_degenerate_2d`` hold only in ``forward``.
    Leading batch axes make each product one batched matrix product, so
    every ``(m, d)`` slab gets bitwise the values of its own 2-D call,
    which one flat call over all the rows does not promise.  Input shape
    and finiteness are checked as in ``forward``, and a non-finite output
    value raises ``NonFiniteError`` naming its full row index.
    """
    X = np.asarray(X, dtype=np.float64)
    if X.ndim < 2 or X.shape[-1] != params.input_dim:
        raise ValidationError(
            "dimension-mismatch",
            f"input has shape {X.shape}, expected (..., m, {params.input_dim})",
        )
    if not np.all(np.isfinite(X)):
        raise NonFiniteError("input contains NaN or infinity")
    # Each temporary is updated in place in the order of the expression it
    # stands for (``X @ W.T + Z @ U.T + b`` and so on), so values are unchanged.
    Z = np.zeros(X.shape[:-1] + (0,))
    for W, U, b in zip(params.W, params.U, params.b):
        pre = X @ W.T
        pre += Z @ U.T
        pre += b
        Z = np.maximum(pre, 0.0, out=pre)
    values = Z @ params.c
    values += X @ params.v
    values += params.b0
    for al, B, e in zip(params.alpha, params.B, params.e):
        Q = X @ B.T
        Q += e
        values += 0.5 * al * np.einsum("...ij,...ij->...i", Q, Q)
    for lg, A, d in zip(params.lam, params.A, params.d):
        R = X @ A.T
        R += d
        values += lg * np.linalg.norm(R, axis=-1)
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:
        where = np.unravel_index(bad[0], values.shape)
        where = where[0] if values.ndim == 1 else tuple(int(i) for i in where)
        raise NonFiniteError(f"output value of row {where} is NaN or infinite")
    return values


def _check_tol(tol: float) -> None:
    """Reject a kink tolerance that is negative, infinite or NaN."""
    if not 0 <= tol < np.inf:
        raise ValueError(f"tolerance must be nonnegative and finite, got {tol}")


def _check_positive(value, name: str) -> None:
    """Reject a step, scale or count that is not positive and finite (NaN included)."""
    if not 0 < value < np.inf:
        raise ValueError(f"{name} must be positive and finite, got {value}")


def degeneracy_report(trace: ForwardTrace, tol: float = DEFAULT_TAU) -> DegeneracyReport:
    """Classify every kink of the trace of one point, within absolute
    tolerance ``tol``; a stacked trace raises ``ValidationError``."""
    _check_tol(tol)
    if np.ndim(trace.value):
        raise ValidationError("dimension-mismatch", "expected the trace of one point, not a stack")
    free = tuple(abs(a) <= tol for a in trace.a)
    relu = tuple((l, int(i)) for l, mask in enumerate(free) for i in np.flatnonzero(mask))
    conic = tuple(g for g, un in enumerate(trace.u_norms) if un <= tol)
    return DegeneracyReport(
        relu_zero_coords=relu,
        conic_zero_modules=conic,
        is_nondegenerate=not relu and not conic,
        upper=tuple(a > tol for a in trace.a),
        free=free,
    )


def _require_nondegenerate(trace: ForwardTrace, tol: float, what: str) -> None:
    report = degeneracy_report(trace, tol)
    if not report.is_nondegenerate:
        raise DegenerateInputError(
            f"{what} requested on a kink: {len(report.relu_zero_coords)} ReLU and "
            f"{len(report.conic_zero_modules)} conic kinks at tolerance {tol:g}"
        )


def _gaussian_nonzero(rng, dim: int, rows: int | None = None):
    """A standard Gaussian vector redrawn until nonzero, with its norm.

    With ``rows``, an ``(rows, dim)`` array of such vectors and their
    ``(rows,)`` norms, bitwise ``rows`` calls in a row: one block draw with
    per-row norms, or, when a row of the block is zero, the generator rewound
    and the rows drawn one call at a time.
    """
    if rows is not None:
        state = rng.bit_generator.state
        vecs = rng.standard_normal((rows, dim))
        norms = np.sqrt(_dot(vecs, vecs))
        if np.all(norms != 0.0):
            return vecs, norms
        rng.bit_generator.state = state
        for k in range(rows):
            vecs[k], norms[k] = _gaussian_nonzero(rng, dim)
        return vecs, norms
    vec = rng.standard_normal(dim)
    nrm = np.linalg.norm(vec)
    while nrm == 0.0:
        vec = rng.standard_normal(dim)
        nrm = np.linalg.norm(vec)
    return vec, nrm


def _per_row(value):
    """A float for one point (or branch), the ``(n,)`` array for a stack."""
    return float(value) if np.ndim(value) == 0 else value


def relu_margin(trace: ForwardTrace) -> float | np.ndarray:
    """Smallest absolute preactivation across the backbone; per row, as an
    ``(n,)`` array, for a stacked trace."""
    margin = np.full(np.shape(trace.value), np.inf)
    for a in trace.a:
        if a.shape[-1]:
            margin = np.minimum(margin, np.min(np.abs(a), axis=-1))
    return _per_row(margin)


def conic_margin(trace: ForwardTrace) -> float | np.ndarray:
    """Smallest conic residual norm, infinity when there are no conic
    modules; per row, as an ``(n,)`` array, for a stacked trace."""
    margin = np.full(np.shape(trace.value), np.inf)
    for un in trace.u_norms:
        margin = np.minimum(margin, un)
    return _per_row(margin)


def _nondegenerate_rows(trace: ForwardTrace, tol: float):
    """Whether the point, or each row of a stacked trace, lies more than
    ``tol`` from every ReLU and conic kink: ``degeneracy_report``'s
    ``is_nondegenerate``, row by row."""
    return np.minimum(relu_margin(trace), conic_margin(trace)) > tol


def build_random(seed: int, arch: ArchSpec) -> SocIcnnParams:
    """Draw a valid random model for the given architecture.

    Draw order is fixed so a seed pins the model bit-for-bit: backbone
    layers first (``W``, then ``U`` as absolute Gaussians, then ``b``), then
    ``c`` (absolute Gaussian), ``v``, ``b0``, then quadratic modules
    (``B``, ``e``, ``alpha``), then conic modules (``A``, ``d``, ``lam``).
    Signed draws (``W``, ``b``, ``B``, ``e``, ``A``, ``d``, ``v``) use scale
    ``1/sqrt(fan_in)`` with fan-in the input dimension.  The nonnegative
    draws ``U`` and ``c`` use the smaller scale ``1/fan_in`` (previous width
    for ``U``, last width for ``c``) so that expected row sums of the
    recurrent path stay below one; absolute-value draws have mean
    ``0.8*scale``, so a ``1/sqrt(fan_in)`` scale would compound to row sums
    near ``sqrt(fan_in)`` per layer and blow up both activations and the
    dual upper bounds.  The scalar ``b0`` stays at unit scale.  ``alpha``
    and ``lam`` are uniform on ``[0.5, 1.5]``.
    """
    if arch.input_dim <= 0 or not arch.widths:
        raise ValidationError("invalid-descriptor", "input_dim and widths must be positive")
    if any(w <= 0 for w in arch.widths):
        raise ValidationError("invalid-descriptor", "layer widths must be positive")
    if any(m <= 0 for m in arch.quad_dims) or any(k <= 0 for k in arch.cone_dims):
        raise ValidationError("invalid-descriptor", "module dimensions must be positive")
    rng = np.random.default_rng(seed)
    d0 = arch.input_dim
    W, U, b = [], [], []
    prev = 0
    for width in arch.widths:
        W.append(rng.normal(0.0, 1.0 / np.sqrt(d0), size=(width, d0)))
        if prev:
            U.append(np.abs(rng.normal(0.0, 1.0 / prev, size=(width, prev))))
        else:
            U.append(np.zeros((width, 0)))
        b.append(rng.normal(0.0, 1.0 / np.sqrt(d0), size=width))
        prev = width
    c = np.abs(rng.normal(0.0, 1.0 / prev, size=prev))
    v = rng.normal(0.0, 1.0 / np.sqrt(d0), size=d0)
    b0 = rng.normal(0.0, 1.0)
    alpha, B, e = [], [], []
    for m in arch.quad_dims:
        B.append(rng.normal(0.0, 1.0 / np.sqrt(d0), size=(m, d0)))
        e.append(rng.normal(0.0, 1.0 / np.sqrt(d0), size=m))
        alpha.append(rng.uniform(0.5, 1.5))
    lam, A, d = [], [], []
    for k in arch.cone_dims:
        A.append(rng.normal(0.0, 1.0 / np.sqrt(d0), size=(k, d0)))
        d.append(rng.normal(0.0, 1.0 / np.sqrt(d0), size=k))
        lam.append(rng.uniform(0.5, 1.5))
    params = SocIcnnParams(
        W=W, U=U, b=b, c=c, v=v, b0=b0, alpha=alpha, B=B, e=e, lam=lam, A=A, d=d, seed=seed
    )
    validate(params)
    return params


# Fixed constants for the hand-built two-dimensional degenerate model.  All
# margins besides the one driven to zero stay at 0.1 or more, and the total
# directional curvature stays near one so one-sided difference quotients at
# step 1e-7 carry only a few 1e-8 of truncation error.
_DEG_X0 = (0.4, -0.3)
_DEG_W = (
    ((0.9, -0.4), (0.3, 0.8), (-0.6, 0.5)),
    ((0.5, 0.7), (-0.3, 0.6), (0.8, -0.2)),
)
_DEG_U2 = ((0.4, 0.1, 0.3), (0.2, 0.5, 0.0), (0.1, 0.2, 0.6))
_DEG_TARGETS = ((0.7, -0.5, 0.4), (0.5, 0.55, -0.6))
_DEG_C = (0.9, 0.5, 0.7)
_DEG_V = (0.25, -0.15)
_DEG_B0 = 0.3
_DEG_QUAD = (0.8, ((0.55, -0.25), (0.15, 0.45)), (0.25, -0.35))
_DEG_CONE_A = (((1.0, 0.0), (0.0, 1.0)), ((0.7, 0.2), (-0.1, 0.6)))
_DEG_CONE_OFFSET = (1.1, -0.9)
_DEG_LAM = (0.8, 0.6)


def build_degenerate_2d(spec: DegeneracySpec = DegeneracySpec()):
    """Construct a 2-input model sitting exactly on one ReLU and one conic kink.

    Returns ``(params, x0)``.  At ``x0`` the chosen preactivation and the
    chosen conic residual are exactly zero by construction: biases and
    offsets are assigned as ``target - (W @ x0 + U @ z)``, the same partial
    sum ``forward`` computes, so the cancellation is bitwise.  Every other
    preactivation and residual stays at least 0.1 away from zero, and the
    zero coordinate keeps a strictly positive multiplier upper bound, so the
    optimal multiplier set has full extent there.
    """
    x0 = np.array(_DEG_X0)
    W = [np.array(m) for m in _DEG_W]
    U = [np.zeros((3, 0)), np.array(_DEG_U2)]
    targets = [np.array(t) for t in _DEG_TARGETS]
    if not (0 <= spec.relu_layer < len(W)) or not (0 <= spec.relu_coord < 3):
        raise ValidationError("invalid-descriptor", "degenerate ReLU index out of range")
    if not (0 <= spec.conic_module < len(_DEG_CONE_A)):
        raise ValidationError("invalid-descriptor", "degenerate conic index out of range")
    targets[spec.relu_layer][spec.relu_coord] = 0.0
    b = []
    z = np.zeros(0)
    for l, (Wl, Ul) in enumerate(zip(W, U)):
        s = Wl @ x0 + Ul @ z
        bl = targets[l] - s
        a = s + bl
        z = np.maximum(a, 0.0)
        b.append(bl)
    alpha, Bq, eq = _DEG_QUAD
    A = [np.array(m) for m in _DEG_CONE_A]
    d = []
    for g, Ag in enumerate(A):
        if g == spec.conic_module:
            d.append(-(Ag @ x0))
        else:
            d.append(np.array(_DEG_CONE_OFFSET))
    params = SocIcnnParams(
        W=W,
        U=U,
        b=b,
        c=np.array(_DEG_C),
        v=np.array(_DEG_V),
        b0=_DEG_B0,
        alpha=(alpha,),
        B=(np.array(Bq),),
        e=(np.array(eq),),
        lam=_DEG_LAM,
        A=A,
        d=d,
    )
    validate(params)
    return params, _frozen(x0)


def _dims(params: SocIcnnParams) -> dict:
    """The ``dims`` entry of a model file, as the arrays imply it."""
    return {
        "input_dim": params.input_dim,
        "widths": list(params.widths),
        "quad_dims": [B.shape[0] for B in params.B],
        "cone_dims": [A.shape[0] for A in params.A],
    }


def to_json_obj(params: SocIcnnParams) -> dict:
    """Plain-dict form of a model, suitable for ``json.dump``."""
    return {
        "format_version": MODEL_FORMAT_VERSION,
        "dims": _dims(params),
        "layers": [
            {"W": W.tolist(), "U": U.tolist(), "b": b.tolist()}
            for W, U, b in zip(params.W, params.U, params.b)
        ],
        "c": params.c.tolist(),
        "v": params.v.tolist(),
        "b0": params.b0,
        "quad": [
            {"alpha": a, "B": B.tolist(), "e": e.tolist()}
            for a, B, e in zip(params.alpha, params.B, params.e)
        ],
        "cone": [
            {"lambda": l, "A": A.tolist(), "d": d.tolist()}
            for l, A, d in zip(params.lam, params.A, params.d)
        ],
        "seed": params.seed,
    }


def from_json_obj(obj: dict) -> SocIcnnParams:
    """Rebuild a model from its dict form; validates before returning.  A
    ``format_version`` other than the integer 1, or ``dims`` other than
    what the arrays imply, raises ``ModelFormatError``."""
    try:
        version = obj["format_version"]
        if type(version) is not int or version != MODEL_FORMAT_VERSION:
            raise ModelFormatError(f"unsupported format_version {version!r}")
        seed = obj.get("seed")
        if seed is not None and (type(seed) is not int or seed < 0):
            raise ModelFormatError(f"seed must be a nonnegative integer or null, got {seed!r}")
        dims = obj["dims"]
        layers = obj["layers"]
        params = SocIcnnParams(
            W=[np.array(l["W"], dtype=np.float64) for l in layers],
            U=[np.array(l["U"], dtype=np.float64) for l in layers],
            b=[l["b"] for l in layers],
            c=obj["c"],
            v=obj["v"],
            b0=obj["b0"],
            alpha=[m["alpha"] for m in obj["quad"]],
            B=[m["B"] for m in obj["quad"]],
            e=[m["e"] for m in obj["quad"]],
            lam=[m["lambda"] for m in obj["cone"]],
            A=[m["A"] for m in obj["cone"]],
            d=[m["d"] for m in obj["cone"]],
            seed=seed,
        )
    except ModelFormatError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise ModelFormatError(f"malformed model object: {exc}") from exc
    validate(params)
    implied = _dims(params)
    if dims != implied:
        raise ModelFormatError(f"declared dims {dims!r} do not match the arrays' {implied!r}")
    return params


def save_model(params: SocIcnnParams, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(to_json_obj(params), fh, indent=1)
        fh.write("\n")


def load_model(path) -> SocIcnnParams:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            obj = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ModelFormatError(f"invalid JSON in {path}: {exc}") from exc
    return from_json_obj(obj)
