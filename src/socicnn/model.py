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
trace kernel, records the full trace (preactivations and module residuals)
because almost every downstream quantity is a function of it; one body takes
a point ``(d,)`` as the 1-D case of a stack ``(n, d)``, each row bitwise a
one-point call.  ``forward_values`` is the only other kernel: values
alone, for many points, for callers such as the finite-difference oracles.
"""

from __future__ import annotations

import numbers
import sys
from dataclasses import MISSING, dataclass, fields, is_dataclass
from functools import cached_property

import numpy as np

from .errors import DegenerateInputError, NonFiniteError, ValidationError

DEFAULT_TAU = 1e-9


def _frozen(a, dtype=np.float64) -> np.ndarray:
    arr = np.array(a, dtype=dtype)
    arr.setflags(write=False)
    return arr


def _has_bool(value) -> bool:
    """Whether ``value`` is a list or tuple holding, at any depth, a boolean or a boolean array."""
    return isinstance(value, (list, tuple)) and any(
        type(v) is bool or getattr(v, "dtype", None) == bool or _has_bool(v) for v in value)


def _real(value, name: str, scalar: bool = False) -> np.ndarray:
    """``value`` as a float64 array, not copied where it already is one: the one rule of
    what the package takes for numbers.  A boolean, a complex number or other non-real,
    a ragged list or, where ``scalar``, an array raises ``ValidationError``, and an int
    too large for a float ``NonFiniteError``; both name ``name``."""
    try:
        raw = np.asarray(value)
        kind = raw.dtype.kind
        if kind == "b" or _has_bool(value):
            raise TypeError("a boolean is not a number")
        if kind not in "fiuO" or kind == "O" and not all(
                type(v) is not bool and isinstance(v, numbers.Real) for v in raw.flat):
            raise TypeError(f"expected real numbers, got entries of type {raw.dtype.name}")
        if scalar and raw.ndim:
            raise TypeError(f"expected one number, got shape {raw.shape}")
        return np.asarray(raw, dtype=np.float64)
    except OverflowError as exc:
        raise NonFiniteError(f"{name} has an entry too large for a float") from exc
    except (TypeError, ValueError) as exc:
        raise ValidationError("invalid-descriptor", f"{name} is not numeric: {exc}") from exc


def _param(value, name: str, scalar: bool = False):
    """``value`` by ``_real``'s rule as a read-only float64 copy, or a float where
    ``scalar``: the one check of every ``SocIcnnParams`` field."""
    arr = _real(value, name, scalar)
    return float(arr) if scalar else _frozen(arr)


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

    Each entry is checked by ``_param`` as it is stored, naming it as in ``W[0]``
    or ``b0``, and a seed other than a nonnegative int or None raises
    ``ValidationError``; ``validate`` then checks shapes and signs, so every
    model that exists is valid.
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
        for name in ("W", "U", "b", "c", "v", "b0", "alpha", "B", "e", "lam", "A", "d"):
            value, scalar = getattr(self, name), name in ("b0", "alpha", "lam")
            if name in ("c", "v", "b0"):
                value = _param(value, name, scalar)
            elif isinstance(value, (list, tuple, np.ndarray)):
                value = tuple(_param(m, f"{name}[{k}]", scalar) for k, m in enumerate(value))
            else:
                raise ValidationError("invalid-descriptor", f"{name} is not a list or tuple")
            object.__setattr__(self, name, value)
        if self.seed is not None and (type(self.seed) is not int or self.seed < 0):
            msg = f"seed must be a nonnegative int or None, got {self.seed!r}"
            raise ValidationError("invalid-descriptor", msg)
        validate(self)

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

    @cached_property
    def _trace_dims(self) -> tuple:
        """What ``model._check_trace`` compares: the layer and quadratic-module counts
        of a trace of this model, and the widths of its ``x``, ``a``, ``q`` and ``u``."""
        widths = [m.shape[0] for m in self.W + self.B + self.A]
        return self.n_layers, len(self.B), [self.input_dim] + widths


@dataclass(frozen=True, eq=False)
class ForwardTrace:
    """Everything recorded during one forward pass.

    ``a`` are preactivations (the activations are ``max(a, 0)``), ``q`` and
    ``u`` the quadratic and conic residual vectors, ``u_norms`` their
    Euclidean norms, ``value`` the scalar output.  The trace of a stack of ``n``
    points holds ``(n, width)`` arrays, ``(n,)`` norms and ``(n,)`` values.
    """

    x: np.ndarray
    a: tuple
    q: tuple
    u: tuple
    u_norms: tuple
    value: float | np.ndarray

    def row(self, k) -> "ForwardTrace":
        """Row ``k`` of a stacked trace, bitwise ``forward(params, x[k])``:
        row views of the arrays, and Python floats for the norms and value.
        An index array ``k`` selects those rows, in its order, as a stacked
        trace."""
        rows = (tuple(arr[k] for arr in group) for group in (self.a, self.q, self.u))
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

    def __post_init__(self):
        _check_config(self)


def validate(params: SocIcnnParams) -> None:
    """Raise ``ValidationError`` on the first violated structural rule.

    Checks, in order: array shape consistency across layers and modules,
    finiteness of every array entry, ``b0``, ``alpha`` and ``lam``,
    nonnegativity of skip weights ``U`` (layers beyond the first) and of the
    readout ``c``, strict positivity of every ``alpha``, and nonnegativity
    of every ``lam``.  ``SocIcnnParams`` runs it as it is built.
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


def _norms(V):
    """Euclidean norm of each row, bitwise ``np.linalg.norm`` of that row."""
    return np.sqrt(np.vecdot(V, V))


def _nonfinite_row(V, axes=0):
    """Where ``V`` has a NaN or infinity, its last ``axes`` axes being one row:
    None when nowhere, ``""`` when ``V`` is one row, else `` row k`` or
    `` row (i, j)`` naming the first bad row.  The happy path is one scan."""
    if np.isfinite(V).all():
        return None
    k = np.unravel_index(np.argmin(np.isfinite(V)), V.shape)[:V.ndim - axes]
    return f" row {int(k[0]) if len(k) == 1 else tuple(map(int, k))}" if k else ""


def _points(x, d, what: str, stack: bool = True, batch: bool = False) -> np.ndarray:
    """``x`` as float64 points of width ``d`` (any when None), the one check of
    every point the package is handed: a point ``(d,)``, with ``stack`` also
    ``(n, d)``, with ``batch`` only ``(..., m, d)``.  What ``_real`` refuses (booleans
    and complex numbers too) or a wrong shape raises ``ValidationError``, and NaN,
    infinity or an int too large for a float ``NonFiniteError`` naming the first bad
    row; both name ``what``."""
    X = _real(x, what)
    ndim_ok = X.ndim >= 2 if batch else X.ndim == 1 or stack and X.ndim == 2
    if not (ndim_ok and X.size and (d is None or X.shape[-1] == d)):
        w = "d" if d is None else d
        form = f"(..., m, {w})" if batch else f"({w},)" + (f" or (n, {w})" if stack else "")
        msg = f"{what} has shape {X.shape}, expected {form} with no empty axis"
        raise ValidationError("dimension-mismatch", msg)
    where = _nonfinite_row(X, 1)
    if where is not None:
        raise NonFiniteError(f"{what}{where} contains NaN or infinity")
    return X


@np.errstate(over="ignore", invalid="ignore")
def forward(params: SocIcnnParams, x) -> ForwardTrace:
    """Evaluate the model at ``x`` and record the full trace.

    ``x`` is one point of shape ``(d,)`` or a stack of ``n`` points of shape
    ``(n, d)``.  A stack gives one trace whose arrays are ``(n, width)`` per
    layer and module, whose ``u_norms`` are ``(n,)`` per conic module and
    whose ``value`` is ``(n,)``; a point gives vectors and Python floats.
    One body serves both: every product is a ``np.matvec`` or ``np.vecdot``
    gufunc, one product per row, so row ``k`` of a stack is bitwise
    ``forward(params, x[k])``.  The preactivation is computed as
    ``matvec(W, x) + matvec(U, z) + b`` in exactly this association; the
    degenerate builder relies on that expression to land bitwise on zero.
    A non-finite input or output value raises ``NonFiniteError``, naming
    the first bad row of a stack, and an overflow on the way there raises
    that error, not a NumPy warning.
    """
    X = _points(x, params.input_dim, "input")
    a_list = []
    z = None  # layer 0 adds +0.0 for its skip product by the zero-column ``U[0]``
    for W, U, b in zip(params.W, params.U, params.b):
        a = np.matvec(W, X) + (0.0 if z is None else np.matvec(U, z)) + b
        z = np.maximum(a, 0.0)
        a_list.append(a)
    value = np.vecdot(params.c, z) + np.vecdot(params.v, X) + params.b0
    q = tuple(np.matvec(B, X) + e for B, e in zip(params.B, params.e))
    for al, qh in zip(params.alpha, q):
        value += 0.5 * al * np.vecdot(qh, qh)
    u = tuple(np.matvec(A, X) + d for A, d in zip(params.A, params.d))
    u_norms = tuple(_norms(ug) for ug in u)
    for lg, un in zip(params.lam, u_norms):
        value += lg * un
    where = _nonfinite_row(value)
    if where is not None:
        raise NonFiniteError(f"output value{where and ' of' + where} is NaN or infinite")
    if X.ndim == 1:
        u_norms, value = tuple(float(un) for un in u_norms), float(value)
    return ForwardTrace(_frozen(X), tuple(a_list), q, u, u_norms, value)


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
    X = _points(X, params.input_dim, "input", batch=True)
    # Each temporary is updated in place in the order of the expression it
    # stands for (``X @ W.T + Z @ U.T + b`` and so on), so values are unchanged.
    Z = None  # as in ``forward``: +0.0 stands for layer 0's empty skip product
    for W, U, b in zip(params.W, params.U, params.b):
        pre = X @ W.T
        pre += 0.0 if Z is None else Z @ U.T
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
    where = _nonfinite_row(values)
    if where is not None:
        raise NonFiniteError(f"output value{where and ' of' + where} is NaN or infinite")
    return values


def _check_number(value, name: str, positive: bool = False, count: bool = False) -> None:
    """The one check of every number the package is handed: a ``ValueError``
    naming ``name`` unless ``value`` is a real number, not a bool, at least 0
    (above 0 where ``positive``), at most the largest float, and an int for a ``count``."""
    sign = "positive" if positive else "nonnegative"
    # The ABC check took 0.5 us for a float, the concrete one 0.05 us (CPython 3.11).
    if not isinstance(value, (float, int)) and not isinstance(value, numbers.Real):
        bad = "a number"
    elif not (value > 0 if positive else value >= 0) or not value <= sys.float_info.max:
        bad = sign if count else f"{sign} and finite"
    elif isinstance(value, bool) or count and type(value) is not int:
        bad = "an int" if count else "a number"
    else:
        return
    rule = f"a {sign} int" if count else f"{sign} and finite"
    hint = "" if bad == rule else f" ({name} must be {rule})"
    raise ValueError(f"{name} must be {bad}, got {value!r}{hint}")


def _check_kind(value, kind, name: str) -> None:
    """The one kind check of every object argument: ``ValidationError`` unless a ``kind``."""
    if not isinstance(value, kind):
        raise ValidationError("invalid-descriptor", f"{name} must be of type {kind.__name__}")


def _check_trace(params: SocIcnnParams, trace) -> None:
    """The one check that a trace is of this model: ``ValidationError`` unless
    ``trace`` is a ``ForwardTrace`` whose input width, layer widths and module
    dimensions are those of ``params`` (``params._trace_dims``, cached, since
    ``canonical`` checks once per descent round)."""
    _check_kind(trace, ForwardTrace, "trace")
    widths = [v.shape[-1] for v in (trace.x, *trace.a, *trace.q, *trace.u)]
    dims = (len(trace.a), len(trace.q), widths)
    if dims != params._trace_dims:
        msg = f"trace is not of this model: (layers, quadratic modules, widths) {dims}"
        raise ValidationError("dimension-mismatch", f"{msg}, expected {params._trace_dims}")


def _check_config(cfg, positive=()) -> None:
    """Reject, with a ``ValueError`` that names it, a field of the config
    dataclass ``cfg`` whose value is not of the kind its default holds: an
    instance of the default's class for a nested config; a tuple or list of
    its first element's kind, nonempty but for the module dimensions, for a
    tuple; a number that ``_check_number`` passes, as a count for an int
    default, or None where the default is None.  Every number must be
    nonnegative, and positive for the fields named in ``positive``."""
    for f in fields(cfg):
        name, value = f.name, getattr(cfg, f.name)
        default = f.default if f.default_factory is MISSING else f.default_factory()
        if is_dataclass(default):
            if not isinstance(value, type(default)):
                raise ValueError(f"{name} must be an instance of {type(default).__name__}")
            continue
        seq = isinstance(default, tuple)
        if seq != isinstance(value, (tuple, list)):
            raise ValueError(f"{name} must be {'a tuple' if seq else 'a number'}, got {value!r}")
        if seq and not value and name not in ("quad_dims", "cone_dims"):
            raise ValueError(f"{name} must be nonempty, got {value!r}")
        kind = default[0] if seq else default
        for v in value if seq else (value,):
            if v is not None or kind is not None:
                _check_number(v, name, name in positive, kind is None or type(kind) is int)


def _kinks(trace: ForwardTrace, tol: float):
    """The one kink rule; no other code compares a trace value with ``tol``.  Per layer,
    one-pass generators of the masks of the units above ``tol`` and below ``-tol`` (the
    rest are on their kinks); per cone, the tip flag ``||u_g|| <= tol`` (bool or mask)."""
    _check_kind(trace, ForwardTrace, "trace")
    _check_number(tol, "tolerance")
    tips = [un <= tol for un in trace.u_norms]
    return (a > tol for a in trace.a), (a < -tol for a in trace.a), tips


def degeneracy_report(trace: ForwardTrace, tol: float = DEFAULT_TAU) -> DegeneracyReport:
    """Classify every kink of one point's trace by the kink rule at tolerance ``tol``:
    a unit is above where ``a > tol``, below where ``a < -tol`` and on its kink otherwise,
    a cone at its tip where ``||u_g|| <= tol``.  A stack raises ``ValidationError``."""
    above, below, tips = _kinks(trace, tol)
    if np.ndim(trace.value):
        raise ValidationError("dimension-mismatch", "expected the trace of one point, not a stack")
    upper = tuple(above)
    free = tuple(~(up | down) for up, down in zip(upper, below))
    relu = tuple((l, int(i)) for l, mask in enumerate(free) for i in np.flatnonzero(mask))
    conic = tuple(g for g, tip in enumerate(tips) if tip)
    return DegeneracyReport(
        relu_zero_coords=relu,
        conic_zero_modules=conic,
        is_nondegenerate=not relu and not conic,
        upper=upper,
        free=free,
    )


def _require_nondegenerate(trace: ForwardTrace, tol: float, what: str) -> None:
    report = degeneracy_report(trace, tol)
    if not report.is_nondegenerate:
        raise DegenerateInputError(
            f"{what} requested on a kink: {len(report.relu_zero_coords)} ReLU and "
            f"{len(report.conic_zero_modules)} conic kinks at tolerance {tol:g}"
        )


def _nonzero_rows(rng, V):
    """Redraw from ``rng``, in place and in row order, each zero row of the standard
    Gaussian block ``V`` until it is nonzero; return the row norms (``_norms``)."""
    norms = _norms(V)
    for k in np.flatnonzero(norms == 0.0):
        while norms[k] == 0.0:
            V[k] = rng.standard_normal(V.shape[1])
            norms[k] = np.linalg.norm(V[k])
    return norms


def _gaussian_nonzero(rng, dim: int, rows: int):
    """An ``(rows, dim)`` block of standard Gaussian vectors and their norms: one
    block draw, then each zero row redrawn after it by ``_nonzero_rows``."""
    vecs = rng.standard_normal((rows, dim))
    return vecs, _nonzero_rows(rng, vecs)


def _per_row(value):
    """A float for one point (or branch), the ``(n,)`` array for a stack."""
    return float(value) if np.ndim(value) == 0 else value


def relu_margin(trace: ForwardTrace) -> float | np.ndarray:
    """Smallest absolute preactivation across the backbone; per row, as an
    ``(n,)`` array, for a stacked trace."""
    _check_kind(trace, ForwardTrace, "trace")
    margin = np.full(np.shape(trace.value), np.inf)
    for a in trace.a:
        if a.shape[-1]:
            margin = np.minimum(margin, np.min(np.abs(a), axis=-1))
    return _per_row(margin)


def conic_margin(trace: ForwardTrace) -> float | np.ndarray:
    """Smallest conic residual norm, infinity when there are no conic
    modules; per row, as an ``(n,)`` array, for a stacked trace."""
    _check_kind(trace, ForwardTrace, "trace")
    margin = np.full(np.shape(trace.value), np.inf)
    for un in trace.u_norms:
        margin = np.minimum(margin, un)
    return _per_row(margin)


def _nondegenerate_rows(trace: ForwardTrace, tol: float):
    """Whether the point, or each row of a stacked trace, lies off every ReLU
    and conic kink by the one kink rule: ``degeneracy_report``'s
    ``is_nondegenerate``, row by row."""
    above, below, tips = _kinks(trace, tol)
    off = [np.all(up | down, axis=-1) for up, down in zip(above, below)]
    return np.logical_and.reduce(off + [np.logical_not(tip) for tip in tips])


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
    dims = (arch.input_dim, *arch.widths, *arch.quad_dims, *arch.cone_dims)
    if not arch.widths or not all(type(n) is int and n > 0 for n in dims):
        raise ValidationError("invalid-descriptor", f"need widths and positive int dims: {arch}")
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
    return SocIcnnParams(
        W=W, U=U, b=b, c=c, v=v, b0=b0, alpha=alpha, B=B, e=e, lam=lam, A=A, d=d, seed=seed
    )


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
    offsets are assigned as ``target - (matvec(W, x0) + matvec(U, z))``, the
    same partial sum ``forward`` computes, so the cancellation is bitwise.
    Every other preactivation and residual stays at least 0.1 away from
    zero, and the zero coordinate keeps a strictly positive multiplier upper
    bound, so the optimal multiplier set has full extent there.
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
        s = np.matvec(Wl, x0) + np.matvec(Ul, z)
        bl = targets[l] - s
        a = s + bl
        z = np.maximum(a, 0.0)
        b.append(bl)
    alpha, Bq, eq = _DEG_QUAD
    A = [np.array(m) for m in _DEG_CONE_A]
    d = []
    for g, Ag in enumerate(A):
        if g == spec.conic_module:
            d.append(-np.matvec(Ag, x0))
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
    return params, _frozen(x0)
