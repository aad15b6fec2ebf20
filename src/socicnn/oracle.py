"""Model-agnostic numerical oracles.

These deliberately know nothing about the package's own derivative formulas;
they only evaluate caller-supplied callables.  Every analytic quantity in the
library is cross-checked against one of these routes somewhere in the test
suite, so keep them boring and independent.

Callables are row-batched: a value field ``f`` maps an ``(m, d)`` array of
points to their ``(m,)`` values, and a gradient field maps ``(m, d)`` points
to ``(m, d)`` gradients.  Each routine builds its whole stencil first and
evaluates it with a single call.
"""

from __future__ import annotations

import numpy as np

from .errors import NonFiniteError
from .model import _check_number, _points


def _evaluate(fn, points, shape, what):
    """``fn`` at the rows of ``points``, checked to have ``shape``."""
    out = np.asarray(fn(points), dtype=np.float64)
    if out.shape != shape:
        raise ValueError(f"{what} returned shape {out.shape} for {len(points)} rows, "
                         f"expected {shape}")
    return out


def _central_stencil(x, step):
    """Points ``x +- step e_i`` with shape ``x.shape[:-1] + (2, n, n)``:
    index ``[..., 0, i, :]`` is the plus leg of coordinate ``i``, ``[..., 1,
    i, :]`` its minus leg."""
    n = x.shape[-1]
    legs = np.empty(x.shape[:-1] + (2, n, n))
    legs[...] = x[..., None, None, :]
    # Entry (i, i) of each n x n leg sits at flat offset i (n + 1).
    diag = legs.reshape(x.shape[:-1] + (2, n * n))[..., ::n + 1]
    diag[..., 0, :] += step
    diag[..., 1, :] -= step
    return legs


def _first_bad(ok, stacked):
    """The stencil coordinate (and point, for a stack) of the first False in
    ``ok``, which is indexed ``[point,] coordinate``."""
    bad = np.argwhere(~ok)[0]
    return f"coordinate {bad[-1]}" + (f" of point {bad[0]}" if stacked else "")


def fd_gradient(f, x, step: float = 1e-6) -> np.ndarray:
    """Central-difference gradient of a scalar field ``f`` at ``x``.

    ``x`` is one point of shape ``(n,)`` or a stack of points of shape
    ``(m, n)``; the result has the shape of ``x``.  All ``2 n`` (or
    ``2 m n``) stencil points go to ``f`` in one call.
    """
    _check_number(step, "step", positive=True)
    x = _points(x, None, "x")
    n = x.shape[-1]
    legs = _central_stencil(x, step)
    vals = _evaluate(f, legs.reshape(-1, n), (legs.size // n,), "f")
    vals = vals.reshape(legs.shape[:-1])
    if not np.isfinite(vals).all():
        where = _first_bad(np.all(np.isfinite(vals), axis=-2), x.ndim == 2)
        raise NonFiniteError(f"non-finite evaluation near {where}")
    return (vals[..., 0, :] - vals[..., 1, :]) / (2.0 * step)


def fd_directional(f, x, d, step: float = 1e-7):
    """One-sided difference quotient ``(f(x + step d) - f(x)) / step``.

    ``d`` is one unit direction of shape ``(n,)``, giving a float, or a stack
    of unit directions of shape ``(m, n)``, giving ``(m,)`` quotients; the
    base point and all ``m`` steps go to ``f`` in one call of ``m + 1`` rows.
    One-sided quotients are the only consistent estimate at a kink, where
    the two-sided ones average the branches away.
    """
    _check_number(step, "step", positive=True)
    x = _points(x, None, "x", stack=False)
    d = _points(d, x.size, "d")
    dirs = np.atleast_2d(d)
    if not np.all(np.isclose(np.linalg.norm(dirs, axis=1), 1.0, rtol=1e-8, atol=0.0)):
        raise ValueError("direction must be unit length")
    m = len(dirs)
    vals = _evaluate(f, np.vstack([x, x + step * dirs]), (m + 1,), "f")
    bad = np.flatnonzero(~np.isfinite(vals))
    if bad.size:
        where = "at the base point" if bad[0] == 0 else f"along direction {bad[0] - 1}"
        raise NonFiniteError(f"non-finite evaluation in directional quotient {where}")
    quotients = (vals[1:] - vals[0]) / step
    return float(quotients[0]) if d.ndim == 1 else quotients


def fd_hessian(grad, x, step: float = 1e-5) -> np.ndarray:
    """Central differences of a gradient field, symmetrized.

    ``grad`` maps points to gradient vectors; it may itself be analytic or
    a finite-difference composition such as ``lambda P: fd_gradient(f, P)``.
    ``x`` is one point of shape ``(n,)``, giving an ``(n, n)`` matrix, or a
    stack of points of shape ``(m, n)``, giving ``(m, n, n)``; all ``2 n``
    (or ``2 m n``, one block of ``2 n`` per point) stencil points go to
    ``grad`` in one call.  The raw column estimate is averaged with its
    transpose before returning.
    """
    _check_number(step, "step", positive=True)
    x = _points(x, None, "x")
    n = x.shape[-1]
    legs = _central_stencil(x, step)
    grads = _evaluate(grad, legs.reshape(-1, n), (legs.size // n, n), "grad")
    grads = grads.reshape(legs.shape)
    if not np.isfinite(grads).all():
        where = _first_bad(np.all(np.isfinite(grads), axis=(-3, -1)), x.ndim == 2)
        raise NonFiniteError(f"non-finite gradient evaluation near {where}")
    H = np.swapaxes((grads[..., 0, :, :] - grads[..., 1, :, :]) / (2.0 * step), -1, -2)
    return 0.5 * (H + np.swapaxes(H, -1, -2))
