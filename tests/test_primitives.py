"""The per-row primitives against the code they replaced.

``np.matvec`` and ``np.vecdot`` stand where the package's own ``_matvec``
and ``_dot`` helpers stood, ``oracle._central_stencil`` writes its legs
through a strided diagonal view instead of ``np.repeat`` and fancy
indexing, and exp3's support check reduces blocks of directions instead of
blocks of branches.  Each ``reference_*`` below is a verbatim copy of the
replaced code.  The replacements claim the same arithmetic, so every
comparison is bitwise (shape, dtype and bytes, so a ``-0.0`` counts): a
mismatch on another machine names the primitive whose BLAS path or
reduction differs there.
"""

import numpy as np
import pytest

from socicnn import dual
from socicnn.experiments import Exp3Config
from socicnn.geometry import _support_maxima
from socicnn.model import _gaussian_nonzero, build_degenerate_2d, forward
from socicnn.oracle import _central_stencil


def reference_matvec(M, X):
    if X.ndim == 1:
        return M @ X
    return (M @ X[:, :, None])[:, :, 0]


def reference_dot(X, Y):
    if X.ndim == Y.ndim == 1:
        return X @ Y
    return (X[..., None, :] @ Y[..., :, None])[..., 0, 0]


def reference_central_stencil(x, step):
    n = x.shape[-1]
    legs = np.repeat(x[..., None, None, :], n, axis=-2)
    legs = np.repeat(legs, 2, axis=-3)
    diag = np.arange(n)
    legs[..., 0, diag, diag] += step
    legs[..., 1, diag, diag] -= step
    return legs


def reference_support_maxima(dirs, readouts, chunk=128):
    col_max = np.full(len(dirs), -np.inf)
    for start in range(0, len(readouts), chunk):
        block = readouts[start:start + chunk] @ dirs.T
        np.maximum(col_max, np.max(block, axis=0), out=col_max)
    return col_max


def assert_bitwise(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert (got.shape, got.dtype) == (want.shape, want.dtype)
    assert np.array_equal(got, want)
    assert got.tobytes() == want.tobytes()


def matrices(rng, m, n):
    """An ``(m, n)`` matrix as C-ordered, F-ordered and a transposed view."""
    M = rng.standard_normal((m, n))
    return [M, np.asfortranarray(M), rng.standard_normal((n, m)).T]


@pytest.mark.parametrize("seed", range(40))
def test_matvec_is_the_old_helper(seed):
    rng = np.random.default_rng([seed, 21])
    m, n = (int(v) for v in rng.integers(1, 300 if seed < 4 else 48, size=2))
    for M in matrices(rng, m, n):
        for X in (rng.standard_normal(n), rng.standard_normal((1, n)),
                  rng.standard_normal((int(rng.integers(2, 9)), n))):
            assert_bitwise(np.matvec(M, X), reference_matvec(M, X))


@pytest.mark.parametrize("rows", [None, 1, 5])
def test_matvec_zero_column_first_layer(rows):
    """Layer 0's skip matrix ``U[0]`` has no columns and ``z`` no entries."""
    U0 = np.zeros((7, 0))
    z = np.zeros((0,) if rows is None else (rows, 0))
    for M in (U0, np.zeros((0, 7)).T):
        assert_bitwise(np.matvec(M, z), reference_matvec(M, z))


@pytest.mark.parametrize("seed", range(40))
def test_vecdot_is_the_old_helper(seed):
    rng = np.random.default_rng([seed, 22])
    n = int(rng.integers(0, 5000 if seed < 4 else 64))
    x, y = rng.standard_normal(n), rng.standard_normal(n)
    for rows in (1, int(rng.integers(2, 9))):
        S, T = rng.standard_normal((rows, n)), rng.standard_normal((rows, n))
        for a, b in ((x, y), (x, S), (S, y), (S, T), (S, S), (T[:, ::-1], S)):
            assert_bitwise(np.vecdot(a, b), reference_dot(a, b))


@pytest.mark.parametrize("x", [
    [0.3, -0.0, 2.5],
    [[-0.0, 1.0], [4.0, -0.0], [1e-300, -7.0]],
    [-0.0],
    np.random.default_rng(23).standard_normal((4, 9)),
], ids=["point", "stack", "one-coordinate", "random-stack"])
@pytest.mark.parametrize("step", [1e-6, 1e-5, 0.5])
def test_central_stencil_is_the_old_one(x, step):
    x = np.asarray(x, dtype=np.float64)
    assert_bitwise(_central_stencil(x, step), reference_central_stencil(x, step))


@pytest.mark.parametrize("seed", [0, 99])
def test_exp3_support_maxima_are_the_branch_major_loop(seed):
    """The readouts and directions exactly as ``run_exp3`` builds them."""
    cfg = Exp3Config(seed=seed)
    params, x0 = build_degenerate_2d(cfg.degeneracy)
    dirs, _ = _gaussian_nonzero(np.random.default_rng([cfg.seed, 1]), 2, cfg.directions)
    dirs /= np.linalg.norm(dirs, axis=1)[:, None]
    branches = dual.sample_optimal_branches(
        params, forward(params, x0), cfg.tol, n=cfg.branches, seed=cfg.seed + 3
    )
    readouts = dual.readout(params, branches)
    assert_bitwise(_support_maxima(dirs, readouts), reference_support_maxima(dirs, readouts))
