"""The per-row primitives against the code they replaced.

``np.matvec`` and ``np.vecdot`` stand where the package's own ``_matvec``
and ``_dot`` helpers stood, ``oracle._central_stencil`` writes its legs
through a strided diagonal view instead of ``np.repeat`` and fancy
indexing, and exp3's support check reduces blocks of directions instead of
blocks of branches, over the sampled readouts that are not strictly inside
the polygon of their extreme rows.  Each ``reference_*`` below (and
``conftest.reference_support_maxima``) is a verbatim copy of the replaced
code.  The replacements claim the same arithmetic, so every comparison on
exp3's own inputs is bitwise (shape, dtype and bytes, so a ``-0.0``
counts): a mismatch on another machine names the primitive whose BLAS path
or reduction differs there.

On other readout sets the support maxima are held within
``4 eps max_i (|u_0 r_i0| + |u_1 r_i1|)`` of the branch-major reference, a
bound fixed from the dtype: OpenBLAS picks its kernel by shape, and the
blocked scan over every row already differs from the reference in the last
bit on generic sets (4.4e-16 on 5000 Gaussian points).  Where the hull
pre-filter drops nothing, the maxima are bitwise those of the blocked scan
over every row.
"""

import tracemalloc

import numpy as np
import pytest

from socicnn.geometry import HULL_MARGIN, HULL_PROBES, _hull_candidates, _support_maxima
from socicnn.oracle import _central_stencil

from conftest import exp3_support_inputs, reference_support_maxima


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


def reference_blocked_maxima(units, readouts, block=80_000):
    """``_support_maxima`` before its hull pre-filter: every row, in blocks of
    directions against one C-ordered copy of ``readouts.T``."""
    by_coord = np.ascontiguousarray(readouts.T)
    best = np.empty(len(units))
    step = max(1, block // len(readouts))
    for start in range(0, len(units), step):
        blk = slice(start, start + step)
        np.max(units[blk] @ by_coord, axis=1, out=best[blk])
    return best


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


# About 8 ms a seed; seeds 0-99 were all bitwise when the pre-filter came in.
@pytest.mark.parametrize("seed", [*range(10), 34, 52, 99])
def test_exp3_support_maxima_are_the_branch_major_loop(seed):
    dirs, readouts = exp3_support_inputs(seed)
    kept = _hull_candidates(readouts)
    assert len(kept) < len(readouts) // 20  # 55-217 of 5000 rows at seeds 0-99
    assert_bitwise(_support_maxima(dirs, readouts), reference_support_maxima(dirs, readouts))


def traced_peak(call):
    """Peak of ``tracemalloc``'s traced memory above what was allocated before ``call()``."""
    tracemalloc.start()
    try:
        call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak


@pytest.mark.parametrize("seed", [0, 99])
def test_exp3_support_maxima_peak_is_at_most_the_blocked_scans(seed):
    """The pre-filter's products share one buffer of one value per row, so the
    peak stays at most that of the scan over every row: its 16 x 5000 block
    plus the transposed copy of the readouts (728 kB with the result)."""
    dirs, readouts = exp3_support_inputs(seed)
    _support_maxima(dirs, readouts)
    scan = traced_peak(lambda: reference_blocked_maxima(dirs, readouts))
    assert scan > 16 * 5000 * 8
    assert traced_peak(lambda: _support_maxima(dirs, readouts)) <= scan


def test_hull_probes_are_twelve_unit_directions_30_degrees_apart():
    """The probe table is written out, so check it: unit rows, counterclockwise, each
    30 degrees past the one before it, the last one back to the first."""
    nxt = np.roll(HULL_PROBES, -1, axis=0)
    assert HULL_PROBES.shape == (12, 2)
    assert np.allclose(np.linalg.norm(HULL_PROBES, axis=1), 1.0, rtol=0.0, atol=1e-15)
    assert np.allclose(np.vecdot(HULL_PROBES, nxt), 0.75**0.5, rtol=0.0, atol=1e-15)
    cross = HULL_PROBES[:, 0] * nxt[:, 1] - HULL_PROBES[:, 1] * nxt[:, 0]
    assert np.allclose(cross, 0.5, rtol=0.0, atol=1e-15)


def unit_directions(seed, m=200, d=2):
    dirs = np.random.default_rng([seed, 24]).standard_normal((m, d))
    return dirs / np.linalg.norm(dirs, axis=1)[:, None]


def thin_box(rng):
    return rng.uniform(size=(3000, 2)) * [3.0, 0.01]


def collinear(rng):
    return np.outer(rng.standard_normal(2000), [0.6, -0.8]) + [0.25, 1.5]


def heavy_duplicates(rng):
    return rng.standard_normal((40, 2))[rng.integers(0, 40, size=4000)]


# Each set with whether the pre-filter drops rows from it.  On the equal rows every
# probe picks row 0, so the polygon has no vertex at all.
EDGE_SETS = {
    "all-rows-equal": (lambda rng: np.tile(rng.standard_normal(2), (512, 1)), False),
    "collinear": (collinear, False),
    "heavy-duplicates": (heavy_duplicates, True),
    "thin-3-by-0.01-box": (thin_box, True),
    "gaussian-scale-1e3": (lambda rng: 1e3 * rng.standard_normal((5000, 2)), True),
    "tiny-offset-cloud": (lambda rng: 1e-3 * rng.standard_normal((3000, 2)) + [7.0, -2.0], True),
    "forty-gaussian-rows": (lambda rng: rng.standard_normal((40, 2)), True),
    "three-dimensional": (lambda rng: rng.standard_normal((3000, 3)), False),
}


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("name", sorted(EDGE_SETS))
def test_support_maxima_on_edge_sets(name, seed):
    """Within the dtype's bound of the branch-major reference on every set, and
    bitwise the blocked scan over every row where the pre-filter drops nothing."""
    build, drops = EDGE_SETS[name]
    readouts = build(np.random.default_rng([seed, 25]))
    dirs = unit_directions(seed, d=readouts.shape[1])
    got = _support_maxima(dirs, readouts)
    kept = _hull_candidates(readouts) if readouts.shape[1] == 2 else readouts
    assert (len(kept) < len(readouts)) == drops
    if not drops:
        assert_bitwise(got, reference_blocked_maxima(dirs, readouts))
    bound = 4 * np.finfo(np.float64).eps * np.max(np.abs(dirs) @ np.abs(readouts).T, axis=1)
    assert np.all(np.abs(got - reference_support_maxima(dirs, readouts)) <= bound)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_a_non_finite_row_keeps_every_row(bad):
    readouts = np.random.default_rng(27).standard_normal((1000, 2))
    readouts[417, 1] = bad
    assert _hull_candidates(readouts) is readouts
    dirs = unit_directions(3)
    got = _support_maxima(dirs, readouts)
    assert got.tobytes() == reference_blocked_maxima(dirs, readouts).tobytes()


@pytest.mark.parametrize("scale", [1e-120, 1e120])
def test_extreme_scales_keep_every_row(scale):
    readouts = scale * np.random.default_rng(28).standard_normal((1000, 2))
    assert _hull_candidates(readouts) is readouts


def test_every_dropped_row_is_strictly_inside_the_kept_hull():
    """The exactness argument, checked directly: along every direction each
    dropped row's slope sits below the kept rows' maximum by at least the radius
    of the disc about it that the margin puts inside the hull."""
    readouts = np.random.default_rng(29).standard_normal((5000, 2))
    radius = HULL_MARGIN * np.max(np.abs(readouts)) / 2**1.5
    kept = _hull_candidates(readouts)
    dropped = readouts[~(readouts[:, None, :] == kept[None, :, :]).all(axis=2).any(axis=1)]
    assert len(kept) + len(dropped) == len(readouts) and len(kept) < 250
    dirs = unit_directions(4, m=2000)
    gap = np.max(dirs @ kept.T, axis=1) - np.max(dirs @ dropped.T, axis=1)
    assert np.min(gap) > 0.99 * radius
