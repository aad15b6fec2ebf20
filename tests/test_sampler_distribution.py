"""The sampler's distribution, not only its draws: at a fixed seed and size,
``sample_optimal_branches`` spreads each free ReLU coordinate uniformly over
its interval and each cone-tip multiplier uniformly over its ball.

``test_matches_per_branch_loop_bitwise`` repeats the sampler's own draws, so
radii ``lam * u`` instead of ``lam * u ** (1 / dim)``, or draws pinned to 0
or 1, pass it; they fail these tests.
"""

import numpy as np
import pytest

from socicnn import degeneracy_report, forward, sample_optimal_branches

from conftest import planted_kinks

N, SEED = 2000, 11
# Two-sided Kolmogorov-Smirnov critical value at level 0.001 for N draws, in its
# asymptotic form sqrt(ln(2 / 0.001) / 2) / sqrt(N): 0.0436 at N = 2000.
KS_CRIT = np.sqrt(np.log(2.0 / 1e-3) / 2.0) / np.sqrt(N)


def ks_uniform(s):
    """Kolmogorov-Smirnov distance of the sample ``s`` from uniform on [0, 1]."""
    s = np.sort(s)
    i = np.arange(1, len(s) + 1)
    return max(np.max(i / len(s) - s), np.max(s - (i - 1) / len(s)))


@pytest.fixture(scope="module")
def sample():
    """``planted_kinks()``: three free coordinates over two layers and cone
    tips of dimensions 3 and 5."""
    params, x = planted_kinks()
    trace = forward(params, x)
    report = degeneracy_report(trace)
    assert report.relu_zero_coords == ((0, 1), (0, 4), (1, 2))
    assert report.conic_zero_modules == (0, 1)
    return params, report, sample_optimal_branches(params, trace, n=N, seed=SEED)


def free_fractions(params, report, stack):
    """``(N, n_free)``: each free coordinate over its bound, in report order.
    The top layer is bounded by ``c``, layer ``l`` by ``U[l+1].T`` times the
    multipliers drawn above it."""
    top = params.n_layers - 1
    cols = []
    for l, i in report.relu_zero_coords:
        bound = params.c[i] if l == top else np.matvec(params.U[l + 1].T, stack.relu[l + 1])[:, i]
        assert np.all(bound > 0.0)
        cols.append(stack.relu[l][:, i] / bound)
    return np.column_stack(cols)


def test_tip_radii_are_uniform_in_volume(sample):
    """``(radius / lam) ** dim`` is uniform for a uniform draw from the ball."""
    params, report, stack = sample
    for g in report.conic_zero_modules:
        dim = params.A[g].shape[0]
        s = (np.linalg.norm(stack.cone[g], axis=1) / params.lam[g]) ** dim
        assert ks_uniform(s) <= KS_CRIT, (g, ks_uniform(s))


def test_free_coordinates_are_uniform_on_their_intervals(sample):
    for k, s in enumerate(free_fractions(*sample).T):
        assert ks_uniform(s) <= KS_CRIT, (k, ks_uniform(s))


def test_every_half_box_orthant_is_hit(sample):
    """Each of the 2**3 orthants of the box, split at half of every free
    coordinate's bound, holds some branch."""
    upper_half = free_fractions(*sample) > 0.5
    codes = upper_half @ (1 << np.arange(upper_half.shape[1]))
    assert sorted(set(codes.tolist())) == list(range(2 ** upper_half.shape[1]))
