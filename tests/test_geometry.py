"""Gradients, subdifferential samples, and directional derivatives."""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from socicnn import (
    ArchSpec,
    DegenerateInputError,
    NonFiniteError,
    SocIcnnParams,
    ValidationError,
    argmax_branch,
    build_random,
    degeneracy_report,
    directional_derivative,
    fd_directional,
    fd_gradient,
    feasibility_violation,
    forward,
    forward_values,
    gradient,
    readout,
    sample_optimal_branches,
)
from socicnn import dual
from socicnn.model import DEFAULT_TAU, _nondegenerate_rows

from conftest import (
    branch_row,
    cone_only_params,
    constant_params,
    gaussian_points,
    planted_kinks,
    quad_only_params,
    reference_corners,
    single_layer_params,
    zero_preact_pair,
)


def subdifferential_sample(params, x, n=64, seed=0):
    """Readouts of ``n`` sampled optimal branches stacked on those of the
    ReLU corners, both drawn from one trace."""
    trace = forward(params, x)
    sampled = sample_optimal_branches(params, trace, n=n, seed=seed)
    corners = reference_corners(params, trace)
    return np.vstack([readout(params, sampled), readout(params, corners)])


def canonical_gap_fraction(params, x, n_directions, seed=0):
    """Share of Gaussian directions along which the canonical slope falls
    more than 1e-9 short of the support function."""
    dirs = gaussian_points(seed, n_directions, params.input_dim)
    res = directional_derivative(params, x, dirs)
    return int(np.count_nonzero(res.dual_max - res.canonical_value > 1e-9)) / n_directions


class TestGradient:
    def test_pure_quadratic(self):
        params = quad_only_params(alpha=2.0)
        assert np.allclose(gradient(params, [1.0, 1.0]), [2.0, 2.0], atol=1e-15)

    def test_constant_network_gradient_is_v(self):
        params = constant_params(b0=3.5)
        assert np.array_equal(gradient(params, [0.3, 9.0]), params.v)

    def test_matches_fd_oracle(self, medium_model):
        f = lambda Y: forward_values(medium_model, Y)
        for x in gaussian_points(60, 5, medium_model.input_dim):
            g = gradient(medium_model, x)
            assert np.linalg.norm(g - fd_gradient(f, x)) <= 1e-6

    def test_kink_raises(self, degenerate_model):
        params, x0 = degenerate_model
        with pytest.raises(DegenerateInputError):
            gradient(params, x0)

    def test_conic_tip_raises(self):
        params = cone_only_params()
        with pytest.raises(DegenerateInputError):
            gradient(params, [0.0, 0.0])


class TestSubdifferentialSample:
    def test_singleton_at_smooth_point(self, medium_model):
        x = gaussian_points(61, 1, medium_model.input_dim)[0]
        g = gradient(medium_model, x)
        sample = subdifferential_sample(medium_model, x, n=10)
        assert len(sample) >= 1
        for s in sample:
            assert np.linalg.norm(s - g) <= 1e-12

    def test_degenerate_point_is_set_valued(self, degenerate_model):
        params, x0 = degenerate_model
        sample = subdifferential_sample(params, x0, n=40)
        spread = max(np.linalg.norm(s - sample[0]) for s in sample)
        assert spread > 1e-3

    def test_every_sample_is_a_subgradient(self, degenerate_model):
        params, x0 = degenerate_model
        f0 = forward(params, x0).value
        sample = subdifferential_sample(params, x0, n=25)
        probes = x0 + gaussian_points(15, 30, 2)
        for g in sample:
            for y in probes:
                assert forward(params, y).value >= f0 + g @ (y - x0) - 1e-10

    def test_convex_combinations_are_subgradients(self, degenerate_model):
        """The subdifferential is convex, so midpoints of sampled elements
        must satisfy the same supporting inequality."""
        params, x0 = degenerate_model
        f0 = forward(params, x0).value
        sample = subdifferential_sample(params, x0, n=12)
        mid = 0.5 * (sample[0] + sample[-1])
        for y in x0 + gaussian_points(16, 30, 2):
            assert forward(params, y).value >= f0 + mid @ (y - x0) - 1e-10

    @pytest.mark.parametrize("where", ["smooth", "kink"])
    def test_equals_per_branch_readouts(self, medium_model, degenerate_model, where):
        """The stacked readout gives, row for row and bit for bit, the
        readouts of the sampled branches followed by the corner ones."""
        if where == "smooth":
            params, x = medium_model, gaussian_points(62, 1, medium_model.input_dim)[0]
        else:
            params, x = degenerate_model
        sample = subdifferential_sample(params, x, n=15, seed=4)
        tr = forward(params, x)
        stacks = (sample_optimal_branches(params, tr, n=15, seed=4),
                  reference_corners(params, tr))
        branches = [branch_row(s, k) for s in stacks for k in range(s.relu[0].shape[0])]
        assert sample.shape == (len(branches), params.input_dim)
        for row, br in zip(sample, branches):
            assert np.array_equal(row, readout(params, br))


class TestDirectionalDerivative:
    def test_smooth_point_all_routes_agree(self, medium_model):
        x = gaussian_points(70, 1, medium_model.input_dim)[0]
        g = gradient(medium_model, x)
        rng = np.random.default_rng(0)
        for _ in range(5):
            d = rng.standard_normal(medium_model.input_dim)
            res = directional_derivative(medium_model, x, d)
            expect = float(g @ d)
            assert res.dual_max == pytest.approx(expect, rel=1e-12, abs=1e-12)
            assert res.primal == pytest.approx(expect, rel=1e-12, abs=1e-12)
            assert res.canonical_value == pytest.approx(expect, rel=1e-12, abs=1e-12)

    def test_conic_tip_primal_is_norm(self):
        """At the cone tip the one-sided derivative along d is lam * ||A d||
        for every direction, so with a full-rank ``A`` the canonical slope
        falls short of it along every direction."""
        A = np.array([[0.7, 0.2], [-0.1, 0.6]])
        params = cone_only_params(lam=0.8, A=A)
        rng = np.random.default_rng(1)
        for _ in range(8):
            d = rng.standard_normal(2)
            res = directional_derivative(params, [0.0, 0.0], d)
            expect = 0.8 * float(np.linalg.norm(A @ d))
            assert res.primal == pytest.approx(expect, rel=1e-12)
            assert res.dual_max == pytest.approx(expect, rel=1e-9)
            assert res.dual_max - res.canonical_value > 1e-9

    def test_absolute_value_both_sides(self):
        params = zero_preact_pair()
        for d, expect in (([1.0], 1.0), ([-1.0], 1.0), ([2.0], 2.0)):
            res = directional_derivative(params, [0.0], d)
            assert res.dual_max == pytest.approx(expect, abs=1e-12)
            assert res.primal == pytest.approx(expect, abs=1e-12)

    def test_dual_equals_primal_at_degenerate_point(self, degenerate_model):
        params, x0 = degenerate_model
        for d in gaussian_points(71, 30, 2):
            res = directional_derivative(params, x0, d)
            assert res.dual_max == pytest.approx(res.primal, rel=1e-11, abs=1e-12)

    def test_matches_fd_oracle_at_kink(self, degenerate_model):
        params, x0 = degenerate_model
        f = lambda Y: forward_values(params, Y)
        for d in gaussian_points(72, 10, 2):
            unit = d / np.linalg.norm(d)
            res = directional_derivative(params, x0, unit)
            assert abs(fd_directional(f, x0, unit) - res.dual_max) <= 2e-7

    def test_positive_homogeneity(self, degenerate_model):
        params, x0 = degenerate_model
        d = np.array([0.6, -0.8])
        base = directional_derivative(params, x0, d)
        scaled = directional_derivative(params, x0, 7.5 * d)
        assert scaled.dual_max == pytest.approx(7.5 * base.dual_max, rel=1e-13)
        assert scaled.primal == pytest.approx(7.5 * base.primal, rel=1e-13)

    @pytest.mark.parametrize("direction", [
        [1e-200, 1e-200], [1e-160, 3e-161], [5e-324, 0.0], [[0.6, -0.8], [-3e-310, 1e-300]],
    ])
    def test_tiny_direction_normalizes(self, degenerate_model, direction):
        """Squares of these entries underflow: ``[1e-200, 1e-200]`` used to
        be rejected as zero and ``[1e-160, 3e-161]`` to give a unit vector of
        norm 1.0000418."""
        params, x0 = degenerate_model
        res = directional_derivative(params, x0, direction)
        assert np.all(np.abs(np.linalg.norm(np.atleast_2d(res.direction), axis=1) - 1.0) <= 1e-15)

    def test_homogeneous_down_to_tiny_scales(self, degenerate_model):
        params, x0 = degenerate_model
        d = np.array([0.6, -0.8])
        base = directional_derivative(params, x0, d)
        for t in (1e-100, 1e-160, 1e-200, 1e-250, 1e-300):
            res = directional_derivative(params, x0, t * d)
            assert res.dual_max == pytest.approx(t * base.dual_max, rel=1e-14)
            assert res.primal == pytest.approx(t * base.primal, rel=1e-14)
            assert np.abs(res.direction - base.direction).max() <= 1e-15

    def test_canonical_never_exceeds_support(self, degenerate_model):
        """At the hand-built kink the canonical slope stays strictly below
        the support function along every probed direction."""
        params, x0 = degenerate_model
        for d in gaussian_points(73, 40, 2):
            res = directional_derivative(params, x0, d)
            assert res.canonical_value <= res.dual_max + 1e-10
            assert res.dual_max - res.canonical_value > 1e-9

    def test_sampled_oracle_lower_bounds_exact(self, degenerate_model):
        """The maximum over sampled optimal branches lies between the
        canonical slope and the exact support value."""
        params, x0 = degenerate_model
        branches = sample_optimal_branches(params, forward(params, x0), n=256, seed=5)
        readouts = readout(params, branches)
        assert readouts.shape == (256, 2)
        for d in gaussian_points(74, 6, 2):
            exact = directional_derivative(params, x0, d)
            approx = float(np.max(readouts @ d))
            assert approx <= exact.dual_max + 1e-9
            assert approx >= exact.canonical_value - 1e-9

    def test_zero_direction_rejected(self, medium_model):
        with pytest.raises(ValueError):
            directional_derivative(
                medium_model, np.zeros(medium_model.input_dim), np.zeros(medium_model.input_dim)
            )

    def test_seventeen_free_coords_need_no_cap(self):
        """Seventeen free coordinates (2**17 corners) need no enumeration:
        f(x) = sum_k relu(k x / 4) for k = -8..8, all 17 kinks at x = 0, has
        slope 9 both ways."""
        params = SocIcnnParams(
            W=(np.arange(-8, 9)[:, None] / 4.0,),
            U=(np.zeros((17, 0)),),
            b=(np.zeros(17),),
            c=np.ones(17),
            v=np.array([0.0]),
            b0=0.0,
        )
        assert len(degeneracy_report(forward(params, [0.0])).relu_zero_coords) == 17
        for d in (1.0, -1.0):
            res = directional_derivative(params, [0.0], [d])
            assert res.dual_max == res.primal == 9.0

    def test_thirteen_free_coords_are_exact(self):
        """f(x) = sum_k relu(k x / 4) for k = -6..6, all 13 kinks at x = 0."""
        params = SocIcnnParams(
            W=(np.arange(-6, 7)[:, None] / 4.0,),
            U=(np.zeros((13, 0)),),
            b=(np.zeros(13),),
            c=np.ones(13),
            v=np.array([0.0]),
            b0=0.0,
        )
        for d in (1.0, -1.0):
            res = directional_derivative(params, [0.0], [d])
            assert res.dual_max == res.primal == 5.25


class TestStackedDirections:
    """An ``(m, d)`` stack of directions shares one trace and gives, row by
    row, what the one-vector calls give."""

    @pytest.mark.parametrize("where", ["degenerate", "cone-tip", "medium"])
    def test_matches_per_row_calls(self, where, degenerate_model, medium_model):
        if where == "degenerate":
            params, x = degenerate_model
        elif where == "cone-tip":
            params, x = cone_only_params(lam=0.8, A=[[0.7, 0.2], [-0.1, 0.6]]), np.zeros(2)
        else:
            params = medium_model
            x = gaussian_points(75, 1, params.input_dim)[0]
        D = 3.0 * gaussian_points(76, 25, params.input_dim)
        stacked = directional_derivative(params, x, D)
        assert stacked.direction.shape == D.shape
        for name in ("dual_max", "primal", "canonical_value"):
            col = getattr(stacked, name)
            assert col.shape == (len(D),)
            ref = np.array([getattr(directional_derivative(params, x, d), name) for d in D])
            assert np.allclose(col, ref, rtol=1e-13, atol=0.0), name

    def test_single_vector_gives_floats(self, degenerate_model):
        params, x0 = degenerate_model
        res = directional_derivative(params, x0, [0.6, -0.8])
        assert res.direction.shape == (2,)
        for value in (res.dual_max, res.primal, res.canonical_value):
            assert type(value) is float

    def test_one_trace_for_the_stack(self, degenerate_model, monkeypatch):
        import socicnn.geometry as geometry

        calls = []

        def counting_forward(params, x):
            calls.append(1)
            return forward(params, x)

        monkeypatch.setattr(geometry, "forward", counting_forward)
        params, x0 = degenerate_model
        directional_derivative(params, x0, gaussian_points(77, 40, 2))
        assert len(calls) == 1

    def test_zero_row_rejected(self, degenerate_model):
        params, x0 = degenerate_model
        with pytest.raises(ValidationError, match="nonzero"):
            directional_derivative(params, x0, [[1.0, 0.0], [0.0, 0.0]])

    def test_wrong_width_rejected(self, degenerate_model):
        params, x0 = degenerate_model
        with pytest.raises(ValidationError, match="shape"):
            directional_derivative(params, x0, np.ones((3, 3)))

    @pytest.mark.parametrize("direction", [
        [np.nan, 1.0], [np.inf, 1.0], [1e300, 1e300], [[1.0, 0.0], [1.0, -np.inf]],
    ])
    def test_non_finite_direction_rejected(self, degenerate_model, direction):
        """A NaN or infinite direction, or one whose norm overflows, raises
        ``NonFiniteError`` before any NumPy warning or NaN result."""
        params, x0 = degenerate_model
        with pytest.raises(NonFiniteError):
            directional_derivative(params, x0, direction)


class TestCanonicalGapFraction:
    def test_smooth_point_has_no_gap(self, medium_model):
        x = gaussian_points(80, 1, medium_model.input_dim)[0]
        assert canonical_gap_fraction(medium_model, x, n_directions=100) == 0.0

    def test_degenerate_point_gaps_everywhere(self, degenerate_model):
        """Around the hand-built kink the canonical slope underestimates the
        support function along every probed direction."""
        params, x0 = degenerate_model
        assert canonical_gap_fraction(params, x0, n_directions=200) == 1.0

    def test_full_rank_tip_gaps_everywhere(self):
        params = cone_only_params(lam=0.8)
        assert canonical_gap_fraction(params, [0.0, 0.0], n_directions=64) == 1.0


class TestLimitConsistency:
    def test_nearby_gradients_approach_the_subdifferential(self, degenerate_model):
        """Gradients just off the kink are near-subgradients at the kink:
        the supporting inequality holds with slack proportional to the
        offset."""
        params, x0 = degenerate_model
        f0 = forward(params, x0).value
        eps = 1e-8
        probes = x0 + gaussian_points(17, 25, 2)
        for d in ([1.0, 0.4], [-0.7, 0.3]):
            step = eps * np.asarray(d) / np.linalg.norm(d)
            g = gradient(params, x0 + step)
            for y in probes:
                assert forward(params, y).value >= f0 + g @ (y - x0) - 1e-6


class TestPlantedKinks:
    """Three free ReLU coordinates and cone tips of dimensions 3 and 5 at one
    point, where a discretized ball would fall short of the support."""

    def test_support_function_is_exact(self):
        params, x = planted_kinks()
        report = degeneracy_report(forward(params, x))
        assert report.relu_zero_coords == ((0, 1), (0, 4), (1, 2))
        assert report.conic_zero_modules == (0, 1)
        units = gaussian_points(90, 200, params.input_dim)
        units /= np.linalg.norm(units, axis=1)[:, None]
        res = directional_derivative(params, x, units)
        assert np.all(np.abs(res.dual_max - res.primal) <= 1e-12 * np.abs(res.primal))
        fd = fd_directional(lambda Y: forward_values(params, Y), x, units, step=1e-7)
        assert np.max(np.abs(fd - res.dual_max)) <= 1e-6
        assert canonical_gap_fraction(params, x, n_directions=200) == 1.0

    def test_support_memory_is_bounded_at_ten_free_coordinates(self):
        """At 10 free coordinates (1,024 corners) and 2,000 directions the
        peak of ``directional_derivative``, its 2,000 argmax rows included,
        stays under 2 MB, and the dual route is still exact."""
        coords = ((0, 0), (0, 2), (0, 4), (0, 6), (1, 0), (1, 2), (1, 4), (2, 0), (2, 2), (2, 4))
        params, x = planted_kinks(7, ArchSpec(6, (16, 16, 16), (3,), (4, 3)), coords, tips=(0,))
        assert degeneracy_report(forward(params, x)).relu_zero_coords == coords
        units = gaussian_points(5, 2000, params.input_dim)
        tracemalloc.start()
        try:
            res = directional_derivative(params, x, units)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2e6, peak
        assert np.all(np.abs(res.dual_max - res.primal) <= 1e-12 * (1 + np.abs(res.primal)))


# Sixteen planted free coordinates over three layers; a prefix of ``k`` plants ``k``,
# and every prefix of four or more spans all three layers.
CORNER_COORDS = ((2, 1), (0, 3), (1, 5), (2, 6), (0, 0), (1, 2), (2, 3), (0, 6),
                 (1, 7), (2, 0), (0, 2), (1, 0), (2, 7), (0, 5), (1, 4), (2, 4))
CORNER_ARCH = ArchSpec(6, (8, 8, 8), quad_dims=(3,), cone_dims=(3, 5))


class TestArgmaxBranch:
    """The sweep's sign pattern picks the maximizing branch: its slope is the
    largest over every corner the tests enumerate (``reference_corners``)
    plus the cone tips' ball terms, and every row is feasible and optimal."""

    @pytest.mark.parametrize("n_free", [0, 1, 4, 10, 16])
    def test_attains_the_enumerated_maximum(self, n_free):
        params, x = planted_kinks(11, CORNER_ARCH, CORNER_COORDS[:n_free])
        tr = forward(params, x)
        report = degeneracy_report(tr)
        assert report.relu_zero_coords == tuple(sorted(CORNER_COORDS[:n_free]))
        assert report.conic_zero_modules == (0, 1)
        units = gaussian_points(310 + n_free, 20, params.input_dim)
        units /= np.linalg.norm(units, axis=1)[:, None]
        stack = argmax_branch(params, tr, units)
        got = np.vecdot(readout(params, stack), units)
        corners = readout(params, reference_corners(params, tr))
        assert corners.shape == (2 ** n_free, params.input_dim)
        tips = sum(lg * np.linalg.norm(units @ A.T, axis=1) for lg, A in zip(params.lam, params.A))
        want = np.max(units @ corners.T, axis=1) + tips
        assert np.all(np.abs(got - want) <= 1e-12 * np.abs(want))
        assert np.max(feasibility_violation(params, stack)) <= 1e-12
        dual._check_optimal(params, tr, stack)

    def test_is_the_directional_derivative_branch(self):
        """``directional_derivative``'s ``argmax`` holds ``argmax_branch``'s
        rows bitwise, and ``dual_max`` is their slope.  One direction gives one
        branch, the stack's row up to the rounding of the tip products."""
        params, x = planted_kinks(11, CORNER_ARCH, CORNER_COORDS[:10])
        units = gaussian_points(320, 20, params.input_dim)
        res = directional_derivative(params, x, units)
        stack = argmax_branch(params, forward(params, x), res.direction)
        for got, want in zip(res.argmax.relu + res.argmax.cone, stack.relu + stack.cone):
            assert np.array_equal(got, want)
        slopes = np.vecdot(readout(params, stack), units)
        assert np.allclose(res.dual_max, slopes, rtol=1e-13, atol=0.0)
        one = directional_derivative(params, x, units[3])
        for got, want in zip(one.argmax.relu + one.argmax.cone, stack.relu + stack.cone):
            assert got.shape == want[3].shape
            assert np.allclose(got, want[3], rtol=1e-15, atol=1e-15)

    def test_one_sweep_per_call(self, monkeypatch):
        """``primal`` and ``dual_max`` come from one sweep of the stack."""
        params, x = planted_kinks(11, CORNER_ARCH, CORNER_COORDS[:10])
        sweep, calls = dual._one_sided_primal, []

        def counted(*args):
            calls.append(len(args[2]))
            return sweep(*args)

        monkeypatch.setattr(dual, "_one_sided_primal", counted)
        directional_derivative(params, x, gaussian_points(321, 40, params.input_dim))
        assert calls == [40]


def primal_sweep(params, trace, units):
    """The one primal route: the one-sided forward-mode sweep of a trace."""
    return dual._one_sided_primal(params, trace, units, DEFAULT_TAU)


class TestPrimalSweepGradient:
    """Off every kink the sweep along ``np.eye(d)`` is the gradient, an
    arithmetic route independent of the multiplier readout."""

    def test_all_inactive_returns_readout_affine(self):
        params = constant_params(b0=3.5)
        assert np.array_equal(primal_sweep(params, forward(params, [0.2, 0.2]), np.eye(2)),
                              params.v)

    def test_all_active_single_layer(self):
        params = single_layer_params(5.0)
        slope = primal_sweep(params, forward(params, [0.1, 0.1]), np.eye(2))
        assert np.allclose(slope, params.v + params.W[0].T @ params.c, atol=0)

    def test_backbone_slope_constant_on_the_branch(self, medium_model):
        """Without modules the slope is the frozen pattern's: a small step
        that keeps the activation pattern leaves it bitwise unchanged."""
        p = replace(medium_model, alpha=(), B=(), e=(), lam=(), A=(), d=())
        x = gaussian_points(94, 1, p.input_dim)[0]
        eye = np.eye(p.input_dim)
        s1 = primal_sweep(p, forward(p, x), eye)
        assert np.array_equal(s1, primal_sweep(p, forward(p, x + 1e-9), eye))

    def test_sweep_gradient_agrees_with_dual_readout(self, medium_model):
        for x in gaussian_points(95, 8, medium_model.input_dim):
            g_dual = gradient(medium_model, x)
            g_primal = primal_sweep(medium_model, forward(medium_model, x),
                                    np.eye(medium_model.input_dim))
            assert np.linalg.norm(g_dual - g_primal) <= 1e-12 * (1 + np.linalg.norm(g_dual))

    def test_stacked_trace_rows_match_one_point_calls(self, medium_model, degenerate_model):
        """At a stacked trace, each row of the sweep is bitwise its one-point
        trace's, along the axes and along random directions, a cone-tip row
        included (its tip module contributes the norm term)."""
        params, x0 = degenerate_model
        cases = (
            (medium_model, gaussian_points(97, 9, medium_model.input_dim)),
            (params, x0 + np.vstack([np.zeros(2), gaussian_points(99, 3, 2, scale=1e-2)])),
        )
        for p, X in cases:
            stack = forward(p, X)
            for units in (np.eye(p.input_dim), gaussian_points(98, 5, p.input_dim)):
                got = primal_sweep(p, stack, units)
                assert got.shape == (len(X), len(units))
                for k, x in enumerate(X):
                    one = primal_sweep(p, forward(p, x), units)
                    assert one.shape == (len(units),)
                    assert np.array_equal(got[k], one)


SWEEP_ARCHS = (
    ArchSpec(1, (3,)),
    ArchSpec(3, (5,), (2,), ()),
    ArchSpec(4, (6, 6), (), (3,)),
    ArchSpec(5, (7, 6, 5), (3, 2), (1,)),
    ArchSpec(6, (12, 12, 12), (3,), (4, 3)),
    ArchSpec(8, (16, 8), (4,), (5, 2)),
    ArchSpec(20, (64, 64, 64, 64), (20, 20), (20, 20)),
)

# Six free ReLU coordinates over three layers and one cone tip of dimension 4.
PLANTED_6 = dict(
    seed=3,
    arch=ArchSpec(6, (12, 12, 12), (3,), (4, 3)),
    coords=((0, 2), (0, 7), (1, 4), (1, 9), (2, 1), (2, 10)),
    tips=(0,),
)


class TestOnePrimalRoute:
    """The sweep beyond the 2-D fixture: the gradient off kinks on random
    architectures, and the exact one-sided derivative at planted kinks."""

    @pytest.mark.parametrize("seed, arch", list(enumerate(SWEEP_ARCHS)),
                             ids=[f"d{a.input_dim}-w{len(a.widths)}" for a in SWEEP_ARCHS])
    def test_sweep_is_the_gradient_off_kinks(self, seed, arch):
        params = build_random(seed, arch)
        d = arch.input_dim
        X = gaussian_points(100 + seed, 6, d)
        trace = forward(params, X)
        assert np.all(_nondegenerate_rows(trace, DEFAULT_TAU))
        units = gaussian_points(200 + seed, 16, d)
        units /= np.linalg.norm(units, axis=1)[:, None]
        G = primal_sweep(params, trace, np.eye(d))
        P = primal_sweep(params, trace, units)
        for k, x in enumerate(X):
            g = gradient(params, x)
            bound = 1e-12 * (1 + np.linalg.norm(g))
            assert np.linalg.norm(G[k] - g) <= bound
            assert np.max(np.abs(units @ G[k] - P[k])) <= bound

    @pytest.fixture(params=["degenerate-2d", "planted-6-free-1-tip"])
    def kink(self, request, degenerate_model):
        if request.param == "degenerate-2d":
            return degenerate_model
        params, x = planted_kinks(**PLANTED_6)
        report = degeneracy_report(forward(params, x))
        assert report.relu_zero_coords == PLANTED_6["coords"]
        assert report.conic_zero_modules == PLANTED_6["tips"]
        return params, x

    def test_sweep_is_sublinear(self, kink):
        params, x = kink
        trace = forward(params, x)
        D1, D2 = (gaussian_points(s, 300, params.input_dim) for s in (301, 302))
        p1, p2 = primal_sweep(params, trace, D1), primal_sweep(params, trace, D2)
        slack = 1e-12 * (1 + np.abs(p1) + np.abs(p2))
        assert np.all(primal_sweep(params, trace, D1 + D2) <= p1 + p2 + slack)
        for t in (0.25, 3.0):
            assert np.allclose(primal_sweep(params, trace, t * D1), t * p1, rtol=1e-12, atol=1e-12)

    def test_sweep_bounds_the_canonical_slope(self, kink):
        params, x = kink
        trace = forward(params, x)
        units = gaussian_points(303, 300, params.input_dim)
        g_can = readout(params, dual.canonical(params, trace, DEFAULT_TAU))
        primal = primal_sweep(params, trace, units)
        assert np.all(primal >= units @ g_can - 1e-12 * (1 + np.abs(primal)))

    def test_primal_equals_dual_max(self, kink):
        params, x = kink
        units = gaussian_points(304, 300, params.input_dim)
        units /= np.linalg.norm(units, axis=1)[:, None]
        res = directional_derivative(params, x, units)
        assert np.all(np.abs(res.primal - res.dual_max) <= 1e-12 * (1 + np.abs(res.dual_max)))
