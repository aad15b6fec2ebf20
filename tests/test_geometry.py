"""Gradients, subdifferential samples, and directional derivatives."""

import numpy as np
import pytest

from socicnn import (
    DegenerateInputError,
    NonFiniteError,
    SocIcnnParams,
    TooManyDegeneraciesError,
    ValidationError,
    canonical_gap_fraction,
    directional_derivative,
    extreme_branches,
    fd_directional,
    fd_gradient,
    forward,
    forward_values,
    gradient,
    readout,
    sample_optimal_branches,
    subdifferential_sample,
)

from conftest import (
    branch_row,
    cone_only_params,
    constant_params,
    gaussian_points,
    quad_only_params,
)
from test_dual import wide_zero_net, zero_preact_pair


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
        sample = subdifferential_sample(medium_model, x, n=10, sphere_samples=8)
        assert len(sample) >= 1
        for s in sample:
            assert np.linalg.norm(s - g) <= 1e-12

    def test_degenerate_point_is_set_valued(self, degenerate_model):
        params, x0 = degenerate_model
        sample = subdifferential_sample(params, x0, n=40, sphere_samples=16)
        spread = max(np.linalg.norm(s - sample[0]) for s in sample)
        assert spread > 1e-3

    def test_sphere_count_below_one_rejected(self, degenerate_model):
        """NumPy's matmul ``ValueError`` used to leak out instead."""
        params, x0 = degenerate_model
        with pytest.raises(ValidationError, match="sphere_samples"):
            subdifferential_sample(params, x0, sphere_samples=0)

    def test_every_sample_is_a_subgradient(self, degenerate_model):
        params, x0 = degenerate_model
        f0 = forward(params, x0).value
        sample = subdifferential_sample(params, x0, n=25, sphere_samples=12)
        probes = x0 + gaussian_points(15, 30, 2)
        for g in sample:
            for y in probes:
                assert forward(params, y).value >= f0 + g @ (y - x0) - 1e-10

    def test_convex_combinations_are_subgradients(self, degenerate_model):
        """The subdifferential is convex, so midpoints of sampled elements
        must satisfy the same supporting inequality."""
        params, x0 = degenerate_model
        f0 = forward(params, x0).value
        sample = subdifferential_sample(params, x0, n=12, sphere_samples=8)
        mid = 0.5 * (sample[0] + sample[-1])
        for y in x0 + gaussian_points(16, 30, 2):
            assert forward(params, y).value >= f0 + mid @ (y - x0) - 1e-10


    @pytest.mark.parametrize("where", ["smooth", "kink"])
    def test_equals_per_branch_readouts(self, medium_model, degenerate_model, where):
        """The stacked readout gives, row for row and bit for bit, the
        readouts of the sampled branches followed by the extreme ones."""
        if where == "smooth":
            params, x = medium_model, gaussian_points(62, 1, medium_model.input_dim)[0]
        else:
            params, x = degenerate_model
        sample = subdifferential_sample(params, x, n=15, seed=4, sphere_samples=6)
        tr = forward(params, x)
        stacks = (
            sample_optimal_branches(params, tr, n=15, seed=4),
            extreme_branches(params, tr, sphere_samples=6, seed=4),
        )
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
        for every direction."""
        A = np.array([[0.7, 0.2], [-0.1, 0.6]])
        params = cone_only_params(lam=0.8, A=A)
        rng = np.random.default_rng(1)
        for _ in range(8):
            d = rng.standard_normal(2)
            res = directional_derivative(params, [0.0, 0.0], d)
            expect = 0.8 * float(np.linalg.norm(A @ d))
            assert res.primal == pytest.approx(expect, rel=1e-12)
            assert res.dual_max == pytest.approx(expect, rel=1e-9)

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
        params, x0 = degenerate_model
        for d in gaussian_points(73, 40, 2):
            res = directional_derivative(params, x0, d)
            assert res.canonical_value <= res.dual_max + 1e-10

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

    def test_branch_budget_guard(self):
        params = wide_zero_net(17)
        with pytest.raises(TooManyDegeneraciesError):
            directional_derivative(params, [0.0], [1.0])

    def test_thirteen_free_coords_enumerate_exactly(self):
        """The one corner cap is 16 interval coordinates, so 13 enumerate:
        f(x) = sum_k relu(k x / 4) for k = -6..6, all 13 kinks at x = 0."""
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

    def test_rejects_nonpositive_count(self, medium_model):
        with pytest.raises(ValueError):
            canonical_gap_fraction(medium_model, np.zeros(medium_model.input_dim), n_directions=0)


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
