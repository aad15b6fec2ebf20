"""Proximal-objective descent: white-box routes against value-query twins."""

import numpy as np
import pytest

from socicnn import (
    DegenerateInputError,
    InferenceConfig,
    baseline_fd_gd,
    baseline_fd_newton,
    forward,
    objective,
    readout_diagnostics,
    whitebox_gd,
    whitebox_newton,
)
from socicnn import curvature, inference
from socicnn.inference import GD_MAX_ITERS, NEWTON_MAX_ITERS, with_gap

from conftest import gaussian_points, quad_only_params

BETA = 1.0


def proximal_target(y, beta):
    """Minimizer of (1/2)||x||^2 + (beta/2)||x - y||^2 in closed form."""
    return beta * np.asarray(y) / (1.0 + beta)


class TestObjective:
    def test_value_and_gradient_on_quadratic(self):
        """f = (1/2)||x||^2, beta = 1, y = (2, 0): F(0) = 2 with slope (-2, 0)."""
        params = quad_only_params(alpha=1.0)
        y = np.array([2.0, 0.0])
        value, grad = objective(params, y, BETA, np.zeros(2))
        assert value == pytest.approx(2.0, abs=1e-15)
        assert np.allclose(grad, [-2.0, 0.0], atol=1e-15)

    def test_gradient_at_query_point_is_model_readout(self, medium_model):
        y = gaussian_points(100, 1, medium_model.input_dim)[0]
        _, grad = objective(medium_model, y, 10.0, y)
        from socicnn import canonical, readout

        expect = readout(medium_model, canonical(medium_model, forward(medium_model, y)))
        assert np.array_equal(grad, expect)

    def test_regularizer_centers_at_query(self):
        params = quad_only_params(alpha=1.0)
        y = np.array([1.0, -1.0])
        v_at_y, _ = objective(params, y, 5.0, y)
        assert v_at_y == pytest.approx(forward(params, y).value, rel=1e-15)


class TestConfigValidation:
    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            InferenceConfig(beta=0.0)
        with pytest.raises(ValueError):
            InferenceConfig(damping=0.0)
        with pytest.raises(ValueError):
            InferenceConfig(shrink=1.0)
        with pytest.raises(ValueError):
            InferenceConfig(armijo=0.0)
        with pytest.raises(ValueError):
            InferenceConfig(max_backtracks=-1)

    def test_defaults_are_usable(self):
        cfg = InferenceConfig()
        assert cfg.beta == 10.0
        assert cfg.max_iters is None


class TestQuadraticToy:
    """All four methods on a problem whose solution is known in closed form."""

    params = quad_only_params(alpha=1.0)
    y = np.array([2.0, 0.0])
    cfg = InferenceConfig(beta=1.0, grad_tol=1e-10)
    target = proximal_target(y, 1.0)

    def test_whitebox_gd_converges(self):
        rep = whitebox_gd(self.params, self.y, self.cfg)
        assert np.linalg.norm(rep.x - self.target) <= 1e-9
        assert rep.stop_reason == "grad-tol"

    def test_whitebox_newton_one_step(self):
        """Newton solves an exactly quadratic objective in a single damped
        step, then one more confirms the gradient is flat."""
        rep = whitebox_newton(self.params, self.y, self.cfg)
        assert np.linalg.norm(rep.x - self.target) <= 1e-7
        assert rep.iterations <= 2

    def test_fd_twins_agree_with_whitebox(self):
        wb = whitebox_gd(self.params, self.y, self.cfg)
        fd = baseline_fd_gd(self.params, self.y, self.cfg)
        assert np.linalg.norm(wb.x - fd.x) <= 1e-5
        n = min(len(wb.trace), len(fd.trace))
        for (v1, _), (v2, _) in zip(wb.trace[:n], fd.trace[:n]):
            assert v1 == pytest.approx(v2, abs=1e-5)

    def test_fd_twins_use_no_analytic_route(self, monkeypatch):
        class Forbidden:
            def __getattr__(self, name):
                raise AssertionError(f"analytic route used: {name}")

            def __call__(self, *args, **kwargs):
                raise AssertionError("analytic route used: curvature_matrix")

        monkeypatch.setattr(inference, "dual", Forbidden())
        monkeypatch.setattr(inference, "curvature", Forbidden())
        monkeypatch.setattr(inference, "curvature_matrix", Forbidden())
        for solver in (baseline_fd_gd, baseline_fd_newton):
            assert np.linalg.norm(solver(self.params, self.y, self.cfg).x - self.target) <= 1e-5

    def test_fd_newton_converges(self):
        rep = baseline_fd_newton(self.params, self.y, self.cfg)
        assert np.linalg.norm(rep.x - self.target) <= 1e-5
        assert rep.iterations <= 3

    def test_strong_convexity_error_bound(self):
        """At any grad-tol stop, distance to the optimum is at most the
        gradient norm over the strong-convexity constant."""
        rep = whitebox_gd(self.params, self.y, InferenceConfig(beta=1.0, grad_tol=1e-6))
        bound = rep.grad_norm / 1.0
        assert np.linalg.norm(rep.x - self.target) <= bound + 1e-12


class TestDescentMechanics:
    def test_zero_iteration_budget_returns_query(self, medium_model):
        y = gaussian_points(101, 1, medium_model.input_dim)[0]
        cfg = InferenceConfig(beta=10.0, max_iters=0)
        rep = whitebox_gd(medium_model, y, cfg)
        assert np.array_equal(rep.x, y)
        assert rep.iterations == 0
        v0, _ = objective(medium_model, y, 10.0, y)
        assert rep.objective == v0
        assert len(rep.trace) == 1

    def test_line_search_failure_reported(self):
        """With zero backtracks allowed and a stiff objective the unit step
        violates Armijo immediately."""
        params = quad_only_params(alpha=500.0)
        cfg = InferenceConfig(beta=1.0, max_backtracks=0)
        rep = whitebox_gd(params, np.array([2.0, 2.0]), cfg)
        assert rep.stop_reason == "line-search-failure"
        assert rep.iterations == 0

    def test_objective_trace_monotone(self, medium_model):
        y = gaussian_points(102, 1, medium_model.input_dim)[0]
        rep = whitebox_gd(medium_model, y, InferenceConfig(beta=10.0))
        values = [v for v, _ in rep.trace]
        for earlier, later in zip(values, values[1:]):
            assert later <= earlier + 1e-14

    def test_iteration_caps(self):
        """Without an override the two families use their own caps."""
        cfg = InferenceConfig(beta=1.0)
        assert cfg.max_iters is None
        assert GD_MAX_ITERS == 2000 and NEWTON_MAX_ITERS == 200

    def test_max_iters_stop_reason(self, medium_model):
        y = gaussian_points(103, 1, medium_model.input_dim)[0]
        rep = whitebox_gd(medium_model, y, InferenceConfig(beta=10.0, max_iters=1, grad_tol=1e-14))
        assert rep.iterations <= 1
        assert rep.stop_reason in ("max-iters", "line-search-failure")


def run_all_methods(params, y, cfg):
    return {
        "whitebox-gd": whitebox_gd(params, y, cfg),
        "whitebox-newton": whitebox_newton(params, y, cfg),
        "fd-gd": baseline_fd_gd(params, y, cfg),
        "fd-newton": baseline_fd_newton(params, y, cfg),
    }


@pytest.fixture(scope="module")
def solved(medium_model):
    y = gaussian_points(104, 1, medium_model.input_dim)[0]
    cfg = InferenceConfig(beta=10.0)
    return medium_model, y, cfg, run_all_methods(medium_model, y, cfg)


class TestOnRandomModel:

    def test_all_methods_reach_grad_tol(self, solved):
        _, _, cfg, reports = solved
        for rep in reports.values():
            assert rep.stop_reason == "grad-tol", rep.method
            assert rep.grad_norm <= cfg.grad_tol

    def test_methods_find_the_same_minimizer(self, solved):
        _, _, _, reports = solved
        xs = [rep.x for rep in reports.values()]
        for x in xs[1:]:
            assert np.linalg.norm(x - xs[0]) <= 1e-3

    def test_newton_needs_fewer_iterations(self, solved):
        _, _, _, reports = solved
        assert reports["whitebox-newton"].iterations < reports["whitebox-gd"].iterations

    def test_whitebox_derivatives_cost_less_than_fd(self, solved):
        """The closed-form Newton direction must beat the value-query twin
        on derivative time; the twin pays 2 d value calls per gradient."""
        _, _, _, reports = solved
        assert reports["whitebox-newton"].deriv_time_ms < reports["fd-newton"].deriv_time_ms

    def test_gap_annotation(self, solved):
        _, _, _, reports = solved
        best = min(rep.objective for rep in reports.values())
        annotated = with_gap(reports["whitebox-gd"], best)
        assert annotated.gap_to_best == reports["whitebox-gd"].objective - best
        assert annotated.gap_to_best >= 0.0


class TestTraceReuse:
    @pytest.mark.parametrize("solver", [whitebox_newton, whitebox_gd])
    def test_one_forward_per_gradient_and_trial_point(self, medium_model, monkeypatch, solver):
        """Each accepted point is traced once for its gradient, and the
        Newton matrix reuses that trace; only the line search's trial points
        add passes.  So a run makes ``2 + 2 iterations + backtracks``."""
        calls = []

        def counting_forward(params, x):
            calls.append(1)
            return forward(params, x)

        monkeypatch.setattr(inference, "forward", counting_forward)
        y = gaussian_points(104, 1, medium_model.input_dim)[0]
        rep = solver(medium_model, y, InferenceConfig(beta=10.0))
        assert rep.stop_reason == "grad-tol"
        assert rep.iterations >= 2
        assert len(calls) == 2 + 2 * rep.iterations + rep.backtracks


class TestDiagnostics:
    def test_agreement_at_smooth_point(self, medium_model):
        x = gaussian_points(105, 1, medium_model.input_dim)[0]
        diag = readout_diagnostics(medium_model, x)
        assert diag.grad_err <= 1e-12 * (1 + diag.grad_rel_err)
        assert diag.hess_err <= 1e-5
        assert diag.min_relu_margin > 0
        assert diag.min_conic_residual > 0

    def test_kink_raises(self, degenerate_model):
        params, x0 = degenerate_model
        with pytest.raises(DegenerateInputError):
            readout_diagnostics(params, x0)

    def test_runs_forward_once_plus_the_stencil(self, medium_model, monkeypatch):
        """One trace at the point serves both gradient routes; only the
        ``2 n`` legs of the Hessian stencil add forward passes."""
        calls = []

        def counting_forward(params, x):
            calls.append(1)
            return forward(params, x)

        monkeypatch.setattr(inference, "forward", counting_forward)
        monkeypatch.setattr(curvature, "forward", counting_forward)
        x = gaussian_points(105, 1, medium_model.input_dim)[0]
        readout_diagnostics(medium_model, x)
        assert len(calls) == 1 + 2 * medium_model.input_dim
