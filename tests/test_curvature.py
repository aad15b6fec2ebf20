"""Closed-form local Hessians, branch signatures, and quadratic models."""

from dataclasses import replace

import numpy as np
import pytest

from socicnn import (
    DegenerateInputError,
    SocIcnnParams,
    branch_signature,
    degeneracy_report,
    fd_gradient,
    fd_hessian,
    forward,
    forward_values,
    gradient,
    hessian,
    quadratic_model_residual,
)
from socicnn.curvature import curvature_matrix
from socicnn.experiments import Exp2Config, _random_model
from socicnn.model import ArchSpec, _gaussian_nonzero, build_random

from conftest import (
    cone_only_params,
    constant_params,
    gaussian_points,
    inert_backbone,
    quad_only_params,
    single_layer_params,
)


def scalar_cone_params(lam=0.6):
    """One 1D conic module: f(x) = lam * |a . x + 1|, piecewise affine."""
    return SocIcnnParams(
        lam=(lam,),
        A=(np.array([[0.4, -0.3]]),),
        d=(np.array([1.0]),),
        **inert_backbone(2),
    )


class TestHessianFormula:
    def test_pure_quadratic(self):
        cm = hessian(quad_only_params(alpha=2.0), [0.3, -0.4])
        assert np.array_equal(cm.hess, 2.0 * np.eye(2))
        assert cm.min_eigenvalue == pytest.approx(2.0, rel=1e-12)

    def test_constant_network_is_flat(self):
        cm = hessian(constant_params(), [1.0, 2.0])
        assert np.array_equal(cm.hess, np.zeros((2, 2)))
        assert np.array_equal(cm.grad, np.zeros(2))

    def test_scalar_cone_contributes_nothing(self):
        """A 1D conic residual is locally affine away from its kink, so the
        orthogonal projector in the curvature term is zero."""
        cm = hessian(scalar_cone_params(), [1.0, 1.0])
        assert np.array_equal(cm.hess, np.zeros((2, 2)))

    def test_cone_curvature_is_scaled_projector(self):
        params = cone_only_params(lam=0.8)
        x = np.array([2.0, 0.0])
        cm = hessian(params, x)
        expect = 0.8 / 2.0 * np.array([[0.0, 0.0], [0.0, 1.0]])
        assert np.allclose(cm.hess, expect, atol=1e-15)

    def test_matches_fd_of_analytic_gradient(self, medium_model):
        g = lambda Y: np.array([gradient(medium_model, y) for y in Y])
        for x in gaussian_points(90, 4, medium_model.input_dim):
            cm = hessian(medium_model, x)
            err = np.linalg.norm(cm.hess - fd_hessian(g, x), ord="fro")
            assert err <= 1e-5

    def test_symmetric_and_psd(self, medium_model):
        for x in gaussian_points(91, 6, medium_model.input_dim):
            cm = hessian(medium_model, x)
            assert np.array_equal(cm.hess, cm.hess.T)
            assert cm.min_eigenvalue >= -1e-10

    def test_kink_raises(self, degenerate_model):
        params, x0 = degenerate_model
        with pytest.raises(DegenerateInputError):
            hessian(params, x0)

    def test_backbone_weights_do_not_enter(self, medium_model):
        """The model is piecewise affine in the backbone, so rescaling the
        readout changes the gradient but not the curvature."""
        p = medium_model
        x = gaussian_points(92, 1, p.input_dim)[0]
        scaled = SocIcnnParams(
            p.W, p.U, p.b, 3.0 * np.array(p.c), p.v, p.b0, p.alpha, p.B, p.e, p.lam, p.A, p.d
        )
        h1 = hessian(p, x).hess
        h2 = hessian(scaled, x).hess
        assert np.array_equal(h1, h2)

    def test_quadratic_term_is_summed_once_per_model(self, medium_model):
        """``curvature_matrix`` starts from the model's cached, read-only
        ``quad_hessian`` and is bitwise a fresh sum over the modules."""
        p = medium_model
        tr = forward(p, gaussian_points(98, 1, p.input_dim)[0])
        fresh = np.zeros((p.input_dim, p.input_dim))
        for al, B in zip(p.alpha, p.B):
            fresh += al * (B.T @ B)
        assert p.quad_hessian is p.quad_hessian and not p.quad_hessian.flags.writeable
        assert np.array_equal(p.quad_hessian, fresh)
        H = curvature_matrix(p, tr)
        for lg, A, ug, un in zip(p.lam, p.A, tr.u, tr.u_norms):
            uhat = ug / un
            S = A - np.outer(uhat, uhat @ A)
            fresh += (lg / un) * (S.T @ S)
        assert np.array_equal(H, fresh)
        H += 1.0
        assert np.array_equal(curvature_matrix(p, tr), fresh)

    def test_tip_skip_flag(self):
        """At a cone tip the module's term is dropped, with no flag to ask
        for it; the public ``hessian`` still refuses the kink."""
        params = cone_only_params(lam=0.8)
        tr = forward(params, [0.0, 0.0])
        H = curvature_matrix(params, tr)
        assert np.array_equal(H, np.zeros((2, 2)))
        with pytest.raises(DegenerateInputError):
            hessian(params, [0.0, 0.0])


class TestStackedCurvature:
    """A stacked trace gives one matrix per row, bitwise its point's."""

    @staticmethod
    def rows_match(params, X):
        H = curvature_matrix(params, forward(params, X))
        assert H.shape == (len(X), params.input_dim, params.input_dim)
        for k, x in enumerate(X):
            assert np.array_equal(H[k], curvature_matrix(params, forward(params, x)))
        return H

    def test_medium_model(self, medium_model):
        self.rows_match(medium_model, gaussian_points(130, 9, medium_model.input_dim))

    def test_model_without_conic_modules(self):
        params = build_random(5, ArchSpec(5, (7, 6), quad_dims=(4, 3), cone_dims=()))
        H = self.rows_match(params, gaussian_points(131, 4, 5))
        assert np.array_equal(H, np.broadcast_to(params.quad_hessian, H.shape))

    def test_one_row_stack(self, medium_model):
        self.rows_match(medium_model, gaussian_points(132, 1, medium_model.input_dim))

    def test_row_at_cone_tip_drops_its_module(self):
        params = replace(
            cone_only_params(lam=0.8, A=[[1.0, 0.5], [0.0, 1.0]]),
            alpha=(2.0,), B=(np.eye(2),), e=(np.zeros(2),),
        )
        H = self.rows_match(params, np.array([[1.0, -0.5], [0.0, 0.0], [0.3, 2.0]]))
        assert np.array_equal(H[1], params.quad_hessian)
        assert np.array_equal(H[1], 2.0 * np.eye(2))
        assert not np.array_equal(H[0], H[1]) and not np.array_equal(H[2], H[1])


class TestSignature:
    def test_stable_within_branch(self, medium_model):
        x = gaussian_points(96, 1, medium_model.input_dim)[0]
        s1 = branch_signature(forward(medium_model, x))
        s2 = branch_signature(forward(medium_model, x + 1e-10))
        assert s1 == s2

    def test_changes_across_kink(self):
        params = single_layer_params(0.0)
        s_neg = branch_signature(forward(params, [-1.0, -1.0]))
        s_pos = branch_signature(forward(params, [1.0, 1.0]))
        assert s_neg != s_pos

    def test_hashable_and_equal_by_value(self, medium_model):
        x = gaussian_points(97, 1, medium_model.input_dim)[0]
        sig = branch_signature(forward(medium_model, x))
        assert hash(sig) == hash(branch_signature(forward(medium_model, x)))


def reference_quadratic_model_residual(params, anchor, radius, trials=500, tol=1e-9, seed=0):
    """The per-trial loop before the stacked trace, kept verbatim (argument
    checks aside) as a reference."""
    anchor = np.asarray(anchor, dtype=np.float64)
    cm = hessian(params, anchor, tol)
    f0 = forward(params, anchor).value
    rng = np.random.default_rng(seed)
    kept = 0
    residuals = 0.0
    for _ in range(trials):
        (step,), (nrm,) = _gaussian_nonzero(rng, anchor.size, 1)
        x = anchor + (radius / nrm) * step
        trace = forward(params, x)
        if not degeneracy_report(trace, tol).is_nondegenerate:
            continue
        if branch_signature(trace, tol) != cm.signature:
            continue
        kept += 1
        residuals += abs(trace.value - f0 - cm.predict(x))
    rate = kept / trials
    mean = residuals / kept if kept else float("nan")
    return rate, mean


class TestQuadraticModel:
    def test_matches_per_trial_reference_bitwise(self, medium_model):
        """Retained rate and mean residual equal the per-trial loop bit for
        bit, on one branch, across kinks (rate below one) and with nothing
        retained (NaN mean)."""
        exp2_model = _random_model(Exp2Config())
        cases = (
            (exp2_model, gaussian_points(41, 1, 10)[0], (1e-4, 1e-3, 0.3), 500, 17),
            (medium_model, 0.1 * np.ones(medium_model.input_dim), (1e-3, 0.5, 2.0), 200, 3),
            (single_layer_params(0.0), np.array([0.05, 0.05]), (0.2, 1.0), 200, 0),
            (single_layer_params(0.0), np.array([0.05, 0.05]), (1.0,), 3, 3),
            (quad_only_params(alpha=1.7, dim=3), np.array([0.4, -0.2, 0.9]), (0.1,), 50, 0),
        )
        rates = []
        for params, anchor, radii, trials, seed in cases:
            for radius in radii:
                got = quadratic_model_residual(params, anchor, radius, trials, seed=seed)
                want = reference_quadratic_model_residual(params, anchor, radius, trials,
                                                          seed=seed)
                assert got[0] == want[0]
                assert got[1] == want[1] or (np.isnan(got[1]) and np.isnan(want[1]))
                rates.append(got[0])
        assert 0.0 in rates and 1.0 in rates and any(0.0 < r < 1.0 for r in rates)

    def test_predict_on_a_stack_matches_single_points(self, medium_model):
        x = gaussian_points(97, 1, medium_model.input_dim)[0]
        cm = hessian(medium_model, x)
        X = x + gaussian_points(96, 30, medium_model.input_dim, scale=1e-2)
        assert np.array_equal(cm.predict(X), [cm.predict(z) for z in X])

    def test_predict_matches_taylor_terms(self, medium_model):
        x = gaussian_points(98, 1, medium_model.input_dim)[0]
        cm = hessian(medium_model, x)
        delta = 1e-3 * np.ones(medium_model.input_dim)
        expect = float(cm.grad @ delta + 0.5 * delta @ cm.hess @ delta)
        assert cm.predict(x + delta) == pytest.approx(expect, rel=1e-12)
        assert cm.predict(x) == 0.0

    def test_exact_on_pure_quadratic(self):
        """For a model that is globally quadratic the local model has zero
        residual at any radius."""
        params = quad_only_params(alpha=1.7, dim=3)
        anchor = np.array([0.4, -0.2, 0.9])
        for radius in (1e-3, 0.1, 2.0):
            kept, resid = quadratic_model_residual(params, anchor, radius, trials=50)
            assert kept == 1.0
            assert resid <= 1e-12

    def test_cubic_error_growth(self, medium_model):
        """On a generic smooth branch the residual scales like radius^3, so
        a 10x radius grows it by roughly 1000x."""
        anchor = 0.1 * np.ones(medium_model.input_dim)
        kept1, r1 = quadratic_model_residual(medium_model, anchor, 1e-4, trials=200, seed=3)
        kept2, r2 = quadratic_model_residual(medium_model, anchor, 1e-3, trials=200, seed=3)
        assert kept1 == 1.0 and kept2 == 1.0
        assert r2 > r1
        assert 1e2 <= r2 / r1 <= 1e4

    def test_retention_drops_across_kinks(self):
        """An anchor close to a ReLU boundary loses probes to neighboring
        branches at large radius."""
        params = single_layer_params(0.0)
        anchor = np.array([0.05, 0.05])
        kept, _ = quadratic_model_residual(params, anchor, radius=0.2, trials=200)
        assert kept < 1.0

    def test_argument_validation(self, medium_model):
        anchor = np.zeros(medium_model.input_dim)
        with pytest.raises(ValueError):
            quadratic_model_residual(medium_model, anchor, radius=0.0)
        with pytest.raises(ValueError):
            quadratic_model_residual(medium_model, anchor, radius=1e-3, trials=0)
        for radius in (float("inf"), float("nan")):
            with pytest.raises(ValueError, match="radius must be positive"):
                quadratic_model_residual(medium_model, anchor, radius=radius)

    def test_fd_gradient_cross_check(self, medium_model):
        f = lambda Y: forward_values(medium_model, Y)
        x = gaussian_points(99, 1, medium_model.input_dim)[0]
        cm = hessian(medium_model, x)
        assert np.linalg.norm(cm.grad - fd_gradient(f, x)) <= 1e-6
