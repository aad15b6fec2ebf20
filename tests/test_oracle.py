"""Finite-difference oracles checked on closed-form functions, and the models' convexity."""

import numpy as np
import pytest

from socicnn import (
    NonFiniteError,
    SocIcnnParams,
    fd_directional,
    fd_gradient,
    fd_hessian,
    forward,
    forward_values,
)

from conftest import gaussian_points, inert_backbone, midpoint_violation

# Steps that pass a plain ``step <= 0`` test and then blamed the input for
# the NaN stencil they made.
BAD_STEPS = (float("inf"), float("nan"), -float("inf"))


def sq(X):
    """Row-wise sum of squares."""
    return np.einsum("ij,ij->i", X, X)


def per_row(f1):
    """Row-batched form of a one-point field that evaluates each row alone,
    so batched stencils do exactly the arithmetic of the coordinate loops."""
    return lambda X: np.array([f1(x) for x in X])


class RowCounter:
    """Row-batched callable that records how many rows each call gets."""

    def __init__(self, fn):
        self.fn = fn
        self.rows = []

    def __call__(self, X):
        self.rows.append(len(X))
        return self.fn(X)


def loop_fd_gradient(f1, x, step):
    """Reference: one coordinate at a time, two one-point calls each."""
    g = np.empty_like(x)
    for i in range(x.size):
        xp = x.copy()
        xm = x.copy()
        xp[i] += step
        xm[i] -= step
        g[i] = (f1(xp) - f1(xm)) / (2.0 * step)
    return g


def loop_fd_hessian(grad1, x, step):
    """Reference: one column at a time, two one-point gradient calls each."""
    n = x.size
    H = np.empty((n, n))
    for i in range(n):
        xp = x.copy()
        xm = x.copy()
        xp[i] += step
        xm[i] -= step
        H[:, i] = (grad1(xp) - grad1(xm)) / (2.0 * step)
    return 0.5 * (H + H.T)


class TestBatchedStencils:
    def test_fd_gradient_is_one_call_of_2n_rows(self, medium_model):
        f = RowCounter(lambda X: forward_values(medium_model, X))
        fd_gradient(f, np.zeros(medium_model.input_dim))
        assert f.rows == [2 * medium_model.input_dim]

    def test_fd_newton_hessian_is_one_call_of_4n2_rows(self, medium_model):
        n = medium_model.input_dim
        f = RowCounter(lambda X: forward_values(medium_model, X))
        fd_hessian(lambda P: fd_gradient(f, P), np.zeros(n))
        assert f.rows == [4 * n * n]

    def test_stencils_match_coordinate_loops(self, medium_model):
        f1 = lambda x: forward(medium_model, x).value
        for x in gaussian_points(30, 3, medium_model.input_dim):
            assert np.array_equal(fd_gradient(per_row(f1), x), loop_fd_gradient(f1, x, 1e-6))
            fd_grad1 = lambda z: loop_fd_gradient(f1, z, 1e-6)
            assert np.array_equal(
                fd_hessian(lambda P: fd_gradient(per_row(f1), P), x),
                loop_fd_hessian(fd_grad1, x, 1e-5),
            )

    def test_stacked_points_give_one_gradient_per_row(self, medium_model):
        f1 = lambda x: forward(medium_model, x).value
        P = gaussian_points(31, 4, medium_model.input_dim)
        G = fd_gradient(per_row(f1), P)
        assert G.shape == P.shape
        for p, g in zip(P, G):
            assert np.array_equal(g, fd_gradient(per_row(f1), p))

    def test_a_batch_gives_f_one_stencil_block_per_point(self, medium_model):
        """For a stack of ``m`` points, ``f`` gets ``m`` blocks of ``2 n``
        rows in one call, block ``i`` being exactly the rows that the
        one-point call at ``P[i]`` gets, so a batched ``f`` can take each
        block as its own ``(2 n, n)`` slab."""
        n = medium_model.input_dim
        seen = []

        def f(Z):
            seen.append(Z.copy())
            return forward_values(medium_model, Z)

        P = gaussian_points(34, 3, n)
        fd_gradient(f, P)
        blocks = seen.pop().reshape(len(P), 2 * n, n)
        for p, block in zip(P, blocks):
            fd_gradient(f, p)
            assert np.array_equal(block, seen.pop())

    def test_stacked_hessians_match_one_point_calls(self, medium_model):
        """A stack of ``m`` points gives ``m`` matrices, each bitwise the
        one-point call's, from one call of ``grad`` on ``2 m n`` rows: one
        block of ``2 n`` per point, in point order."""
        n = medium_model.input_dim
        f = lambda Z: forward_values(medium_model, Z)
        grad = RowCounter(per_row(lambda x: fd_gradient(f, x)))
        P = gaussian_points(35, 3, n)
        H = fd_hessian(grad, P)
        assert H.shape == (3, n, n) and grad.rows == [2 * 3 * n]
        for p, h in zip(P, H):
            assert np.array_equal(h, fd_hessian(grad, p))

    def test_non_finite_names_the_first_bad_coordinate(self):
        def f(X):
            return np.where(X[:, 2] > 0.5, np.inf, 0.0)

        with pytest.raises(NonFiniteError, match="coordinate 2$"):
            fd_gradient(f, np.full(4, 0.5))
        with pytest.raises(NonFiniteError, match="coordinate 2 of point 1"):
            fd_gradient(f, np.array([np.zeros(4), np.full(4, 0.5)]))
        with pytest.raises(NonFiniteError, match="coordinate 2$"):
            fd_hessian(lambda X: np.where(X[:, [2]] > 0.5, np.nan, X), np.full(4, 0.5))
        with pytest.raises(NonFiniteError, match="coordinate 2 of point 1$"):
            fd_hessian(lambda X: np.where(X[:, [2]] > 0.5, np.nan, X),
                       np.array([np.zeros(4), np.full(4, 0.5)]))

    def test_callable_must_return_one_value_per_row(self):
        with pytest.raises(ValueError):
            fd_gradient(lambda X: X, np.zeros(3))
        with pytest.raises(ValueError):
            fd_hessian(sq, np.zeros(3))


class TestFdGradient:
    def test_quadratic(self):
        g = fd_gradient(sq, np.array([1.0, 1.0]))
        assert np.allclose(g, [2.0, 2.0], atol=1e-9)

    def test_affine_is_exact_to_rounding(self):
        w = np.array([0.3, -1.2, 2.0])

        def f(X):
            return X @ w + 0.7

        g = fd_gradient(f, np.zeros(3))
        assert np.max(np.abs(g - w)) <= 1e-10

    def test_step_must_be_positive(self):
        with pytest.raises(ValueError):
            fd_gradient(sq, np.zeros(2), step=0.0)
        with pytest.raises(ValueError):
            fd_gradient(sq, np.zeros(2), step=-1e-6)
        for step in BAD_STEPS:
            with pytest.raises(ValueError, match="step must be positive"):
                fd_gradient(sq, np.zeros(2), step=step)

    def test_non_finite_value_raises(self):
        def f(X):
            return np.full(len(X), np.nan)

        with pytest.raises(NonFiniteError):
            fd_gradient(f, np.zeros(2))


class TestFdDirectional:
    def test_norm_at_origin(self):
        """One-sided difference of ||x|| at 0 along any unit direction is 1."""
        f = lambda X: np.linalg.norm(X, axis=1)
        for d in ([1.0, 0.0], [0.0, -1.0], [np.sqrt(0.5), np.sqrt(0.5)]):
            val = fd_directional(f, np.zeros(2), np.array(d))
            assert val == pytest.approx(1.0, abs=1e-7)

    def test_smooth_point_matches_gradient(self):
        x = np.array([0.4, -0.2, 1.1])
        d = np.array([1.0, 2.0, -2.0]) / 3.0
        val = fd_directional(sq, x, d)
        assert val == pytest.approx(float(2 * x @ d), abs=1e-6)

    def test_requires_unit_direction(self):
        with pytest.raises(ValueError):
            fd_directional(sq, np.zeros(2), np.array([1.0, 1.0]))

    def test_step_must_be_positive(self):
        with pytest.raises(ValueError):
            fd_directional(sq, np.zeros(2), np.array([1.0, 0.0]), step=0.0)
        for step in BAD_STEPS:
            with pytest.raises(ValueError, match="step must be positive"):
                fd_directional(sq, np.zeros(2), np.array([1.0, 0.0]), step=step)


class TestFdDirectionalStack:
    """A ``(m, n)`` stack of unit directions is one call of ``m + 1`` rows."""

    def test_one_call_of_m_plus_one_rows(self):
        calls = []

        def f(X):
            calls.append(X.shape)
            return sq(X)

        x = np.array([0.4, -0.2, 1.1])
        D = gaussian_points(31, 7, 3)
        D /= np.linalg.norm(D, axis=1)[:, None]
        out = fd_directional(f, x, D)
        assert calls == [(8, 3)]
        assert out.shape == (7,)
        assert np.array_equal(out, [fd_directional(sq, x, d) for d in D])

    def test_non_unit_row_rejected(self):
        with pytest.raises(ValueError, match="unit length"):
            fd_directional(sq, np.zeros(2), np.array([[1.0, 0.0], [1.0, 1.0]]))

    def test_non_finite_names_the_direction(self):
        f = lambda X: np.where(X[:, 0] > 0.0, np.inf, sq(X))
        D = np.array([[-1.0, 0.0], [0.0, 1.0], [1.0, 0.0]])
        with pytest.raises(NonFiniteError, match="direction 2"):
            fd_directional(f, np.zeros(2), D)


class TestFdHessian:
    def test_quadratic_hessian(self):
        grad = lambda X: 2.0 * X
        H = fd_hessian(grad, np.array([0.3, -0.7]))
        assert np.max(np.abs(H - 2.0 * np.eye(2))) <= 1e-8

    def test_output_is_symmetric(self):
        def grad(X):
            return np.column_stack([2 * X[:, 0] + X[:, 1] ** 2, 3 * X[:, 1]])

        H = fd_hessian(grad, np.array([0.5, 0.5]))
        assert np.array_equal(H, H.T)

    def test_step_must_be_positive(self):
        with pytest.raises(ValueError):
            fd_hessian(lambda x: x, np.zeros(2), step=0.0)
        for step in BAD_STEPS:
            with pytest.raises(ValueError, match="step must be positive"):
                fd_hessian(lambda x: x, np.zeros(2), step=step)


class TestConvexityProbe:
    """The models are convex to rounding on the midpoint probe of
    ``conftest.midpoint_violation``, which reads zero on an affine field
    and does flag a nonconvex composition."""

    def test_affine_function_probe_is_zero(self):
        def f(X):
            return X[:, 0] - 2 * X[:, 1] + 3

        assert midpoint_violation(f, 2, n_triples=200, seed=0) <= 1e-12

    def test_valid_model_passes(self, medium_model):
        f = lambda X: forward_values(medium_model, X)
        assert midpoint_violation(f, medium_model.input_dim, n_triples=300, seed=1) <= 1e-10

    def test_detects_concave_composition(self):
        """A negative skip weight builds max(0, 0.5 - max(0, x)), which has a
        concave shoulder the probe must flag."""
        base = inert_backbone(1)
        params = SocIcnnParams(
            W=(np.array([[1.0]]), np.array([[0.0]])),
            U=(np.zeros((1, 0)), np.array([[-1.0]])),
            b=(np.array([0.0]), np.array([0.5])),
            c=np.array([1.0]),
            v=base["v"],
            b0=0.0,
        )
        f = lambda X: forward_values(params, X)
        assert midpoint_violation(f, 1, n_triples=500, seed=0) > 1e-3
