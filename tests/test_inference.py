"""Proximal-objective descent: white-box routes against value-query twins."""

import time
from dataclasses import fields

import numpy as np
import pytest
import scipy.linalg

from socicnn import (
    DegenerateInputError,
    InferenceConfig,
    forward,
    objective,
    readout_diagnostics,
    solve,
)
from socicnn import curvature, dual, experiments, inference
from socicnn.curvature import curvature_matrix
from socicnn.errors import SolveFailureError, ValidationError
from socicnn.inference import GD_MAX_ITERS, METHODS, NEWTON_MAX_ITERS, InferenceReport, with_gap
from socicnn.model import forward_values
from socicnn.oracle import fd_gradient, fd_hessian

from socicnn.experiments import Exp2Config, _random_model

from conftest import gaussian_points, quad_only_params, record_traces

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

    @pytest.mark.parametrize("change", [
        {"beta": float("inf")}, {"damping": float("inf")}, {"beta": float("nan")},
        {"max_backtracks": 1.5}, {"max_backtracks": True}, {"max_iters": True},
        {"max_iters": 2.0}, {"fd_grad_step": float("inf")}, {"fd_hess_step": float("inf")},
    ], ids=lambda change: "-".join(f"{k}={v}" for k, v in change.items()))
    def test_rejects_non_finite_weights_and_non_integer_counts(self, change):
        """An infinite ``beta`` made a solve fail inside NumPy, an infinite
        ``damping`` stopped Newton after one step, a fractional
        ``max_backtracks`` escaped as NumPy's ``TypeError`` and
        ``max_iters=True`` ran one iteration; an infinite FD step failed
        inside ``forward_values``."""
        with pytest.raises(ValueError, match=next(iter(change))):
            InferenceConfig(**change)

    def test_rejects_negative_max_iters(self):
        with pytest.raises(ValueError, match="max_iters"):
            InferenceConfig(max_iters=-1)
        assert InferenceConfig(max_iters=0).max_iters == 0
        assert InferenceConfig(max_iters=None).max_iters is None

    @pytest.mark.parametrize("value", [-1e-6, float("nan")])
    def test_rejects_negative_or_nan_grad_tol(self, value):
        with pytest.raises(ValueError, match="grad_tol"):
            InferenceConfig(grad_tol=value)

    @pytest.mark.parametrize("value", [-1e-6, float("nan")])
    def test_rejects_negative_or_nan_progress_tol(self, value):
        with pytest.raises(ValueError, match="progress_tol"):
            InferenceConfig(progress_tol=value)

    @pytest.mark.parametrize("value", [-1e-6, float("nan"), float("inf")])
    def test_rejects_negative_or_nan_tol(self, value):
        with pytest.raises(ValueError, match="tol must be"):
            InferenceConfig(tol=value)

    def test_zero_tolerances_are_valid(self):
        cfg = InferenceConfig(grad_tol=0.0, progress_tol=0.0, tol=0.0)
        assert cfg.grad_tol == 0.0 and cfg.progress_tol == 0.0 and cfg.tol == 0.0

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
        rep = solve(self.params, self.y, self.cfg, "whitebox-gd")
        assert np.linalg.norm(rep.x - self.target) <= 1e-9
        assert rep.stop_reason == "grad-tol"

    def test_whitebox_newton_one_step(self):
        """Newton solves an exactly quadratic objective in a single damped
        step, then one more confirms the gradient is flat."""
        rep = solve(self.params, self.y, self.cfg, "whitebox-newton")
        assert np.linalg.norm(rep.x - self.target) <= 1e-7
        assert rep.iterations <= 2

    def test_fd_twins_agree_with_whitebox(self):
        wb = solve(self.params, self.y, self.cfg, "whitebox-gd")
        fd = solve(self.params, self.y, self.cfg, "fd-gd")
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
        for method in ("fd-gd", "fd-newton"):
            rep = solve(self.params, self.y, self.cfg, method)
            assert np.linalg.norm(rep.x - self.target) <= 1e-5

    def test_fd_newton_converges(self):
        rep = solve(self.params, self.y, self.cfg, "fd-newton")
        assert np.linalg.norm(rep.x - self.target) <= 1e-5
        assert rep.iterations <= 3

    def test_strong_convexity_error_bound(self):
        """At any grad-tol stop, distance to the optimum is at most the
        gradient norm over the strong-convexity constant."""
        rep = solve(self.params, self.y, InferenceConfig(beta=1.0, grad_tol=1e-6), "whitebox-gd")
        bound = rep.grad_norm / 1.0
        assert np.linalg.norm(rep.x - self.target) <= bound + 1e-12


class TestDescentMechanics:
    def test_zero_iteration_budget_returns_query(self, medium_model):
        y = gaussian_points(101, 1, medium_model.input_dim)[0]
        cfg = InferenceConfig(beta=10.0, max_iters=0)
        rep = solve(medium_model, y, cfg, "whitebox-gd")
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
        rep = solve(params, np.array([2.0, 2.0]), cfg, "whitebox-gd")
        assert rep.stop_reason == "line-search-failure"
        assert rep.iterations == 0

    def test_objective_trace_monotone(self, medium_model):
        y = gaussian_points(102, 1, medium_model.input_dim)[0]
        rep = solve(medium_model, y, InferenceConfig(beta=10.0), "whitebox-gd")
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
        cfg = InferenceConfig(beta=10.0, max_iters=1, grad_tol=1e-14)
        rep = solve(medium_model, y, cfg, "whitebox-gd")
        assert rep.iterations <= 1
        assert rep.stop_reason in ("max-iters", "line-search-failure")


def run_all_methods(params, y, cfg):
    return {method: solve(params, y, cfg, method) for method in METHODS}


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
    # (single-point calls, stacked calls, rows traced) at the query below.
    @pytest.mark.parametrize("method, counts", [
        pytest.param("whitebox-newton", (4, 0, 4), id="whitebox_newton"),
        pytest.param("whitebox-gd", (5, 14, 73), id="whitebox_gd"),
        pytest.param("fd-gd", (5, 14, 73), id="baseline_fd_gd"),
        pytest.param("fd-newton", (4, 0, 4), id="baseline_fd_newton"),
    ])
    def test_one_forward_per_gradient_and_trial_point(
        self, medium_model, monkeypatch, method, counts
    ):
        """Each point the line search tries is traced once, in its value
        query: the gradient and the Newton matrix read the accepted trace
        (the FD twins difference ``forward_values`` instead) and trace
        nothing.  A search traces its predicted run of steps as one stack,
        so a first-order run makes one call per iteration, not one per
        trial, and traces a few rows past its ``1 + iterations +
        backtracks`` trial points."""
        traced, _ = record_traces(monkeypatch)
        y = gaussian_points(104, 1, medium_model.input_dim)[0]
        rep = solve(medium_model, y, InferenceConfig(beta=10.0), method)
        assert rep.stop_reason == "grad-tol"
        assert rep.iterations >= 2
        points = np.concatenate(traced)
        assert len(np.unique(points, axis=0)) == len(points)
        assert len(points) >= 1 + rep.iterations + rep.backtracks
        single, stacked = sum(len(X) == 1 for X in traced), sum(len(X) > 1 for X in traced)
        assert (single, stacked, len(points)) == counts


# The descent loop as it stood before each accepted point was traced once:
# it traced every accepted point again for its gradient and took gradients
# as ``(g, trace)`` tuples.  Kept verbatim as the reference that the shared
# loop must reproduce field for field.


def _objective_value(params, y, beta, x):
    diff = x - y
    return forward(params, x).value + 0.5 * beta * float(diff @ diff)


def _descent(params, y, config, method, grad_fn, direction_fn, default_iters):
    """Armijo-backtracked descent shared by all four solvers.

    ``grad_fn`` returns the objective gradient at a point together with the
    model trace it evaluated there (None for the value-only twins);
    ``direction_fn`` maps ``(x, g, trace)`` to a step direction (None for
    steepest descent), so a white-box step reuses the gradient's trace.  Stops
    on gradient norm, on per-step progress, on iteration budget, or on a
    line-search failure, whichever comes first.
    """
    y = np.asarray(y, dtype=np.float64)
    x = y.copy()
    max_iters = config.max_iters if config.max_iters is not None else default_iters
    t0 = time.perf_counter()
    deriv_time = 0.0
    f_val = _objective_value(params, y, config.beta, x)
    td = time.perf_counter()
    g, point_trace = grad_fn(x)
    deriv_time += time.perf_counter() - td
    trace = [(f_val, float(np.linalg.norm(g)))]
    iterations = 0
    total_backtracks = 0
    stop = "max-iters"
    for _ in range(max_iters):
        grad_norm = float(np.linalg.norm(g))
        if grad_norm <= config.grad_tol:
            stop = "grad-tol"
            break
        if direction_fn is None:
            p = -g
            slope = -grad_norm * grad_norm
        else:
            td = time.perf_counter()
            p = direction_fn(x, g, point_trace)
            deriv_time += time.perf_counter() - td
            slope = float(g @ p)
        eta = 1.0
        accepted = False
        for bt in range(config.max_backtracks + 1):
            x_new = x + eta * p
            f_new = _objective_value(params, y, config.beta, x_new)
            if f_new <= f_val + config.armijo * eta * slope:
                accepted = True
                break
            eta *= config.shrink
        total_backtracks += bt
        if not accepted:
            stop = "line-search-failure"
            break
        progress = f_val - f_new
        x = x_new
        f_val = f_new
        td = time.perf_counter()
        g, point_trace = grad_fn(x)
        deriv_time += time.perf_counter() - td
        iterations += 1
        trace.append((f_val, float(np.linalg.norm(g))))
        if progress <= config.progress_tol:
            stop = "progress"
            break
    grad_norm = float(np.linalg.norm(g))
    if stop == "max-iters" and grad_norm <= config.grad_tol:
        stop = "grad-tol"
    return InferenceReport(
        method=method,
        x=x,
        objective=f_val,
        grad_norm=grad_norm,
        iterations=iterations,
        backtracks=total_backtracks,
        time_ms=1000.0 * (time.perf_counter() - t0),
        deriv_time_ms=1000.0 * deriv_time,
        trace=tuple(trace),
        stop_reason=stop,
    )


def _readout_grad(params, y, config):
    """Canonical-readout gradient of the objective, with the trace behind it."""
    y = np.asarray(y, dtype=np.float64)

    def grad_fn(x):
        trace = forward(params, x)
        g = dual.readout(params, dual.canonical(params, trace, config.tol))
        return g + config.beta * (x - y), trace

    return grad_fn


def _fd_grad(params, y, config):
    """Central-difference gradient field of the objective, built from value
    queries alone; takes one point or a stack of points."""

    def values(Z):
        diff = Z - y
        return forward_values(params, Z) + 0.5 * config.beta * np.einsum("ij,ij->i", diff, diff)

    def grad_fn(x):
        return fd_gradient(values, x, config.fd_grad_step)

    return grad_fn


def reference_whitebox_gd(params, y, config):
    grad_fn = _readout_grad(params, y, config)
    return _descent(params, y, config, "whitebox-gd", grad_fn, None, GD_MAX_ITERS)


def reference_whitebox_newton(params, y, config):
    grad_fn = _readout_grad(params, y, config)

    def direction_fn(x, g, trace):
        H = curvature_matrix(params, trace, config.tol, skip_tip_modules=True)
        H[np.diag_indices_from(H)] += config.beta + config.damping
        try:
            factor = scipy.linalg.cho_factor(H, check_finite=False)
        except scipy.linalg.LinAlgError as exc:
            raise SolveFailureError(f"damped system failed to factor: {exc}") from exc
        return -scipy.linalg.cho_solve(factor, g, check_finite=False)

    return _descent(params, y, config, "whitebox-newton", grad_fn, direction_fn, NEWTON_MAX_ITERS)


def reference_fd_gd(params, y, config):
    field = _fd_grad(params, y, config)
    return _descent(params, y, config, "fd-gd", lambda x: (field(x), None), None, GD_MAX_ITERS)


def reference_fd_newton(params, y, config):
    field = _fd_grad(params, y, config)

    def direction_fn(x, g, _):
        H = fd_hessian(field, x, config.fd_hess_step)
        w, V = scipy.linalg.eigh(H, check_finite=False)
        w = np.maximum(w, config.beta + config.damping)
        return -(V @ ((V.T @ g) / w))

    return _descent(
        params, y, config, "fd-newton", lambda x: (field(x), None), direction_fn, NEWTON_MAX_ITERS
    )


SOLVER_PAIRS = [
    ("whitebox-gd", reference_whitebox_gd),
    ("whitebox-newton", reference_whitebox_newton),
    ("fd-gd", reference_fd_gd),
    ("fd-newton", reference_fd_newton),
]
# Test ids of the methods: the names of the one-query solver functions that
# ``solve`` replaced, so that every test id stays as it was.
METHOD_IDS = dict(zip(METHODS, ("whitebox_gd", "whitebox_newton", "baseline_fd_gd",
                                "baseline_fd_newton")))


def param_id(value):
    """A method's test id, or a reference function's name."""
    return METHOD_IDS[value] if isinstance(value, str) else value.__name__


EDGE_CONFIGS = {
    "defaults": InferenceConfig(beta=10.0),
    "no-iterations": InferenceConfig(beta=10.0, max_iters=0),
    "one-iteration": InferenceConfig(beta=10.0, max_iters=1, grad_tol=1e-14),
    "no-backtracks": InferenceConfig(beta=10.0, max_backtracks=0),
    "coarse-progress": InferenceConfig(beta=10.0, progress_tol=1e-2),
    "budget-spent-at-tol": InferenceConfig(beta=10.0, max_iters=2),
    "clipped-ladder": InferenceConfig(beta=1.0, max_backtracks=2),
    "shrink-0.3": InferenceConfig(beta=1.0, shrink=0.3),
    "uneven-searches": InferenceConfig(beta=1.0),
}
UNTIMED_FIELDS = [f.name for f in fields(InferenceReport) if f.name not in ("time_ms", "deriv_time_ms")]


class TestReferenceLoop:
    """The shared loop reproduces the reference loop bit for bit, apart from
    the two timing fields, for every solver, query and edge config; every
    other field has the reference's type too, down to the floats in
    ``trace``."""

    @pytest.mark.parametrize("method, reference", SOLVER_PAIRS, ids=param_id)
    @pytest.mark.parametrize("config", EDGE_CONFIGS.values(), ids=EDGE_CONFIGS.keys())
    def test_reports_match_reference(self, medium_model, method, reference, config):
        for y in gaussian_points(106, 3, medium_model.input_dim):
            got = solve(medium_model, y, config, method)
            want = reference(medium_model, y, config)
            assert type(got.iterations) is int and type(got.backtracks) is int
            for name in UNTIMED_FIELDS:
                a, b = getattr(got, name), getattr(want, name)
                if name == "x":
                    assert np.array_equal(a, b) and a.dtype == b.dtype
                else:
                    assert repr(a) == repr(b), name

    @pytest.mark.parametrize("name, reason", [
        ("no-iterations", "max-iters"),
        ("one-iteration", "max-iters"),
        ("no-backtracks", "line-search-failure"),
        ("coarse-progress", "progress"),
        ("budget-spent-at-tol", "grad-tol"),
    ])
    def test_edge_configs_reach_their_stop_reason(self, medium_model, name, reason):
        """Each edge config stops for the reason it is named for on at least
        one solver and query (a capped one with its budget spent), so the
        comparison above covers that branch of the loop."""
        config = EDGE_CONFIGS[name]
        assert any(
            rep.stop_reason == reason
            and (config.max_iters is None or rep.iterations == config.max_iters)
            for rep in (
                solve(medium_model, y, config, method)
                for method, _ in SOLVER_PAIRS
                for y in gaussian_points(106, 3, medium_model.input_dim)
            )
        )

    def test_ladder_configs_reach_their_case(self, medium_model, monkeypatch):
        """A line search traces its steps in blocks as long as the previous
        search's run of trials.  ``clipped-ladder`` has a search fail in a
        block cut short by the end of the ladder; in ``uneven-searches`` a
        search traces steps past the one it accepts, and a later search
        needs a second block."""
        blocks = []
        trial_block = inference._trial_block

        def recording(params, y, beta, x, p, etas):
            blocks.append((len(etas), etas[0] == 1.0))
            return trial_block(params, y, beta, x, p, etas)

        monkeypatch.setattr(inference, "_trial_block", recording)

        def cases(config):
            seen = set()
            for method in METHODS:
                for y in gaussian_points(106, 3, medium_model.input_dim):
                    blocks.clear()
                    rep = solve(medium_model, y, config, method)
                    searches = []
                    for n, first in blocks:
                        if first:
                            searches.append([])
                        searches[-1].append(n)
                    last = searches[-1]
                    if rep.stop_reason == "line-search-failure" and last[-1] < last[0]:
                        seen.add("fails in a clipped block")
                    for search, following in zip(searches, searches[1:]):
                        if sum(search) > following[0]:
                            seen.add("overshoots")
                    if any(len(search) > 1 for search in searches[1:]):
                        seen.add("undershoots")
            return seen

        assert "fails in a clipped block" in cases(EDGE_CONFIGS["clipped-ladder"])
        assert {"overshoots", "undershoots"} <= cases(EDGE_CONFIGS["uneven-searches"])


def assert_same_untimed(got, want):
    """Every field but the two timings agrees: ``x`` by value and dtype, the
    rest by ``repr``, so types and every bit of every float agree too."""
    for name in UNTIMED_FIELDS:
        a, b = getattr(got, name), getattr(want, name)
        if name == "x":
            assert np.array_equal(a, b) and a.dtype == b.dtype
        else:
            assert repr(a) == repr(b), name


class TestLockstepBatch:
    """``solve`` descends a stack of queries in lockstep, and each row is bit
    for bit the report of its query alone, apart from the timings."""

    @pytest.mark.parametrize("method", METHODS, ids=param_id)
    @pytest.mark.parametrize("config", EDGE_CONFIGS.values(), ids=EDGE_CONFIGS.keys())
    def test_rows_match_single_queries(self, medium_model, method, config):
        """Three queries and a repeat of the second in one stack, and the
        first alone as a stack of one."""
        Y = gaussian_points(106, 3, medium_model.input_dim)
        singles = [solve(medium_model, y, config, method) for y in Y]
        assert all(type(rep) is InferenceReport and rep.method == method for rep in singles)
        batch = solve(medium_model, np.vstack([Y, Y[1]]), config, method)
        assert type(batch) is tuple and len(batch) == 4
        for got, want in zip(batch, singles + singles[1:2]):
            assert_same_untimed(got, want)
        (alone,) = solve(medium_model, Y[:1], config, method)
        assert_same_untimed(alone, singles[0])

    def test_rows_that_stop_apart(self, medium_model):
        """Rows stop for different reasons, tens of rounds apart: at
        ``beta = 1`` the FD gradient twin stops one query on progress, one
        on its iteration budget and the rest on the gradient tolerance."""
        config = InferenceConfig(beta=1.0, max_iters=150)
        d = medium_model.input_dim
        Y = np.vstack([gaussian_points(106, 3, d), gaussian_points(107, 3, d, scale=5.0)])
        for method in METHODS:
            singles = [solve(medium_model, y, config, method) for y in Y]
            batch = solve(medium_model, Y, config, method)
            for got, want in zip(batch, singles, strict=True):
                assert_same_untimed(got, want)
            if method == "fd-gd":
                assert {r.stop_reason for r in batch} == {"grad-tol", "progress", "max-iters"}
                iters = [r.iterations for r in batch]
                assert max(iters) >= 10 * min(iters)

    def test_times_split_the_batch_time(self, medium_model):
        """Each row's times are its share of the batch: they sum to no more
        than the wall time around the call, and the derivative share of a
        row is part of its total."""
        Y = gaussian_points(106, 3, medium_model.input_dim)
        t0 = time.perf_counter()
        batch = solve(medium_model, Y, InferenceConfig(beta=10.0), "whitebox-newton")
        wall_ms = 1000.0 * (time.perf_counter() - t0)
        assert 0.0 < sum(r.time_ms for r in batch) <= wall_ms
        assert all(0.0 < r.deriv_time_ms <= r.time_ms for r in batch)

    def test_rejects_bad_shapes_and_unknown_methods(self, small_model):
        d = small_model.input_dim
        for shape in ((), (d + 1,), (0, d), (2, d + 1), (1, 2, d)):
            with pytest.raises(ValidationError):
                solve(small_model, np.zeros(shape), InferenceConfig(), "fd-gd")
        for shape in ((d,), (2, d)):
            with pytest.raises(ValueError, match="unknown method"):
                solve(small_model, np.zeros(shape), InferenceConfig(), "newton")


def reference_readout_field(params, tol):
    """The per-row canonical-readout field before the stacked trace, kept
    verbatim as a reference."""
    return lambda Z: np.array(
        [dual.readout(params, dual.canonical(params, forward(params, z), tol)) for z in Z]
    )


class TestReadoutField:
    def test_matches_per_row_reference_bitwise(self, medium_model, degenerate_model):
        """On Hessian stencils, and on rows at the built ReLU kink and cone
        tip, the stacked field equals the per-row loop bit for bit."""
        from socicnn.oracle import _central_stencil

        params, x0 = degenerate_model
        exp2_model = _random_model(Exp2Config())
        cases = (
            (medium_model, gaussian_points(31, 3, medium_model.input_dim)),
            (exp2_model, gaussian_points(32, 2, exp2_model.input_dim)),
            (params, np.vstack([x0, x0 + gaussian_points(33, 2, 2, scale=1e-3)])),
        )
        for params, points in cases:
            Z = _central_stencil(points, 1e-5).reshape(-1, params.input_dim)
            Z = np.vstack([Z, points])
            for tol in (1e-9, 1e-3):
                got = inference._readout_field(params, tol)(Z)
                want = reference_readout_field(params, tol)(Z)
                assert np.array_equal(got, want)
                assert np.array_equal(np.signbit(got), np.signbit(want))


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
        ``2 n`` legs of the Hessian stencil add rows, traced as one stack."""
        calls = []

        def counting_forward(params, x):
            calls.append(np.shape(x))
            return forward(params, x)

        monkeypatch.setattr(inference, "forward", counting_forward)
        monkeypatch.setattr(curvature, "forward", counting_forward)
        x = gaussian_points(105, 1, medium_model.input_dim)[0]
        readout_diagnostics(medium_model, x)
        n = medium_model.input_dim
        assert calls == [(1, n), (2 * n, n)]

    def test_stack_rows_match_one_point_calls(self, medium_model):
        """Row ``k`` of a stack, of one 9-row call or of blocks of exp4's
        block size, is bit for bit the one-point call at row ``k``."""
        X = gaussian_points(108, 9, medium_model.input_dim)
        singles = [readout_diagnostics(medium_model, x) for x in X]
        block = experiments._BLOCK
        assert block < len(X)
        stacks = [readout_diagnostics(medium_model, X)]
        stacks += [readout_diagnostics(medium_model, X[s:s + block]) for s in (0, block)]
        for name in (field.name for field in fields(singles[0])):
            want = [getattr(diag, name) for diag in singles]
            assert all(type(v) is float for v in want)
            whole, *blocks = (getattr(diag, name) for diag in stacks)
            assert whole.shape == (len(X),)
            for rows in (whole, np.concatenate(blocks)):
                assert [float(v).hex() for v in rows] == [v.hex() for v in want], name

    def test_a_row_on_a_kink_raises_naming_the_row(self, degenerate_model):
        params, x0 = degenerate_model
        X = np.vstack([x0 + gaussian_points(109, 2, 2, scale=1e-2), x0, x0 + 0.1])
        assert readout_diagnostics(params, X[:2]).grad_err.shape == (2,)
        with pytest.raises(DegenerateInputError, match="at row 2 "):
            readout_diagnostics(params, X)
