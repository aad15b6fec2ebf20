"""Model construction, validation, forward traces, and serialization."""

import dataclasses
import json
import re

import numpy as np
import pytest

from socicnn import (
    ArchSpec,
    DegeneracySpec,
    ModelFormatError,
    NonFiniteError,
    SocIcnnParams,
    ValidationError,
    build_degenerate_2d,
    build_random,
    conic_margin,
    degeneracy_report,
    forward,
    forward_values,
    load_model,
    relu_margin,
    save_model,
    validate,
)

from socicnn.experiments import Exp1Config, Exp2Config, Exp4Config, _random_model
from socicnn.model import _gaussian_nonzero, _nondegenerate_rows, _nonzero_rows, from_json_obj
from socicnn.model import to_json_obj

from conftest import constant_params, gaussian_points, inert_backbone, quad_only_params


class TestForward:
    def test_constant_network(self):
        """Zero weights reduce the model to its scalar offset."""
        params = constant_params(b0=3.5)
        for x in ([0.0, 0.0], [1.0, -2.0], [100.0, 3.0]):
            assert forward(params, x).value == 3.5

    def test_pure_quadratic_value(self):
        """alpha=2 with an identity module gives f(x) = ||x||^2."""
        params = quad_only_params(alpha=2.0)
        assert forward(params, [1.0, 1.0]).value == pytest.approx(2.0, abs=1e-15)
        assert forward(params, [0.0, 0.0]).value == 0.0

    def test_trace_records_consistent_pieces(self, small_model):
        x = np.array([0.3, -0.1, 0.7, 0.2])
        tr = forward(small_model, x)
        recon = float(small_model.c @ np.maximum(tr.a[-1], 0.0) + small_model.v @ x
                      + small_model.b0)
        for al, q in zip(small_model.alpha, tr.q):
            recon += 0.5 * al * float(q @ q)
        for lg, un in zip(small_model.lam, tr.u_norms):
            recon += lg * un
        assert tr.value == pytest.approx(recon, rel=1e-15)
        for un, u in zip(tr.u_norms, tr.u):
            assert un == float(np.linalg.norm(u))

    def test_rejects_wrong_shape(self, small_model):
        with pytest.raises(ValidationError):
            forward(small_model, [1.0, 2.0])

    def test_rejects_non_finite_input(self, small_model):
        with pytest.raises(NonFiniteError):
            forward(small_model, [np.nan, 0.0, 0.0, 0.0])
        with pytest.raises(NonFiniteError):
            forward(small_model, [np.inf, 0.0, 0.0, 0.0])

    def test_forward_is_deterministic(self, medium_model):
        x = np.random.default_rng(5).standard_normal(medium_model.input_dim)
        v1 = forward(medium_model, x).value
        v2 = forward(medium_model, x).value
        assert v1 == v2

    def test_overflow_raises(self, small_model):
        with pytest.raises(NonFiniteError):
            forward(small_model, np.full(small_model.input_dim, 1e200))


def assert_trace_rows(stacked, X, params):
    """Every field of a stacked trace equals a per-row ``forward`` loop, bit
    for bit."""
    rows = [forward(params, x) for x in X]
    assert np.array_equal(stacked.x, X)
    for name in ("a", "q", "u"):
        for k, arr in enumerate(getattr(stacked, name)):
            assert arr.shape == (len(X),) + getattr(rows[0], name)[k].shape
            assert np.array_equal(arr, [getattr(tr, name)[k] for tr in rows])
    for g, un in enumerate(stacked.u_norms):
        assert np.array_equal(un, [tr.u_norms[g] for tr in rows])
    assert np.array_equal(stacked.value, [tr.value for tr in rows])


class TestStackedForward:
    @pytest.mark.parametrize(
        "config",
        [Exp1Config, Exp2Config, Exp4Config, ArchSpec(3, (5,)), ArchSpec(4, (6, 6), (3,), ())],
        ids=["Exp1Config", "Exp2Config", "Exp4Config", "no-modules", "no-conic-modules"],
    )
    def test_rows_match_single_point_calls(self, config):
        if isinstance(config, ArchSpec):
            params = build_random(0, config)
        else:
            params = _random_model(config())
        X = gaussian_points(12, 60, params.input_dim)
        assert_trace_rows(forward(params, X), X, params)

    def test_rows_match_at_and_near_the_built_kink(self, degenerate_model):
        """The built zero preactivation and the cone tip stay exactly zero in
        a stack, and the rows around them match single calls."""
        params, x0 = degenerate_model
        X = x0 + np.vstack([np.zeros(2), gaussian_points(13, 20, 2, scale=1e-9),
                            gaussian_points(14, 20, 2, scale=1e-2)])
        tr = forward(params, X)
        assert_trace_rows(tr, X, params)
        spec = DegeneracySpec()
        assert tr.a[spec.relu_layer][0, spec.relu_coord] == 0.0
        assert tr.u_norms[spec.conic_module][0] == 0.0
        assert np.all(tr.u[spec.conic_module][0] == 0.0)

    def test_one_row_stack(self, small_model):
        x = np.array([0.3, -0.1, 0.7, 0.2])
        assert_trace_rows(forward(small_model, x[None, :]), x[None, :], small_model)

    def test_rejects_wrong_shape(self, small_model):
        d = small_model.input_dim
        for shape in ((3, d + 1), (2, 3, d), (d, 1), ()):
            with pytest.raises(ValidationError):
                forward(small_model, np.zeros(shape))

    def test_non_finite_row_is_named(self, small_model):
        X = np.zeros((4, small_model.input_dim))
        X[2, 1] = np.inf
        with pytest.raises(NonFiniteError, match="row 2"):
            forward(small_model, X)

    def test_overflow_names_the_row(self, small_model):
        X = np.zeros((3, small_model.input_dim))
        X[2] = 1e200
        with pytest.raises(NonFiniteError, match="row 2"):
            forward(small_model, X)

    @pytest.mark.parametrize("k", [0, 4, -1])
    def test_row_is_the_one_point_trace(self, medium_model, k):
        """``row(k)`` is field for field, and type for type, the one-point
        trace of ``X[k]``."""
        X = gaussian_points(16, 5, medium_model.input_dim)
        got, want = forward(medium_model, X).row(k), forward(medium_model, X[k])
        assert np.array_equal(got.x, want.x)
        for name in ("a", "q", "u"):
            pairs = zip(getattr(got, name), getattr(want, name), strict=True)
            assert all(np.array_equal(g, w) for g, w in pairs)
        assert repr((got.u_norms, got.value)) == repr((want.u_norms, want.value))

    def test_row_selection_is_the_stacked_trace_of_those_rows(self, medium_model):
        """``row(idx)`` with an index array is the stacked trace of
        ``X[idx]``, rows in the order of ``idx``, repeats included."""
        X = gaussian_points(17, 6, medium_model.input_dim)
        idx = np.array([4, 0, 4, 2])
        assert_trace_rows(forward(medium_model, X).row(idx), X[idx], medium_model)

    def test_degeneracy_report_rejects_a_stack(self, small_model):
        tr = forward(small_model, np.zeros((3, small_model.input_dim)))
        with pytest.raises(ValidationError):
            degeneracy_report(tr)

    def test_single_point_analyses_reject_a_stack(self, small_model):
        import socicnn

        X = gaussian_points(15, 3, small_model.input_dim)
        for analysis in (socicnn.gradient, socicnn.hessian):
            with pytest.raises(ValidationError):
                analysis(small_model, X)
        with pytest.raises(ValidationError):
            socicnn.directional_derivative(small_model, X, X[0])
        with pytest.raises(ValidationError):
            socicnn.branch_signature(forward(small_model, X))
        with pytest.raises(ValidationError):
            socicnn.objective(small_model, X[0], 1.0, X)
        # The point-or-stack entries take X itself but not a stack of stacks.
        with pytest.raises(ValidationError):
            socicnn.solve(small_model, X[None], socicnn.InferenceConfig(), "whitebox-gd")
        with pytest.raises(ValidationError):
            socicnn.readout_diagnostics(small_model, X[None])


class TestForwardValues:
    @pytest.mark.parametrize("config", [Exp1Config, Exp2Config, Exp4Config])
    def test_matches_forward_at_experiment_architectures(self, config):
        params = _random_model(config())
        X = gaussian_points(6, 40, params.input_dim)
        expect = np.array([forward(params, x).value for x in X])
        assert np.all(np.abs(forward_values(params, X) - expect) <= 1e-12 * np.abs(expect))

    def test_matches_forward_at_and_near_the_built_kink(self, degenerate_model):
        params, x0 = degenerate_model
        X = x0 + np.vstack([np.zeros(2), gaussian_points(8, 20, 2, scale=1e-7),
                            gaussian_points(9, 20, 2, scale=1e-2)])
        expect = np.array([forward(params, x).value for x in X])
        assert np.all(np.abs(forward_values(params, X) - expect) <= 1e-12 * np.abs(expect))

    @pytest.mark.parametrize("config", [Exp1Config, Exp4Config])
    def test_in_place_temporaries_change_no_value(self, config):
        """The in-place kernel gives bitwise the values of the expressions
        it stands for, each temporary allocated anew, with batch axes too."""
        params = _random_model(config())
        X = gaussian_points(12, 60, params.input_dim).reshape(3, 20, params.input_dim)
        Z = np.zeros(X.shape[:-1] + (0,))
        for W, U, b in zip(params.W, params.U, params.b):
            Z = np.maximum(X @ W.T + Z @ U.T + b, 0.0)
        expect = Z @ params.c + X @ params.v + params.b0
        for al, B, e in zip(params.alpha, params.B, params.e):
            Q = X @ B.T + e
            expect += 0.5 * al * np.einsum("...ij,...ij->...i", Q, Q)
        for lg, A, d in zip(params.lam, params.A, params.d):
            expect += lg * np.linalg.norm(X @ A.T + d, axis=-1)
        assert np.array_equal(forward_values(params, X), expect)

    def test_rejects_wrong_shape(self, small_model):
        with pytest.raises(ValidationError):
            forward_values(small_model, np.zeros(small_model.input_dim))
        with pytest.raises(ValidationError):
            forward_values(small_model, np.zeros((3, small_model.input_dim + 1)))

    def test_rejects_non_finite_input(self, small_model):
        X = np.zeros((3, small_model.input_dim))
        X[1, 2] = np.nan
        with pytest.raises(NonFiniteError):
            forward_values(small_model, X)

    def test_overflow_names_the_row(self, small_model):
        X = np.zeros((3, small_model.input_dim))
        X[2] = 1e200
        with pytest.raises(NonFiniteError, match="row 2"):
            forward_values(small_model, X)


class ScriptedNormals:
    """A stand-in generator whose ``standard_normal`` hands out a fixed
    stream in order; ``pos`` is the position in it."""

    def __init__(self, stream):
        self.stream = np.asarray(stream, dtype=np.float64)
        self.pos = 0

    def standard_normal(self, size):
        count = int(np.prod(size))
        out = self.stream[self.pos:self.pos + count].reshape(size)
        self.pos += count
        return out.copy()


class TestGaussianNonzero:
    @pytest.mark.parametrize("dim", [1, 3, 7, 64])
    def test_block_draw_matches_one_call_at_a_time(self, dim):
        """Without a zero row, a block of rows is bitwise the loop of
        one-row calls, norms included (each bitwise ``np.linalg.norm`` of
        its row), and leaves the generator where the loop does."""
        block, norms = _gaussian_nonzero(np.random.default_rng(4), dim, 150)
        rng = np.random.default_rng(4)
        for k in range(150):
            (vec,), (nrm,) = _gaussian_nonzero(rng, dim, 1)
            assert np.array_equal(block[k], vec) and norms[k] == nrm == np.linalg.norm(vec)
        after = np.random.default_rng(4)
        _gaussian_nonzero(after, dim, 150)
        assert after.random() == rng.random()

    def test_zero_rows_are_redrawn_after_the_block_in_row_order(self):
        """Zero rows keep their place and are redrawn from the stream after
        the block, in row order, each until it is nonzero; every other row
        is the block's."""
        stream = np.random.default_rng(5).standard_normal(3 * 8)
        stream[6:9] = 0.0  # row 2 of the block
        stream[12:15] = 0.0  # row 4 of the block
        stream[15:18] = 0.0  # row 2's first redraw
        block, norms = _gaussian_nonzero(ScriptedNormals(stream), 3, 5)
        want = stream[:15].reshape(5, 3).copy()
        want[2], want[4] = stream[18:21], stream[21:24]
        assert np.array_equal(block, want)
        assert np.array_equal(norms, np.linalg.norm(want, axis=1)) and np.all(norms > 0.0)

    def test_redraw_is_in_place(self):
        """``_nonzero_rows`` writes into the block it is given, a view too,
        and leaves a block with no zero row as it is."""
        rng = np.random.default_rng(6)
        base = np.zeros((4, 5))
        base[:, 3:] = 1.0
        view = base[:, :3]
        norms = _nonzero_rows(rng, view)
        assert np.all(norms > 0.0) and np.array_equal(base[:, 3:], np.ones((4, 2)))
        assert np.array_equal(norms, np.linalg.norm(base[:, :3], axis=1))
        before = base.copy()
        _nonzero_rows(rng, view)
        assert np.array_equal(base, before)


class TestForwardValuesBatchAxes:
    def test_each_slab_is_bitwise_its_2d_call(self):
        """At exp4's architecture, a ``(30, 20, d)`` call gives every
        ``(20, d)`` slab bitwise the values of its own 2-D call.  One flat
        call over the same 600 rows agrees only to rounding: its matrix
        products run over a different row count."""
        params = _random_model(Exp4Config())
        S = gaussian_points(18, 600, params.input_dim).reshape(30, 20, params.input_dim)
        batched = forward_values(params, S)
        assert batched.shape == (30, 20)
        for slab, got in zip(S, batched):
            assert np.array_equal(got, forward_values(params, slab))
        flat = forward_values(params, S.reshape(600, -1)).reshape(30, 20)
        assert np.allclose(flat, batched, rtol=1e-13, atol=0.0)

    def test_non_finite_row_is_named_by_its_full_index(self, small_model):
        X = np.zeros((2, 3, small_model.input_dim))
        X[1, 2] = 1e200
        with pytest.raises(NonFiniteError, match=r"row \(1, 2\) "):
            forward_values(small_model, X)
        with pytest.raises(NonFiniteError, match="row 2 "):
            forward_values(small_model, X[1])

    def test_rejects_a_wrong_last_axis(self, small_model):
        with pytest.raises(ValidationError):
            forward_values(small_model, np.zeros((2, 3, small_model.input_dim + 1)))


class TestValidate:
    def _valid(self):
        return build_random(0, ArchSpec(3, (4, 4), quad_dims=(2,), cone_dims=(2,)))

    def test_accepts_random_model(self):
        validate(self._valid())

    def test_accepts_zero_entries_in_c(self):
        """Nonnegativity is weak: zeros in the readout are legal."""
        base = inert_backbone(2)
        base["W"] = (np.zeros((3, 2)),)
        base["U"] = (np.zeros((3, 0)),)
        base["b"] = (np.zeros(3),)
        base["c"] = np.array([1.0, 0.0, 2.0])
        validate(SocIcnnParams(**base))

    def test_negative_skip_weight(self):
        p = self._valid()
        U = [np.array(m) for m in p.U]
        U[1][0, 0] = -0.1
        bad = SocIcnnParams(p.W, U, p.b, p.c, p.v, p.b0, p.alpha, p.B, p.e, p.lam, p.A, p.d)
        with pytest.raises(ValidationError) as err:
            validate(bad)
        assert err.value.code == "negativity"

    def test_negative_readout(self):
        p = self._valid()
        c = np.array(p.c)
        c[0] = -1e-3
        bad = SocIcnnParams(p.W, p.U, p.b, c, p.v, p.b0, p.alpha, p.B, p.e, p.lam, p.A, p.d)
        with pytest.raises(ValidationError) as err:
            validate(bad)
        assert err.value.code == "negativity"

    def test_zero_alpha(self):
        p = self._valid()
        bad = SocIcnnParams(p.W, p.U, p.b, p.c, p.v, p.b0, (0.0,), p.B, p.e, p.lam, p.A, p.d)
        with pytest.raises(ValidationError) as err:
            validate(bad)
        assert err.value.code == "nonpositive-alpha"

    def test_negative_lambda(self):
        p = self._valid()
        bad = SocIcnnParams(p.W, p.U, p.b, p.c, p.v, p.b0, p.alpha, p.B, p.e, (-0.5,), p.A, p.d)
        with pytest.raises(ValidationError) as err:
            validate(bad)
        assert err.value.code == "negative-lambda"

    def test_non_finite_entries(self):
        """JSON ``NaN`` literals load as floats, so finiteness is checked
        like any other structural rule."""
        p = self._valid()
        W0 = np.array(p.W[0])
        W0[0, 0] = np.nan
        v = np.array(p.v)
        v[1] = np.inf
        for change in ({"W": (W0,) + p.W[1:]}, {"v": v}, {"b0": np.nan},
                       {"alpha": (np.inf,)}, {"lam": (np.nan,)}):
            with pytest.raises(ValidationError) as err:
                validate(dataclasses.replace(p, **change))
            assert err.value.code == "non-finite", change

    def test_shape_mismatch_reported_first(self):
        """Shape checks run before sign checks, so a model that is wrong in
        both ways reports the dimension problem."""
        p = self._valid()
        U = [np.array(m) for m in p.U]
        U[1] = -np.ones((2, 2))
        bad = SocIcnnParams(p.W, U, p.b, p.c, p.v, p.b0, p.alpha, p.B, p.e, p.lam, p.A, p.d)
        with pytest.raises(ValidationError) as err:
            validate(bad)
        assert err.value.code == "dimension-mismatch"

    def test_mismatched_module_lists(self):
        p = self._valid()
        bad = SocIcnnParams(p.W, p.U, p.b, p.c, p.v, p.b0, p.alpha, p.B, (), p.lam, p.A, p.d)
        with pytest.raises(ValidationError) as err:
            validate(bad)
        assert err.value.code == "dimension-mismatch"


class TestBuildRandom:
    def test_same_seed_same_model(self):
        arch = ArchSpec(5, (8, 6), quad_dims=(3,), cone_dims=(2, 2))
        p1 = build_random(42, arch)
        p2 = build_random(42, arch)
        for m1, m2 in zip(p1.W, p2.W):
            assert np.array_equal(m1, m2)
        for m1, m2 in zip(p1.U, p2.U):
            assert np.array_equal(m1, m2)
        assert np.array_equal(p1.c, p2.c)
        assert p1.b0 == p2.b0
        assert p1.alpha == p2.alpha and p1.lam == p2.lam

    def test_different_seed_different_model(self):
        arch = ArchSpec(5, (8,))
        assert not np.array_equal(build_random(0, arch).W[0], build_random(1, arch).W[0])

    def test_shapes_and_signs(self):
        arch = ArchSpec(7, (9, 5, 4), quad_dims=(3, 2), cone_dims=(6,))
        p = build_random(1, arch)
        validate(p)
        assert p.widths == (9, 5, 4)
        assert p.input_dim == 7
        assert p.U[0].shape == (9, 0)
        assert p.U[1].shape == (5, 9) and np.all(p.U[1] >= 0)
        assert np.all(p.c >= 0)
        assert all(0.5 <= a <= 1.5 for a in p.alpha)
        assert all(0.5 <= l <= 1.5 for l in p.lam)
        assert p.seed == 1

    def test_rejects_bad_arch(self):
        with pytest.raises(ValidationError):
            build_random(0, ArchSpec(0, (4,)))
        with pytest.raises(ValidationError):
            build_random(0, ArchSpec(3, ()))
        with pytest.raises(ValidationError):
            build_random(0, ArchSpec(3, (4, -1)))
        with pytest.raises(ValidationError):
            build_random(0, ArchSpec(3, (4,), quad_dims=(0,)))
        for arch in (ArchSpec(2, (2.5,)), ArchSpec(True, (3,)), ArchSpec(2, (3,), (2.0,))):
            with pytest.raises(ValidationError) as info:
                build_random(0, arch)
            assert info.value.code == "invalid-descriptor"

    def test_arrays_are_read_only(self):
        p = build_random(0, ArchSpec(3, (4,)))
        with pytest.raises(ValueError):
            p.W[0][0, 0] = 1.0


class TestDegenerateBuilder:
    def test_sits_exactly_on_the_chosen_kinks(self, degenerate_model):
        """The builder lands bitwise on one zero preactivation and one cone
        tip, with genuine margin everywhere else."""
        params, x0 = degenerate_model
        tr = forward(params, x0)
        spec = DegeneracySpec()
        assert tr.a[spec.relu_layer][spec.relu_coord] == 0.0
        assert np.all(tr.u[spec.conic_module] == 0.0)
        rep = degeneracy_report(tr, tol=0.0)
        assert rep.relu_zero_coords == ((spec.relu_layer, spec.relu_coord),)
        assert rep.conic_zero_modules == (spec.conic_module,)
        assert not rep.is_nondegenerate

    def test_other_margins_are_macroscopic(self, degenerate_model):
        params, x0 = degenerate_model
        tr = forward(params, x0)
        abs_pre = np.concatenate([np.abs(a) for a in tr.a])
        second_smallest = np.sort(abs_pre)[1]
        assert second_smallest > 1e-2
        live_norms = [un for g, un in enumerate(tr.u_norms) if g != 0]
        assert min(live_norms) > 1e-2

    def test_alternate_slots(self):
        spec = DegeneracySpec(relu_layer=0, relu_coord=2, conic_module=1)
        params, x0 = build_degenerate_2d(spec)
        tr = forward(params, x0)
        assert tr.a[0][2] == 0.0
        assert np.all(tr.u[1] == 0.0)
        rep = degeneracy_report(tr, tol=0.0)
        assert rep.relu_zero_coords == ((0, 2),)
        assert rep.conic_zero_modules == (1,)

    def test_rejects_out_of_range_spec(self):
        with pytest.raises(ValidationError):
            build_degenerate_2d(DegeneracySpec(relu_layer=5))
        with pytest.raises(ValidationError):
            build_degenerate_2d(DegeneracySpec(relu_coord=3))
        with pytest.raises(ValidationError):
            build_degenerate_2d(DegeneracySpec(conic_module=2))

    def test_model_is_valid_and_convex_shaped(self, degenerate_model):
        params, _ = degenerate_model
        validate(params)


class TestDegeneracyReport:
    def test_nondegenerate_random_point(self, medium_model):
        x = np.random.default_rng(2).standard_normal(medium_model.input_dim)
        rep = degeneracy_report(forward(medium_model, x))
        assert rep.is_nondegenerate
        assert rep.relu_zero_coords == () and rep.conic_zero_modules == ()

    def test_huge_tolerance_flags_everything(self, small_model):
        x = np.zeros(small_model.input_dim)
        tr = forward(small_model, x)
        rep = degeneracy_report(tr, tol=1e12)
        n_units = sum(small_model.widths)
        assert len(rep.relu_zero_coords) == n_units
        assert rep.conic_zero_modules == tuple(range(len(small_model.A)))

    def test_negative_tolerance_rejected(self, small_model):
        """Every function that takes a kink tolerance rejects a negative,
        NaN or infinite one; before, ``canonical`` read out a wrong gradient
        and ``branch_signature`` flagged a live cone as at its tip."""
        from socicnn import branch_signature, canonical
        from socicnn.curvature import curvature_matrix

        tr = forward(small_model, np.array([0.3, -0.2, 0.1, 0.5]))
        for tol in (-1e-9, -1.0, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="tolerance must be nonnegative"):
                degeneracy_report(tr, tol=tol)
            with pytest.raises(ValueError, match="tolerance must be nonnegative"):
                canonical(small_model, tr, tol)
            with pytest.raises(ValueError, match="tolerance must be nonnegative"):
                curvature_matrix(small_model, tr, tol)
            with pytest.raises(ValueError, match="tolerance must be nonnegative"):
                branch_signature(tr, tol)

    def test_margin_helpers(self, degenerate_model):
        params, x0 = degenerate_model
        tr = forward(params, x0)
        assert relu_margin(tr) == 0.0
        assert conic_margin(tr) == 0.0
        const_tr = forward(constant_params(), [0.0, 0.0])
        assert conic_margin(const_tr) == np.inf
        assert relu_margin(const_tr) == 1.0

    def test_margins_of_a_stack_are_per_row(self, medium_model, degenerate_model):
        """A stacked trace gives each row's margins, equal to its one-point
        trace's, and ``_nondegenerate_rows`` is each row's
        ``is_nondegenerate``, at the built kink and at a tolerance that flags
        some rows."""
        params, x0 = degenerate_model
        cases = (
            (params, x0 + np.vstack([np.zeros(2), gaussian_points(18, 5, 2, scale=1e-2)]), 1e-9),
            (medium_model, gaussian_points(19, 20, medium_model.input_dim), 0.05),
            (constant_params(), gaussian_points(20, 3, 2), 1e-9),
        )
        flags = []
        for p, X, tol in cases:
            tr = forward(p, X)
            singles = [forward(p, x) for x in X]
            assert relu_margin(tr).tolist() == [relu_margin(t) for t in singles]
            assert conic_margin(tr).tolist() == [conic_margin(t) for t in singles]
            rows = _nondegenerate_rows(tr, tol)
            assert rows.tolist() == [degeneracy_report(t, tol).is_nondegenerate for t in singles]
            flags += rows.tolist()
        assert True in flags and False in flags


class TestSerialization:
    def test_round_trip_bitwise(self, tmp_path, medium_model):
        path = tmp_path / "model.json"
        save_model(medium_model, path)
        back = load_model(path)
        for attr in ("W", "U", "b", "B", "e", "A", "d"):
            for m1, m2 in zip(getattr(medium_model, attr), getattr(back, attr)):
                assert np.array_equal(m1, m2)
        assert np.array_equal(medium_model.c, back.c)
        assert np.array_equal(medium_model.v, back.v)
        assert medium_model.b0 == back.b0
        assert medium_model.alpha == back.alpha
        assert medium_model.lam == back.lam
        assert medium_model.seed == back.seed
        x = np.random.default_rng(9).standard_normal(medium_model.input_dim)
        assert forward(medium_model, x).value == forward(back, x).value

    def test_round_trip_degenerate_stays_exact(self, tmp_path, degenerate_model):
        """JSON transport must not disturb the bitwise kink placement."""
        params, x0 = degenerate_model
        path = tmp_path / "deg.json"
        save_model(params, path)
        tr = forward(load_model(path), x0)
        assert tr.a[1][0] == 0.0
        assert np.all(tr.u[0] == 0.0)

    def test_corrupted_json_raises(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ModelFormatError):
            load_model(path)

    def test_missing_key_raises(self, tmp_path, small_model):
        """A layer without its bias, or dims without its widths."""
        path = tmp_path / "model.json"
        for drop in (lambda obj: obj["layers"][0].pop("b"), lambda obj: obj["dims"].pop("widths")):
            save_model(small_model, path)
            obj = json.loads(path.read_text())
            drop(obj)
            path.write_text(json.dumps(obj))
            with pytest.raises(ModelFormatError):
                load_model(path)

    @pytest.mark.parametrize("token", ["99", "true", "1.0", '"1"', "null"])
    def test_unknown_format_version_raises(self, tmp_path, small_model, token):
        """Only the integer 1: ``true`` and ``1.0`` compare equal to it in
        Python and used to load."""
        path = tmp_path / "model.json"
        save_model(small_model, path)
        text = path.read_text()
        assert '"format_version": 1,' in text
        path.write_text(text.replace('"format_version": 1,', f'"format_version": {token},'))
        with pytest.raises(ModelFormatError, match="format_version"):
            load_model(path)

    @pytest.mark.parametrize("key, value", [
        ("input_dim", 7), ("widths", [6, 9]), ("widths", []), ("quad_dims", [2]),
        ("quad_dims", []), ("cone_dims", [3, 3]), ("cone_dims", []), ("depth", 2),
    ])
    def test_declared_dims_must_match_the_arrays(self, tmp_path, small_model, key, value):
        """``dims`` must be what the arrays give, entry for entry and with no
        extra entry: a file declaring ``input_dim: 7`` over 4-column arrays
        used to load, and ``model info`` printed 4."""
        path = tmp_path / "model.json"
        save_model(small_model, path)
        obj = json.loads(path.read_text())
        assert obj["dims"].get(key) != value
        obj["dims"][key] = value
        path.write_text(json.dumps(obj))
        with pytest.raises(ModelFormatError, match="dims"):
            load_model(path)

    @pytest.mark.parametrize("where, set_true", [
        ("model.cone[0].lambda", lambda obj: obj["cone"][0].update({"lambda": True})),
        ("model.quad[0].alpha", lambda obj: obj["quad"][0].update({"alpha": True})),
        ("model.b0", lambda obj: obj.update({"b0": True})),
        ("model.layers[1].b[2]", lambda obj: obj["layers"][1]["b"].__setitem__(2, False)),
        ("model.c[0]", lambda obj: obj["c"].__setitem__(0, True)),
        ("model.layers[0].W[1][3]", lambda obj: obj["layers"][0]["W"][1].__setitem__(3, True)),
        ("model.dims.input_dim", lambda obj: obj["dims"].update({"input_dim": True})),
    ])
    def test_booleans_are_refused_by_name(self, small_model, where, set_true):
        """A JSON boolean is not a number: ``"lambda": true`` and a boolean
        bias used to load as 1.0 or 0.0."""
        obj = to_json_obj(small_model)
        set_true(obj)
        with pytest.raises(ModelFormatError, match=rf"^{re.escape(where)} must be a number"):
            from_json_obj(obj)

    def test_invalid_payload_fails_validation(self, tmp_path, small_model):
        path = tmp_path / "model.json"
        save_model(small_model, path)
        obj = json.loads(path.read_text())
        obj["c"][0] = -1.0
        path.write_text(json.dumps(obj))
        with pytest.raises(ValidationError):
            load_model(path)
