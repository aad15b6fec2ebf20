"""Model construction, validation, forward traces, and serialization."""

import dataclasses
import json

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
        for a, z in zip(tr.a, tr.z):
            assert np.array_equal(z, np.maximum(a, 0.0))
        recon = float(small_model.c @ tr.z[-1] + small_model.v @ x + small_model.b0)
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

    # NumPy warns about the overflow before NonFiniteError is raised; that
    # stray stderr output is an open defect (CHANGES.md FOUND on overflow
    # warnings), so only this overflow warning is forgiven here.
    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_overflow_raises(self, small_model):
        with pytest.raises(NonFiniteError):
            forward(small_model, np.full(small_model.input_dim, 1e200))


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

    # NumPy warns about the overflow before NonFiniteError is raised; that
    # stray stderr output is an open defect (CHANGES.md FOUND on overflow
    # warnings), so only this overflow warning is forgiven here.
    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_overflow_names_the_row(self, small_model):
        X = np.zeros((3, small_model.input_dim))
        X[2] = 1e200
        with pytest.raises(NonFiniteError, match="row 2"):
            forward_values(small_model, X)


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
        assert rep.conic_zero_modules == tuple(range(small_model.n_cone))

    def test_negative_tolerance_rejected(self, small_model):
        tr = forward(small_model, np.zeros(small_model.input_dim))
        with pytest.raises(ValueError):
            degeneracy_report(tr, tol=-1e-9)

    def test_margin_helpers(self, degenerate_model):
        params, x0 = degenerate_model
        tr = forward(params, x0)
        assert relu_margin(tr) == 0.0
        assert conic_margin(tr) == 0.0
        const_tr = forward(constant_params(), [0.0, 0.0])
        assert conic_margin(const_tr) == np.inf
        assert relu_margin(const_tr) == 1.0


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

    def test_unknown_format_version_raises(self, tmp_path, small_model):
        path = tmp_path / "model.json"
        save_model(small_model, path)
        obj = json.loads(path.read_text())
        obj["format_version"] = 99
        path.write_text(json.dumps(obj))
        with pytest.raises(ModelFormatError):
            load_model(path)

    def test_invalid_payload_fails_validation(self, tmp_path, small_model):
        path = tmp_path / "model.json"
        save_model(small_model, path)
        obj = json.loads(path.read_text())
        obj["c"][0] = -1.0
        path.write_text(json.dumps(obj))
        with pytest.raises(ValidationError):
            load_model(path)
