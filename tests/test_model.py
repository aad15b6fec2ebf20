"""Model construction, validation, forward traces, and models as plain data."""

import dataclasses
import re

import numpy as np
import pytest

from socicnn import (
    ArchSpec,
    DegeneracySpec,
    NonFiniteError,
    SocIcnnParams,
    ValidationError,
    build_degenerate_2d,
    build_random,
    conic_margin,
    degeneracy_report,
    forward,
    forward_values,
    relu_margin,
    validate,
)

from socicnn.experiments import Exp1Config, Exp2Config, Exp4Config, _random_model
from socicnn.model import _gaussian_nonzero, _nondegenerate_rows, _nonzero_rows

from conftest import constant_params, gaussian_points, inert_backbone, plain_model
from conftest import quad_only_params


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

    @pytest.mark.parametrize("x, kind", [
        (np.array([1 + 5j, 0.0, 0.0, 0.0]), "complex128"),
        (np.array([True, False, True, False]), "a boolean"),
        ([1.0, True, 0.0, 0.0], "a boolean"),
    ], ids=["complex", "bool-array", "bool-in-list"])
    def test_rejects_a_point_that_is_not_real_numbers(self, small_model, x, kind):
        """Points take the constructor's rule for numbers: a complex point was
        cast to its real part with only a ``ComplexWarning``, so ``1 + 5j`` read
        as 1, and booleans read as 0 and 1."""
        with pytest.raises(ValidationError, match=f"^input is not numeric: .*{kind}") as err:
            forward(small_model, x)
        assert err.value.code == "invalid-descriptor"

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
            socicnn.degeneracy_report(forward(small_model, X))
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
        with pytest.raises(ValidationError) as err:
            dataclasses.replace(p, U=U)
        assert err.value.code == "negativity"

    def test_negative_readout(self):
        p = self._valid()
        c = np.array(p.c)
        c[0] = -1e-3
        with pytest.raises(ValidationError) as err:
            dataclasses.replace(p, c=c)
        assert err.value.code == "negativity"

    def test_zero_alpha(self):
        p = self._valid()
        with pytest.raises(ValidationError) as err:
            dataclasses.replace(p, alpha=(0.0,))
        assert err.value.code == "nonpositive-alpha"

    def test_negative_lambda(self):
        """The constructor refuses it; before, such a model reached ``forward``,
        which returned the value of a nonconvex function."""
        p = self._valid()
        with pytest.raises(ValidationError) as err:
            dataclasses.replace(p, lam=(-0.5,))
        assert err.value.code == "negative-lambda"

    def test_wrong_length_readout(self):
        """A ``c`` of the wrong length ended in NumPy's bare ``ValueError`` at
        the first ``forward``; the constructor now names it."""
        p = self._valid()
        with pytest.raises(ValidationError, match=r"^c has shape \(3,\), expected \(4,\)") as err:
            dataclasses.replace(p, c=np.ones(3))
        assert err.value.code == "dimension-mismatch"

    def test_non_finite_entries(self):
        """A NaN or an infinity is a float to the constructor, so finiteness
        is checked like any other structural rule."""
        p = self._valid()
        W0 = np.array(p.W[0])
        W0[0, 0] = np.nan
        v = np.array(p.v)
        v[1] = np.inf
        for change in ({"W": (W0,) + p.W[1:]}, {"v": v}, {"b0": np.nan},
                       {"alpha": (np.inf,)}, {"lam": (np.nan,)}):
            with pytest.raises(ValidationError) as err:
                dataclasses.replace(p, **change)
            assert err.value.code == "non-finite", change

    @pytest.mark.parametrize("change, error, message", [
        ({"W": ["abc"]}, ValidationError, "W[0] is not numeric"),
        ({"W": [[[1.0, 2.0, 3.0], [4.0]]]}, ValidationError, "W[0] is not numeric"),
        ({"b0": None}, ValidationError, "b0 is not numeric"),
        ({"b0": [1.0, 2.0]}, ValidationError, "b0 is not numeric: expected one number"),
        ({"W": None}, ValidationError, "W is not a list or tuple"),
        ({"b0": 10 ** 400}, NonFiniteError, "b0 has an entry too large for a float"),
        ({"W": [[[1.0, 10 ** 400, 0.0]] * 4]}, NonFiniteError, "W[0] has an entry too large"),
        ({"W": [np.ones((4, 3), complex)]}, ValidationError, "W[0] is not numeric"),
        ({"c": np.ones(4, bool)}, ValidationError, "c is not numeric: a boolean"),
        ({"lam": (True,)}, ValidationError, "lam[0] is not numeric: a boolean"),
        ({"b": [[0.1, True, 0.3, 0.4]]}, ValidationError, "b[0] is not numeric: a boolean"),
        ({"seed": "x"}, ValidationError, "seed must be a number, got 'x'"),
        ({"seed": -1}, ValidationError, "seed must be nonnegative, got -1"),
    ], ids=["string", "ragged", "none", "array-b0", "no-list", "huge-b0", "huge-entry", "complex",
            "bool-array", "bool-lam", "bool-in-list", "string-seed", "negative-seed"])
    def test_constructor_refuses_what_is_not_a_real_number(self, change, error, message):
        """Each field is named in a typed error.  These used to end in a bare
        ``ValueError``, ``TypeError`` or ``OverflowError``, or to be taken:
        a complex ``W`` with its imaginary part dropped, booleans as 0 and 1,
        and any seed."""
        p = self._valid()
        given = {f.name: getattr(p, f.name) for f in dataclasses.fields(p)}
        with pytest.raises(error, match=f"^{re.escape(message)}") as info:
            SocIcnnParams(**{**given, **change})
        if error is ValidationError:
            assert info.value.code == "invalid-descriptor"

    def test_shape_mismatch_reported_first(self):
        """Shape checks run before sign checks, so a model that is wrong in
        both ways reports the dimension problem."""
        p = self._valid()
        U = [np.array(m) for m in p.U]
        U[1] = -np.ones((2, 2))
        with pytest.raises(ValidationError) as err:
            dataclasses.replace(p, U=U)
        assert err.value.code == "dimension-mismatch"

    def test_mismatched_module_lists(self):
        p = self._valid()
        with pytest.raises(ValidationError) as err:
            dataclasses.replace(p, e=())
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
        """An architecture is refused as it is built; ``ArchSpec(-2, (3,))``
        and ``ArchSpec(2, 3)`` used to construct, and only ``build_random``
        checked the dimensions."""
        for args, message in [
            ((0, (4,)), "input_dim must be positive"),
            ((3, ()), "widths must be nonempty"),
            ((3, (4, -1)), "widths must be positive"),
            ((3, (4,), (0,)), "quad_dims must be positive"),
            ((2, (2.5,)), "widths must be an int"),
            ((True, (3,)), "input_dim must be an int"),
            ((2, (3,), (2.0,)), "quad_dims must be an int"),
            ((-2, (3,)), "input_dim must be positive"),
            ((2, 3), "widths must be a tuple"),
            ((2, (3,), (), (None,)), "cone_dims must be a number"),
        ]:
            with pytest.raises(ValidationError, match=f"^{message}") as info:
                ArchSpec(*args)
            assert info.value.code == "invalid-descriptor"

    @pytest.mark.parametrize("seed, message", [
        (-1, "seed must be nonnegative"), (1.5, "seed must be an int"),
        (None, "seed must be a number"), (True, "seed must be an int"),
        (10 ** 5000, "seed must be at most the largest float, got an int of 16610 bits "),
        (-10 ** 5000, "seed must be nonnegative, got a negative int of 16610 bits ")],
        ids=["-1", "1.5", "None", "True", "10**5000", "-10**5000"])
    def test_rejects_bad_seed(self, seed, message):
        """``build_random(-1, ...)`` ended in NumPy's unnamed ``ValueError:
        expected non-negative integer``, and ``build_random(1.5, ...)`` in
        ``SeedSequence``'s ``TypeError``.  An int past the 4300 digits that
        ``repr`` converts ended in its bare ``ValueError``, and one above the
        largest float was called negative."""
        with pytest.raises(ValidationError, match=f"^{message}"):
            build_random(seed, ArchSpec(3, (4,)))

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
        and the kink report flagged a live cone as at its tip."""
        from socicnn import canonical
        from socicnn.curvature import curvature_matrix

        tr = forward(small_model, np.array([0.3, -0.2, 0.1, 0.5]))
        for tol in (-1e-9, -1.0, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="tolerance must be nonnegative"):
                degeneracy_report(tr, tol=tol)
            with pytest.raises(ValueError, match="tolerance must be nonnegative"):
                canonical(small_model, tr, tol)
            with pytest.raises(ValueError, match="tolerance must be nonnegative"):
                curvature_matrix(small_model, tr, tol)

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
    """A model as plain data (``conftest.plain_model``: nested lists and
    numbers, as JSON holds them) goes back in through ``SocIcnnParams``, the
    one way in for a model: bit for bit, and with what is not a valid model
    refused by the constructor, which ends with ``validate``."""

    def test_round_trip_bitwise(self, medium_model):
        back = SocIcnnParams(**plain_model(medium_model))
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

    def test_round_trip_degenerate_stays_exact(self, degenerate_model):
        """Plain-data transport must not disturb the bitwise kink placement."""
        params, x0 = degenerate_model
        tr = forward(SocIcnnParams(**plain_model(params)), x0)
        assert tr.a[1][0] == 0.0
        assert np.all(tr.u[0] == 0.0)

    def test_corrupted_json_raises(self, small_model):
        """A file cut short mid-row leaves a ragged matrix, and a stray
        character a string entry: the constructor names the matrix."""
        for corrupt in (lambda row: row.pop(), lambda row: row.__setitem__(0, "{not json")):
            obj = plain_model(small_model)
            corrupt(obj["W"][0][-1])
            with pytest.raises(ValidationError, match=r"^W\[0\] is not numeric") as err:
                SocIcnnParams(**obj)
            assert err.value.code == "invalid-descriptor"

    def test_missing_key_raises(self, small_model):
        """A layer without its bias, or a quadratic module without its offset."""
        for arg, message in (("b", "W, U, b must have one entry per layer"),
                             ("e", "alpha, B, e must have equal length")):
            obj = plain_model(small_model)
            obj[arg].pop()
            with pytest.raises(ValidationError, match=f"^{re.escape(message)}$") as err:
                SocIcnnParams(**obj)
            assert err.value.code == "dimension-mismatch"

    @pytest.mark.parametrize("key, value", [
        ("input_dim", 7), ("widths", [6, 9]), ("widths", []), ("quad_dims", [2]),
        ("quad_dims", []), ("cone_dims", [3, 3]), ("cone_dims", []), ("depth", 2),
    ])
    def test_declared_dims_must_match_the_arrays(self, medium_model, key, value):
        """Each argument declares dimensions that the others must match: ``v``
        the input dimension, ``b`` the widths, ``e`` and ``d`` the quadratic
        and conic module dimensions, ``U`` the depth.  One of them made to
        declare ``key = value`` is refused by the constructor's ``validate``."""
        obj = plain_model(medium_model)
        declared = {
            "input_dim": len(obj["v"]), "widths": [len(b) for b in obj["b"]],
            "quad_dims": [len(e) for e in obj["e"]], "cone_dims": [len(d) for d in obj["d"]],
            "depth": len(obj["U"]),
        }
        assert declared[key] != value
        if key == "input_dim":
            obj["v"] = [0.0] * value
        elif key == "depth":
            obj["U"] = obj["U"][:value]
        else:
            arg = {"widths": "b", "quad_dims": "e", "cone_dims": "d"}[key]
            obj[arg] = [[0.0] * n for n in value]
        with pytest.raises(ValidationError) as err:
            SocIcnnParams(**obj)
        assert err.value.code == "dimension-mismatch"

    @pytest.mark.parametrize("where, set_true", [
        ("model.cone[0].lambda", lambda obj: obj["lam"].__setitem__(0, True)),
        ("model.quad[0].alpha", lambda obj: obj["alpha"].__setitem__(0, True)),
        ("model.b0", lambda obj: obj.update({"b0": True})),
        ("model.layers[1].b[2]", lambda obj: obj["b"][1].__setitem__(2, False)),
        ("model.c[0]", lambda obj: obj["c"].__setitem__(0, True)),
        ("model.layers[0].W[1][3]", lambda obj: obj["W"][0][1].__setitem__(3, True)),
        ("model.dims.input_dim", lambda obj: obj.update({"v": [True] * len(obj["v"])})),
    ])
    def test_booleans_are_refused_by_name(self, small_model, where, set_true):
        """A boolean is not a number: ``lam=(True,)`` and a boolean bias used to
        be taken as 1.0 or 0.0.  ``where`` is the place in the model's layers,
        modules and dims (the input dimension is the length of ``v``); the
        error names the constructor argument that holds it."""
        argument = {
            "model.cone[0].lambda": "lam[0]", "model.quad[0].alpha": "alpha[0]",
            "model.b0": "b0", "model.layers[1].b[2]": "b[1]", "model.c[0]": "c",
            "model.layers[0].W[1][3]": "W[0]", "model.dims.input_dim": "v",
        }[where]
        obj = plain_model(small_model)
        set_true(obj)
        message = rf"^{re.escape(argument)} is not numeric: a boolean"
        with pytest.raises(ValidationError, match=message):
            SocIcnnParams(**obj)

    def test_invalid_payload_fails_validation(self, small_model):
        obj = plain_model(small_model)
        obj["c"][0] = -1.0
        with pytest.raises(ValidationError) as err:
            SocIcnnParams(**obj)
        assert err.value.code == "negativity"
