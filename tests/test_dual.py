"""Optimal multiplier branches: canonical selection, sampling, corners."""

from dataclasses import replace

import numpy as np
import pytest

from socicnn import (
    ConstructionError,
    DegeneracySpec,
    DualBranch,
    InfeasibleBranchError,
    SocIcnnParams,
    ValidationError,
    argmax_branch,
    build_degenerate_2d,
    canonical,
    degeneracy_report,
    dual_value,
    feasibility_violation,
    forward,
    readout,
    sample_optimal_branches,
)
from socicnn.dual import _check_optimal

from conftest import (
    branch_row,
    cone_only_params,
    gaussian_points,
    quad_only_params,
    reference_corners,
    single_layer_params,
    stack_branches,
    zero_preact_pair,
)


class TestCanonical:
    def test_all_active_layer_takes_readout_bound(self):
        params = single_layer_params(5.0)
        tr = forward(params, [0.0, 0.0])
        br = canonical(params, tr)
        assert np.array_equal(br.relu[0], params.c)

    def test_all_inactive_layer_takes_zero(self):
        params = single_layer_params(-5.0)
        tr = forward(params, [0.0, 0.0])
        br = canonical(params, tr)
        assert np.array_equal(br.relu[0], np.zeros(2))
        assert np.array_equal(readout(params, br), params.v)

    def test_quadratic_multiplier_is_curvature_times_residual(self):
        params = quad_only_params(alpha=2.0)
        x = np.array([1.0, -2.0])
        br = canonical(params, forward(params, x))
        assert np.allclose(br.quad[0], 2.0 * x, rtol=0, atol=0)

    def test_conic_multiplier_points_along_residual(self):
        params = cone_only_params(lam=0.8)
        x = np.array([3.0, 4.0])
        br = canonical(params, forward(params, x))
        assert np.allclose(br.cone[0], 0.8 * x / 5.0, atol=1e-15)

    def test_conic_multiplier_vanishes_at_tip(self):
        """A point at or within ``tol`` of the cone tip gets exact ``+0.0``
        conic multipliers, however the residual's entries are signed."""
        params = cone_only_params(lam=0.8)
        for x in ([0.0, 0.0], [-4e-10, -3e-10], [-0.0, 2e-10]):
            trace = forward(params, x)
            assert trace.u_norms[0] <= 1e-9
            r = canonical(params, trace).cone[0]
            assert np.array_equal(r, np.zeros(2)) and not np.any(np.signbit(r))

    def test_interval_coordinate_pinned_to_zero(self, degenerate_model):
        params, x0 = degenerate_model
        br = canonical(params, forward(params, x0))
        assert br.relu[1][0] == 0.0
        assert np.array_equal(br.cone[0], np.zeros(2))

    def test_canonical_attains_forward_value(self, medium_model):
        """The minimum-norm branch is tight: its minorant equals the model
        value at the anchor, degenerate or not."""
        for x in gaussian_points(21, 20, medium_model.input_dim):
            tr = forward(medium_model, x)
            psi = dual_value(medium_model, x, canonical(medium_model, tr))
            assert psi == pytest.approx(tr.value, rel=1e-12)

    def test_canonical_attains_value_at_kink(self, degenerate_model):
        params, x0 = degenerate_model
        tr = forward(params, x0)
        psi = dual_value(params, x0, canonical(params, tr))
        assert psi == pytest.approx(tr.value, rel=1e-12)


    def test_stacked_trace_matches_single_traces(self, degenerate_model, medium_model):
        """Row ``k`` of the canonical branch at a stacked trace is bitwise,
        sign of zero included, the branch at row ``k``'s own trace; cone-tip
        rows get exact ``+0.0`` conic multipliers."""
        params, x0 = degenerate_model
        cases = (
            (params, x0 + np.vstack([np.zeros(2), gaussian_points(22, 8, 2, scale=1e-2)])),
            (cone_only_params(), np.vstack([np.zeros(2), gaussian_points(23, 4, 2)])),
            (medium_model, gaussian_points(24, 12, medium_model.input_dim)),
        )
        for params, X in cases:
            stack = canonical(params, forward(params, X))
            for k, x in enumerate(X):
                ref = canonical(params, forward(params, x))
                row = branch_row(stack, k)
                for got, want in zip(row.relu + row.quad + row.cone,
                                     ref.relu + ref.quad + ref.cone):
                    assert np.array_equal(got, want)
                    assert np.array_equal(np.signbit(got), np.signbit(want))
        tip = canonical(cone_only_params(), forward(cone_only_params(), np.zeros((2, 2))))
        assert not np.any(tip.cone[0]) and not np.any(np.signbit(tip.cone[0]))


class TestDualValue:
    def test_all_zero_branch_gives_affine_part(self, medium_model):
        p = medium_model
        br = DualBranch(
            relu=tuple(np.zeros(w) for w in p.widths),
            quad=tuple(np.zeros(B.shape[0]) for B in p.B),
            cone=tuple(np.zeros(A.shape[0]) for A in p.A),
        )
        x = np.array([0.2, -0.4, 0.1, 0.0, 1.0, -0.3])
        assert dual_value(p, x, br) == pytest.approx(float(p.v @ x + p.b0), rel=1e-15)
        assert np.array_equal(readout(p, br), p.v)

    def test_minorant_lower_bounds_model_everywhere(self, degenerate_model):
        """Weak duality: every feasible branch built at x0 stays below the
        model at fresh probe points."""
        params, x0 = degenerate_model
        tr = forward(params, x0)
        branches = sample_optimal_branches(params, tr, n=20, seed=4)
        for y in x0 + gaussian_points(5, 25, 2):
            fy = forward(params, y).value
            assert np.all(dual_value(params, y, branches) <= fy + 1e-10)

    def test_infeasible_relu_branch_rejected(self):
        params = single_layer_params(5.0)
        tr = forward(params, [0.0, 0.0])
        base = canonical(params, tr)
        too_big = DualBranch(relu=(1.5 * base.relu[0],), quad=(), cone=())
        with pytest.raises(InfeasibleBranchError):
            dual_value(params, [0.0, 0.0], too_big)

    def test_infeasible_cone_branch_rejected(self):
        params = cone_only_params(lam=0.5)
        x = np.array([1.0, 1.0])
        too_long = DualBranch(relu=(np.zeros(1),), quad=(), cone=(np.array([0.8, 0.0]),))
        with pytest.raises(InfeasibleBranchError):
            dual_value(params, x, too_long)

    def test_negative_relu_branch_rejected(self):
        """A violation up to 1e-9 is forgiven, a larger one is not."""
        params = single_layer_params(5.0)
        for nu in (-0.1, -2e-9):
            bad = DualBranch(relu=(np.array([nu, 0.0]),), quad=(), cone=())
            with pytest.raises(InfeasibleBranchError):
                dual_value(params, [0.0, 0.0], bad)
        slack = DualBranch(relu=(np.array([-1e-9, 0.0]),), quad=(), cone=())
        assert np.isfinite(dual_value(params, [0.0, 0.0], slack))


class TestFeasibility:
    def test_canonical_is_feasible(self, medium_model, degenerate_model):
        for params, x in (
            (medium_model, gaussian_points(3, 1, medium_model.input_dim)[0]),
            degenerate_model,
        ):
            br = canonical(params, forward(params, x))
            assert feasibility_violation(params, br) <= 1e-12

    def test_violation_is_signed(self):
        params = single_layer_params(5.0)
        tr = forward(params, [0.0, 0.0])
        base = canonical(params, tr)
        assert feasibility_violation(params, base) <= 0.0
        bigger = DualBranch(relu=(base.relu[0] + 0.25,), quad=(), cone=())
        assert feasibility_violation(params, bigger) == pytest.approx(0.25, abs=1e-12)

    def test_sampled_branches_feasible(self, degenerate_model):
        params, x0 = degenerate_model
        tr = forward(params, x0)
        viol = feasibility_violation(params, sample_optimal_branches(params, tr, n=50, seed=0))
        assert viol.shape == (50,)
        assert np.all(viol <= 1e-12)


class TestBranchBox:
    """The ReLU box of the optimal set, as ``degeneracy_report`` masks it."""

    def test_nondegenerate_has_no_free_coords(self, medium_model):
        x = gaussian_points(8, 1, medium_model.input_dim)[0]
        box = degeneracy_report(forward(medium_model, x))
        assert box.relu_zero_coords == ()
        for free in box.free:
            assert not np.any(free)

    def test_degenerate_flags_exactly_one_interval(self, degenerate_model):
        params, x0 = degenerate_model
        box = degeneracy_report(forward(params, x0))
        assert box.relu_zero_coords == ((1, 0),)
        assert box.free[1][0] and not box.upper[1][0]
        assert sum(int(np.sum(free)) for free in box.free) == 1

    def test_status_matches_preactivation_signs(self, medium_model):
        x = gaussian_points(12, 1, medium_model.input_dim)[0]
        tr = forward(medium_model, x)
        box = degeneracy_report(tr)
        for a, upper, free in zip(tr.a, box.upper, box.free):
            assert np.array_equal(upper, a > 1e-9)
            assert np.array_equal(~upper & ~free, a < -1e-9)

    @pytest.mark.parametrize("entry", ["sample", "directional"])
    def test_one_report_per_call(self, degenerate_model, monkeypatch, entry):
        """The sampler and the support function each read one
        ``degeneracy_report`` of the trace."""
        from socicnn import dual, geometry, model

        calls = []

        def counting_report(trace, tol):
            calls.append(1)
            return model.degeneracy_report(trace, tol)

        monkeypatch.setattr(dual, "degeneracy_report", counting_report)
        params, x0 = degenerate_model
        tr = forward(params, x0)
        if entry == "sample":
            sample_optimal_branches(params, tr, n=4)
        else:
            geometry.directional_derivative(params, x0, np.eye(2))
        assert len(calls) == 1

    def test_canonical_sits_on_box_faces(self, degenerate_model):
        """Forced-upper coordinates take the recomputed bound; forced-zero
        and interval coordinates take zero."""
        params, x0 = degenerate_model
        tr = forward(params, x0)
        box = degeneracy_report(tr)
        br = canonical(params, tr)
        ub = [np.matvec(U.T, nu) for U, nu in zip(params.U[1:], br.relu[1:])] + [params.c]
        for nu, bound, upper in zip(br.relu, ub, box.upper):
            assert np.array_equal(nu[upper], bound[upper])
            assert np.all(nu[~upper] == 0.0)


class TestSampling:
    def test_nondegenerate_samples_collapse_to_canonical(self, medium_model):
        x = gaussian_points(30, 1, medium_model.input_dim)[0]
        tr = forward(medium_model, x)
        base = canonical(medium_model, tr)
        stack = sample_optimal_branches(medium_model, tr, n=6, seed=9)
        for a, b in zip(stack.relu + stack.cone, base.relu + base.cone):
            assert a.shape == (6, b.shape[0])
            assert np.array_equal(a, np.broadcast_to(b, a.shape))

    def test_samples_attain_value(self, degenerate_model):
        params, x0 = degenerate_model
        tr = forward(params, x0)
        psi = dual_value(params, x0, sample_optimal_branches(params, tr, n=100, seed=1))
        assert psi.shape == (100,)
        assert np.all(np.abs(psi - tr.value) <= 1e-10 * (1 + abs(tr.value)))

    def test_canonical_is_strictly_shortest(self, degenerate_model):
        params, x0 = degenerate_model
        tr = forward(params, x0)
        base_norm = canonical(params, tr).norm()
        norms = sample_optimal_branches(params, tr, n=100, seed=2).norm()
        assert norms.shape == (100,)
        assert np.all(norms > base_norm)

    def test_negative_count_rejected(self, degenerate_model):
        params, x0 = degenerate_model
        with pytest.raises(ValidationError, match="nonnegative"):
            sample_optimal_branches(params, forward(params, x0), n=-1)

    @pytest.mark.parametrize("n", [10 ** 400, 2 ** 63, 2 ** 62], ids=["10**400", "2**63", "2**62"])
    def test_count_too_large_to_shape_rejected(self, degenerate_model, n):
        """Counts whose draws NumPy cannot shape ended in a bare ``ValueError``
        (``Maximum allowed dimension exceeded`` or ``array is too big``); NumPy
        refuses them before allocating anything."""
        params, x0 = degenerate_model
        with pytest.raises(ValidationError, match=f"^branch count {n} is too large"):
            sample_optimal_branches(params, forward(params, x0), n=n)

    def test_prefix_reproducibility(self, degenerate_model):
        """A shorter sample is a prefix of a longer one, also with free
        coordinates in two layers and two cone tips."""
        for params, x0 in (degenerate_model, two_tip_kinks()):
            tr = forward(params, x0)
            first = sample_optimal_branches(params, tr, n=4, seed=11)
            longer = sample_optimal_branches(params, tr, n=9, seed=11)
            assert np.array_equal(first.norm(), longer.norm()[:4])
            for short, full in zip(first.relu + first.cone, longer.relu + longer.cone):
                assert np.array_equal(short, full[:4])

    def test_generator_count_is_constant_in_n(self, monkeypatch):
        """The sampler makes one generator per kind of draw, not one per
        branch: as many at ``n=5000`` as at ``n=1``, and at most three."""
        params, x = two_tip_kinks()
        tr = forward(params, x)
        made = []
        default_rng, seed_sequence = np.random.default_rng, np.random.SeedSequence

        def counted(fn):
            def wrapper(*args, **kwargs):
                made.append(fn)
                return fn(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(np.random, "default_rng", counted(default_rng))
        monkeypatch.setattr(np.random, "SeedSequence", counted(seed_sequence))
        counts = []
        for n in (1, 5000):
            made.clear()
            sample_optimal_branches(params, tr, n=n, seed=3)
            counts.append(len(made))
        assert counts[0] == counts[1] <= 3

    def test_sampled_readouts_are_subgradients(self, degenerate_model):
        """Sampled and corner readouts support the model at the kink, and
        so does a midpoint of two of them, since the subdifferential is
        convex."""
        params, x0 = degenerate_model
        tr = forward(params, x0)
        gs = readout(params, sample_optimal_branches(params, tr, n=30, seed=3))
        assert gs.shape == (30, 2)
        corners = readout(params, reference_corners(params, tr))
        gs = np.vstack([gs, corners, 0.5 * (gs[0] + corners[-1])])
        assert np.ptp(gs, axis=0).max() > 1e-3
        for y in x0 + gaussian_points(14, 40, 2):
            assert np.all(forward(params, y).value >= tr.value + gs @ (y - x0) - 1e-10)


class TestCorners:
    def test_nondegenerate_argmax_is_canonical(self, medium_model):
        """With no degeneracy the optimal set is one branch, so every row of
        ``argmax_branch`` is the canonical branch, bitwise."""
        x = gaussian_points(40, 1, medium_model.input_dim)[0]
        tr = forward(medium_model, x)
        stack = argmax_branch(medium_model, tr, gaussian_points(41, 5, medium_model.input_dim))
        canon = canonical(medium_model, tr)
        groups = canon.relu + canon.quad + canon.cone
        for got, want in zip(stack.relu + stack.quad + stack.cone, groups):
            assert got.shape == (5, want.shape[0])
            assert np.all(got == want)

    def test_corners_attain_value(self, degenerate_model):
        params, x0 = degenerate_model
        tr = forward(params, x0)
        psi = dual_value(params, x0, reference_corners(params, tr))
        assert psi.shape == (2,)
        assert np.all(np.abs(psi - tr.value) <= 1e-10 * (1 + abs(tr.value)))

    def test_absolute_value_corners(self):
        """relu(x) + relu(-x) at 0 has corner readouts {-1, 0, 0, 1}."""
        params = zero_preact_pair()
        outs = readout(params, reference_corners(params, forward(params, [0.0])))
        assert outs.shape == (4, 1)
        outs = sorted(outs[:, 0])
        assert outs == pytest.approx([-1.0, 0.0, 0.0, 1.0], abs=0)


class TestMixing:
    def test_blockwise_mixing_stays_optimal(self, degenerate_model):
        """The optimal set is a product over blocks, so swapping the conic
        part of one optimal branch into another preserves optimality."""
        params, x0 = degenerate_model
        tr = forward(params, x0)
        branches = sample_optimal_branches(params, tr, n=12, seed=6)
        i, j = (a.ravel() for a in np.meshgrid(range(0, 12, 3), range(1, 12, 4)))
        mixed = DualBranch(
            relu=tuple(nu[i] for nu in branches.relu),
            quad=tuple(p[i] for p in branches.quad),
            cone=tuple(r[j] for r in branches.cone),
        )
        psi = dual_value(params, x0, mixed)
        assert psi.shape == (12,)
        assert np.all(np.abs(psi - tr.value) <= 1e-10 * (1 + abs(tr.value)))

    def test_non_optimal_branch_raises_typed_error(self, degenerate_model):
        """A feasible branch off the optimal set fails the optimality check
        with a package error that is still a RuntimeError."""
        params, x0 = degenerate_model
        tr = forward(params, x0)
        base = canonical(params, tr)
        zero_relu = tuple(np.zeros_like(nu) for nu in base.relu)
        off = DualBranch(relu=zero_relu, quad=base.quad, cone=base.cone)
        with pytest.raises(ConstructionError, match="not optimal") as info:
            _check_optimal(params, tr, off)
        assert isinstance(info.value, RuntimeError)

    def test_check_names_the_first_non_optimal_branch(self, degenerate_model):
        """One stacked check covers every row and names the first bad one;
        an all-optimal stack comes back unchanged."""
        params, x0 = degenerate_model
        tr = forward(params, x0)
        good = sample_optimal_branches(params, tr, n=3, seed=1)
        assert _check_optimal(params, tr, good) is good
        base = canonical(params, tr)
        off = DualBranch(
            relu=tuple(np.zeros_like(nu) for nu in base.relu), quad=base.quad, cone=base.cone
        )
        with pytest.raises(ConstructionError, match="branch 2 is not optimal"):
            _check_optimal(
                params,
                tr,
                stack_branches(
                    [branch_row(good, 0), branch_row(good, 1), off, branch_row(good, 2), off]
                ),
            )


def two_layer_kinks():
    """Two layers with seven zero preactivations at every input: layer 0
    has four free, four active and two inactive units, layer 1 three free,
    three active and three inactive ones; layer 0's free unit 1 has a zero
    bound column in ``U[1]``.  Plus a 3-D conic module at its tip at the
    returned point."""
    rng = np.random.default_rng(7)
    x = np.array([0.3, -0.2, 0.1])
    W0 = np.zeros((10, 3))
    b0 = np.array([0.0, 0.0, 0.0, 0.0, 1.0, 1.5, 0.5, 2.0, -1.0, -0.5])
    U1 = np.abs(rng.standard_normal((9, 10)))
    U1[:, 1] = 0.0
    z0 = np.maximum(b0, 0.0)
    s1 = U1 @ z0
    targets = np.array([0.0, 0.0, 0.0, 1.0, 0.7, 2.0, -1.0, -0.3, -2.0])
    A = rng.standard_normal((3, 3))
    params = SocIcnnParams(
        W=(W0, np.zeros((9, 3))),
        U=(np.zeros((10, 0)), U1),
        b=(b0, targets - s1),
        c=np.abs(rng.standard_normal(9)),
        v=rng.standard_normal(3),
        b0=0.5,
        alpha=(1.5,),
        B=(rng.standard_normal((4, 3)),),
        e=(rng.standard_normal(4),),
        lam=(0.7,),
        A=(A,),
        d=(-(A @ x),),
    )
    return params, x


def zero_bound_pair():
    """|x| through two kinked units whose first has readout weight 0, so its
    multiplier interval is [0, 0]."""
    return SocIcnnParams(
        W=(np.array([[1.0], [-1.0]]),),
        U=(np.zeros((2, 0)),),
        b=(np.zeros(2),),
        c=np.array([0.0, 1.0]),
        v=np.array([0.0]),
        b0=0.0,
    )


def two_tip_kinks():
    """``two_layer_kinks`` plus a second conic module at its tip, of dimension
    2: free coordinates in two layers and cone tips of dimensions 3 and 2."""
    params, x = two_layer_kinks()
    A2 = np.array([[0.4, -1.1, 0.3], [0.9, 0.2, -0.6]])
    return replace(params, lam=(0.7, 0.45), A=params.A + (A2,), d=params.d + (-(A2 @ x),)), x


def reference_samples(params, trace, n, seed, tol=1e-9):
    """The sampler as one box recursion and one readout per branch, reading
    branch ``k``'s draws from row ``k`` of the documented stream:
    ``default_rng([seed, 0]).random((n, n_free))`` for the free coordinates,
    each ``bound * u`` top layer first; ``default_rng([seed,
    1]).standard_normal((n, sum of tip dims))`` for the cone-tip directions,
    a block of columns per tip; ``default_rng([seed, 2]).random((n,
    n_tips))`` for their radii.  The radius power is taken on a one-element
    array, since NumPy's array power may differ from the scalar ``**`` in
    the last bit.  Returns the per-branch multipliers, readouts and norms."""
    box = degeneracy_report(trace, tol)
    quad = tuple(al * qh for al, qh in zip(params.alpha, trace.q))
    tips = [g for g, un in enumerate(trace.u_norms) if un <= tol]
    dims = [params.A[g].shape[0] for g in tips]
    free_u = np.random.default_rng([seed, 0]).random((n, len(box.relu_zero_coords)))
    dir_z = np.random.default_rng([seed, 1]).standard_normal((n, sum(dims)))
    radius_u = np.random.default_rng([seed, 2]).random((n, len(tips)))
    out = []
    for k in range(n):
        relu = [None] * params.n_layers
        bound = params.c
        col = 0
        for l in range(params.n_layers - 1, -1, -1):
            nu = np.where(box.upper[l], bound, 0.0)
            for i in np.flatnonzero(box.free[l]):
                nu[i] = bound[i] * free_u[k, col]
                col += 1
            relu[l] = nu
            if l > 0:
                bound = params.U[l].T @ nu
        cone = []
        start = 0
        for g, (lg, A, ug, un) in enumerate(zip(params.lam, params.A, trace.u, trace.u_norms)):
            dim = A.shape[0]
            if g not in tips:
                cone.append((lg / un) * ug)
                continue
            j = tips.index(g)
            vec = dir_z[k, start:start + dim]
            start += dim
            nrm = np.linalg.norm(vec)
            cone.append((lg * radius_u[k, j:j + 1] ** (1.0 / dim) / nrm) * vec)
        g = params.v.copy()
        for M, vec in zip(params.W + params.B + params.A, relu + list(quad) + cone):
            g += M.T @ vec
        norm = float(np.sqrt(sum(float(vec @ vec) for vec in relu + list(quad) + cone)))
        out.append((relu, quad, cone, g, norm))
    return out


STACK_POINTS = {
    "deg-last-layer": lambda: build_degenerate_2d(DegeneracySpec()),
    "deg-first-layer": lambda: build_degenerate_2d(
        DegeneracySpec(relu_layer=0, relu_coord=2, conic_module=1)
    ),
    "cone-only": lambda: (cone_only_params(lam=0.8, A=np.eye(3), dim=3), np.zeros(3)),
    "two-layer-kinks": two_layer_kinks,
    "two-tips": two_tip_kinks,
    "zero-bound": lambda: (zero_bound_pair(), np.array([0.0])),
}


@pytest.mark.parametrize("name", ["deg-last-layer", "two-layer-kinks", "two-tips"])
def test_argmax_slopes_are_the_corner_maximum(name):
    """Along each direction the ``argmax_branch`` row's slope is the largest
    slope over every ReLU corner plus each cone tip's ``lam_g * ||A_g u||``,
    and the row is feasible and optimal."""
    params, x = STACK_POINTS[name]()
    tr = forward(params, x)
    units = gaussian_points(42, 30, params.input_dim)
    stack = argmax_branch(params, tr, units)
    tips = sum(params.lam[g] * np.linalg.norm(units @ params.A[g].T, axis=1)
               for g in degeneracy_report(tr).conic_zero_modules)
    want = np.max(units @ readout(params, reference_corners(params, tr)).T, axis=1) + tips
    got = np.vecdot(readout(params, stack), units)
    assert np.all(np.abs(got - want) <= 1e-12 * (1.0 + np.abs(want)))
    assert np.max(feasibility_violation(params, stack)) <= 1e-12
    _check_optimal(params, tr, stack)


class TestStackedSampler:
    @pytest.mark.parametrize("name", sorted(STACK_POINTS))
    def test_matches_per_branch_loop_bitwise(self, name):
        """Multipliers, readouts and norms of the stacked sampler equal a
        one-branch-at-a-time loop on the same generators, bit for bit, and
        every stacked call equals the one-branch call on each row."""
        params, x = STACK_POINTS[name]()
        tr = forward(params, x)
        stack = sample_optimal_branches(params, tr, n=40, seed=5)
        ref = reference_samples(params, tr, 40, 5)
        y = x + 0.5
        readouts = readout(params, stack)
        norms = stack.norm()
        values = dual_value(params, y, stack)
        viols = feasibility_violation(params, stack)
        assert readouts.shape == (40, params.input_dim)
        assert norms.shape == values.shape == viols.shape == (40,)
        for k, (relu, quad, cone, g, norm) in enumerate(ref):
            br = branch_row(stack, k)
            for got, want in zip(br.relu + br.quad + br.cone, relu + list(quad) + cone):
                assert np.array_equal(got, want)
            assert np.array_equal(readouts[k], g)
            assert np.array_equal(readout(params, br), g)
            assert norms[k] == norm and br.norm() == norm
            assert values[k] == dual_value(params, y, br)
            assert viols[k] == feasibility_violation(params, br)

    def test_dual_value_names_the_first_infeasible_row(self, degenerate_model):
        params, x0 = degenerate_model
        good = sample_optimal_branches(params, forward(params, x0), n=5, seed=1)
        relu = tuple(nu.copy() for nu in good.relu)
        relu[1][3] = -0.5
        bad = DualBranch(relu=relu, quad=good.quad, cone=good.cone)
        assert np.flatnonzero(feasibility_violation(params, bad) > 0.0).tolist() == [3]
        with pytest.raises(InfeasibleBranchError, match="branch 3 violates"):
            dual_value(params, x0, bad)

    def test_kink_counts_of_the_test_points(self):
        params, x = STACK_POINTS["two-layer-kinks"]()
        tr = forward(params, x)
        box = degeneracy_report(tr)
        assert [int(np.sum(f)) for f in box.free] == [4, 3]
        assert tr.u_norms[0] == 0.0
        params2, x = STACK_POINTS["two-tips"]()
        tr2 = forward(params2, x)
        assert degeneracy_report(tr2).relu_zero_coords == box.relu_zero_coords
        assert tr2.u_norms == (0.0, 0.0)
        assert [A.shape[0] for A in params2.A] == [3, 2]
        ub = np.matvec(params.U[1].T, canonical(params, tr).relu[1])
        assert ub[1] == 0.0 and box.free[0][1]
        params, x = STACK_POINTS["zero-bound"]()
        assert degeneracy_report(forward(params, x)).relu_zero_coords == ((0, 0), (0, 1))

    def test_free_coordinate_with_zero_bound_stays_zero(self):
        params, x = STACK_POINTS["zero-bound"]()
        stack = sample_optimal_branches(params, forward(params, x), n=20, seed=2)
        assert np.all(stack.relu[0][:, 0] == 0.0)
        assert np.all(stack.relu[0][:, 1] > 0.0)

    def test_stack_of_a_list_reads_out_each_branch(self, medium_model):
        """Stacked readout of canonical branches at several points equals
        the one-branch readouts bitwise on layers wider than a BLAS block."""
        branches = [
            canonical(medium_model, forward(medium_model, x))
            for x in gaussian_points(23, 7, medium_model.input_dim)
        ]
        stack = stack_branches(branches)
        got = readout(medium_model, stack)
        assert got.shape == (7, medium_model.input_dim)
        for row, br in zip(got, branches):
            assert np.array_equal(row, readout(medium_model, br))
        assert np.array_equal(stack.norm(), [br.norm() for br in branches])

    def test_stack_check_names_the_first_non_optimal_row(self, degenerate_model):
        params, x0 = degenerate_model
        tr = forward(params, x0)
        good = sample_optimal_branches(params, tr, n=5, seed=1)
        relu = tuple(nu.copy() for nu in good.relu)
        relu[1][3] = 0.0
        relu[1][4] = 0.0
        bad = DualBranch(relu=relu, quad=good.quad, cone=good.cone)
        with pytest.raises(ConstructionError, match="branch 3 is not optimal"):
            _check_optimal(params, tr, bad)
