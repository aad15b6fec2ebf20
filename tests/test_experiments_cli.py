"""Experiment drivers at reduced scale, and the command-line front end."""

import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from socicnn import (
    DualBranch,
    build_degenerate_2d,
    canonical,
    curvature,
    dual,
    experiments,
    forward,
    forward_values,
    geometry,
    inference,
    load_model,
    readout,
)
from socicnn.cli import main
from socicnn.experiments import (
    Exp1Config,
    Exp2Config,
    Exp3Config,
    Exp4Config,
    METHOD_ORDER,
    _random_model,
    run_exp1,
    run_exp2,
    run_exp3,
    run_exp4,
)

from conftest import record_traces


def rows_without_time(table):
    """Row tuples with wall-clock columns removed, for determinism checks."""
    keep = [i for i, c in enumerate(table.columns) if not c.endswith("_ms")]
    return [tuple(row[i] for i in keep) for row in table.rows]


def count_calls(monkeypatch):
    """Count the calls of exp1's and exp2's primitives, keyed by name (with
    the module for ``forward``) and by whether they get a stack of points
    (or a stacked trace or branch); returns the live count dict."""
    calls = {}

    def is_stack(x):
        if isinstance(x, DualBranch):
            return np.ndim(x.relu[0]) == 2
        return np.ndim(x.value) == 1 if hasattr(x, "value") else np.ndim(x) >= 2

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            key = (name, "stack" if is_stack(args[1]) else "one")
            calls[key] = calls.get(key, 0) + 1
            return fn(*args, **kwargs)

        return wrapper

    for module in (experiments, curvature, inference):
        name = module.__name__.split(".")[-1] + ".forward"
        monkeypatch.setattr(module, "forward", counted(name, forward))
    for name in ("forward_values", "fd_gradient", "fd_hessian"):
        monkeypatch.setattr(experiments, name, counted(name, getattr(experiments, name)))
    for name in ("canonical", "readout"):
        monkeypatch.setattr(dual, name, counted(name, getattr(dual, name)))
    return calls


def traced_peak(run):
    """Peak of ``tracemalloc``'s traced memory over one default run, whose
    checks must pass."""
    tracemalloc.start()
    try:
        out = run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.all_passed()
    return peak


SMALL1 = Exp1Config(samples=25, input_dim=6, widths=(12, 10), quad_dims=(4,), cone_dims=(4,))
SMALL2 = Exp2Config(points=12, trials=60)
SMALL3 = Exp3Config(directions=120, branches=300, probes=300)
SMALL4 = Exp4Config(queries=4)


@pytest.fixture(scope="module")
def exp1_small():
    return run_exp1(SMALL1)


class TestExp1:
    def test_structure(self, exp1_small):
        assert exp1_small.name == "exp1"
        table = exp1_small.tables[0]
        assert table.name == "gradient_check"
        assert table.columns[:3] == ("trials", "retained_rate", "grad_l2_err")
        assert len(table.rows) == 1

    def test_checks_pass_at_reduced_scale(self, exp1_small):
        for check in exp1_small.checks:
            assert check.passed, f"{check.name}: {check.detail}"
        assert exp1_small.all_passed()

    def test_deterministic_modulo_timing(self, exp1_small):
        again = run_exp1(SMALL1)
        assert rows_without_time(exp1_small.tables[0]) == rows_without_time(again.tables[0])

    def test_zero_samples_degrades_gracefully(self):
        cfg = Exp1Config(samples=0, input_dim=4, widths=(6,), quad_dims=(), cone_dims=())
        out = run_exp1(cfg)
        assert len(out.tables[0].rows) == 0
        assert any(c.name == "exp1-runtime" for c in out.checks)

    def test_negative_samples_rejected(self):
        with pytest.raises(ValueError, match="samples must be nonnegative, got -3"):
            Exp1Config(samples=-3)

    def test_traces_differences_and_reads_out_each_block_in_one_stack(self, monkeypatch):
        """The samples go through ``forward``, ``canonical``, ``readout`` and
        ``fd_gradient`` (one ``forward_values`` call) once per block, with
        no single-point call anywhere."""
        calls = count_calls(monkeypatch)
        cfg = Exp1Config()
        out = run_exp1(cfg)
        assert out.all_passed()
        blocks = -(-cfg.samples // experiments._BLOCK)
        assert calls == {
            ("experiments.forward", "stack"): blocks,
            ("forward_values", "stack"): blocks,
            ("fd_gradient", "stack"): blocks,
            ("canonical", "stack"): blocks,
            ("readout", "stack"): blocks,
        }

    def test_default_run_stays_small(self):
        """Blocks of 8 samples keep the run's traced peak near 1 MB; blocks
        of 16 would pass 1.4 MB."""
        assert traced_peak(run_exp1) < 1.3e6


@pytest.fixture(scope="module")
def exp2_small():
    return run_exp2(SMALL2)


class TestExp2:
    def test_structure(self, exp2_small):
        names = [t.name for t in exp2_small.tables]
        assert names == ["derivative_check", "quadratic_model"]
        quad = exp2_small.tables[1]
        assert [row[0] for row in quad.rows] == [1e-4, 3e-4, 1e-3]

    def test_checks_pass_at_reduced_scale(self, exp2_small):
        for check in exp2_small.checks:
            assert check.passed, f"{check.name}: {check.detail}"

    def test_residual_grows_with_radius(self, exp2_small):
        resid = [row[2] for row in exp2_small.tables[1].rows]
        assert resid[0] < resid[1] < resid[2]

    def test_traces_each_stencil_and_probe_set_in_one_stack(self, monkeypatch):
        """The point search traces its draws in stacked blocks, and each block
        of kept points gets one stacked ``fd_gradient`` (one
        ``forward_values`` call), one ``fd_hessian`` (one stacked trace of its
        stencils) and one stacked readout.  The only single-point traces are
        the quadratic model's anchor, once per radius, whose trials are
        traced in stacks of ``RESIDUAL_BLOCK``."""
        calls = count_calls(monkeypatch)
        cfg = Exp2Config()
        out = run_exp2(cfg)
        assert out.all_passed()
        search = calls.pop(("experiments.forward", "stack"))
        assert search <= -(-2 * cfg.points // experiments._BLOCK)
        derivative = calls.pop(("fd_hessian", "stack"))
        assert -(-cfg.points // experiments._BLOCK) <= derivative <= search
        trial_stacks = -(-cfg.trials // curvature.RESIDUAL_BLOCK)
        assert calls == {
            ("curvature.forward", "one"): len(cfg.radii),
            ("curvature.forward", "stack"): len(cfg.radii) * trial_stacks,
            ("inference.forward", "stack"): derivative,
            ("forward_values", "stack"): derivative,
            ("fd_gradient", "stack"): derivative,
            ("canonical", "stack"): 2 * derivative,
            ("readout", "stack"): 2 * derivative,
            ("canonical", "one"): len(cfg.radii),
            ("readout", "one"): len(cfg.radii),
        }

    def test_default_run_stays_small(self):
        """Blocks of 8 points keep the run's traced peak under 1 MB; blocks of
        16 would pass 1.3 MB."""
        assert traced_peak(run_exp2) < 1.2e6

    def test_keeps_drawing_until_the_anchor_is_found(self, capsys):
        """At seed 0 the anchor is the third margin-gated point, so one
        point is not enough to stop the search; the table keeps one point."""
        assert main(["exp2", "--points", "1", "--seed", "0"]) == 0
        lines = capsys.readouterr().out.splitlines()
        header = lines.index("[derivative_check]")
        assert lines[header + 1].startswith("points,")
        assert lines[header + 2].startswith("1,")


@pytest.fixture(scope="module")
def exp3_small():
    return run_exp3(SMALL3)


class TestExp3:
    def test_structure(self, exp3_small):
        table = exp3_small.tables[0]
        assert table.name == "degenerate_geometry"
        assert len(table.rows) == 1
        cols = dict(zip(table.columns, table.rows[0]))
        assert cols["directions"] == 120
        assert cols["canonical_gap_frac"] == 1.0
        assert cols["max_violation"] <= 1e-9
        assert cols["min_norm_gap"] > 0
        assert cols["min_support_margin"] > 0

    def test_checks_pass_at_reduced_scale(self, exp3_small):
        for check in exp3_small.checks:
            assert check.passed, f"{check.name}: {check.detail}"

    def test_checks_pass_at_every_config_seed(self):
        """All seven checks pass at config seeds 0-99 with the default
        config, so the sampled columns hold beyond the seeds they were
        built at."""
        failures = []
        for seed in range(100):
            out = run_exp3(Exp3Config(seed=seed))
            assert len(out.checks) == 7
            failures += [(seed, c.name, c.detail) for c in out.checks if not c.passed]
        assert failures == []

    def test_deterministic_modulo_timing(self, exp3_small):
        again = run_exp3(SMALL3)
        assert rows_without_time(exp3_small.tables[0]) == rows_without_time(again.tables[0])

    def test_runs_forward_twice(self, monkeypatch):
        """One trace at the anchor for the branches and one inside the
        stacked directional derivative; every other value is batched."""
        calls = []

        def counting_forward(params, x):
            calls.append(1)
            return forward(params, x)

        monkeypatch.setattr(experiments, "forward", counting_forward)
        monkeypatch.setattr(geometry, "forward", counting_forward)
        out = run_exp3(Exp3Config(directions=20, branches=30, probes=40))
        assert out.all_passed()
        assert len(calls) == 2

    def test_default_run_stays_small(self):
        """The 5000 sampled branches stay stacked and the violation maximum
        is taken block by block, so no branches-by-directions array exists
        (that array alone is 40 MB)."""
        tracemalloc.start()
        try:
            out = run_exp3(Exp3Config())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out.all_passed()
        assert peak < 20e6, peak

    def test_reads_out_the_branches_in_one_stack(self, monkeypatch):
        """Two single readouts (the canonical slope in the directional
        derivative and for the probes) and one canonical norm; the sampled
        branches go through one stacked ``readout`` and one stacked
        ``norm``."""
        counts = {"readout": 0, "stack readout": 0, "norm": 0, "stack norm": 0}
        readout_fn, norm_fn = dual.readout, DualBranch.norm

        def counted(name, fn, branch_arg):
            def wrapper(*args):
                stacked = np.ndim(args[branch_arg].relu[0]) == 2
                counts[f"stack {name}" if stacked else name] += 1
                return fn(*args)

            return wrapper

        monkeypatch.setattr(dual, "readout", counted("readout", readout_fn, 1))
        monkeypatch.setattr(DualBranch, "norm", counted("norm", norm_fn, 0))
        out = run_exp3(Exp3Config())
        assert out.all_passed()
        assert counts["readout"] <= 2
        assert counts["stack readout"] == 1
        assert counts["norm"] <= 1
        assert counts["stack norm"] == 1

    def test_probe_margin_matches_per_probe_forward(self, exp3_small):
        """The batched probe margin equals a per-probe ``forward`` loop that
        draws the probes one at a time from the same stream."""
        params, x0 = build_degenerate_2d(SMALL3.degeneracy)
        tr = forward(params, x0)
        g_can = readout(params, canonical(params, tr, SMALL3.tol))
        rng = np.random.default_rng([SMALL3.seed, 2])
        ref = np.inf
        for _ in range(SMALL3.probes):
            ydelta = rng.standard_normal(params.input_dim)
            ref = min(ref, forward(params, x0 + ydelta).value - tr.value - float(g_can @ ydelta))
        table = exp3_small.tables[0]
        row = dict(zip(table.columns, table.rows[0]))
        assert abs(row["min_support_margin"] - ref) <= 1e-12


@pytest.fixture(scope="module")
def exp4_small():
    return run_exp4(SMALL4)


class TestExp4:
    def test_structure(self, exp4_small):
        names = [t.name for t in exp4_small.tables]
        assert names == ["methods", "queries", "diagnostics"]
        methods = [row[0] for row in exp4_small.tables[0].rows]
        assert methods == list(METHOD_ORDER)
        assert len(exp4_small.tables[1].rows) == 4 * SMALL4.queries

    def test_checks_pass_at_reduced_scale(self, exp4_small):
        for check in exp4_small.checks:
            assert check.passed, f"{check.name}: {check.detail}"

    def test_diagnostics_propagate_non_degeneracy_errors(self, monkeypatch):
        """Only a kink skips a query's diagnostics; any other failure surfaces."""

        def failing(*args, **kwargs):
            raise RuntimeError("diagnostics failed")

        monkeypatch.setattr(inference, "readout_diagnostics", failing)
        cfg = Exp4Config(queries=1, input_dim=3, widths=(4,), quad_dims=(2,), cone_dims=(2,))
        with pytest.raises(RuntimeError, match="diagnostics failed"):
            run_exp4(cfg)

    def test_conic_detail_counts_skipped_queries(self, exp4_small, monkeypatch):
        detail = {c.name: c.detail for c in exp4_small.checks}["exp4-conic-residual"]
        assert f"0 of {SMALL4.queries} queries skipped as degenerate" in detail

        def on_a_kink(trace, tol):
            return np.zeros(np.shape(trace.value), dtype=bool)

        monkeypatch.setattr(experiments, "_nondegenerate_rows", on_a_kink)
        cfg = Exp4Config(queries=2, input_dim=3, widths=(4,), quad_dims=(2,), cone_dims=(2,))
        checks = {c.name: c for c in run_exp4(cfg).checks}
        assert "2 of 2 queries skipped as degenerate" in checks["exp4-conic-residual"].detail
        assert not checks["exp4-conic-residual"].passed

    def test_newton_beats_gd(self, exp4_small):
        by_method = {row[0]: row for row in exp4_small.tables[0].rows}
        cols = exp4_small.tables[0].columns
        iters = cols.index("iters")
        assert by_method["whitebox-newton"][iters] < 0.2 * by_method["whitebox-gd"][iters]

    def test_line_searches_trace_their_steps_in_stacks(self, monkeypatch):
        """A default run descends each solver's 30 queries in lockstep: a
        round traces every open line search's predicted run of step sizes in
        one stack, and the FD twins' gradient stencils of the round in one
        value query.  About 3,500 ``forward`` and 1,700 ``forward_values``
        calls, one query at a time, become about 1,100 and 600.  The steps a
        stack traces past the accepted one stay within 5% of the trial
        points."""
        traced, runs = record_traces(monkeypatch)
        value_queries = []

        def counting_values(params, X):
            value_queries.append(np.shape(X))
            return forward_values(params, X)

        monkeypatch.setattr(inference, "forward_values", counting_values)
        out = run_exp4(Exp4Config())
        assert out.all_passed()
        assert [len(reports) for reports, _ in runs] == [Exp4Config().queries] * 4
        assert len(traced) <= 1200
        assert len(value_queries) <= 700
        rows = sum(len(X) for _, calls in runs for X in calls)
        trials = sum(1 + r.iterations + r.backtracks for reports, _ in runs for r in reports)
        assert rows <= 1.05 * trials


class TestCli:
    def test_model_gen_is_deterministic(self, tmp_path):
        p1, p2 = tmp_path / "m1.json", tmp_path / "m2.json"
        args = ["--seed", "5", "--input-dim", "4", "--width", "6", "--depth", "2",
                "--quad-dims", "2", "--cone-dims", "2"]
        assert main(["model", "gen", "--out", str(p1)] + args) == 0
        assert main(["model", "gen", "--out", str(p2)] + args) == 0
        assert p1.read_bytes() == p2.read_bytes()

    def test_model_info_round_trip(self, tmp_path, capsys):
        path = tmp_path / "deg.json"
        assert main(["model", "gen", "--out", str(path), "--preset", "degenerate-2d"]) == 0
        assert main(["model", "info", str(path)]) == 0
        text = capsys.readouterr().out
        assert "validation: ok" in text
        assert "input_dim" in text

    def test_model_info_rejects_corrupted_file(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{broken")
        assert main(["model", "info", str(path)]) == 2
        assert capsys.readouterr().err != ""

    def test_model_info_rejects_missing_widths(self, tmp_path, capsys):
        path = tmp_path / "model.json"
        assert main(["model", "gen", "--out", str(path), "--preset", "degenerate-2d"]) == 0
        obj = json.loads(path.read_text())
        del obj["dims"]["widths"]
        path.write_text(json.dumps(obj))
        capsys.readouterr()
        assert main(["model", "info", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "Traceback" not in err

    def test_model_info_rejects_wrong_input_dim(self, tmp_path, capsys):
        """A declared ``input_dim`` other than the arrays' used to load, and
        ``model info`` printed the arrays' one."""
        path = tmp_path / "model.json"
        assert main(["model", "gen", "--out", str(path), "--preset", "degenerate-2d"]) == 0
        obj = json.loads(path.read_text())
        obj["dims"]["input_dim"] = 7
        path.write_text(json.dumps(obj))
        capsys.readouterr()
        assert main(["model", "info", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "dims" in err
        assert "Traceback" not in err

    def test_model_info_rejects_non_finite_weights(self, tmp_path, capsys):
        """JSON ``NaN`` literals load as floats; validation must refuse them."""
        path = tmp_path / "model.json"
        assert main(["model", "gen", "--out", str(path), "--preset", "degenerate-2d"]) == 0
        obj = json.loads(path.read_text())
        obj["layers"][0]["W"][0][0] = float("nan")
        path.write_text(json.dumps(obj))
        assert "NaN" in path.read_text()
        capsys.readouterr()
        assert main(["model", "info", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "Traceback" not in err

    @pytest.mark.parametrize("token", ["-1", "0", "1.5", "null", "true", "1e400", "-1e400"])
    @pytest.mark.parametrize("field", ["v", "layers.0.W", "layers.1.W"])
    def test_model_info_rejects_scalar_array_fields(self, tmp_path, capsys, field, token):
        """A JSON scalar where a vector or matrix belongs is a format error,
        not an ``IndexError`` from reading the shape it does not have."""
        path = tmp_path / "model.json"
        assert main(["model", "gen", "--out", str(path), "--preset", "degenerate-2d"]) == 0
        obj = json.loads(path.read_text())
        *parents, leaf = [int(k) if k.isdigit() else k for k in field.split(".")]
        target = obj
        for key in parents:
            target = target[key]
        target[leaf] = "SCALAR"
        path.write_text(json.dumps(obj).replace('"SCALAR"', token))
        capsys.readouterr()
        assert main(["model", "info", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "Traceback" not in err

    @pytest.mark.parametrize("token", ['"x"', "-1", "true", "1.5", "[0]"])
    def test_model_info_rejects_bad_seed(self, tmp_path, capsys, token):
        """The recorded seed must be a nonnegative integer or null."""
        path = tmp_path / "model.json"
        assert main(["model", "gen", "--out", str(path), "--seed", "3"]) == 0
        text = path.read_text()
        assert '"seed": 3' in text
        path.write_text(text.replace('"seed": 3', f'"seed": {token}'))
        capsys.readouterr()
        assert main(["model", "info", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "seed" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("preset", [[], ["--preset", "exp1"]])
    def test_model_gen_negative_seed_exits_2(self, tmp_path, capsys, preset):
        path = tmp_path / "model.json"
        assert main(["model", "gen", "--out", str(path), "--seed", "-1"] + preset) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "Traceback" not in err
        assert not path.exists()

    @pytest.mark.parametrize("flag, size", [("--width", 10 ** 12), ("--depth", 10 ** 15)])
    def test_model_gen_size_too_large_to_allocate_exits_2(self, tmp_path, capsys, flag, size):
        """NumPy refuses a 146 TiB weight matrix, and Python an 8 PB tuple of
        widths, without allocating; their ``MemoryError`` used to escape as
        a traceback.  The tuple's has no message, so its type is printed."""
        path = tmp_path / "model.json"
        assert main(["model", "gen", "--out", str(path), flag, str(size)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.split()[1:]
        assert "Traceback" not in err
        assert not path.exists()

    @pytest.mark.parametrize(
        "preset, config", [("exp1", Exp1Config), ("exp2", Exp2Config), ("exp4", Exp4Config)]
    )
    def test_model_gen_preset_is_experiment_model(self, tmp_path, preset, config):
        path = tmp_path / "model.json"
        assert main(["model", "gen", "--out", str(path), "--preset", preset, "--seed", "3"]) == 0
        loaded, expected = load_model(path), _random_model(config(seed=3))
        assert loaded.seed == expected.seed == 3
        for name in ("W", "U", "b", "c", "v", "b0", "alpha", "B", "e", "lam", "A", "d"):
            got, want = getattr(loaded, name), getattr(expected, name)
            if not isinstance(want, tuple):
                got, want = (got,), (want,)
            bits = [[(np.shape(a), np.asarray(a).tobytes()) for a in arrs] for arrs in (got, want)]
            assert bits[0] == bits[1], name

    def test_exp1_check_passes(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "samples": 10, "input_dim": 5, "widths": [8, 6],
            "quad_dims": [3], "cone_dims": [3],
        }))
        code = main(["exp1", "--config", str(cfg), "--check"])
        text = capsys.readouterr().out
        assert code == 0
        assert "[PASS] exp1-grad-exact" in text
        assert "[FAIL]" not in text

    def test_check_failure_sets_exit_code(self, tmp_path, capsys):
        """A deliberately coarse difference step pushes the oracle mismatch
        over its bound, which must surface as a failed check and exit 3."""
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "samples": 10, "input_dim": 5, "widths": [8, 6],
            "quad_dims": [3], "cone_dims": [3], "fd_step": 10.0,
        }))
        code = main(["exp1", "--config", str(cfg), "--check"])
        text = capsys.readouterr().out
        assert code == 3
        assert "[FAIL]" in text

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"sample": 10}))
        assert main(["exp1", "--config", str(cfg)]) == 2
        assert "sample" in capsys.readouterr().err

    @pytest.mark.parametrize("config, change", [
        (Exp1Config, {"fd_step": float("inf")}),
        (Exp1Config, {"fd_step": float("nan")}),
        (Exp2Config, {"radii": (float("inf"),)}),
        (Exp2Config, {"radii": (1e-4, float("nan"))}),
        (Exp2Config, {"fd_grad_step": float("inf")}),
        (Exp2Config, {"fd_hess_step": float("nan")}),
        (Exp3Config, {"fd_step": float("inf")}),
        (Exp3Config, {"probes": float("inf")}),
        (Exp4Config, {"queries": float("nan")}),
    ], ids=lambda v: getattr(v, "__name__", None) or "-".join(f"{k}={x}" for k, x in v.items()))
    def test_non_finite_config_value_rejected(self, config, change):
        """An infinite step or radius used to construct, and ``run_exp1`` or
        ``run_exp2`` then failed deep in ``forward_values``."""
        with pytest.raises(ValueError, match=f"{next(iter(change))} must be positive"):
            config(**change)

    @pytest.mark.parametrize(
        "command, config",
        [
            ("exp1", {"widths": 5}),
            ("exp3", {"degeneracy": {"bogus": 1}}),
            ("exp4", {"solver": [1, 2]}),
            ("exp2", {"max_draws": 1}),
            ("exp4", {"beta": 5.0}),
            ("exp1", {"samples": "x"}),
            ("exp1", {"widths": "ab"}),
            ("exp3", {"degeneracy": {"relu_layer": "x"}}),
            ("exp1", {"seed": -1}),
            ("exp2", {"points": 0}),
            ("exp2", {"trials": 0}),
            ("exp3", {"directions": 0}),
            ("exp3", {"branches": 0}),
            ("exp3", {"probes": 0}),
            ("exp4", {"queries": 0}),
            ("exp1", {"tol": -1.0}),
            ("exp1", {"fd_step": 0.0}),
            ("exp1", {"tol": float("nan")}),
            ("exp1", {"fd_step": float("inf")}),
            ("exp2", {"radii": [1e-4, 0.0]}),
            ("exp2", {"radii": []}),
            ("exp2", {"radii": [1e-4, float("inf")]}),
            ("exp2", {"fd_grad_step": float("nan")}),
            ("exp2", {"fd_hess_step": 0.0}),
            ("exp3", {"tol": -1.0}),
            ("exp3", {"fd_step": 0.0}),
            ("exp4", {"solver": {"fd_grad_step": 0.0}}),
            ("exp4", {"solver": {"fd_hess_step": 0.0}}),
            ("exp4", {"solver": {"tol": -1.0}}),
            ("exp4", {"solver": {"tol": float("nan")}}),
            ("exp1", {"samples": 10 ** 15}),
        ],
    )
    def test_bad_config_value_exits_2(self, tmp_path, capsys, command, config):
        """Uncoercible values and a point search that runs out of draws are
        reported on stderr with exit 2, never as an escaping traceback."""
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        assert main([command, "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "Traceback" not in err

    def test_missing_config_file_rejected(self, capsys):
        assert main(["exp1", "--config", "/nonexistent/cfg.json"]) == 2
        assert capsys.readouterr().err != ""

    def test_csv_output_round_trips(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "directions": 40, "branches": 100, "probes": 100,
        }))
        out_dir = tmp_path / "results"
        assert main(["exp3", "--config", str(cfg), "--out", str(out_dir)]) == 0
        capsys.readouterr()
        csv_path = out_dir / "exp3_degenerate_geometry.csv"
        lines = csv_path.read_text().splitlines()
        header = lines[0].split(",")
        row = lines[1].split(",")
        assert header[0] == "directions"
        assert float(row[header.index("canonical_gap_frac")]) == 1.0
        parsed = float(row[header.index("fd_mean_err")])
        assert np.isfinite(parsed) and parsed < 5e-8

    def test_json_output_well_formed(self, tmp_path, capsys):
        out_dir = tmp_path / "results"
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "samples": 5, "input_dim": 4, "widths": [6], "quad_dims": [2], "cone_dims": [2],
        }))
        assert main(["exp1", "--config", str(cfg), "--out", str(out_dir),
                     "--format", "json"]) == 0
        capsys.readouterr()
        obj = json.loads((out_dir / "exp1_gradient_check.json").read_text())
        assert obj["columns"][0] == "trials"
        assert len(obj["rows"]) == 1

    def test_count_flag_overrides_config(self, capsys):
        assert main(["exp1", "--samples", "3", "--seed", "1"]) == 0
        text = capsys.readouterr().out
        assert "[gradient_check]" in text

    def test_nested_solver_config(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "queries": 2,
            "solver": {"beta": 10.0, "grad_tol": 1e-3},
        }))
        assert main(["exp4", "--config", str(cfg)]) == 0
        assert "[methods]" in capsys.readouterr().out

    def test_no_command_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main([])
        assert exit_info.value.code == 2


# Run in a fresh interpreter by ``test_scipy_loads_only_for_a_newton_solve``.
_NUMPY_ONLY_RUN = """
import contextlib, io, sys
import numpy as np
import socicnn, socicnn.cli
from socicnn import ArchSpec, InferenceConfig, build_random, solve
from socicnn.experiments import Exp1Config, Exp2Config, Exp3Config, run_exp1, run_exp2, run_exp3

def scipy_modules():
    return sorted(name for name in sys.modules if name.split(".")[0] == "scipy")[:3]

with contextlib.redirect_stdout(io.StringIO()):
    assert socicnn.cli.main(["model", "gen", "--out", sys.argv[1], "--input-dim", "3",
                             "--width", "4", "--depth", "1", "--quad-dims", "2",
                             "--cone-dims", "2"]) == 0
    assert socicnn.cli.main(["model", "info", sys.argv[1]]) == 0
run_exp1(Exp1Config(samples=3, input_dim=4, widths=(6,), quad_dims=(2,), cone_dims=(2,)))
run_exp2(Exp2Config(points=2, trials=5))
run_exp3(Exp3Config(directions=20, branches=30, probes=40))
params = build_random(0, ArchSpec(3, (4,), (2,), (2,)))
config = InferenceConfig(max_iters=5)
for method in ("whitebox-gd", "fd-gd"):
    solve(params, np.ones(3), config, method)
assert not scipy_modules(), scipy_modules()
solve(params, np.ones(3), config, "whitebox-newton")
assert "scipy.linalg" in sys.modules, scipy_modules()
"""


def test_scipy_loads_only_for_a_newton_solve(tmp_path):
    """``import socicnn``, the ``model`` commands, exp1-exp3 and the two
    first-order solvers run on NumPy alone; the first Newton solve loads
    ``scipy.linalg``."""
    src = Path(__file__).resolve().parent.parent / "src"
    done = subprocess.run(
        [sys.executable, "-c", _NUMPY_ONLY_RUN, str(tmp_path / "model.json")],
        env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
