"""Smoke test of the benchmark's span tracer against the current package.

``bench/spans.py`` wraps the package's public functions and
``geometry._SupportEvaluator`` by name, so a refactor of ``src/`` can break
``bench/run.py --trace 1`` without any other test noticing.  It still hooks
``dual.relu_corner_assignments``, which the package no longer has: that hook
installs nothing, and the corner count it fed reads 0.
"""

import sys
from pathlib import Path

import pytest

from socicnn import dual
from socicnn.experiments import Exp3Config, Exp4Config, run_exp3, run_exp4

BENCH = Path(__file__).resolve().parents[1] / "bench"


@pytest.fixture
def spans():
    sys.path.insert(0, str(BENCH))
    try:
        import spans

        yield spans
    finally:
        sys.path.remove(str(BENCH))


def test_traced_runs_pass_and_record_the_layers(spans):
    readout = dual.readout
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert dual.readout is not readout
        outs = (
            run_exp3(Exp3Config(directions=60, branches=100, probes=100)),
            run_exp4(Exp4Config(queries=1)),
        )
    finally:
        tracer.uninstall()
    assert dual.readout is readout
    for out in outs:
        for check in out.checks:
            assert check.passed, f"{check.name}: {check.detail}"
    names = {tracer.names[span[0]] for span in tracer.spans}
    assert {"dual.readout", "geometry.support_eval"} <= names
    per_pass, _ = tracer.pass_summary()
    assert per_pass[-1]["geometry.support_eval"][0] == 2
    assert all("dual.relu_corner_assignments.corners" not in stats for stats in per_pass.values())
