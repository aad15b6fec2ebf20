"""Smoke test of what ``bench/run.py`` reaches in the package by name.

The benchmark builds each workload's models in a child interpreter
(``_SETUP_CHILD``: the config classes, ``Exp3Config.degeneracy``,
``model.build_degenerate_2d``, ``model.build_random``, ``model.ArchSpec`` and
``model.validate``) and marks the machine speed once per exp4 query by
wrapping ``inference.with_gap`` and reading ``experiments.METHOD_ORDER``
(``Runner._query_marks``).  Deleting or renaming any of them leaves the rest
of the suite passing but fails every benchmark run.  ``bench/run.py`` is
loaded as ``tests/ab_inprocess.py`` loads it, and the environment variables
and import path it changes are restored afterwards.
"""

import os
import sys
from pathlib import Path
from unittest import mock

import pytest

from socicnn import experiments

from ab_inprocess import load_bench


@pytest.fixture
def bench(monkeypatch):
    monkeypatch.setattr(sys, "path", list(sys.path))
    with mock.patch.dict(os.environ):
        yield load_bench(Path(__file__).resolve().parents[1])


def test_setup_child_builds_every_workload_model(bench, monkeypatch):
    """The child's code, run in this process for all four configs."""
    names = ",".join(bench.CONFIGS.values())
    monkeypatch.setattr(sys, "argv", ["-c", str(bench.SRC), names, "0"])
    scope = {}
    exec(compile(bench._SETUP_CHILD, "<setup child>", "exec"), scope)
    assert scope["name"] == "Exp4Config" and scope["params"].input_dim == scope["cfg"].input_dim


def test_query_marks_mark_once_per_exp4_query(bench):
    """``Runner._query_marks`` marks once per query around ``run_exp4`` and
    puts ``inference.with_gap`` back afterwards."""
    runner = bench.Runner(experiments, "solve", 0)
    with_gap, before = experiments.inference.with_gap, len(runner.gauge.marks)
    cfg = experiments.Exp4Config(queries=2)
    with runner._query_marks("run_exp4"):
        out = experiments.run_exp4(cfg)
    assert len(runner.gauge.marks) - before == cfg.queries
    assert experiments.inference.with_gap is with_gap
    assert all(check.passed for check in out.checks)
