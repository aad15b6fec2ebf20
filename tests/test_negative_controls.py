"""Negative controls: each check of a claim must fail when the code behind
the claim is broken.

Each mutation replaces one method of ``geometry._SupportEvaluator``, the
support function of the optimal set behind every ``dual_max``, with a
plausible bug, by ``monkeypatch``.  A small exp3 run must then fail exactly
the named checks; the unmutated run passes every check.  The two FD checks
compare the finite-difference slopes with ``dual_max``, so every wrong
support function fails them as well.  ``exp3-min-norm`` and
``exp3-support-margin`` read the canonical branch and the sampled branches
only, so no mutation here can fail them.
"""

from dataclasses import replace

import numpy as np
import pytest

from socicnn import geometry
from socicnn.experiments import Exp3Config, run_exp3

SMALL = dict(directions=60, branches=100, probes=100)
SUPPORT = geometry._SupportEvaluator
SUPPORT_INIT = SUPPORT.__init__


def drop_tip_terms(self, units):
    """``__call__`` without the cone tips' ``lam_g * ||A_g u||``."""
    return geometry._support_maxima(units, self.corner_readouts)


def canonical_corner_only(self, params, report, canon):
    """``__init__`` with no free ReLU coordinate: the one corner is the
    canonical branch."""
    SUPPORT_INIT(self, params, replace(report, relu_zero_coords=()), canon)


def corners_without_quad(self, params, report, canon):
    """``__init__`` whose corners carry zero quadratic multipliers."""
    quad = tuple(np.zeros_like(p) for p in canon.quad)
    SUPPORT_INIT(self, params, report, replace(canon, quad=quad))


FD = {"exp3-fd-mean", "exp3-fd-max"}
MUTATIONS = {
    "drop-tip-terms": (
        "__call__",
        drop_tip_terms,
        FD | {"exp3-primal-exact", "exp3-no-violation", "exp3-gap-fraction"},
    ),
    "canonical-corner-only": (
        "__init__",
        canonical_corner_only,
        FD | {"exp3-primal-exact", "exp3-no-violation"},
    ),
    "corners-without-quad": (
        "__init__",
        corners_without_quad,
        FD | {"exp3-primal-exact", "exp3-no-violation"},
    ),
}


def failed_checks(seed):
    out = run_exp3(Exp3Config(seed=seed, **SMALL))
    return {check.name for check in out.checks if not check.passed}


@pytest.mark.parametrize("seed", [0, 99])
def test_unmutated_run_passes_every_check(seed):
    assert failed_checks(seed) == set()


@pytest.mark.parametrize("seed", [0, 99])
@pytest.mark.parametrize("name", sorted(MUTATIONS))
def test_mutation_fails_its_checks(monkeypatch, name, seed):
    method, mutant, expected = MUTATIONS[name]
    monkeypatch.setattr(SUPPORT, method, mutant)
    assert failed_checks(seed) == expected
