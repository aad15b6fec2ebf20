"""Every point and every number the library's entry points are handed.

A bad point or a bad number fails with a package error (``SocIcnnError``)
that names the argument: never a bare NumPy ``TypeError``, ``ValueError`` or
``OverflowError``, never
a ``RuntimeWarning`` (the suite turns warnings into errors) and never a NaN
result.  The sweep is deterministic: every point argument crossed with a
fixed pool of bad points, every number parameter with a fixed pool of bad
numbers.
"""

import time

import numpy as np
import pytest

from socicnn import (
    ArchSpec,
    InferenceConfig,
    SocIcnnError,
    ValidationError,
    argmax_branch,
    build_random,
    canonical,
    conic_margin,
    degeneracy_report,
    directional_derivative,
    dual_value,
    fd_directional,
    fd_gradient,
    fd_hessian,
    feasibility_violation,
    forward,
    forward_values,
    gradient,
    hessian,
    quadratic_model_residual,
    readout,
    readout_diagnostics,
    relu_margin,
    sample_optimal_branches,
    solve,
)
from socicnn.curvature import curvature_matrix

P = build_random(3, ArchSpec(3, (4, 4), quad_dims=(2,), cone_dims=(2,)))
X = np.array([0.3, -0.2, 0.5])  # 0.22 from every ReLU kink, 0.74 from every cone tip
U = np.array([1.0, 0.0, 0.0])
TRACE = forward(P, X)


def values(Z):
    return forward_values(P, Z)


# Each point argument: the call with the argument replaced, the name its
# errors give, and the bad points that do not apply to it: an extra axis to
# the batch argument, which takes any number of leading axes, and a wrong
# width to the oracles, which take points of any width.
POINT_ARGS = {
    "forward x": (lambda p: forward(P, p), "input", ()),
    "forward_values X": (lambda p: forward_values(P, [p]), "input", ("too many axes",)),
    "gradient x": (lambda p: gradient(P, p), "input", ()),
    "hessian x": (lambda p: hessian(P, p), "input", ()),
    "directional_derivative x": (lambda p: directional_derivative(P, p, U), "input", ()),
    "directional_derivative direction": (
        lambda p: directional_derivative(P, X, p), "direction", ()),
    "solve y": (lambda p: solve(P, p, InferenceConfig(), "whitebox-gd"), "query", ()),
    "readout_diagnostics x": (lambda p: readout_diagnostics(P, p), "x", ()),
    "quadratic_model_residual anchor": (
        lambda p: quadratic_model_residual(P, p, 1e-3, trials=4), "input", ()),
    "dual_value x": (lambda p: dual_value(P, p, canonical(P, TRACE)), "x", ()),
    "argmax_branch units": (lambda p: argmax_branch(P, TRACE, p), "units", ()),
    "CurvatureModel.predict x": (lambda p: hessian(P, X).predict(p), "x", ()),
    "fd_gradient x": (lambda p: fd_gradient(values, p), "x", ("wrong width",)),
    "fd_hessian x": (
        lambda p: fd_hessian(lambda Z: fd_gradient(values, Z), p), "x", ("wrong width",)),
    "fd_directional x": (lambda p: fd_directional(values, p, U), "x", ("wrong width",)),
    "fd_directional d": (lambda p: fd_directional(values, X, p), "d", ()),
}

ROW = [0.1, 0.2, 0.3]
BAD_POINTS = {
    "nan": [np.nan] + ROW[1:],
    "inf": [np.inf] + ROW[1:],
    "-inf": [-np.inf] + ROW[1:],
    "int too large for a float": [10 ** 400] + ROW[1:],
    "complex": np.array([0.1 + 5j] + ROW[1:]),
    "bool": [True, False, True],
    "ragged": [ROW, ROW[1:]],
    "string": "0.1",
    "strings": ["a", "b", "c"],
    "None": None,
    "object": object(),
    "objects": [object()] * 3,
    "0-d": 0.1,
    "wrong width": ROW + [0.4],
    "too many axes": [[ROW]],
    "empty": [],
}

# Each number parameter: the call with the parameter replaced, and the name
# its error gives.
NUMBER_ARGS = {
    "degeneracy_report tol": (lambda v: degeneracy_report(TRACE, v), "tolerance"),
    "canonical tol": (lambda v: canonical(P, TRACE, v), "tolerance"),
    "curvature_matrix tol": (lambda v: curvature_matrix(P, TRACE, v), "tolerance"),
    "gradient tol": (lambda v: gradient(P, X, v), "tolerance"),
    "hessian tol": (lambda v: hessian(P, X, v), "tolerance"),
    "directional_derivative tol": (lambda v: directional_derivative(P, X, U, v), "tolerance"),
    "readout_diagnostics tol": (lambda v: readout_diagnostics(P, X, v), "tolerance"),
    "readout_diagnostics fd_hess_step": (
        lambda v: readout_diagnostics(P, X, fd_hess_step=v), "step"),
    "sample_optimal_branches tol": (lambda v: sample_optimal_branches(P, TRACE, v), "tolerance"),
    "argmax_branch tol": (lambda v: argmax_branch(P, TRACE, U, v), "tolerance"),
    "sample_optimal_branches seed": (
        lambda v: sample_optimal_branches(P, TRACE, n=2, seed=v), "seed"),
    "quadratic_model_residual radius": (
        lambda v: quadratic_model_residual(P, X, v, trials=4), "radius"),
    "quadratic_model_residual trials": (
        lambda v: quadratic_model_residual(P, X, 1e-3, trials=v), "trials"),
    "quadratic_model_residual tol": (
        lambda v: quadratic_model_residual(P, X, 1e-3, 4, v), "tolerance"),
    "quadratic_model_residual seed": (
        lambda v: quadratic_model_residual(P, X, 1e-3, 4, seed=v), "seed"),
    "fd_gradient step": (lambda v: fd_gradient(values, X, v), "step"),
    "fd_directional step": (lambda v: fd_directional(values, X, U, v), "step"),
    "fd_hessian step": (lambda v: fd_hessian(lambda Z: fd_gradient(values, Z), X, v), "step"),
    "build_random seed": (lambda v: build_random(v, ArchSpec(3, (4,))), "seed"),
    "sample_optimal_branches n": (lambda v: sample_optimal_branches(P, TRACE, n=v), "branch count"),
    "ArchSpec dims": (lambda v: ArchSpec(3, (4, v)), "widths"),
    "solve method": (lambda v: solve(P, X, InferenceConfig(), v), "method"),
}

BAD_NUMBERS = {
    "string": "1e-3",
    "None": None,
    "list": [1e-3],
    "int too large for a float": 10 ** 400,
    "negative": -1.0,
    "nan": float("nan"),
    "bool": True,
}


def outcome(call, value):
    """The exception ``call(value)`` raises, or its result if it raises none."""
    try:
        return call(value)
    except Exception as exc:  # noqa: BLE001 - the sweep sorts what comes out
        return exc


def test_every_bad_point_and_number_fails_only_with_a_named_package_error():
    """16 point arguments x 16 bad points, less the 4 that do not apply, and
    22 number parameters x 7 bad numbers: 406 cases, each refused with a
    package error whose message starts with the argument's name.  A bad
    number was a plain ``ValueError`` until every refusal was typed;
    ``build_random(-1, ...)`` ended in NumPy's unnamed ``ValueError`` and
    ``ArchSpec(3, (4, -1))`` constructed.  Before one rule
    checked every point, ``[10**400, 0.2, 0.3]`` escaped every entry point as
    a bare ``OverflowError`` and a ragged list as NumPy's ``ValueError``,
    ``dual_value`` and ``CurvatureModel.predict`` returned NaN at a NaN
    point, and a bool ``tol`` passed as tolerance 1.  Before points took the
    constructor's rule for numbers, a complex point was cast to its real part
    with only a ``ComplexWarning``, and a boolean point read as 0 and 1."""
    start = time.perf_counter()
    misses, cases = [], 0
    for arg, (call, name, skip) in POINT_ARGS.items():
        for kind, point in BAD_POINTS.items():
            if kind not in skip:
                cases += 1
                got = outcome(call, point)
                if not (isinstance(got, SocIcnnError) and str(got).startswith(f"{name} ")):
                    misses.append((arg, kind, got))
    for arg, (call, name) in NUMBER_ARGS.items():
        for kind, number in BAD_NUMBERS.items():
            cases += 1
            got = outcome(call, number)
            if not (isinstance(got, SocIcnnError) and str(got).startswith(f"{name} must be")):
                misses.append((arg, kind, got))
    elapsed = time.perf_counter() - start
    assert not misses, "\n".join(f"{a} <- {k}: {g!r}" for a, k, g in misses)
    assert cases == 16 * 16 - 4 + 22 * 7
    assert elapsed < 0.3, f"sweep took {elapsed:.3f} s"


# Each non-point, non-number argument: the call with the argument replaced,
# and the name its error gives.
OBJECT_ARGS = {
    "solve params": (lambda v: solve(v, X, InferenceConfig(), "whitebox-gd"), "params"),
    "solve config": (lambda v: solve(P, X, v, "whitebox-gd"), "config"),
    "canonical trace": (lambda v: canonical(P, v), "trace"),
    "degeneracy_report trace": (lambda v: degeneracy_report(v), "trace"),
    "curvature_matrix trace": (lambda v: curvature_matrix(P, v), "trace"),
    "sample_optimal_branches trace": (lambda v: sample_optimal_branches(P, v, n=2), "trace"),
    "relu_margin trace": (lambda v: relu_margin(v), "trace"),
    "conic_margin trace": (lambda v: conic_margin(v), "trace"),
    "readout branch": (lambda v: readout(P, v), "branch"),
    "dual_value branch": (lambda v: dual_value(P, X, v), "branch"),
    "feasibility_violation branch": (lambda v: feasibility_violation(P, v), "branch"),
    "argmax_branch params": (lambda v: argmax_branch(v, TRACE, U), "params"),
    "argmax_branch trace": (lambda v: argmax_branch(P, v, U), "trace"),
    "build_random arch": (lambda v: build_random(0, v), "arch"),
}

BAD_OBJECTS = {
    "None": None,
    "dict": {"beta": 10.0},
    "string": "trace",
    "number": 1.0,
    "point": X,
}


def test_every_bad_object_argument_fails_with_a_named_validation_error():
    """``solve`` read ``config`` and ``params`` as attribute bags, and every
    function that takes a trace or a branch read it as one (and
    ``build_random`` its ``arch``), so ``None``, a dict or a string ended in
    a bare ``AttributeError`` (or a ``TypeError``)."""
    misses = []
    for arg, (call, name) in OBJECT_ARGS.items():
        for kind, value in BAD_OBJECTS.items():
            got = outcome(call, value)
            if not (isinstance(got, ValidationError) and str(got).startswith(f"{name} must be")):
                misses.append((arg, kind, got))
    assert not misses, "\n".join(f"{a} <- {k}: {g!r}" for a, k, g in misses)


# Models that differ from ``P`` in one dimension each: the input width, a layer
# width, the number of layers, a quadratic module's dimension, the number of cones.
FOREIGN = {
    "input_dim": ArchSpec(4, (4, 4), quad_dims=(2,), cone_dims=(2,)),
    "width": ArchSpec(3, (4, 5), quad_dims=(2,), cone_dims=(2,)),
    "layers": ArchSpec(3, (4, 4, 4), quad_dims=(2,), cone_dims=(2,)),
    "quad_dim": ArchSpec(3, (4, 4), quad_dims=(3,), cone_dims=(2,)),
    "cones": ArchSpec(3, (4, 4), quad_dims=(2,), cone_dims=(2, 2)),
}
TRACE_USERS = {
    "canonical": lambda tr: canonical(P, tr),
    "curvature_matrix": lambda tr: curvature_matrix(P, tr),
    "sample_optimal_branches": lambda tr: sample_optimal_branches(P, tr, n=2),
    "argmax_branch": lambda tr: argmax_branch(P, tr, U),
}


@pytest.mark.parametrize("use", sorted(TRACE_USERS))
@pytest.mark.parametrize("foreign", sorted(FOREIGN))
def test_a_trace_of_another_model_is_refused(use, foreign):
    """A trace of another model was used as it came: ``curvature_matrix``
    returned a matrix in all five cases and ``canonical`` a branch in all
    but the layer width's, while the sampler ended in a NumPy ``ValueError``
    or a ``ConstructionError``."""
    other = build_random(1, FOREIGN[foreign])
    tr = forward(other, np.full(other.input_dim, 0.3))
    with pytest.raises(ValidationError, match="^trace is not of this model") as info:
        TRACE_USERS[use](tr)
    assert info.value.code == "dimension-mismatch"


def test_argmax_branch_refuses_a_stacked_trace():
    """The maximizing branch is read off one point's kinks."""
    with pytest.raises(ValidationError, match="^expected the trace of one point") as info:
        argmax_branch(P, forward(P, np.vstack([X, X])), U)
    assert info.value.code == "dimension-mismatch"


@pytest.mark.parametrize("arg", ["dual_value x", "CurvatureModel.predict x"])
def test_a_nan_point_is_refused_where_it_was_passed_through(arg):
    """``dual_value`` and ``CurvatureModel.predict`` read no trace, and so
    returned NaN at a NaN point."""
    with pytest.raises(SocIcnnError, match="^x contains NaN or infinity"):
        POINT_ARGS[arg][0]([np.nan, 0.0, 0.0])
