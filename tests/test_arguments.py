"""Argument rules: every count, seed, fraction, length, timeout, vector and
sequence of ids the library takes is checked by one rule from
``divsat/__init__.py``, which rejects a bool or a non-number (a string, for
ids) with ValueError naming the argument and accepts numpy numbers.
(``mmd_calculator``'s ``repetitions`` raises InvalidRepetitions, tested with
the estimator.)"""

import ast
import sys

import numpy as np
import pytest

from divsat import (
    CaptionItem,
    EmbeddingSet,
    GaussianSpec,
    KernelConfig,
    NonFiniteValue,
    SaturationConfig,
    SyntheticSource,
    external_embedder,
    external_judge,
    external_provider,
    gaussian_kernel,
    gaussian_set,
    mmd,
    mmd_calculator,
    parse_filter_response,
    pearson_p,
    run_filter,
    run_saturation,
    stationary_provider,
    subset,
    token_vector,
)
from conftest import SRC

X = gaussian_set(GaussianSpec(k=2, seed=1), 5)
Y = gaussian_set(GaussianSpec(k=2, seed=2), 7)
COMMAND = [sys.executable, "-c", "pass"]


class NeverJudge:
    def judge(self, prompt):
        raise AssertionError("the judge ran although the arguments were bad")


def judge_one(retries):
    return run_filter("walking", [CaptionItem(id="a", caption="walks", activity="walking")],
                      NeverJudge(), retries=retries)


# (the call, the argument it names); each call passes that argument a bad value
REJECTED = {
    "GaussianSpec k=True": (lambda: GaussianSpec(k=True), "k"),
    "GaussianSpec k=2.5": (lambda: GaussianSpec(k=2.5), "k"),
    "GaussianSpec sigma=True": (lambda: GaussianSpec(k=2, sigma=True), "sigma"),
    "GaussianSpec seed=1.5": (lambda: GaussianSpec(k=2, seed=1.5), "seed"),
    # math.isfinite raises OverflowError for an integer beyond float range
    "GaussianSpec sigma=10**400": (lambda: GaussianSpec(k=2, sigma=10**400), "sigma"),
    "KernelConfig bandwidth=10**400": (lambda: KernelConfig(bandwidth=10**400), "bandwidth"),
    # 2 b^2 underflows to 0, so the kernel's 1 / (2 b^2) divides by zero
    "KernelConfig bandwidth=1e-200": (lambda: KernelConfig(bandwidth=1e-200), "bandwidth"),
    # a list is no vector entry
    "GaussianSpec nested mean": (lambda: GaussianSpec(k=2, mean=[[1, 2], [3, 4]]), "mean"),
    "SyntheticSource nested drift": (
        lambda: SyntheticSource(GaussianSpec(k=2), drift=[[1, 2], [3, 4]]), "drift"),
    "gaussian_set n=True": (lambda: gaussian_set(GaussianSpec(k=2), True), "n"),
    "gaussian_set n=2.5": (lambda: gaussian_set(GaussianSpec(k=2), 2.5), "n"),
    "next_batch count=True": (lambda: stationary_provider(GaussianSpec(k=2)).next_batch(True),
                              "count"),
    "next_batch count=1.5": (lambda: stationary_provider(GaussianSpec(k=2)).next_batch(1.5),
                             "count"),
    "gaussian_kernel bandwidth=True": (lambda: gaussian_kernel([0.0], [1.0], True), "bandwidth"),
    "gaussian_kernel bandwidth=1e-200": (lambda: gaussian_kernel([0.0], [1.0], 1e-200),
                                         "bandwidth"),
    "SaturationConfig kernel=str": (lambda: SaturationConfig(kernel="median-heuristic"), "kernel"),
    "SaturationConfig fixed_batch=str": (lambda: SaturationConfig(fixed_batch="no"),
                                         "fixed_batch"),
    "mmd_calculator seed=1.5": (lambda: mmd_calculator(X, Y, seed=1.5), "seed"),
    "mmd_calculator seed=True": (lambda: mmd_calculator(X, Y, seed=True), "seed"),
    # a bare bandwidth is not a KernelConfig
    "mmd_calculator cfg=1.5": (lambda: mmd_calculator(X, Y, 1.5), "cfg"),
    "mmd cfg=2.0": (lambda: mmd(X, X, 2.0), "cfg"),
    # a string is not read one character at a time
    "subset ids='g1'": (lambda: subset(X, "g1"), "ids"),
    "subset ids=5": (lambda: subset(X, 5), "ids"),
    "from_array ids='abc'": (lambda: EmbeddingSet.from_array(np.zeros((3, 2)), ids="abc"), "ids"),
    "parse_filter_response ids='a'": (lambda: parse_filter_response("1. yes", "a"), "ids"),
    "parse_filter_response ids=[]": (lambda: parse_filter_response("", []), "ids"),
    "parse_filter_response ids=None": (lambda: parse_filter_response("1. yes", None), "ids"),
    "run_filter retries=True": (lambda: judge_one(True), "retries"),
    "run_filter retries=1.5": (lambda: judge_one(1.5), "retries"),
    "external_provider timeout='5'": (lambda: external_provider(COMMAND, timeout="5"), "timeout"),
    "external_embedder timeout='5'": (lambda: external_embedder(COMMAND, timeout="5"), "timeout"),
    "external_judge timeout='5'": (lambda: external_judge(COMMAND, timeout="5"), "timeout"),
    "pearson_p r=True": (lambda: pearson_p(True, 10), "r"),
    "pearson_p r='0.5'": (lambda: pearson_p("0.5", 10), "r"),
    "pearson_p n=3.7": (lambda: pearson_p(0.5, 3.7), "n"),
    "pearson_p n=10**400": (lambda: pearson_p(0.5, 10**400), "n"),
}

# each vector argument, given a value for k=2: (the call, the argument it names)
VECTOR_ARGUMENTS = {
    "GaussianSpec mean": (lambda v: GaussianSpec(k=2, mean=v), "mean"),
    # drift passed positionally, the call form of the former DriftSpec(base, drift)
    "DriftSpec drift": (lambda v: SyntheticSource(GaussianSpec(k=2), v), "drift"),
    "SyntheticSource drift": (lambda v: SyntheticSource(GaussianSpec(k=2), drift=v), "drift"),
    "token_vector offset": (lambda v: token_vector("t", GaussianSpec(k=2), offset=v), "offset"),
}
BAD_VECTORS = {
    # a string is not read one character at a time
    "'12'": "12",
    "['1.5', True]": ["1.5", True],
    "[np.True_, 1.0]": [np.True_, 1.0],
    "['0.5', False]": ["0.5", False],
    "['1', '2']": ["1", "2"],
    # one value is not repeated across the k axes
    "(1.0,)": (1.0,),
    "(1.0, 2.0, 3.0)": (1.0, 2.0, 3.0),
    "(inf, 0.0)": (float("inf"), 0.0),
    "(10**400, 0.0)": (10**400, 0.0),
    "0-d array": np.array(1.0),
}
REJECTED.update({
    f"{call} {label}": (lambda make=make, value=value: make(value), name)
    for call, (make, name) in VECTOR_ARGUMENTS.items()
    for label, value in BAD_VECTORS.items()
})


@pytest.mark.parametrize("case", REJECTED)
def test_bad_argument_is_a_value_error_naming_it(case):
    call, name = REJECTED[case]
    with pytest.raises(ValueError, match=f"^{name} must be "):
        call()


# a point with a non-finite entry: (the call); sets refuse such a vector too
NON_FINITE = {
    "gaussian_kernel x=[nan]": lambda: gaussian_kernel([float("nan")], [0.0], 1.0),
    "gaussian_kernel y=[inf]": lambda: gaussian_kernel([0.0, 1.0], [0.0, float("inf")], 1.0),
}


@pytest.mark.parametrize("case", NON_FINITE)
def test_non_finite_point_is_rejected(case):
    with pytest.raises(NonFiniteValue, match="^points must be finite"):
        NON_FINITE[case]()


# numpy numbers are numbers: each call runs, and matches its Python twin
ACCEPTED = {
    "KernelConfig bandwidth=float32": (
        lambda: mmd_calculator(X, X, KernelConfig(bandwidth=np.float32(2.0))),
        lambda: mmd_calculator(X, X, KernelConfig(bandwidth=2.0)),
    ),
    # float32 arithmetic would overflow 2 b^2 and return NaN
    "gaussian_kernel bandwidth=float32": (
        lambda: gaussian_kernel([0.0], [1e21], np.float32(1e20)),
        lambda: gaussian_kernel([0.0], [1e21], float(np.float32(1e20))),
    ),
    "mmd_calculator seed=int64": (
        lambda: mmd_calculator(X, Y, repetitions=np.int64(3), seed=np.int64(4)),
        lambda: mmd_calculator(X, Y, repetitions=3, seed=4),
    ),
    "GaussianSpec numpy fields": (
        lambda: gaussian_set(GaussianSpec(k=np.int64(2), sigma=np.float32(0.5),
                                          seed=np.int64(-3)), np.int64(4)),
        lambda: gaussian_set(GaussianSpec(k=2, sigma=0.5, seed=-3), 4),
    ),
    "SaturationConfig numpy fields": (
        lambda: run_saturation(
            np.int64(20), stationary_provider(GaussianSpec(k=2)),
            stationary_provider(GaussianSpec(k=2)),
            SaturationConfig(perc=np.float32(0.25), early_stop=np.int64(1),
                             mmd_repetitions=np.int64(3), seed=np.int64(5),
                             max_iterations=np.int64(3)),
        )[0],
        lambda: run_saturation(
            20, stationary_provider(GaussianSpec(k=2)), stationary_provider(GaussianSpec(k=2)),
            SaturationConfig(perc=0.25, early_stop=1, mmd_repetitions=3, seed=5,
                             max_iterations=3),
        )[0],
    ),
}


@pytest.mark.parametrize("case", ACCEPTED)
def test_numpy_numbers_are_accepted(case):
    numpy_call, python_call = ACCEPTED[case]
    assert numpy_call() == python_call()


@pytest.mark.parametrize("dtype", [np.float64, np.int64, np.float32])
def test_numpy_vectors_are_accepted(dtype):
    # each entry becomes float() of itself, as a tuple of Python floats would
    values = np.array([1.5, -2.0, 0.1]).astype(dtype)
    want = tuple(float(v) for v in values)
    spec = GaussianSpec(k=3, mean=values)
    assert spec.mean == want and all(type(v) is float for v in spec.mean)
    drifting, plain = SyntheticSource(spec, drift=values), SyntheticSource(spec, drift=want)
    for _ in range(2):
        assert drifting.embed(["a", "b"]) == plain.embed(["a", "b"])
    assert np.array_equal(token_vector("t", spec, offset=values),
                          token_vector("t", spec, offset=want))
    assert GaussianSpec(k=3, mean=list(values)).mean == want


@pytest.mark.parametrize("path", sorted((SRC / "divsat").glob("*.py")), ids=lambda p: p.name)
def test_only_init_imports_numbers(path):
    # numbers.Integral and numbers.Real are the kind tests of the argument
    # rules, which live in __init__.py; a module importing numbers would
    # hold a second copy of one
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    names = [
        node.module if isinstance(node, ast.ImportFrom) else alias.name
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
    ]
    assert ("numbers" in names) == (path.name == "__init__.py")
