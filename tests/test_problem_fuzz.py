"""Hypothesis fuzz of problem documents: whatever a document holds,
`parse_problem` returns a `ProblemSpec` or raises `SchemaError` or
`SingularMatrixError`, `check-sector --problem FILE` exits 0, 1 or 2, and
so do the solvers `solve`, `resum` and `diagnose`, without a RuntimeWarning.

Sizes stay bounded (nu <= 3, arity m <= 80, z-power n <= 5, at most 81
entries per block), but the arities reach past numpy's 64 array axes, and
the numbers include NaN, infinities and integers beyond the double range.
Well-formed documents are also run with every entry scaled by one power
of ten from 1e-300 to 1e300.
"""
import json
import warnings

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from gevrey_kit import ProblemSpec, assemble_B, parse_problem
from gevrey_kit.cli import main
from gevrey_kit.errors import SchemaError, SingularMatrixError
from gevrey_kit.problem import _MAX_Z_POWER

NUMBERS = st.one_of(st.floats(), st.integers(-10**400, 10**400), st.booleans())
JUNK = st.one_of(st.none(), st.text(max_size=2), NUMBERS,
                 st.lists(st.integers(0, 1), max_size=3),
                 st.dictionaries(st.sampled_from("nm"), st.integers(0, 1), max_size=1))
SMALL = st.floats(-4.0, 4.0)


@st.composite
def blocks(draw, nu, key=None):
    """Block (n, m) with nu^(m+1) entries when that is at most 81, else a few."""
    n, m = key or (draw(st.integers(0, 5)), draw(st.integers(0, 4) | st.integers(0, 80)))
    want = nu ** (m + 1)
    pair = st.lists(SMALL, min_size=2, max_size=2)
    degree = draw(st.integers(1, 2))
    entry = st.lists(pair, min_size=degree, max_size=degree)
    count = want if want <= 81 else draw(st.integers(0, 3))
    return {"n": n, "m": m, "entries": draw(st.lists(entry, min_size=count, max_size=count))}


def slots(obj):
    """Every (container, key) of a document, depth first."""
    for key, value in obj.items() if isinstance(obj, dict) else enumerate(obj):
        yield obj, key
        if isinstance(value, (dict, list)):
            yield from slots(value)


@st.composite
def well_formed(draw):
    """A well-formed document, its block entries drawn from [-4, 4]."""
    nu = draw(st.integers(1, 3))
    tensors = draw(st.lists(blocks(nu), max_size=3))
    if draw(st.integers(0, 3)):
        tensors.insert(0, draw(blocks(nu, key=(0, 1))))
    return {"nu": nu, "rho": draw(st.floats(0.1, 2.0)), "rho1": draw(st.floats(2.5, 8.0)),
            "tensors": tensors}


@st.composite
def documents(draw):
    """A well-formed document; half of them with one value replaced by junk."""
    doc = draw(well_formed())
    if draw(st.booleans()):
        container, key = draw(st.sampled_from(list(slots(doc))))
        container[key] = draw(JUNK)
    if draw(st.integers(0, 9)) == 9:
        doc["extra"] = 0
    return doc


FUZZ = settings(max_examples=300, deadline=None, derandomize=True,
                suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
SOLVER_EXAMPLES = 180
MAGNITUDE_EXAMPLES = 40


@FUZZ
@given(documents())
def test_parse_gives_a_problem_or_a_typed_error(doc):
    try:
        p = parse_problem(doc)
    except (SchemaError, SingularMatrixError):
        return
    assert isinstance(p, ProblemSpec)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@FUZZ
@given(documents())
def test_check_sector_exits_with_a_documented_code(workdir, doc):
    path = workdir / "problem.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["check-sector", "--problem", str(path),
                 "--out", str(workdir / "report.json")]) in (0, 1, 2)


#: each solver at a small order, so that a document costs milliseconds
SOLVERS = [("solve", "--K", "8"), ("resum", "--I", "6"), ("diagnose", "--I", "9")]


@settings(FUZZ, max_examples=SOLVER_EXAMPLES)
@given(documents())
def test_solvers_exit_with_a_documented_code(workdir, doc):
    # the documents that parse drive every solver through random
    # non-symmetric blocks, of arities up to the 62 that numpy can hold
    path = workdir / "problem.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        for command, *options in SOLVERS:
            assert main([command, "--problem", str(path), *options,
                         "--out", str(workdir / "report.json")]) in (0, 1, 2)
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


#: eps*z*f' = diag(-1, -2) f + z (1, 1), whose linear block times 1e200 has a
#: 2-norm whose square leaves the double range
DIAGONAL = {"nu": 2, "rho": 1.0, "rho1": 4.0, "tensors": [
    {"n": 0, "m": 1, "entries": [[[-1.0, 0.0]], [[0.0, 0.0]], [[0.0, 0.0]], [[-2.0, 0.0]]]},
    {"n": 1, "m": 0, "entries": [[[1.0, 0.0]], [[1.0, 0.0]]]}]}


@settings(FUZZ, max_examples=MAGNITUDE_EXAMPLES)
@given(well_formed(), st.integers(-300, 300))
@example(doc=DIAGONAL, k=200)
def test_every_command_across_magnitudes(workdir, doc, k):
    # the equation has no preferred units: with every entry times 10^k, from
    # far below to far above 1, each command still exits with a documented
    # code and no RuntimeWarning
    doc = {**doc, "tensors": [{**block, "entries": [[[x * 10.0**k for x in pair] for pair in entry]
                                                    for entry in block["entries"]]}
                              for block in doc["tensors"]]}
    path = workdir / "problem.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        for command, *options in [("check-sector",), *SOLVERS]:
            assert main([command, "--problem", str(path), *options,
                         "--out", str(workdir / "report.json")]) in (0, 1, 2)
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


def test_z_power_is_bounded():
    # a dense z-axis of length 10**9 + 1 would not fit in memory; the parser
    # refuses the power before any solver allocates it
    def doc(n):
        return {"nu": 1, "rho": 1.0, "rho1": 4.0, "tensors": [
            {"n": 0, "m": 1, "entries": [[[-1.0, 0.0]]]},
            {"n": n, "m": 2, "entries": [[[1.0, 0.0]]]}]}

    assert assemble_B(parse_problem(doc(_MAX_Z_POWER)))[2].shape[-1] == _MAX_Z_POWER + 1
    for n in (_MAX_Z_POWER + 1, 10**9):
        with pytest.raises(SchemaError, match="z-power"):
            parse_problem(doc(n))


@pytest.mark.parametrize("nu, m", [(1, 70), (8, 10**5)])
def test_arity_beyond_the_array_axes(nu, m):
    doc = {"nu": nu, "rho": 1.0, "rho1": 4.0, "tensors": [
        {"n": 0, "m": m, "entries": [[[1.0, 0.0]]]},
        {"n": 0, "m": 1, "entries": [[[-1.0, 0.0]]] * nu**2}]}
    with pytest.raises(SchemaError, match="array axes"):
        parse_problem(doc)


@pytest.mark.parametrize("value", [float("nan"), float("inf"), 10**400],
                         ids=["nan", "inf", "1e400"])
def test_numbers_beyond_the_doubles(value):
    doc = {"nu": 1, "rho": 1.0, "rho1": 4.0, "tensors": [
        {"n": 0, "m": 1, "entries": [[[-1.0, 0.0]]]},
        {"n": 1, "m": 0, "entries": [[[value, 0.0]]]}]}
    with pytest.raises(SchemaError, match="finite"):
        parse_problem(doc)
    with pytest.raises(SchemaError, match="finite"):
        parse_problem({**doc, "tensors": doc["tensors"][:1], "rho1": value})
