"""The benchmark's tracer (perfbench/tracer.py) wraps library functions by
module and name.  A deleted or renamed target zeroes its per-layer metric
without any error, so every target is checked here; the tracer's own file
is only read, never imported."""
import ast
import importlib
import inspect
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def tracer_lists() -> dict:
    """SPANNED, AGGREGATED and AGGREGATED_METHODS as literals of the file."""
    tree = ast.parse(TRACER.read_text(encoding="utf-8"))
    return {node.targets[0].id: ast.literal_eval(node.value) for node in tree.body
            if isinstance(node, ast.Assign) and len(node.targets) == 1
            and getattr(node.targets[0], "id", None) in
            ("SPANNED", "AGGREGATED", "AGGREGATED_METHODS")}


TARGETS = tracer_lists()


def test_no_list_is_empty():
    # an empty list would only skip its parametrized test below
    assert TARGETS["SPANNED"] and TARGETS["AGGREGATED"] and TARGETS["AGGREGATED_METHODS"]


@pytest.mark.parametrize("module, name", TARGETS["SPANNED"] + TARGETS["AGGREGATED"])
def test_function_target_resolves(module, name):
    assert callable(getattr(importlib.import_module(f"gevrey_kit.{module}"), name))


@pytest.mark.parametrize("module, cls, name", TARGETS["AGGREGATED_METHODS"])
def test_method_target_resolves(module, cls, name):
    # the tracer reads the method from the class dictionary
    assert callable(getattr(importlib.import_module(f"gevrey_kit.{module}"), cls).__dict__[name])


@pytest.mark.parametrize("module, name, position, param", [
    ("epssolver", "solve_ai", 2, "i"),
    ("zsolver", "solve_coeffs_z", 2, "K"),
])
def test_observed_arguments_keep_their_place(module, name, position, param):
    # the tracer records these arguments by position or by keyword
    fn = getattr(importlib.import_module(f"gevrey_kit.{module}"), name)
    assert list(inspect.signature(fn).parameters)[position] == param


def test_observed_record_fields():
    # the tracer reads these fields of the results of two spanned functions:
    # `requested` and `orders` of pade_continue, compared as (L, M) tuples,
    # and `pole_clearance` of laplace_sum, taken by float()
    from gevrey_kit import borel, builtin_riccati, eps_values_at

    b = borel.borel_transform(eps_values_at(builtin_riccati(), 0.05, 12))
    pade = borel.pade_continue(b, 5, 6)
    assert pade.requested == (5, 6)
    assert pade.orders and all(isinstance(o, tuple) and len(o) == 2 for o in pade.orders)
    assert isinstance(borel.laplace_sum(b, pade, 0.1).pole_clearance, float)
