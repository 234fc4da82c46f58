"""The benchmark tracer wraps pltt functions by name; each must exist."""

import importlib
import importlib.util
import os

import pytest

SPANS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                     "perfbench", "spans.py")


def _traced():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans.TRACED


@pytest.mark.parametrize("layer, func", _traced())
def test_traced_name_resolves(layer, func):
    module = importlib.import_module("pltt." + layer)
    assert callable(getattr(module, func, None)), "pltt.%s has no %s" % (layer, func)
