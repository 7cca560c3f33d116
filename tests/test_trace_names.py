"""The traced benchmark (perfbench/tracing.py) wraps lieforms functions by
name.  A renamed or removed function would leave its metric silently at
zero, so every name it lists must still be a public function of its layer.
"""

import importlib
import importlib.util
import inspect
import os

import pytest

TRACING = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "perfbench", "tracing.py")


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = load_tracing()
SPANNED = sorted(set(tracing.NAMED)
                 | {("fields", name) for name in tracing.FIELD_SPANS})


@pytest.mark.parametrize("layer, name", SPANNED,
                         ids=["%s.%s" % pair for pair in SPANNED])
def test_spanned_name_is_a_public_function(layer, name):
    module = importlib.import_module("lieforms." + layer)
    fn = getattr(module, name, None)
    assert inspect.isfunction(fn)
    assert fn.__module__ == module.__name__


@pytest.mark.parametrize("layer, cls_name, methods", tracing.METHOD_SPANS,
                         ids=[c for _, c, _ in tracing.METHOD_SPANS])
def test_spanned_methods_exist(layer, cls_name, methods):
    cls = getattr(importlib.import_module("lieforms." + layer), cls_name)
    for meth in methods:
        assert meth in vars(cls)
