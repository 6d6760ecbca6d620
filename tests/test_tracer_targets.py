"""The benchmark's tracer wraps hjbkit functions by name; every name it
wraps must still exist, so that a refactor cannot silently break it."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = _tracer()


@pytest.mark.parametrize("module, name", tracer.SPAN_TARGETS)
def test_span_target_exists(module, name):
    assert callable(getattr(importlib.import_module(f"hjbkit.{module}"),
                            name, None))


@pytest.mark.parametrize("module", tracer.MODEL_MODULES)
def test_model_module_has_make_handle(module):
    assert callable(getattr(importlib.import_module(f"hjbkit.{module}"),
                            "make_handle", None))


@pytest.mark.parametrize("module, name", tracer.COUNTED_CLASSES)
def test_counted_class_has_post_init(module, name):
    cls = getattr(importlib.import_module(f"hjbkit.{module}"), name)
    assert callable(cls.__post_init__)
