"""The benchmark's tracer wraps leonav functions by module attribute; a
refactor that moves one must fail here rather than leave a stale metric."""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _wrap_points() -> tuple[tuple[str, str], ...]:
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.WRAP_POINTS


@pytest.mark.parametrize("module_name, attribute", _wrap_points())
def test_wrap_point_resolves(module_name, attribute):
    assert module_name.startswith("leonav.")
    assert callable(getattr(importlib.import_module(module_name), attribute, None))
