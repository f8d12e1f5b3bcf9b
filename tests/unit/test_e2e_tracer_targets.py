"""Every callable the end-to-end tracer wraps still exists.

``benchmarks/e2e/tracer.py`` rebinds each ``TARGETS`` entry by name when a
traced run installs it, and nothing else in tier-1 installs it.  So a
deleted or renamed method would break only ``run.py --traced``, at install
time.  This test loads the tracer module from its file and resolves each
entry, without installing or wrapping anything.
"""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[2] / "benchmarks" / "e2e" / "tracer.py"


def _tracer_targets() -> tuple:
    spec = importlib.util.spec_from_file_location("e2e_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


TARGETS = _tracer_targets()


@pytest.mark.parametrize(
    "module_name, class_name, attr",
    TARGETS,
    ids=[f"{module}:{cls}.{attr}" if cls else f"{module}:{attr}" for module, cls, attr in TARGETS],
)
def test_target_resolves_to_a_callable(module_name, class_name, attr):
    owner = importlib.import_module(module_name)
    if class_name is not None:
        owner = getattr(owner, class_name)
    assert callable(getattr(owner, attr, None)), f"{module_name}.{class_name}.{attr}"
