"""Every name that perfbench's tracer wraps must exist in the package.

The tracer looks functions up by module and attribute name, so a
refactor that deletes or renames one of them would silently drop a
per-layer metric from the benchmark.  ``perfbench/tracing.py`` imports
only the standard library, so it is loaded by file path.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def traced_names():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up in sys.modules
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return [(mod, attr) for mod, attr, _ in module.TRACED]


@pytest.mark.parametrize("module,attribute", traced_names())
def test_traced_name_resolves(module, attribute):
    obj = importlib.import_module(module)
    for part in attribute.split("."):
        obj = getattr(obj, part)
    assert callable(obj)
