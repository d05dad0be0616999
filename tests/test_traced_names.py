"""Every name that perfbench's tracer wraps must exist in the package.

The tracer looks functions up by module and attribute name, so a
refactor that deletes or renames one of them would silently drop a
per-layer metric from the benchmark.  A name traced in one module under
another layer's span (an import kept for the tracer) must be that
layer's own function, or the span would time something else.
``perfbench/tracing.py`` imports only the standard library, so it is
loaded by file path.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def traced_entries():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up in sys.modules
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module.TRACED


def resolve(module, attribute):
    obj = importlib.import_module(module)
    for part in attribute.split("."):
        obj = getattr(obj, part)
    return obj


@pytest.mark.parametrize("module,attribute", [(m, a) for m, a, _ in traced_entries()])
def test_traced_name_resolves(module, attribute):
    assert callable(resolve(module, attribute))


FOREIGN_SPANS = [(m, a, span) for m, a, span in traced_entries()
                 if m != "verseforge." + span.split(".")[0]]


@pytest.mark.parametrize("module,attribute,span", FOREIGN_SPANS)
def test_foreign_span_wraps_its_layers_function(module, attribute, span):
    home = "verseforge." + span.split(".")[0]
    assert resolve(module, attribute) is resolve(home, attribute)
