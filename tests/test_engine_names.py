"""Every engine name the benchmark's tracer patches or reads, and every `__all__` entry, resolves.

`perfbench/spans.py` installs its spans by module path; a name missing from
the engine would fail only when the traced benchmark runs.  The tables are
read from that file's source, which these tests do not change.
"""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import qmforms

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def spans_table(name):
    for node in ast.parse(SPANS.read_text()).body:
        if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == [name]:
            return ast.literal_eval(node.value)
    raise AssertionError(f"no {name} in {SPANS}")


def resolve(path):
    module, *attrs = path.split(".")
    obj = importlib.import_module(f"qmforms.{module}")
    for attr in attrs:
        obj = getattr(obj, attr)
    return obj


@pytest.mark.parametrize("path", [path for path, _ in spans_table("FUNCTIONS")])
def test_every_traced_function_resolves(path):
    assert callable(resolve(path))


@pytest.mark.parametrize("path", [path for path, _ in spans_table("CACHES")])
def test_every_traced_cache_reports_its_counts(path):
    info = resolve(path).cache_info()
    assert info.hits >= 0 and info.misses >= 0


@pytest.mark.parametrize("module", sorted(m.name for m in pkgutil.iter_modules(qmforms.__path__)))
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(f"qmforms.{module}")
    assert [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)] == []
