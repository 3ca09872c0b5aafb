"""Every engine name the benchmark reads or its tracer patches, and every `__all__` entry, resolves.

`perfbench/spans.py` installs its spans by module path, and
`perfbench/worker.py` calls the engine as `eng.<module>.<name>`; a name
missing from the engine would fail only when the benchmark runs.  Both are
read from their source, which these tests do not change.
"""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import qmforms

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
SPANS = PERFBENCH / "spans.py"


def spans_table(name):
    for node in ast.parse(SPANS.read_text()).body:
        if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == [name]:
            return ast.literal_eval(node.value)
    raise AssertionError(f"no {name} in {SPANS}")


def _dotted(node):
    """The names of an attribute chain a.b.c, or None if it does not start at a name."""
    names = []
    while isinstance(node, ast.Attribute):
        names.append(node.attr)
        node = node.value
    return [node.id] + names[::-1] if isinstance(node, ast.Name) else None


def worker_paths():
    """Every <module>.<name> the worker reads off eng, self.eng or a local bound to a module.

    A local such as `lin` in `lin, forms = eng.linearize, eng.forms` is
    followed within the method that binds it, nested functions included.
    """
    tree = ast.parse((PERFBENCH / "worker.py").read_text())
    paths = set()
    for fn in (n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef)):
        modules = {}
        for node in ast.walk(fn):
            if isinstance(node, ast.Assign) and len(node.targets) == 1:
                target, value = node.targets[0], node.value
                pairs = (zip(target.elts, value.elts) if isinstance(target, ast.Tuple)
                         and isinstance(value, ast.Tuple) else [(target, value)])
                for t, v in pairs:
                    chain = _dotted(v)
                    if isinstance(t, ast.Name) and chain and chain[:-1] in (["eng"], ["self", "eng"]):
                        modules[t.id] = chain[-1]
        for node in ast.walk(fn):
            chain = _dotted(node) if isinstance(node, ast.Attribute) else None
            if not chain:
                continue
            if chain[:2] == ["self", "eng"]:
                chain = chain[1:]
            if chain[0] == "eng" and len(chain) >= 3:
                paths.add(".".join(chain[1:3]))
            elif chain[0] in modules and len(chain) >= 2:
                paths.add(f"{modules[chain[0]]}.{chain[1]}")
    return sorted(paths)


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


def test_the_worker_reads_engine_names():
    # the walk finds the names the benchmark cannot run without
    assert {"forms.generator_pool", "linearize.QMBasis", "linearize.decompose",
            "identities.verify", "cli.main"} <= set(worker_paths())


@pytest.mark.parametrize("path", worker_paths())
def test_every_name_the_worker_reads_resolves(path):
    resolve(path)


@pytest.mark.parametrize("module", sorted(m.name for m in pkgutil.iter_modules(qmforms.__path__)))
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(f"qmforms.{module}")
    assert [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)] == []
