"""Every name the benchmark in ``perfbench/`` binds in conedet resolves, so
removing or renaming one fails this suite rather than a benchmark run.

The traced functions come from ``perfbench/tracing.py``'s SPANS and COUNTS.
The names ``perfbench/workloads.py`` uses are read from its source: each
``conedet`` import and each attribute taken from a name such an import
binds (``cone.SurfaceTopology``, ``cli.main.main``, ...).
"""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

# Bound in perfbench/run.py and by the attribute recorders of tracing.py.
OTHER_NAMES = [
    "conedet.kernels.BACKEND",
    "conedet.constants.fundamental_constants",
    "conedet.cli.main.main",
    "conedet.FlatSphereConfig.outer_radius",
]


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", PERFBENCH / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def resolve(dotted: str):
    """The object a dotted path names; a part that is no attribute is
    imported as a submodule."""
    parts = dotted.split(".")
    obj = importlib.import_module(parts[0])
    for i, part in enumerate(parts[1:], start=1):
        try:
            obj = getattr(obj, part)
        except AttributeError:
            obj = importlib.import_module(".".join(parts[: i + 1]))
    return obj


def _chain(node):
    """``a.b.c`` as ["a", "b", "c"]; None unless the chain starts at a name."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    return [node.id, *reversed(parts)] if isinstance(node, ast.Name) else None


def workload_names():
    """Dotted conedet names perfbench/workloads.py imports or reads."""
    tree = ast.parse((PERFBENCH / "workloads.py").read_text())
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "conedet":
                    # "import conedet.x" binds conedet, "import conedet.x as y" binds x
                    bound[alias.asname or "conedet"] = alias.name if alias.asname else "conedet"
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "conedet":
            for alias in node.names:
                bound[alias.asname or alias.name] = f"{node.module}.{alias.name}"
    names = set(bound.values())
    for node in ast.walk(tree):
        chain = _chain(node) if isinstance(node, ast.Attribute) else None
        if chain and chain[0] in bound:
            names.add(".".join([bound[chain[0]], *chain[1:]]))
    return sorted(names)


WORKLOAD_NAMES = workload_names()
_tracing = load_tracing()
TRACED = sorted({f"{mod}.{fn}" for mod, fn, *_ in _tracing.SPANS + _tracing.COUNTS})


def test_workloads_bind_the_library():
    # the source scan found the imports at all
    assert "conedet.cli.main.main" in WORKLOAD_NAMES
    assert "conedet.cone.SurfaceTopology" in WORKLOAD_NAMES


@pytest.mark.parametrize("dotted", sorted({*TRACED, *WORKLOAD_NAMES, *OTHER_NAMES}))
def test_benchmark_name_resolves(dotted):
    resolve(dotted)
