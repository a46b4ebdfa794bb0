"""Packaging metadata matches the package: entry points import, dependencies are used."""

import ast
import importlib
import inspect
import re
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")

ROOT = Path(__file__).resolve().parents[1]


def _project():
    with open(ROOT / "pyproject.toml", "rb") as fh:
        return tomllib.load(fh)["project"]


def _imported_top_level_names():
    names = set()
    for path in (ROOT / "src" / "softprop").rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module.split(".")[0])
    return names


def test_scripts_import_and_dependencies_are_used():
    for name, target in _project().get("scripts", {}).items():
        module, _, attr = target.partition(":")
        assert callable(getattr(importlib.import_module(module), attr)), name
    imported = _imported_top_level_names()
    for requirement in _project()["dependencies"]:
        dist = re.match(r"[A-Za-z0-9_.-]+", requirement).group(0)
        assert dist.lower().replace("-", "_") in imported, requirement


def _holders(needle):
    """Sorted names of the softprop modules whose source contains needle."""
    return sorted(path.name for path in (ROOT / "src" / "softprop").rglob("*.py")
                  if needle in path.read_text())


@pytest.mark.parametrize("needle, owner", [
    ('"manifest.json"', "datafiles.py"),
    ("raise MissingArtifactError", "datafiles.py"),
    ("json.dump(", None),
    ("np.savetxt", None),
    ("np.loadtxt", None),
    ("import csv", None),
])
def test_artifact_io_has_one_owner(needle, owner):
    # Artifact directories are written and read only through datafiles, and
    # their manifests (written by write_manifest) are the only JSON or text
    # files: every payload is binary, so no module owns a text writer.
    assert _holders(needle) == ([owner] if owner else [])


@pytest.mark.parametrize("needle", [
    "ProcessPoolExecutor", "sched_setaffinity", "sched_getaffinity", "openblas", "prctl",
])
def test_worker_processes_have_one_owner(needle):
    # Only pool decides how many workers run, how work is cut into shares
    # and how workers are pinned to CPUs and BLAS threads.
    assert _holders(needle) == ["pool.py"]


def test_no_module_imports_a_private_name_of_another():
    imports = []
    for path in sorted((ROOT / "src" / "softprop").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom) and node.level > 0:
                imports += [f"{path.name}: {node.module or '.'}.{alias.name}"
                            for alias in node.names if alias.name.startswith("_")]
    assert imports == []


def test_every_module_level_import_is_used():
    # A name a module imports at module level is read somewhere in that
    # module; `from __future__` imports bind no name.
    unused = []
    for path in sorted((ROOT / "src" / "softprop").glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        bound = []
        for node in tree.body:
            if isinstance(node, ast.Import):
                bound += [a.asname or a.name.split(".")[0] for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                bound += [a.asname or a.name for a in node.names]
        loaded = {sub.id for sub in ast.walk(tree)
                  if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load)}
        unused += [f"{path.stem}.{name}" for name in bound if name not in loaded]
    assert unused == []


def _perfbench_tree(name):
    path = ROOT / "perfbench" / name
    return ast.parse(path.read_text(), str(path))


def _softprop_attr(dotted):
    """The object `softprop.<dotted>` names; AttributeError when it does not resolve."""
    module, *attrs = dotted.split(".")
    obj = importlib.import_module(f"softprop.{module}")
    for attr in attrs:
        obj = getattr(obj, attr)
    return obj


def _accepts(fn, keyword):
    params = inspect.signature(fn).parameters.values()
    return any(p.name == keyword or p.kind is p.VAR_KEYWORD for p in params)


def test_perfbench_traced_functions_resolve():
    # Every (module, function) the span tracer wraps exists, and every
    # argument its describe function reads is a parameter of a function
    # it describes: a renamed parameter would otherwise read as absent.
    tree = _perfbench_tree("spans.py")
    traced = next(node.value for node in tree.body if isinstance(node, ast.Assign)
                  and [t.id for t in node.targets] == ["TRACED"])
    describes = {}
    for entry in traced.elts:
        module, function, describe = entry.elts
        fn = _softprop_attr(f"{module.value}.{function.value}")
        assert callable(fn), f"{module.value}.{function.value}"
        if isinstance(describe, ast.Name):
            describes.setdefault(describe.id, []).append(fn)
    for node in tree.body:
        if not (isinstance(node, ast.FunctionDef) and node.name in describes):
            continue
        keys = {sub.slice.value for sub in ast.walk(node)
                if isinstance(sub, ast.Subscript) and isinstance(sub.value, ast.Name)
                and sub.value.id == "args"}
        keys |= {call.args[0].value for call in ast.walk(node)
                 if isinstance(call, ast.Call) and isinstance(call.func, ast.Attribute)
                 and isinstance(call.func.value, ast.Name)
                 and call.func.value.id == "args" and call.func.attr == "get"}
        for key in keys:
            assert any(_accepts(fn, key) for fn in describes[node.name]), (node.name, key)


def _dotted(node):
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    return ".".join([node.id, *reversed(parts)]) if isinstance(node, ast.Name) else None


@pytest.mark.parametrize("name", ["workloads.py", "run.py", "test_perfbench.py"])
def test_perfbench_softprop_accesses_resolve(name):
    # Every softprop name the benchmark imports or reaches as
    # `<module>.<attr>` exists, and every call through such a name
    # passes only keywords the callee accepts.
    modules = {}
    tree = _perfbench_tree(name)
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "softprop":
            modules.update((a.asname or a.name, a.name) for a in node.names)
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("softprop."):
            for alias in node.names:
                _softprop_attr(f"{node.module[9:]}.{alias.name}")
    resolved = {}
    for node in ast.walk(tree):
        dotted = _dotted(node) if isinstance(node, ast.Attribute) else None
        head, _, rest = (dotted or "").partition(".")
        if head in modules:
            resolved[node] = _softprop_attr(f"{modules[head]}.{rest}")
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and node.func in resolved:
            for kw in node.keywords:
                assert kw.arg is None or _accepts(resolved[node.func], kw.arg), kw.arg
    assert resolved


# Stage entry points the pipeline CLI will call (ROADMAP item 8); nothing
# in the package or the benchmark calls them yet.
CLI_ENTRY_POINTS = {
    "save_shape_model", "load_shape_model", "save_calibration_set",
    "load_calibration_set", "alignment_report", "collect_demonstration",
    "save_demonstration", "load_demonstration", "build_policy_dataset",
    "train_policy", "save_policy", "load_policy", "synthetic_object_cloud",
    "rollout",
}


def _definitions(tree):
    """(name, statement) for every public module-level definition."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            targets = [node.name]
        elif isinstance(node, ast.Assign):
            targets = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            targets = [node.target.id]
        else:
            continue
        yield from ((name, node) for name in targets if not name.startswith("_"))


def _references(node, strings=False):
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
        elif isinstance(sub, ast.alias):
            names.add(sub.name)
        elif strings and isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            names.add(sub.value)
    return names


def test_every_public_name_has_a_user():
    # A public module-level name in softprop is referenced elsewhere in the
    # package, by the benchmark's own code (its tracer names functions as
    # strings), or is a CLI entry point. Test-only names do not count.
    trees = {path.name: ast.parse(path.read_text(), str(path))
             for path in sorted((ROOT / "src" / "softprop").glob("*.py"))}
    references = [(stmt, _references(stmt)) for tree in trees.values() for stmt in tree.body]
    used = set(CLI_ENTRY_POINTS)
    for path in (ROOT / "perfbench").glob("*.py"):
        if not path.name.startswith("test_"):
            used |= _references(ast.parse(path.read_text(), str(path)), strings=True)
    unused = [f"{module}:{name}" for module, tree in trees.items()
              for name, definition in _definitions(tree)
              if name not in used and not any(name in names for stmt, names in references
                                                if stmt is not definition)]
    assert unused == []
