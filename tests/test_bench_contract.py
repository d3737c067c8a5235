"""The benchmark's names: every albertkit name it wraps, imports or reads must still be defined where it looks."""

import ast
import importlib
import importlib.util
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
TRACER = PERFBENCH / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_names_resolve():
    # the same lookup as Tracer.install: owner.__dict__[attr], with owner a class for "Cls.attr"
    tracer = _load_tracer()
    assert set(tracer.WRAPPED) == set(tracer.MODULES)
    for mod, attrs in tracer.WRAPPED.items():
        module = importlib.import_module("albertkit." + mod)
        for attr in attrs:
            owner = module
            if "." in attr:
                cls, attr = attr.split(".")
                owner = getattr(module, cls)
            assert attr in owner.__dict__, "%s.%s" % (mod, attr)
            assert callable(owner.__dict__[attr]), "%s.%s" % (mod, attr)


def _module_of(expr, modules):
    """The albertkit module that `expr` names: a bound name, or self.<name> as the op classes keep them."""
    if isinstance(expr, ast.Name):
        return modules.get(expr.id)
    if isinstance(expr, ast.Attribute) and isinstance(expr.value, ast.Name) and expr.value.id == "self":
        return modules.get(expr.attr)
    return None


def albertkit_names(path) -> set:
    """(module, attr) for each module-level albertkit name the file imports or reads.

    From the source with ast: `from albertkit[.m] import ...` and `import
    albertkit[.m]` bind names to modules; every `<module>.attr`, with the
    module reached by such a name, by self.<name>, or by a plain alias
    (`ga = self.gaction`), is a name read. Attributes of instances are not
    followed.
    """
    tree = ast.parse(path.read_text(encoding="utf-8"))
    modules, names = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "albertkit":
                    names.add((alias.name, None))
                    modules[alias.asname or "albertkit"] = alias.name if alias.asname else "albertkit"
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "albertkit":
            for alias in node.names:
                if node.module == "albertkit":
                    modules[alias.asname or alias.name] = "albertkit." + alias.name
                names.add((node.module, alias.name))
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and len(node.targets) == 1 and isinstance(node.targets[0], ast.Name):
            module = _module_of(node.value, modules)
            if module:
                modules[node.targets[0].id] = module
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            module = _module_of(node.value, modules)
            if module:
                names.add((module, node.attr))
    return names


def test_benchmark_reads_resolve():
    scanned = {path.name: albertkit_names(path) for path in sorted(PERFBENCH.glob("*.py"))}
    # the scan finds what the checkers and the ops read, so it is not vacuous
    assert {("albertkit.smap", "phi1"), ("albertkit.smap", "phi2")} <= scanned["checks.py"]
    assert {("albertkit.smap", "structure_tensor"), ("albertkit.gaction", "tilde")} <= scanned["worker.py"]
    for fname, names in scanned.items():
        for module, attr in sorted(names, key=str):
            mod = importlib.import_module(module)
            if attr is None or hasattr(mod, attr):
                continue
            # `from albertkit import m` may name a submodule not imported yet
            assert module == "albertkit" and importlib.util.find_spec("albertkit." + attr), "%s reads %s.%s" % (
                fname,
                module,
                attr,
            )
