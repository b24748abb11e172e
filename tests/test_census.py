"""Census of the public API: what `src/homindex` exports, something uses.

Two rules, both read off `src/homindex` with `ast`:

- Every defaulted public parameter is set by some call.  A defaulted
  parameter that no call ever sets has one value in use, so it belongs
  in a module constant, not in the public API.  For every name in a
  module's `__all__` (a function, the public methods of a class and the
  `init` fields of a dataclass), each parameter with a default must be
  set by at least one call in `src/` or `tests/`, by keyword or by
  position.  Calls are matched by the name they call, so a call
  `x.name(...)` counts for every exported `name`; a `*` or `**`
  argument counts as setting every parameter of the name it calls.
- Every exported name is reached from `src/`.  Each name in a module's
  `__all__` must be read (an `ast.Name` or `ast.Attribute`) somewhere in
  `src/homindex` outside its own top-level definition, so `src/` holds
  only what a command or another module reaches; code only the tests
  call lives in `tests/`.  The exceptions are `TRACED_ONLY`.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "homindex"
CALLERS = (ROOT / "src", ROOT / "tests")
TRACER = ROOT / "perfbench" / "tracer.py"

#: (module, name) of the exported single-sample forms that nothing in `src/`
#: calls since their batches replaced them; `perfbench/tracer.py` rebinds each
#: by name (`owner.__dict__[attr]`), so removing one breaks the traced benchmark
TRACED_ONLY = {
    ("bifurcation", "check_F3"),
    # `solve` builds its one family through `build_projector_families`; the
    # tracer's ("dichotomy.build_projector_family", ...) keeps the name
    ("dichotomy", "build_projector_family"),
    ("dichotomy", "dichotomy_spectrum"),
    # the Green solve reads only its family and fits nothing; the tracer's
    # ("dichotomy.verify_ed", hx["dichotomy"], "verify_ed") keeps the name
    ("dichotomy", "verify_ed"),
    ("fredholm", "kernel_cokernel"),
}


def _exported(tree: ast.Module) -> set[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return {elt.value for elt in node.value.elts}
    return set()


def _decorator_names(node) -> set[str]:
    names = set()
    for dec in node.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        names.add(target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", ""))
    return names


def _defaulted(fn: ast.FunctionDef, skip_first: bool):
    """(parameter, position among positional parameters or None) for each defaulted one."""
    positional = fn.args.posonlyargs + fn.args.args
    if skip_first:
        positional = positional[1:]
    first_default = len(positional) - len(fn.args.defaults)
    out = [(arg.arg, i) for i, arg in enumerate(positional) if i >= first_default]
    out += [
        (arg.arg, None)
        for arg, default in zip(fn.args.kwonlyargs, fn.args.kw_defaults)
        if default is not None
    ]
    return out


def _is_init_false(value) -> bool:
    return isinstance(value, ast.Call) and any(
        kw.arg == "init" and isinstance(kw.value, ast.Constant) and kw.value.value is False
        for kw in value.keywords
    )


def _dataclass_fields(cls: ast.ClassDef):
    """(field, position) of each defaulted `init` field of a dataclass."""
    out, position = [], 0
    for node in cls.body:
        if not (isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name)):
            continue
        if _is_init_false(node.value):
            continue
        if node.value is not None:
            out.append((node.target.id, position))
        position += 1
    return out


def _public_defaults():
    """(module, qualified name, called name, parameter, position) of every public default."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        exported = _exported(tree)
        for node in tree.body:
            if getattr(node, "name", None) not in exported:
                continue
            if isinstance(node, ast.FunctionDef):
                for param, pos in _defaulted(node, skip_first=False):
                    found.append((path.stem, node.name, node.name, param, pos))
            elif isinstance(node, ast.ClassDef):
                if "dataclass" in _decorator_names(node):
                    for param, pos in _dataclass_fields(node):
                        found.append((path.stem, node.name, node.name, param, pos))
                for fn in node.body:
                    if not isinstance(fn, ast.FunctionDef) or fn.name.startswith("_"):
                        continue
                    skip = "staticmethod" not in _decorator_names(fn)
                    for param, pos in _defaulted(fn, skip_first=skip):
                        found.append((path.stem, f"{node.name}.{fn.name}", fn.name, param, pos))
    return found


def _calls():
    """Per called name: the keywords, positional counts and star use of every call."""
    calls: dict[str, list[tuple[set[str], int, bool]]] = {}
    for root in CALLERS:
        for path in sorted(root.rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if not isinstance(node, ast.Call):
                    continue
                func = node.func
                name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
                if name is None:
                    continue
                keywords = {kw.arg for kw in node.keywords if kw.arg is not None}
                starred = any(kw.arg is None for kw in node.keywords) or any(
                    isinstance(arg, ast.Starred) for arg in node.args
                )
                calls.setdefault(name, []).append((keywords, len(node.args), starred))
    return calls


def _is_set(calls, name: str, param: str, position) -> bool:
    for keywords, n_positional, starred in calls.get(name, ()):
        if starred or param in keywords:
            return True
        if position is not None and n_positional > position:
            return True
    return False


def test_every_defaulted_public_parameter_is_set_by_some_call():
    calls = _calls()
    unset = [
        f"{module}.{qualname}({param}=)"
        for module, qualname, name, param, position in _public_defaults()
        if not _is_set(calls, name, param, position)
    ]
    assert not unset, (
        f"{len(unset)} defaulted public parameters are never set by a call in src/ or "
        "tests/; make each a module constant: " + ", ".join(unset)
    )


def test_the_census_sees_the_public_api():
    """Guard the scan itself: it finds exported defaults and the calls that set them."""
    found = {(module, qualname, param) for module, qualname, _, param, _ in _public_defaults()}
    assert ("dichotomy", "build_projector_family", "horizon") in found
    assert ("bifurcation", "CertifyOptions", "anchor_plus") in found
    assert ("field", "ParameterLoop.circle", "n") in found
    calls = _calls()
    assert _is_set(calls, "build_projector_family", "horizon", 5)


def _references(package: Path) -> dict[str, set[tuple[str, str | None]]]:
    """Per identifier, the (module, enclosing top-level name) of each `Name` or `Attribute` read."""
    refs: dict[str, set[tuple[str, str | None]]] = {}
    for path in sorted(package.glob("*.py")):
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            owner = getattr(stmt, "name", None)
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name):
                    refs.setdefault(node.id, set()).add((path.stem, owner))
                elif isinstance(node, ast.Attribute):
                    refs.setdefault(node.attr, set()).add((path.stem, owner))
    return refs


def _unreferenced(package: Path = PACKAGE) -> set[tuple[str, str]]:
    """(module, name) of each exported name that nothing in `package` reads outside its definition."""
    refs = _references(package)
    out = set()
    for path in sorted(package.glob("*.py")):
        for name in _exported(ast.parse(path.read_text(encoding="utf-8"))):
            if not refs.get(name, set()) - {(path.stem, name)}:
                out.add((path.stem, name))
    return out


def test_every_exported_name_is_reached_from_src():
    unreached = _unreferenced() - TRACED_ONLY
    assert not unreached, (
        "exported names that nothing in src/homindex reads; move each to tests/ if only "
        "tests use it, or delete it: " + ", ".join(f"{m}.{n}" for m, n in sorted(unreached))
    )


def test_the_traced_only_exceptions_are_current():
    """Each exception is still unreached in src/ and still rebound by the tracer, by name."""
    assert TRACED_ONLY <= _unreferenced(), "an exception is now reached from src/; drop it"
    strings = {
        node.value
        for node in ast.walk(ast.parse(TRACER.read_text(encoding="utf-8")))
        if isinstance(node, ast.Constant) and isinstance(node.value, str)
    }
    for module, name in sorted(TRACED_ONLY):
        assert name in strings and f"{module}.{name}" in strings, (module, name)


def test_the_reach_rule_flags_a_planted_name(tmp_path):
    """Guard the scan: a name read only inside its own definition is flagged, a read one is not."""
    for path in PACKAGE.glob("*.py"):
        (tmp_path / path.name).write_text(path.read_text(encoding="utf-8"), encoding="utf-8")
    (tmp_path / "planted.py").write_text(
        '__all__ = ["orphan", "used"]\n\n\n'
        "def orphan(n):\n    return orphan(n - 1) if n else 0\n\n\n"
        "def used():\n    return 1\n\n\n"
        "def _caller():\n    return used()\n",
        encoding="utf-8",
    )
    found = _unreferenced(tmp_path)
    assert ("planted", "orphan") in found
    assert ("planted", "used") not in found
    assert found - {("planted", "orphan")} == _unreferenced()
