"""Census: every defaulted public parameter is set by some call.

A defaulted parameter that no call ever sets has one value in use, so
it belongs in a module constant, not in the public API.  This scans
`src/homindex` with `ast`: for every name in a module's `__all__` (a
function, the public methods of a class and the `init` fields of a
dataclass), each parameter with a default must be set by at least one
call in `src/` or `tests/`, by keyword or by position.  Calls are
matched by the name they call, so a call `x.name(...)` counts for every
exported `name`; a `*` or `**` argument counts as setting every
parameter of the name it calls.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "homindex"
CALLERS = (ROOT / "src", ROOT / "tests")


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
