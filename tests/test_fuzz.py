"""Random mutations of the builtin documents through the command line.

Each example takes a builtin scenario with every default materialized,
applies one or two mutations (replace a value with one of another type
or range, delete a key, add an unknown or a known key) and runs one
subcommand on it through `cli.run`.  The examples are derandomized, so
the test is a fixed gate: 300 of them run in about 5 s.  Whatever the document, the
run must end with exit code 0, 2, 3 or 4 and print no traceback, and
every rejection by `Scenario.from_dict` must name the scenario field.
Run sizes stay small through the strategy: replacement integers lie in
[-3, 12], so no mutation asks for a long window, a fine loop or a deep
refinement.
"""

from __future__ import annotations

import contextlib
import io
import json
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from homindex.cli import run
from homindex.errors import InputError
from homindex.scenario import Scenario, builtin_names

COMMANDS = ("spectrum", "projectors", "index", "class", "certify", "solve", "realize")
DOCUMENTS = {name: Scenario.builtin(name).echo() for name in builtin_names()}

leaves = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 12),
    st.sampled_from([0.0, 0.5, -1.0, 2.5, 1e300, float("nan"), float("inf")]),
    st.sampled_from(["", "x", "plus", "minus", "mobius", "trivial", "circle", "none"]),
)
values = st.recursive(
    leaves,
    lambda inner: st.one_of(
        st.lists(inner, max_size=3),
        st.dictionaries(
            st.sampled_from(["kind", "n", "rank", "at", "value", "x"]), inner, max_size=2
        ),
    ),
    max_leaves=4,
)


def entries(node):
    """Every (container, key) pair inside a document: dict keys and list indices."""
    keys = list(node) if isinstance(node, dict) else range(len(node))
    for key in keys:
        yield node, key
        if isinstance(node[key], (dict, list)):
            yield from entries(node[key])


def mutate(data, doc: dict) -> dict:
    for _ in range(data.draw(st.integers(1, 2), label="mutations")):
        op = data.draw(st.sampled_from(["replace", "replace", "delete", "add"]), label="op")
        pairs = list(entries(doc))
        if op == "add":
            objects = [doc] + [c[k] for c, k in pairs if isinstance(c[k], dict)]
            node = data.draw(st.sampled_from(objects), label="object")
            key = data.draw(st.sampled_from(["zz", "options", "solve", "rhs", "kind"]), label="key")
            node[key] = data.draw(values, label="value")
            continue
        if op == "delete":
            pairs = [(c, k) for c, k in pairs if isinstance(c, dict)]
        container, key = data.draw(st.sampled_from(pairs), label="entry")
        if op == "delete":
            del container[key]
        else:
            container[key] = data.draw(values, label="value")
    return doc


@settings(
    max_examples=300,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    name=st.sampled_from(sorted(DOCUMENTS)),
    command=st.sampled_from(COMMANDS),
    data=st.data(),
)
def test_mutated_builtins_exit_cleanly_and_name_the_bad_field(name, command, data):
    doc = mutate(data, json.loads(json.dumps(DOCUMENTS[name])))
    try:
        Scenario.from_dict(doc)
    except InputError as exc:
        assert str(exc).startswith("scenario field '"), str(exc)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "doc.json"
        path.write_text(json.dumps(doc))
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = run([command, "--scenario", str(path), "--out", str(Path(tmp) / "out")])
    assert code in (0, 2, 3, 4), (code, err.getvalue())
    assert "Traceback" not in err.getvalue()
