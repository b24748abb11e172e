"""Tests for scenario documents: validation, defaulting, builders.

Expected diagnostics quote the offending field path; expected builder
outputs are checked against the underlying constructors called
directly, so nothing here depends on the CLI.
"""

import json

import numpy as np
import pytest

from homindex.errors import InputError
from homindex.field import ParameterLoop, mobius_bundle, realization_field, trivial_bundle
from homindex.scenario import (
    SCHEMA_VERSION,
    Scenario,
    builtin_document,
    builtin_names,
)


def minimal_doc(**overrides) -> dict:
    doc = {
        "schema_version": SCHEMA_VERSION,
        "dimension": 2,
        "field": {"kind": "autonomous", "matrix": [[0.5, 0.0], [0.0, 2.0]]},
    }
    doc.update(overrides)
    return doc


# ---------------------------------------------------------------------------
# validation diagnostics


def test_schema_version_is_required_and_checked():
    with pytest.raises(InputError, match="schema_version"):
        Scenario.from_dict({"dimension": 2})
    with pytest.raises(InputError, match="schema_version"):
        Scenario.from_dict(minimal_doc(schema_version=99))


def test_unknown_top_level_field_is_named():
    with pytest.raises(InputError, match="'beta'"):
        Scenario.from_dict(minimal_doc(beta=3))


def test_unknown_option_is_named_with_its_path():
    with pytest.raises(InputError, match="options.gamma_mni"):
        Scenario.from_dict(minimal_doc(options={"gamma_mni": 0.1}))


def test_unknown_field_kind_lists_choices():
    with pytest.raises(InputError, match="unknown builtin 'fancy'"):
        Scenario.from_dict(minimal_doc(field={"kind": "fancy"}))


def test_dimension_mismatch_in_matrix_is_rejected():
    with pytest.raises(InputError, match="field.matrix"):
        Scenario.from_dict(minimal_doc(field={"kind": "autonomous", "matrix": [[1.0]]}))


def test_windows_must_be_ordered_integer_pairs():
    with pytest.raises(InputError, match="window"):
        Scenario.from_dict(minimal_doc(window=[5, -5]))
    with pytest.raises(InputError, match="options.index_window"):
        Scenario.from_dict(minimal_doc(options={"index_window": [3, 3]}))


def test_tolerances_must_be_positive():
    with pytest.raises(InputError, match="tolerances.gap_ratio"):
        Scenario.from_dict(minimal_doc(tolerances={"gap_ratio": -1.0}))


def test_lambdas_are_bounded_by_the_loop():
    doc = minimal_doc(
        loop={"kind": "circle", "n": 8},
        field={
            "kind": "realization",
            "stable_ahead": {"kind": "trivial", "rank": 1},
            "stable_behind": {"kind": "trivial", "rank": 1},
        },
        options={"lambdas": [0, 8]},
    )
    with pytest.raises(InputError, match="options.lambdas"):
        Scenario.from_dict(doc)


def test_realization_requires_a_loop():
    doc = minimal_doc(
        field={
            "kind": "realization",
            "stable_ahead": {"kind": "trivial", "rank": 1},
            "stable_behind": {"kind": "trivial", "rank": 1},
        }
    )
    with pytest.raises(InputError, match="needs a parameter loop"):
        Scenario.from_dict(doc)


def test_mobius_bundle_demands_dimension_two():
    doc = minimal_doc(
        dimension=3,
        loop={"kind": "circle", "n": 8},
        field={
            "kind": "realization",
            "stable_ahead": {"kind": "mobius"},
            "stable_behind": {"kind": "trivial", "rank": 1},
        },
    )
    with pytest.raises(InputError, match="dimension 2"):
        Scenario.from_dict(doc)


def test_tabulated_shape_must_tile_window_and_loop():
    base = {
        "kind": "tabulated",
        "window": [0, 1],
        "shape": [1, 2, 2],
        "values": [float(x) for x in np.eye(2).ravel()] * 2,
    }
    Scenario.from_dict(minimal_doc(field=base))  # well-formed
    bad = dict(base, shape=[1, 3, 2])
    with pytest.raises(InputError, match="field.shape"):
        Scenario.from_dict(minimal_doc(field=bad))
    bad = dict(base, values=base["values"][:-1])
    with pytest.raises(InputError, match="field.values"):
        Scenario.from_dict(minimal_doc(field=bad))


def test_malformed_json_reports_line_and_column(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"schema_version": 1,\n  "dimension": }')
    with pytest.raises(InputError, match=r"line 2"):
        Scenario.load(path)


# ---------------------------------------------------------------------------
# defaulting and echo


def test_defaults_are_materialized_into_echo():
    s = Scenario.from_dict(minimal_doc())
    echo = s.echo()
    assert echo["seed"] == 0
    assert echo["window"] == [-100, 100]
    assert echo["horizon"] == 40
    assert echo["tolerances"]["gap_ratio"] == 1e3
    assert echo["options"]["gamma_min"] == 0.05
    assert echo["options"]["lambdas"] == [0]
    # echo is a deep copy: mutating it cannot corrupt the scenario
    echo["options"]["lambdas"].append(99)
    assert s.options["lambdas"] == [0]


def test_explicit_values_override_defaults():
    s = Scenario.from_dict(
        minimal_doc(seed=5, horizon=12, tolerances={"decay_tol": 1e-4})
    )
    assert s.seed == 5
    assert s.horizon == 12
    assert s.tolerances["decay_tol"] == 1e-4
    assert s.tolerances["gap_ratio"] == 1e3  # untouched default


def test_with_seed_returns_a_new_scenario():
    s = Scenario.from_dict(minimal_doc())
    t = s.with_seed(9)
    assert s.seed == 0 and t.seed == 9
    assert t.echo()["seed"] == 9


def test_echo_round_trips_through_from_dict():
    for name in builtin_names():
        s = Scenario.builtin(name)
        again = Scenario.from_dict(s.echo())
        assert again.echo() == s.echo()


# ---------------------------------------------------------------------------
# builders


def test_autonomous_builder_matches_direct_construction():
    s = Scenario.from_dict(minimal_doc())
    field = s.build_field()
    np.testing.assert_allclose(field.matrix(0, 17), [[0.5, 0.0], [0.0, 2.0]])


def test_realization_builder_matches_direct_construction():
    s = Scenario.builtin("realization-mobius")
    field = s.build_field()
    loop = ParameterLoop.circle(16)
    direct = realization_field(mobius_bundle(loop), trivial_bundle(loop, 2, 1), q=0.5)
    for lam in (0, 7, 15):
        for n in (-9, -3, 0, 3, 9):
            np.testing.assert_allclose(field.matrix(lam, n), direct.matrix(lam, n))


def test_tabulated_builder_round_trips_matrices():
    rng = np.random.default_rng(0)
    values = rng.standard_normal((1, 3, 2, 2))
    doc = minimal_doc(
        field={
            "kind": "tabulated",
            "window": [-1, 1],
            "shape": [1, 3, 2],
            "values": [float(x) for x in values.ravel()],
        }
    )
    field = Scenario.from_dict(doc).build_field()
    for i, n in enumerate(range(-1, 2)):
        np.testing.assert_allclose(field.matrix(0, n), values[0, i])


def test_system2_scenario_builds_nonlinear_and_linearization():
    s = Scenario.builtin("system2-mobius")
    f = s.build_nonlinear()
    assert f.dim == 2
    assert f.n_params == 16
    assert f.refiner is not None
    refined = f.refiner(2)
    assert refined.n_params == 32
    # the linear view is the trivial-branch linearization
    lin = s.build_field()
    value = f.value(0, 0, np.zeros(2))
    np.testing.assert_allclose(value, np.zeros(2), atol=1e-12)
    assert lin.dim == 2


def test_linear_scenarios_refuse_to_build_nonlinear():
    s = Scenario.from_dict(minimal_doc())
    with pytest.raises(InputError, match="system2"):
        s.build_nonlinear()


# ---------------------------------------------------------------------------
# builtin catalog


def test_builtin_names_are_sorted_and_loadable():
    names = builtin_names()
    assert list(names) == sorted(names)
    assert "system2-mobius" in names
    for name in names:
        Scenario.builtin(name)


def test_unknown_builtin_is_reported_with_choices():
    with pytest.raises(InputError, match="available:"):
        builtin_document("missing")


def test_builtin_documents_are_defensive_copies():
    doc = builtin_document("autonomous-saddle")
    doc["dimension"] = 99
    assert builtin_document("autonomous-saddle")["dimension"] == 2


def test_shipped_scenario_files_match_the_catalog():
    import pathlib

    root = pathlib.Path(__file__).resolve().parent.parent / "scenarios"
    for name in builtin_names():
        path = root / f"{name}.json"
        assert path.exists(), f"missing shipped scenario {path}"
        assert json.loads(path.read_text()) == builtin_document(name)
