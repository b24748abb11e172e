"""CLI contract tests: exit codes, report shape, artifact layouts,
byte determinism across reruns and thread counts, and the realize
round trip.

Everything drives `homindex.cli.run` in-process with per-test output
directories; expected report values are cross-checked against the
library calls the subcommands wrap.
"""

import csv
import dataclasses
import json
import re
from pathlib import Path

import numpy as np
import pytest

from homindex import cli, dichotomy
from homindex.cli import run
from homindex.dichotomy import MIN_FIT_STEPS
from homindex.errors import DomainError, IndeterminateError
from homindex.field import (
    MIN_CONTRACTION,
    ParameterLoop,
    construct_hyperbolic_family,
    mobius_bundle,
)
from homindex.fredholm import whole_line_index
from homindex.scenario import SCHEMA_VERSION, Scenario, builtin_document, builtin_names


def saddle_doc(**overrides) -> dict:
    doc = {
        "schema_version": SCHEMA_VERSION,
        "dimension": 2,
        "field": {"kind": "autonomous", "matrix": [[0.5, 0.0], [0.0, 2.0]]},
    }
    doc.update(overrides)
    return doc


def write_doc(tmp_path: Path, doc: dict, name: str = "scenario.json") -> str:
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def report_of(out_dir: Path) -> dict:
    return json.loads((out_dir / "report.json").read_text())


def read_csv(path: Path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


# ---------------------------------------------------------------------------
# exit codes


def test_success_exits_zero_and_writes_report(tmp_path):
    out = tmp_path / "out"
    code = run(["spectrum", "--scenario", "autonomous-saddle", "--out", str(out)])
    assert code == 0
    assert (out / "report.json").exists()


def test_unknown_builtin_exits_three_and_lists_choices(tmp_path, capsys):
    code = run(["spectrum", "--scenario", "no-such-thing", "--out", str(tmp_path)])
    assert code == 3
    err = capsys.readouterr().err
    assert "error:" in err and "system2-mobius" in err


def test_malformed_scenario_exits_three_with_position(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text('{"schema_version": 1,\n  "dimension": }')
    code = run(["spectrum", "--scenario", str(path), "--out", str(tmp_path / "o")])
    assert code == 3
    assert "line 2" in capsys.readouterr().err


def test_invalid_scenario_field_exits_three_and_names_it(tmp_path, capsys):
    ref = write_doc(tmp_path, saddle_doc(options={"grid": "many"}))
    code = run(["spectrum", "--scenario", ref, "--out", str(tmp_path / "o")])
    assert code == 3
    assert "options.grid" in capsys.readouterr().err


def test_bad_flag_values_exit_three(tmp_path, capsys):
    base = ["spectrum", "--scenario", "autonomous-saddle", "--out", str(tmp_path)]
    assert run(base + ["--threads", "0"]) == 3
    assert run(base + ["--seed", "-1"]) == 3
    capsys.readouterr()


def test_usage_errors_exit_three_and_help_exits_zero(capsys):
    assert run(["frobnicate", "--scenario", "autonomous-saddle"]) == 3
    assert run(["spectrum"]) == 3  # --scenario is required
    assert run(["--help"]) == 0
    capsys.readouterr()


def test_the_parser_is_built_once_and_usage_errors_keep_their_message(tmp_path, capsys):
    cli._build_parser.cache_clear()
    out = str(tmp_path / "o")
    assert run(["projectors", "--scenario", "autonomous-saddle", "--out", out]) == 0
    assert run(["projectors", "--scenario", "autonomous-saddle", "--out", out]) == 0
    info = cli._build_parser.cache_info()
    assert (info.misses, info.hits) == (1, 1)
    capsys.readouterr()
    # a usage error on the reused parser: argparse's own exit 2, mapped to 3,
    # and the message a new parser prints
    bad = ["spectrum", "--scenario", "autonomous-saddle", "--format", "xml"]
    assert run(bad) == 3
    reused = capsys.readouterr().err
    with pytest.raises(SystemExit) as exc:
        cli._build_parser.__wrapped__().parse_args(bad)
    assert exc.value.code == 2
    assert capsys.readouterr().err == reused
    assert "invalid choice: 'xml'" in reused
    assert run(bad) == 3
    assert capsys.readouterr().err == reused
    assert cli._build_parser.cache_info().misses == 1


def test_no_dichotomy_exits_two(tmp_path, capsys):
    doc = saddle_doc(field={"kind": "autonomous", "matrix": [[1.0, 0.0], [0.0, 2.0]]})
    ref = write_doc(tmp_path, doc)
    code = run(["projectors", "--scenario", ref, "--out", str(tmp_path / "o")])
    assert code == 2
    assert "no dichotomy" in capsys.readouterr().err


def test_indeterminate_rates_exit_four(tmp_path, capsys):
    # rates straddle zero but their gap is below the resolvable threshold
    doc = saddle_doc(field={"kind": "autonomous", "matrix": [[0.95, 0.0], [0.0, 1.05]]})
    ref = write_doc(tmp_path, doc)
    code = run(["projectors", "--scenario", ref, "--out", str(tmp_path / "o")])
    assert code == 4
    capsys.readouterr()


def system2_doc(rank_ahead: int, rank_behind: int, residual: dict) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "dimension": 2,
        "loop": {"kind": "circle", "n": 8},
        "field": {
            "kind": "system2",
            "stable_ahead": {"kind": "trivial", "rank": rank_ahead},
            "stable_behind": {"kind": "trivial", "rank": rank_behind},
            "residual": residual,
        },
    }


def test_certify_hypotheses_failed_exits_two(tmp_path, capsys):
    ref = write_doc(tmp_path, system2_doc(2, 1, {"kind": "none"}))
    out = tmp_path / "o"
    code = run(["certify", "--scenario", ref, "--out", str(out)])
    assert code == 2
    capsys.readouterr()
    results = report_of(out)["results"]
    assert results["verdict"] == "hypotheses_failed"
    assert results["index_class"]["virtual_rank"] == 1


def test_certify_vanishing_obstruction_exits_zero(tmp_path, capsys):
    residual = {"kind": "quadratic_decaying", "amplitude": 1.0}
    ref = write_doc(tmp_path, system2_doc(1, 1, residual))
    out = tmp_path / "o"
    code = run(["certify", "--scenario", ref, "--out", str(out)])
    assert code == 0
    capsys.readouterr()
    results = report_of(out)["results"]
    assert results["verdict"] == "obstruction_vanishes"
    assert results["index_class"] == {
        "virtual_rank": 0,
        "delta_w1": 0,
        "provenance": ["im P+ at n=8", "im P- at n=-8"],
    }


# ---------------------------------------------------------------------------
# report shape


def test_report_embeds_the_materialized_scenario(tmp_path):
    out = tmp_path / "out"
    run(["spectrum", "--scenario", "autonomous-saddle", "--out", str(out)])
    report = report_of(out)
    assert sorted(report) == [
        "command",
        "homindex_version",
        "results",
        "scenario",
        "schema_version",
        "seed",
        "warnings",
    ]
    assert report["command"] == "spectrum"
    assert report["schema_version"] == SCHEMA_VERSION
    assert report["scenario"] == Scenario.builtin("autonomous-saddle").echo()
    assert isinstance(report["warnings"], list)


def test_seed_flag_overrides_scenario_seed_and_is_echoed(tmp_path):
    out = tmp_path / "out"
    run(["solve", "--scenario", "autonomous-saddle", "--out", str(out), "--seed", "7"])
    report = report_of(out)
    assert report["seed"] == 7
    assert report["scenario"]["seed"] == 7


def test_warnings_go_to_report_and_stderr(tmp_path, capsys):
    residual = {"kind": "quadratic_decaying", "amplitude": 1.0}
    ref = write_doc(tmp_path, system2_doc(1, 1, residual))
    out = tmp_path / "o"
    run(["certify", "--scenario", ref, "--out", str(out)])
    err = capsys.readouterr().err
    report = report_of(out)
    assert report["warnings"], "certification always carries analytic-obligation warnings"
    for line in report["warnings"]:
        assert f"warning: {line}" in err


def test_spectrum_values_match_direct_library_call(tmp_path):
    from homindex.dichotomy import dichotomy_spectrum

    out = tmp_path / "out"
    run(["spectrum", "--scenario", "autonomous-saddle", "--out", str(out)])
    per = report_of(out)["results"]["per_lambda"][0]
    direct = dichotomy_spectrum(
        Scenario.builtin("autonomous-saddle").build_field(), 0, horizon=40
    )
    assert per["intervals"] == [[a, b] for a, b in direct.intervals]
    assert per["verdicts"] == list(direct.verdicts)


# ---------------------------------------------------------------------------
# determinism


def test_reports_are_byte_identical_across_thread_counts(tmp_path):
    pairs = [
        ("class", "realization-mobius"),
        ("certify", "system2-mobius"),
    ]
    for command, name in pairs:
        blobs = []
        for threads in ("1", "8"):
            out = tmp_path / f"{command}_{threads}"
            code = run(
                [command, "--scenario", name, "--out", str(out), "--threads", threads]
            )
            assert code == 0
            blobs.append((out / "report.json").read_bytes())
        assert blobs[0] == blobs[1], f"{command} report differs across thread counts"


def test_reports_are_byte_identical_across_reruns(tmp_path):
    blobs = []
    for tag in ("a", "b"):
        out = tmp_path / tag
        run(["solve", "--scenario", "autonomous-saddle", "--out", str(out), "--seed", "3"])
        blobs.append((out / "report.json").read_bytes())
    assert blobs[0] == blobs[1]


def test_solve_seed_changes_the_sampled_forcing(tmp_path):
    sups = []
    for seed in ("0", "1"):
        out = tmp_path / seed
        run(["solve", "--scenario", "autonomous-saddle", "--out", str(out), "--seed", seed])
        sups.append(report_of(out)["results"]["solutions"][0]["sup"])
    assert sups[0] != sups[1]


# ---------------------------------------------------------------------------
# CSV artifacts


def test_csv_files_only_appear_with_csv_format(tmp_path):
    out_json = tmp_path / "j"
    out_csv = tmp_path / "c"
    run(["spectrum", "--scenario", "autonomous-saddle", "--out", str(out_json)])
    run(
        [
            "spectrum",
            "--scenario",
            "autonomous-saddle",
            "--out",
            str(out_csv),
            "--format",
            "csv",
        ]
    )
    assert [p.name for p in sorted(out_json.iterdir())] == ["report.json"]
    assert [p.name for p in sorted(out_csv.iterdir())] == [
        "report.json",
        "spectrum_lam000.csv",
    ]


def test_spectrum_csv_layout(tmp_path):
    out = tmp_path / "out"
    run(
        [
            "spectrum",
            "--scenario",
            "autonomous-saddle",
            "--out",
            str(out),
            "--format",
            "csv",
        ]
    )
    header, rows = read_csv(out / "spectrum_lam000.csv")
    assert header == ["gamma", "verdict"]
    report = report_of(out)["results"]["per_lambda"][0]
    assert len(rows) == len(report["grid"])
    for (gamma, verdict), g, v in zip(rows, report["grid"], report["verdicts"]):
        assert float(gamma) == g
        assert verdict == v


def test_projectors_csv_layout(tmp_path):
    out = tmp_path / "out"
    run(
        [
            "projectors",
            "--scenario",
            "autonomous-saddle",
            "--out",
            str(out),
            "--format",
            "csv",
        ]
    )
    header, rows = read_csv(out / "projectors_lam000.csv")
    assert header == ["n", "p_0_0", "p_0_1", "p_1_0", "p_1_1"]
    per = report_of(out)["results"]["per_lambda"][0]
    assert [int(r[0]) for r in rows] == per["times"]
    np.testing.assert_allclose([float(x) for x in rows[0][1:]], per["projectors"][0])


def test_projectors_builds_every_sample_in_one_batch(tmp_path, monkeypatch):
    # one `_build_batch` call for all samples, and each sample's files equal,
    # byte for byte, those of a run that asks for that sample alone
    calls = []
    build_batch = dichotomy._build_batch

    def counted(pending, *args):
        calls.append(sum(len(runs) for *_, runs in pending))
        return build_batch(pending, *args)

    lams = [0, 5, 8, 12]
    doc = builtin_document("realization-mobius")
    doc["options"] = {"lambdas": lams}
    out = tmp_path / "batch"
    monkeypatch.setattr(dichotomy, "_build_batch", counted)
    path = write_doc(tmp_path, doc)
    assert run(["projectors", "--scenario", path, "--out", str(out), "--format", "csv"]) == 0
    monkeypatch.undo()
    assert calls == [len(lams)]
    batch = report_of(out)["results"]["per_lambda"]
    for lam, entry in zip(lams, batch):
        doc["options"] = {"lambdas": [lam]}
        alone = tmp_path / f"alone{lam}"
        path = write_doc(tmp_path, doc, f"alone{lam}.json")
        assert run(["projectors", "--scenario", path, "--out", str(alone), "--format", "csv"]) == 0
        assert json.dumps(report_of(alone)["results"]["per_lambda"]) == json.dumps([entry])
        name = f"projectors_lam{lam:03d}.csv"
        assert (alone / name).read_bytes() == (out / name).read_bytes()


def test_index_csv_layout(tmp_path):
    out = tmp_path / "out"
    run(
        [
            "index",
            "--scenario",
            "realization-mobius",
            "--out",
            str(out),
            "--format",
            "csv",
        ]
    )
    header, rows = read_csv(out / "index.csv")
    assert header == [
        "lambda",
        "index",
        "dim_ker",
        "dim_coker",
        "rank_plus",
        "rank_minus",
        "consistent",
    ]
    assert len(rows) == 16
    assert {r[6] for r in rows} == {"true"}
    assert {r[1] for r in rows} == {"0"}


def test_class_csv_layout(tmp_path):
    out = tmp_path / "out"
    run(
        [
            "class",
            "--scenario",
            "realization-mobius",
            "--out",
            str(out),
            "--format",
            "csv",
        ]
    )
    for name in ("bundle_plus.csv", "bundle_minus.csv"):
        header, rows = read_csv(out / name)
        assert header == ["sample", "param_0", "frame_0_0", "frame_1_0"]
        assert len(rows) == 16
        for row in rows:
            frame = np.array([float(row[2]), float(row[3])])
            assert abs(np.linalg.norm(frame) - 1.0) < 1e-10


def test_solution_csv_layout_without_loop(tmp_path):
    out = tmp_path / "out"
    run(
        [
            "solve",
            "--scenario",
            "autonomous-saddle",
            "--out",
            str(out),
            "--format",
            "csv",
        ]
    )
    header, rows = read_csv(out / "solution_000.csv")
    assert header == ["n", "phi_0", "phi_1"]
    sol = report_of(out)["results"]["solutions"][0]
    lo, hi = sol["window"]
    assert [int(r[0]) for r in rows] == list(range(lo, hi + 1))


def test_solution_csv_layout_with_loop(tmp_path):
    out = tmp_path / "out"
    run(
        [
            "solve",
            "--scenario",
            "realization-mobius",
            "--out",
            str(out),
            "--format",
            "csv",
        ]
    )
    header, _ = read_csv(out / "solution_000.csv")
    assert header == ["param_0", "n", "phi_0", "phi_1"]


# ---------------------------------------------------------------------------
# solve specifics


def test_solve_defect_is_tiny_on_both_half_lines(tmp_path):
    for side in ("plus", "minus"):
        doc = saddle_doc(options={"solve": {"side": side}})
        ref = write_doc(tmp_path, doc, name=f"{side}.json")
        out = tmp_path / side
        assert run(["solve", "--scenario", ref, "--out", str(out)]) == 0
        for sol in report_of(out)["results"]["solutions"]:
            assert sol["defect_sup"] <= 1e-10


def test_long_half_line_solves_keep_a_tiny_defect(tmp_path):
    # at length 140 rounding marched outside its subbundle would grow past the
    # defect's reach (defects near 4 on mobius-double's minus side)
    for name in ("realization-mobius", "mobius-double"):
        for side in ("plus", "minus"):
            doc = builtin_document(name)
            doc.setdefault("options", {})["solve"] = {"side": side, "length": 140}
            ref = write_doc(tmp_path, doc, name=f"{name}-{side}.json")
            out = tmp_path / f"{name}-{side}"
            assert run(["solve", "--scenario", ref, "--out", str(out)]) == 0, (name, side)
            for sol in report_of(out)["results"]["solutions"]:
                assert sol["defect_sup"] <= 1e-12, (name, side, sol["label"], sol["defect_sup"])


def test_a_defect_above_solve_tol_exits_four_naming_it(tmp_path, capsys):
    doc = builtin_document("realization-mobius")
    doc["tolerances"] = {"solve_tol": 1e-20}
    ref = write_doc(tmp_path, doc)
    assert run(["solve", "--scenario", ref, "--out", str(tmp_path / "o")]) == 4
    err = capsys.readouterr().err
    assert "solution seeded_000: defect" in err and "tolerances.solve_tol = 1.0e-20" in err
    assert "Traceback" not in err


def test_solve_accepts_explicit_impulses(tmp_path):
    doc = saddle_doc(
        options={"solve": {"rhs": [{"at": 3, "value": [1.0, 0.0]}]}}
    )
    ref = write_doc(tmp_path, doc)
    out = tmp_path / "out"
    assert run(["solve", "--scenario", ref, "--out", str(out)]) == 0
    sols = report_of(out)["results"]["solutions"]
    assert [s["label"] for s in sols] == ["impulse_at_3"]
    assert sols[0]["defect_sup"] <= 1e-10


def test_solve_rejects_impulse_outside_forcing_window(tmp_path, capsys):
    doc = saddle_doc(
        options={"solve": {"rhs": [{"at": 40, "value": [1.0, 0.0]}]}}
    )
    ref = write_doc(tmp_path, doc)
    assert run(["solve", "--scenario", ref, "--out", str(tmp_path / "o")]) == 3
    assert "options.solve.rhs[0].at" in capsys.readouterr().err


@pytest.mark.parametrize(
    "options, path",
    [
        ({"solve": {"rhs": [{"at": "a", "value": [1, 0]}]}}, "options.solve.rhs[0].at"),
        ({"solve": {"rhs": [{"at": 3, "value": [1, 0, 0]}]}}, "options.solve.rhs[0].value"),
        ({"solve": {"rhs": [{"at": 3, "value": ["x", 0]}]}}, "options.solve.rhs[0].value"),
        ({"solve": {"rhs": [{"at": 3, "value": [1, 0], "t": 0}]}}, "options.solve.rhs[0].t"),
        ({"solve": {"rhs": {"kind": "seeded_random", "count": "3"}}}, "options.solve.rhs.count"),
        ({"solve": {"rhs": {"kind": "seeded_random", "count": 0}}}, "options.solve.rhs.count"),
        ({"solve": {"rhs": "noise"}}, "options.solve.rhs"),
    ],
)
def test_malformed_solve_forcing_exits_three_naming_the_field(tmp_path, capsys, options, path):
    ref = write_doc(tmp_path, saddle_doc(options=options))
    assert run(["solve", "--scenario", ref, "--out", str(tmp_path / "o")]) == 3
    err = capsys.readouterr().err
    assert f"scenario field '{path}'" in err and "Traceback" not in err
    assert not (tmp_path / "o" / "report.json").exists()


@pytest.mark.parametrize("solve", [[], True, None, 7])
def test_solve_options_that_are_not_an_object_exit_three(tmp_path, capsys, solve):
    ref = write_doc(tmp_path, saddle_doc(options={"solve": solve}))
    for command in ("solve", "spectrum"):
        assert run([command, "--scenario", ref, "--out", str(tmp_path / "o")]) == 3
        err = capsys.readouterr().err
        assert err == "error: scenario field 'options.solve': expected an object\n"


@pytest.mark.parametrize("gap_ratio", [0.5, 1.0])
def test_gap_ratio_at_most_one_exits_three_naming_the_field(tmp_path, capsys, gap_ratio):
    ref = write_doc(tmp_path, saddle_doc(tolerances={"gap_ratio": gap_ratio}))
    assert run(["projectors", "--scenario", ref, "--out", str(tmp_path / "o")]) == 3
    err = capsys.readouterr().err
    assert "scenario field 'tolerances.gap_ratio'" in err and "Traceback" not in err


@pytest.mark.parametrize(
    "command, name, options, path",
    [
        ("index", "autonomous-saddle", {"lambdas": []}, "options.lambdas"),
        ("spectrum", "realization-mobius", {"lambdas": []}, "options.lambdas"),
        ("certify", "system2-mobius", {"f3_window": [2, 30]}, "options.f3_window"),
        ("certify", "system2-mobius", {"localize_window": [-30, -2]}, "options.localize_window"),
        ("index", "mobius-double", {"index_window": [1, 30]}, "options.index_window"),
        ("index", "mobius-double", {"index_window": [-3, 3]}, "options.index_window"),
        ("index", "mobius-double", {"index_window": [-30, 3]}, "options.index_window"),
        ("certify", "system2-mobius", {"f3_window": [-2, 30]}, "options.f3_window"),
        ("certify", "system2-mobius", {"anchor_plus": -1}, "options.anchor_plus"),
        ("class", "realization-mobius", {"anchor_minus": 0}, "options.anchor_minus"),
        ("projectors", "autonomous-saddle", {"anchor": 1000000}, "options.anchor"),
        # runs that leave the field window from an anchor inside it
        ("projectors", "autonomous-saddle", {"anchor": 9990}, "options.anchor"),
        ("projectors", "autonomous-saddle", {"length": 100000}, "options.length"),
        ("class", "realization-mobius", {"anchor_plus": 9999}, "options.anchor_plus"),
        ("solve", "autonomous-saddle", {"solve": {"anchor": 1000000}}, "options.solve.anchor"),
    ],
)
def test_out_of_range_options_exit_three_naming_the_field(
    tmp_path, capsys, command, name, options, path
):
    doc = builtin_document(name)
    doc.setdefault("options", {}).update(options)
    ref = write_doc(tmp_path, doc)
    assert run([command, "--scenario", ref, "--out", str(tmp_path / "o")]) == 3
    err = capsys.readouterr().err
    assert f"scenario field '{path}'" in err and "Traceback" not in err


def test_shortest_windows_the_loader_accepts_run(tmp_path):
    # the loader's bound is the library's own fitting threshold
    k = MIN_FIT_STEPS
    ref = write_doc(tmp_path, saddle_doc(options={"index_window": [-k, k]}))
    assert run(["index", "--scenario", ref, "--out", str(tmp_path / "o")]) == 0
    assert report_of(tmp_path / "o")["results"]["per_lambda"][0]["index"] == 0
    doc = builtin_document("system2-mobius")
    doc["options"].update(f3_window=[-k, k], localize=False)
    ref = write_doc(tmp_path, doc)
    # the window is too short to decide F3, but the check runs on every sample
    assert run(["certify", "--scenario", ref, "--out", str(tmp_path / "c")]) in (0, 2)
    assert len(report_of(tmp_path / "c")["results"]["f3_verdicts"]) == 16


def test_a_narrow_tabulated_window_serves_the_commands_whose_runs_fit(tmp_path, capsys):
    values = np.broadcast_to(np.diag([0.5, 2.0]), (121, 2, 2))
    field = {"kind": "tabulated", "window": [-60, 60], "shape": [1, 121, 2]}
    field["values"] = [float(x) for x in values.ravel()]
    doc = saddle_doc(field=field, options={"index_window": [-10, 10]})
    ref = write_doc(tmp_path, doc)
    # index reads [-50, 49] and projectors [0, 59] at horizon 40
    for command in ("index", "projectors"):
        assert run([command, "--scenario", ref, "--out", str(tmp_path / command)]) == 0
    # spectrum's runs of 2 horizons read [-80, 79]; a single horizon would fit
    assert run(["spectrum", "--scenario", ref, "--out", str(tmp_path / "spectrum")]) == 3
    err = capsys.readouterr().err
    assert "scenario field 'horizon'" in err and "[0, 79]" in err
    doc["options"]["length"] = 60
    ref = write_doc(tmp_path, doc)
    assert run(["projectors", "--scenario", ref, "--out", str(tmp_path / "o")]) == 3
    err = capsys.readouterr().err
    assert "scenario field 'options.length'" in err and "[0, 99]" in err
    assert "Traceback" not in err


def test_class_fails_with_exit_2_when_a_bundle_rank_jumps_along_the_loop(tmp_path, capsys):
    # saddles, but samples 1 and 2 contract in both directions: im P+ jumps from rank 1 to 2
    values = np.tile(np.diag([0.5, 2.0]), (8, 121, 1, 1))
    values[1:3] = np.diag([0.5, 0.5])
    field = {"kind": "tabulated", "window": [-60, 60], "shape": [8, 121, 2]}
    field["values"] = [float(x) for x in values.ravel()]
    ref = write_doc(tmp_path, saddle_doc(loop={"kind": "circle", "n": 8}, field=field))
    assert run(["class", "--scenario", ref, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "projector rank jumps from 1 to 2 between loop samples 0 and 1" in err
    assert "Traceback" not in err


def test_spectrum_names_the_sample_a_per_sample_run_names(tmp_path, capsys, monkeypatch):
    # the realized realization-mobius table with non-finite entries on both runs
    # of sample 5 and on the plus run of sample 9: a batch names sample 5's plus
    # run entry, as sample 5's spectrum alone does
    bad = {(5, -30), (5, 50), (9, 10)}
    build = Scenario.build_field

    def build_field(self):
        field = build(self)

        def evaluate(lams, times):
            values = np.array(field.evaluator(lams, times))
            for s, lam in enumerate(lams.tolist()):
                for i, n in enumerate(times.tolist()):
                    if (lam, n) in bad:
                        values[s, i, 0, 0] = np.nan
            return values

        return dataclasses.replace(field, evaluator=evaluate)

    assert run(["realize", "--scenario", "realization-mobius", "--out", str(tmp_path)]) == 0
    doc = json.loads((tmp_path / "realized.json").read_text())
    assert doc["field"]["kind"] == "tabulated"
    monkeypatch.setattr(Scenario, "build_field", build_field)

    def spectrum(lams):
        doc["options"] = {"lambdas": lams}
        path = write_doc(tmp_path, doc)
        capsys.readouterr()
        code = run(["spectrum", "--scenario", path, "--out", str(tmp_path / "out")])
        return code, capsys.readouterr().err

    got = spectrum(list(range(16)))
    assert got == spectrum([5])
    assert got[0] == 4 and "non-finite entries at (lam=5, n=50)" in got[1]
    assert spectrum([12, 9, 5]) == spectrum([9])
    assert spectrum([0, 12])[0] == 0


def test_class_and_certify_read_the_family_tolerances(tmp_path, capsys):
    doc = builtin_document("system2-mobius")
    doc["tolerances"] = {"zero_margin": 0.8}
    ref = write_doc(tmp_path, doc)
    for command in ("index", "projectors", "class", "certify"):
        assert run([command, "--scenario", ref, "--out", str(tmp_path / command)]) == 2
    assert report_of(tmp_path / "certify")["results"]["verdict"] == "hypotheses_failed"
    err = capsys.readouterr().err
    assert "error: parameter sample 0: no dichotomy detected at anchor 0" in err
    assert "(F2) half-line dichotomies are unavailable" in err
    # a gap ratio that F2 passes and two of F3's kernel counts cannot meet
    doc["tolerances"] = {"gap_ratio": 5e5}
    ref = write_doc(tmp_path, doc)
    assert run(["certify", "--scenario", ref, "--out", str(tmp_path / "gap")]) == 0
    results = report_of(tmp_path / "gap")["results"]
    assert results["f3_verdicts"][7] == results["f3_verdicts"][9] == "indeterminate"
    assert results["verdict"] == "bifurcation_certified"


@pytest.mark.parametrize("key", ["tau_inv", "sigma_reg", "zero_margin", "decay_tol", "solve_tol"])
@pytest.mark.parametrize("value", [0.0, 1.0, 5.0])
def test_tolerances_outside_the_unit_interval_exit_three_naming_the_field(
    tmp_path, capsys, key, value
):
    ref = write_doc(tmp_path, saddle_doc(tolerances={key: value}))
    assert run(["projectors", "--scenario", ref, "--out", str(tmp_path / "o")]) == 3
    err = capsys.readouterr().err
    assert f"scenario field 'tolerances.{key}'" in err and "must lie in (0, 1)" in err
    assert "Traceback" not in err


def test_the_retired_idempotency_tolerance_exits_three_as_an_unknown_field(tmp_path, capsys):
    # a family is its frames: no projector stack is checked, so nothing reads tau_proj
    ref = write_doc(tmp_path, saddle_doc(tolerances={"tau_proj": 1e-8}))
    assert run(["projectors", "--scenario", ref, "--out", str(tmp_path / "o")]) == 3
    err = capsys.readouterr().err
    assert "scenario field 'tolerances.tau_proj': unknown field" in err
    assert "Traceback" not in err


def tabulated_doc(entry) -> dict:
    """Saddle on a 3-time tabulated window with value 5 replaced by `entry`."""
    values = [float(x) for x in np.broadcast_to(np.diag([0.5, 2.0]), (3, 2, 2)).ravel()]
    values[5] = entry
    field = {"kind": "tabulated", "window": [-1, 1], "shape": [1, 3, 2], "values": values}
    return saddle_doc(field=field)


def autonomous_doc(matrix) -> dict:
    return saddle_doc(field={"kind": "autonomous", "matrix": matrix})


def quadratic(amplitude) -> dict:
    return {"kind": "quadratic_decaying", "amplitude": amplitude}


def system2_field_doc(**field) -> dict:
    doc = system2_doc(1, 1, {"kind": "none"})
    doc["field"].update(field)
    return doc


@pytest.mark.parametrize(
    "doc, path",
    [
        (autonomous_doc([[0.5, {}], [0, 2]]), "field.matrix[0][1]"),
        (autonomous_doc([[0.5, 0], 3.0]), "field.matrix[1]"),
        (autonomous_doc([[0.5, 0], ["x", 2]]), "field.matrix[1][0]"),
        (autonomous_doc([[True, 0], [0, 2]]), "field.matrix[0][0]"),
        (autonomous_doc([[10**400, 0], [0, 2]]), "field.matrix[0][0]"),
        (tabulated_doc({}), "field.values[5]"),
        (tabulated_doc([1, 2]), "field.values[5]"),
        (tabulated_doc("1"), "field.values[5]"),
        (tabulated_doc(float("nan")), "field.values[5]"),
        (system2_field_doc(residual=quadratic(True)), "field.residual.amplitude"),
        (system2_field_doc(residual=quadratic(float("inf"))), "field.residual.amplitude"),
        (system2_field_doc(r0=True), "field.r0"),
        (system2_field_doc(q=True), "field.q"),
        (saddle_doc(tolerances={"tau_inv": 10**400}), "tolerances.tau_inv"),
        (saddle_doc(options={"gamma_max": float("inf")}), "options.gamma_max"),
        (
            saddle_doc(options={"solve": {"rhs": [{"at": 3, "value": [10**400, 0]}]}}),
            "options.solve.rhs[0].value",
        ),
    ],
)
def test_non_numbers_exit_three_naming_the_entry(tmp_path, capsys, doc, path):
    ref = write_doc(tmp_path, doc)
    assert run(["index", "--scenario", ref, "--out", str(tmp_path / "o")]) == 3
    err = capsys.readouterr().err
    assert f"scenario field '{path}'" in err and "Traceback" not in err
    assert not (tmp_path / "o" / "report.json").exists()


# ---------------------------------------------------------------------------
# realize round trip


def test_realize_writes_a_loadable_tabulated_scenario(tmp_path):
    out = tmp_path / "out"
    assert run(["realize", "--scenario", "realization-mobius", "--out", str(out)]) == 0
    realized = Scenario.load(out / "realized.json")
    assert realized.field_kind == "tabulated"
    assert realized.name == "realization-mobius-realized"
    original = Scenario.builtin("realization-mobius").build_field()
    copy = realized.build_field()
    for lam in (0, 5, 11):
        for n in (-50, -8, 0, 8, 50):
            np.testing.assert_allclose(copy.matrix(lam, n), original.matrix(lam, n))


def test_realize_round_trip_reproduces_the_index_class(tmp_path):
    realize_out = tmp_path / "realize"
    run(["realize", "--scenario", "realization-mobius", "--out", str(realize_out)])
    class_a = tmp_path / "a"
    class_b = tmp_path / "b"
    run(["class", "--scenario", "realization-mobius", "--out", str(class_a)])
    run(
        [
            "class",
            "--scenario",
            str(realize_out / "realized.json"),
            "--out",
            str(class_b),
        ]
    )
    cls_a = report_of(class_a)["results"]["index_class"]
    cls_b = report_of(class_b)["results"]["index_class"]
    assert (cls_a["virtual_rank"], cls_a["delta_w1"]) == (0, 1)
    assert (cls_b["virtual_rank"], cls_b["delta_w1"]) == (0, 1)


def test_realize_rejects_non_realization_scenarios(tmp_path, capsys):
    code = run(["realize", "--scenario", "autonomous-saddle", "--out", str(tmp_path)])
    assert code == 3
    assert "realization" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# certify with localization


def test_certified_bifurcation_localizes_near_the_halfway_angle(tmp_path):
    out = tmp_path / "out"
    code = run(
        [
            "certify",
            "--scenario",
            "system2-mobius",
            "--out",
            str(out),
            "--format",
            "csv",
        ]
    )
    assert code == 0
    results = report_of(out)["results"]
    assert results["verdict"] == "bifurcation_certified"
    assert results["index_class"]["delta_w1"] == 1
    candidates = results["candidates"]
    assert candidates, "localization found no solutions"
    # the loop has 16 samples; the fibre flip sits at sample 8 (angle pi)
    for cand in candidates:
        assert abs(cand["lambda"] - 8) <= 2
        assert 0.0 < cand["sup"] < 1.0
    solution_files = sorted(p.name for p in out.iterdir() if p.name.startswith("solution"))
    assert solution_files == [f"solution_{i:03d}.csv" for i in range(len(candidates))]


def test_a_refined_localization_builds_the_refined_system_once(tmp_path, capsys, monkeypatch):
    builds = []
    nonlinear = Scenario._nonlinear

    def counted(self, spec, n_samples):
        builds.append(n_samples)
        return nonlinear(self, spec, n_samples)

    monkeypatch.setattr(Scenario, "_nonlinear", counted)
    doc = builtin_document("system2-mobius")
    doc.setdefault("options", {}).update(localize=True, grid_refinement=2)
    out = tmp_path / "out"
    ref = write_doc(tmp_path, doc)
    assert run(["certify", "--scenario", ref, "--format", "csv", "--out", str(out)]) == 0
    capsys.readouterr()
    assert builds == [16, 32]
    results = report_of(out)["results"]
    assert results["verdict"] == "bifurcation_certified"
    # the 32-sample loop flips its fibre at sample 16 (angle pi)
    assert [cand["lambda"] for cand in results["candidates"]] == [16, 16, 16]
    for i in range(3):
        header, rows = read_csv(out / f"solution_{i:03d}.csv")
        assert header[0] == "param_0"
        assert {float(row[0]) for row in rows} == {np.pi}


def test_localization_is_skipped_when_not_certified(tmp_path, capsys):
    doc = system2_doc(1, 1, {"kind": "quadratic_decaying", "amplitude": 1.0})
    doc["options"] = {"localize": True}
    ref = write_doc(tmp_path, doc)
    out = tmp_path / "o"
    assert run(["certify", "--scenario", ref, "--out", str(out)]) == 0
    capsys.readouterr()
    report = report_of(out)
    assert report["results"]["candidates"] == []
    assert any("localization skipped" in w for w in report["warnings"])


def test_certify_warns_when_localization_keeps_no_candidate(tmp_path, capsys):
    # q = 0.9: certified, but on the default +-30 window every Gauss-Newton run
    # converges to the trivial sequence; the report says so, not an empty list alone
    doc = builtin_document("system2-mobius")
    doc["field"]["q"] = 0.9
    ref = write_doc(tmp_path, doc)
    assert run(["certify", "--scenario", ref, "--out", str(tmp_path / "q09")]) == 0
    report = report_of(tmp_path / "q09")
    assert report["results"]["verdict"] == "bifurcation_certified"
    assert report["results"]["candidates"] == []
    (line,) = [w for w in report["warnings"] if w.startswith("localization")]
    assert line == (
        "localization on [-30, 30] kept no candidate: of 3 Gauss-Newton runs, 0 diverged "
        "or stalled, 3 converged to a sequence of sup-norm at most 1.0e-05 (trivial) and "
        "0 to one of sup-norm at least r0 = 1 (outside the trust ball)"
    )
    assert f"warning: {line}" in capsys.readouterr().err
    # a localization that keeps candidates adds no such line
    assert run(["certify", "--scenario", "system2-mobius", "--out", str(tmp_path / "q05")]) == 0
    report = report_of(tmp_path / "q05")
    assert report["results"]["candidates"]
    assert not [w for w in report["warnings"] if w.startswith("localization")]


def tabulated_mobius_builtin(name: str, q: float, window=(-120, 120)) -> dict:
    """A Moebius builtin's linear field at contraction factor q, as a tabulated document.

    Both `realization-mobius` and `system2-mobius` (whose residual has
    no linear part) have q * Pi + (1/q) * (I - Pi) beyond kappa = +-8,
    with Pi the Moebius fibre ahead and the first axis behind, and the
    identity between.
    """
    doc = builtin_document(name)
    assert doc["field"]["stable_ahead"] == {"kind": "mobius"}
    n = doc["loop"]["n"]
    half = np.pi * np.arange(n) / n
    fibre = np.stack([np.cos(half), np.sin(half)], axis=1)
    ahead = fibre[:, :, None] * fibre[:, None, :]
    behind = np.broadcast_to(np.diag([1.0, 0.0]), ahead.shape)
    times = np.arange(window[0], window[1] + 1)
    values = np.broadcast_to(np.eye(2), (n, len(times), 2, 2)).copy()
    for pi, where in ((ahead, times > 8), (behind, times < -8)):
        values[:, where] = (q * pi + (1.0 / q) * (np.eye(2) - pi))[:, None]
    doc["field"] = {
        "kind": "tabulated",
        "window": list(window),
        "shape": [n, len(times), 2],
        "values": values.ravel().tolist(),
    }
    doc.pop("options", None)
    return doc


@pytest.mark.parametrize(
    "name, command, q",
    [
        ("realization-mobius", "index", 1e-20),
        ("system2-mobius", "index", 1e-20),
        ("realization-mobius", "projectors", 1e-40),
        ("system2-mobius", "projectors", 1e-200),
    ],
)
def test_overflowing_transition_chains_exit_four_naming_the_chain(
    tmp_path, capsys, name, command, q
):
    # at q <= 1e-20 the kernel chains of the fit overflow within the family;
    # LAPACK's SVD never sees them, and the fit names the first one.  The
    # loader refuses such q for the builtin constructions, so the builtin's
    # linear matrices at q come as a tabulated field
    ref = write_doc(tmp_path, tabulated_mobius_builtin(name, q))
    assert run([command, "--scenario", ref, "--out", str(tmp_path / "o")]) == 4
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert re.search(
        r"^error: the kernel transition chain at family offset \d+, \d+ steps is not finite$",
        err,
        re.MULTILINE,
    ), err


@pytest.mark.parametrize("q", [1e-9, 1e-20])
@pytest.mark.parametrize("name", ["realization-mobius", "system2-mobius"])
def test_a_contraction_factor_that_rounding_destroys_exits_three_naming_field_q(
    tmp_path, capsys, name, q
):
    # below MIN_CONTRACTION the rounding of (1/q)(I - Pi) swamps the stable
    # eigenvalue q, so the loader refuses q before anything is built
    doc = builtin_document(name)
    doc["field"]["q"] = q
    ref = write_doc(tmp_path, doc)
    for command in ("index", "class"):
        assert run([command, "--scenario", ref, "--out", str(tmp_path / command)]) == 3
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert f"scenario field 'field.q': contraction factor {q!r} is below 1.5e-06" in err
    assert MIN_CONTRACTION == pytest.approx(1.49e-6, rel=1e-2)
    with pytest.raises(DomainError, match="below 1.5e-06"):
        construct_hyperbolic_family(mobius_bundle(ParameterLoop.circle(16)), q)


def test_a_small_admissible_contraction_factor_keeps_the_class(tmp_path):
    doc = builtin_document("realization-mobius")
    doc["field"]["q"] = 1e-3
    ref = write_doc(tmp_path, doc)
    assert run(["class", "--scenario", ref, "--out", str(tmp_path / "o")]) == 0
    index_class = report_of(tmp_path / "o")["results"]["index_class"]
    assert index_class["virtual_rank"] == 0 and index_class["delta_w1"] == 1


def test_spectrum_warns_about_rates_outside_the_gamma_grid(tmp_path, capsys):
    # q = 0.04: the spectral points 0.04 and 25 lie outside the default grid
    # [0.05, 20], so the scan finds no interval; the report says why
    doc = builtin_document("realization-mobius")
    doc["field"]["q"] = 0.04
    doc["options"] = {"lambdas": [0, 5]}
    ref = write_doc(tmp_path, doc)
    assert run(["spectrum", "--scenario", ref, "--out", str(tmp_path / "o")]) == 0
    report = report_of(tmp_path / "o")
    assert [p["intervals"] for p in report["results"]["per_lambda"]] == [[], []]
    assert report["warnings"] == [
        f"lambda {lam}: growth rates outside the gamma grid [0.05, 20] are spectral points "
        "the grid does not scan: plus side 0.04, 25; minus side 0.04, 25"
        for lam in (0, 5)
    ]
    err = capsys.readouterr().err
    assert all(f"warning: {line}" in err for line in report["warnings"])
    # rates inside the grid add no warning
    assert run(["spectrum", "--scenario", "realization-mobius", "--out", str(tmp_path / "b")]) == 0
    assert report_of(tmp_path / "b")["warnings"] == []


def at_one_warning(lam: int) -> str:
    return f"lambda {lam}: the verdict at gamma = 1 is indeterminate, so admits_ed is undecided"


@pytest.mark.parametrize("name", builtin_names())
def test_spectrum_admits_a_dichotomy_exactly_where_index_finds_an_invertible_operator(
    tmp_path, name
):
    # both read one principal-angle rule for the meet of the decaying subspaces
    assert run(["spectrum", "--scenario", name, "--out", str(tmp_path / "s")]) == 0
    assert run(["index", "--scenario", name, "--out", str(tmp_path / "i")]) == 0
    spectra = report_of(tmp_path / "s")["results"]["per_lambda"]
    reports = report_of(tmp_path / "i")["results"]["per_lambda"]
    assert [s["lambda"] for s in spectra] == [r["lambda"] for r in reports]
    invertible = [r["index"] == 0 and r["dim_ker"] == 0 for r in reports]
    assert [s["admits_ed"] for s in spectra] == invertible


def test_spectrum_flags_the_near_tangent_samples_that_index_refuses(tmp_path, capsys):
    # at n = 256 the Moebius fibre beside theta = pi makes 1 - cos = 7.5e-5 with
    # the behind complement, inside the band the meet rule refuses
    doc = builtin_document("realization-mobius")
    doc["loop"]["n"] = 256
    doc["options"] = {"lambdas": [126, 127, 128, 129, 130]}
    ref = write_doc(tmp_path, doc)
    assert run(["spectrum", "--scenario", ref, "--out", str(tmp_path / "o")]) == 0
    report = report_of(tmp_path / "o")
    per = report["results"]["per_lambda"]
    assert [p["admits_ed"] for p in per] == [True, False, False, False, True]
    assert ["indeterminate" in p["verdicts"] for p in per] == [False, True, False, True, False]
    assert [w for w in report["warnings"] if "gamma = 1" in w] == [
        at_one_warning(127), at_one_warning(129)
    ]
    scenario = Scenario.from_dict(doc)
    window, field = scenario.options["index_window"], scenario.build_field()
    for outcome in whole_line_index(field, [127, 129], window, scenario.horizon):
        assert isinstance(outcome, IndeterminateError)
        assert "principal angle between the decaying subspaces is ambiguous" in str(outcome)
    assert run(["index", "--scenario", ref, "--out", str(tmp_path / "i")]) == 4
    assert "principal angle between the decaying subspaces is ambiguous" in capsys.readouterr().err


def test_spectrum_warns_when_its_verdict_at_one_is_undecided(tmp_path):
    # q = 0.97: the rate gap (about 0.06) is under log(1e3) / 80, so the cell
    # holding gamma = 1 is indeterminate on every sample; it lies inside the
    # intervals, so admits_ed reads false, and the report says it is undecided
    doc = builtin_document("realization-mobius")
    doc["field"]["q"] = 0.97
    ref = write_doc(tmp_path, doc)
    assert run(["spectrum", "--scenario", ref, "--out", str(tmp_path / "o")]) == 0
    report = report_of(tmp_path / "o")
    per = report["results"]["per_lambda"]
    assert len(per) == 16 and not any(p["admits_ed"] for p in per)
    assert report["warnings"] == [at_one_warning(p["lambda"]) for p in per]
