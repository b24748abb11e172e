"""Tests of the benchmark itself: generator, oracle, span arithmetic, tracing.

Run from the repository root: python3 -m pytest perfbench/tests -q
"""

import json
import shutil
import subprocess
import sys
from collections import Counter

import numpy as np
import pytest

import run
import workloads as wl
from homindex import bifurcation, bundle, cli, dichotomy, fredholm
from homindex.field import ParameterLoop, direct_sum, mobius_bundle, trivial_bundle
from homindex.scenario import Scenario
from tracer import Span, Tracer, layer_metrics, self_times, traced_functions

@pytest.mark.parametrize("name", wl.WORKLOADS)
@pytest.mark.parametrize("seed", [0, 1, 7, 12345])
def test_every_generated_document_is_a_valid_scenario(name, seed):
    work = wl.make_workload(name, seed)
    assert work.documents
    for doc in work.documents.values():
        sc = Scenario.from_dict(doc)
        assert wl.Q_RANGE[0] <= sc.data["field"]["q"] <= wl.Q_RANGE[1]
    assert wl.make_workload(name, seed) == work  # the same seed gives the same inputs


def test_samples_per_pass_are_fixed_by_the_generator():
    counts = {name: wl.make_workload(name, 3).samples_per_pass for name in wl.WORKLOADS}
    assert counts == {"certify-loop": 64, "loop-sweep": 512, "index-wide": 6}


def _class_report(tmp_path, builtin):
    out = tmp_path / builtin
    assert cli.run(["class", "--scenario", builtin, "--out", str(out)]) == 0
    return json.loads((out / "report.json").read_text())


@pytest.mark.parametrize(
    "builtin, ahead, behind, expected",
    [
        ("realization-mobius", wl.mobius(2), wl.trivial(2, 1), (0, 1)),
        ("realization-trivial", wl.trivial(2, 1), wl.trivial(2, 1), (0, 0)),
        ("mobius-double", wl.mobius(4), wl.trivial(4, 2), (0, 0)),
    ],
)
def test_oracle_reproduces_criterion_07_on_the_builtins(tmp_path, builtin, ahead, behind, expected):
    expect = {
        "virtual_rank": ahead.rank - behind.rank,
        "delta_w1": ahead.w1 ^ behind.w1,
        "rank_plus": ahead.rank,
        "rank_minus": behind.rank,
    }
    assert (expect["virtual_rank"], expect["delta_w1"]) == expected
    inv = wl.Invocation("class", builtin, (), expect, 16)
    report = _class_report(tmp_path, builtin)
    assert wl.check_report(inv, 0, report) == []

    flipped = dict(expect, delta_w1=1 - expect["delta_w1"])
    assert wl.check_report(wl.Invocation("class", builtin, (), flipped, 16), 0, report)
    assert wl.check_report(inv, 3, report) == ["exit code 3, expected 0"]


def test_spectrum_of_a_realization_passes_the_loop_sweep_oracle(tmp_path):
    """The loop-sweep spectrum check on a small realization.

    Fails at this commit: the scan's rates average the QR logs over
    [0, horizon/2), which holds the identity middle of the realization,
    so the intervals sit near q^0.55 and q^-0.55 and miss q and 1/q.
    """
    n, q = 16, 0.5
    ahead, behind = wl.mobius(2), wl.trivial(2, 1)
    doc = wl._realization("spectrum-check", ahead, behind, q, n, 0, {})
    path = tmp_path / "realization.json"
    path.write_text(json.dumps(doc))
    expect = {
        "q": q,
        "lambdas": list(range(n)),
        "admits_ed": [wl.meet_with_complement(ahead, behind, lam, n) == 0 for lam in range(n)],
    }
    out = tmp_path / "out"
    code = cli.run(["spectrum", "--scenario", str(path), "--out", str(out)])
    report = json.loads((out / "report.json").read_text())
    assert wl.check_report(wl.Invocation("spectrum", path.name, (), expect, n), code, report) == []


def test_closed_form_meet_matches_the_bundle_frames():
    n = 16
    loop = ParameterLoop.circle(n)
    cases = [
        (wl.mobius(2), wl.trivial(2, 1), mobius_bundle(loop), trivial_bundle(loop, 2, 1)),
        (
            wl.mobius(4),
            wl.trivial(4, 2),
            direct_sum(mobius_bundle(loop), mobius_bundle(loop)),
            trivial_bundle(loop, 4, 2),
        ),
        (wl.trivial(4, 3), wl.trivial(4, 1), trivial_bundle(loop, 4, 3), trivial_bundle(loop, 4, 1)),
    ]
    for ahead, behind, ahead_frames, behind_frames in cases:
        for lam in range(n):
            a = ahead_frames.fibre(lam)
            b = behind_frames.fibre(lam)
            complement = np.eye(a.shape[0]) - b @ b.T
            cosines = np.linalg.svd(a.T @ complement @ a, compute_uv=False)
            numeric = int((cosines > 1.0 - 1e-9).sum())
            assert wl.meet_with_complement(ahead, behind, lam, n) == numeric, (ahead, lam)


def test_self_times_on_a_synthetic_nested_trace():
    #   0 run [0, 10]
    #   +- 1 family [1, 5]
    #   |  +- 2 matrix [2, 3]
    #   |  +- 3 matrix [3.5, 4]
    #   +- 4 kernel [6, 9]
    #      +- 5 matrix [7, 8]
    spans = [
        Span("cli.run", 0.0, 10.0, -1, 0),
        Span("dichotomy.build_projector_family", 1.0, 5.0, 0, 0),
        Span("field.matrix", 2.0, 3.0, 1, 0),
        Span("field.matrix", 3.5, 4.0, 1, 0),
        Span("fredholm.kernel_cokernel", 6.0, 9.0, 0, 0),
        Span("field.matrix", 7.0, 8.0, 4, 0),
    ]
    assert self_times(spans) == [3.0, 2.5, 1.0, 0.5, 2.0, 1.0]
    assert sum(self_times(spans)) == 10.0
    # a window that starts mid-trace treats spans before it as outside
    assert self_times(spans, 4, 6) == [2.0, 1.0]
    m = layer_metrics(spans, 0, len(spans))
    assert m["cli.self_s"] == 3.0
    assert m["field.matrix_calls"] == 3
    assert m["field.matrix_s"] == 2.5
    assert m["dichotomy.family_s"] == 2.5
    assert m["fredholm.kernel_cokernel_s"] == 2.0


def test_linalg_calls_are_attributed_through_the_span_tree():
    #   0 localize (3 lstsq)
    #   +- 1 family (1 lstsq, 2 qr)
    #   2 verify_ed (5 lstsq), outside localize
    spans = [
        Span("bifurcation.localize_bifurcations", 0.0, 4.0, -1, 0, Counter(lstsq=3)),
        Span("dichotomy.build_projector_family", 1.0, 2.0, 0, 0, Counter(lstsq=1, qr=2)),
        Span("dichotomy.verify_ed", 5.0, 6.0, -1, 0, Counter(lstsq=5)),
    ]
    m = layer_metrics(spans, 0, len(spans))
    assert m["bifurcation.newton_steps"] == 4
    assert m["dichotomy.qr_calls"] == 2
    assert m["bifurcation.candidates_per_newton_step"] == 0.0


def test_traced_reports_are_byte_identical_and_bindings_are_restored(tmp_path):
    argv = ["certify", "--scenario", "system2-mobius", "--threads", "1"]
    assert cli.run(argv + ["--out", str(tmp_path / "plain")]) == 0
    originals = {name: owner.__dict__[attr] for name, owner, attr in traced_functions()}
    linalg_qr = np.linalg.qr
    tracer = Tracer()
    tracer.install()
    try:
        assert bifurcation.build_projector_family is not originals["dichotomy.build_projector_family"]
        assert cli.build_projector_family is dichotomy.build_projector_family
        assert bundle.build_projector_family is dichotomy.build_projector_family
        assert fredholm.verify_ed is dichotomy.verify_ed
        assert cli.run(argv + ["--out", str(tmp_path / "traced")]) == 0
    finally:
        tracer.uninstall()
    plain = (tmp_path / "plain" / "report.json").read_bytes()
    assert (tmp_path / "traced" / "report.json").read_bytes() == plain
    for name, owner, attr in traced_functions():
        assert owner.__dict__[attr] is originals[name]
    assert np.linalg.qr is linalg_qr
    assert bifurcation.build_projector_family is dichotomy.build_projector_family

    m = layer_metrics(tracer.spans, 0, len(tracer.spans))
    assert m["bifurcation.f3_checks"] == 16
    assert m["bifurcation.candidates"] >= 1
    assert m["dichotomy.qr_calls"] > 0
    assert m["field.matrix_calls"] > m["field.value_calls"] > 0
    assert 0.0 < m["dichotomy.family_reuse_ratio"] <= 1.0
    assert all(s.end >= s.start for s in tracer.spans)
    assert {s.invocation for s in tracer.spans} == {-1}


def test_benchmark_json_names_every_metric_the_runs_print():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert spec["command"] == ["python3", "perfbench/run.py"]
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    assert e2e == run.END_TO_END_UNITS
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    printed = [f"{c}_s" for c in run.COMMANDS] + ["error_rate", "cli.bytes_written"]
    printed += list(layer_metrics([], 0, 0)) + ["trace.overhead_s"]
    assert per_layer == {name: run.unit_of(name) for name in printed}
    assert {w["name"] for w in spec["workloads"]} <= set(wl.WORKLOADS)


def test_run_fails_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "index-wide", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
