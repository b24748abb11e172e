"""The structured truncation solver against the dense oracle.

`fredholm.truncated_spectra` counts the kernel of a boundary-conditioned
truncation from a block QR factor and inverse subspace iteration,
without forming the matrix, against a null cut of 1e-8 times a
block-norm scale.  These tests compare its null counts, gap verdicts
and smallest kept value (to the 3 digits reports print) with a full SVD
of the densely assembled matrix (`helpers.boundary_conditioned`), its
scale with the closed form on that matrix's blocks
(`helpers.block_norm_scale`) and with the largest singular value it
bounds within a factor of two, and check that no case needed the dense
fallback.
"""

import json
import tracemalloc

import numpy as np
import pytest

from homindex import cli, fredholm
from homindex.bifurcation import (
    CertifyOptions,
    PerturbedSystemSpec,
    certify_bifurcation,
    check_F3,
    linearize_at_zero,
)
from homindex.dichotomy import GAP_RATIO, verify_ed, whole_line_families
from homindex.errors import HomindexError, IndeterminateError
from homindex.field import (
    DiscreteVectorField,
    ParameterLoop,
    direct_sum,
    mobius_bundle,
    realization_field,
    trivial_bundle,
)
from homindex.scenario import Scenario, builtin_document, builtin_names

from helpers import (
    TEMPLE_SLACK,
    assert_decided,
    assert_scale,
    block_norm_scale,
    boundary_conditioned,
    projector_at,
    random_hyperbolic,
)
from test_bifurcation import decaying_quadratic


@pytest.fixture
def no_fallback(monkeypatch):
    def refuse(sec, i):
        raise AssertionError(f"sample {i} fell back to the dense SVD")

    monkeypatch.setattr(fredholm, "_dense_spectrum", refuse)


def dense_null_count(svals: np.ndarray, scale: float, gap_ratio: float):
    """Oracle: the grouped singular-value rule on a full descending spectrum.

    The cut is 1e-8 * `scale`.  Returns the null count, or None where
    the rule is indeterminate.
    """
    cut = 1e-8 * scale
    zero = svals < cut
    if zero.any():
        if svals[~zero].min() < max(svals[zero].max(), 1e-15 * scale) * gap_ratio:
            return None
    elif svals.min() < cut * gap_ratio:
        return None
    return int(zero.sum())


def oracle_spectrum(field, lam, window, fam_plus, fam_minus) -> tuple[np.ndarray, float]:
    """The dense truncation's singular values, descending, and its block-norm scale."""
    stacked = boundary_conditioned(field, lam, window, fam_plus, fam_minus)
    return np.linalg.svd(stacked, compute_uv=False), block_norm_scale(stacked, field.dim)


def assert_matches_oracle(field, lams, window, horizon=40, gap_ratio=GAP_RATIO):
    """Compare every sample's structured spectrum summary with the dense oracle."""
    plus, minus = whole_line_families(field, lams, window, horizon)
    spectra = fredholm.truncated_spectra(field, lams, window, plus, minus, gap_ratio)
    counts = []
    for lam, fam_plus, fam_minus, spectrum in zip(lams, plus, minus, spectra):
        assert not isinstance(fam_plus, HomindexError), fam_plus
        assert not isinstance(fam_minus, HomindexError), fam_minus
        svals, scale = oracle_spectrum(field, lam, window, fam_plus, fam_minus)
        expected = dense_null_count(svals, scale, gap_ratio)
        try:
            got = fredholm._null_space(spectrum, gap_ratio)
        except IndeterminateError:
            got = None
        assert got == expected, (lam, got, expected)
        n_zero = int((svals < 1e-8 * scale).sum())
        ascending = svals[::-1]
        assert len(spectrum.smallest) == n_zero + 1
        assert_decided(spectrum, ascending[: n_zero + 1], svals[0])
        assert_scale(spectrum.scale, scale, svals[0])
        counts.append(got)
    return counts


def builtin_cases():
    for name in builtin_names():
        for window in ("index_window", "f3_window"):
            yield name, window


@pytest.mark.parametrize("name, window", list(builtin_cases()))
def test_every_builtin_matches_the_dense_oracle(name, window, no_fallback):
    # F3 reads the linearization along the trivial branch; the linear
    # builtins are checked on their own field at the F3 window too
    scenario = Scenario.builtin(name)
    if window == "f3_window" and scenario.data["field"]["kind"] == "system2":
        f = linearize_at_zero(scenario.build_nonlinear())
    else:
        f = scenario.build_field()
    lams = scenario.options["lambdas"]
    assert_matches_oracle(f, lams, tuple(scenario.options[window]), scenario.horizon)


def asymptotically_hyperbolic(seed: int, d: int, reach: int = 200) -> DiscreteVectorField:
    """A_n = H+ for n >= 0 and H- below, plus a decaying random bump, on [-reach, reach]."""
    rng = np.random.default_rng(seed)
    ahead = random_hyperbolic(rng, d)[0]
    behind = random_hyperbolic(rng, d)[0]
    times = np.arange(-reach, reach + 1)
    decay = 0.3 * np.exp(-np.abs(times) / 4.0)[:, None, None]
    table = np.where((times >= 0)[:, None, None], ahead, behind)
    table = table + decay * rng.standard_normal((len(times), d, d))

    def evaluate(lams, n):
        return np.broadcast_to(table[n + reach], (len(lams), len(n), d, d))

    return DiscreteVectorField(dim=d, evaluator=evaluate, window=(-reach, reach))


@pytest.mark.parametrize("d", [1, 2, 4])
def test_random_asymptotically_hyperbolic_fields_match_the_dense_oracle(d, no_fallback):
    checked = 0
    for seed in range(12):
        f = asymptotically_hyperbolic(1000 * d + seed, d)
        plus, minus = whole_line_families(f, [0], (-30, 30), 40)
        if any(isinstance(o, HomindexError) for o in plus + minus):
            continue  # no certified splitting for this draw
        assert_matches_oracle(f, [0], (-30, 30))
        checked += 1
    assert checked >= 6


def switching_field(ahead, behind) -> DiscreteVectorField:
    """diag(ahead) for n >= 0 and diag(behind) below."""
    a, b = np.diag(ahead), np.diag(behind)

    def evaluate(lams, n):
        one = np.where((n >= 0)[:, None, None], a, b)
        return np.broadcast_to(one, (len(lams),) + one.shape)

    return DiscreteVectorField(dim=len(ahead), evaluator=evaluate, window=(-200, 200))


CONTRACT, EXPAND = [0.3, 0.5, 0.7], [2.0, 3.0, 4.0]


@pytest.mark.parametrize(
    "ahead, behind, kernel",
    [
        (CONTRACT, CONTRACT, 0),  # rank d on both sides: I - P+(hi) is exactly zero
        (EXPAND, EXPAND, 0),  # rank 0 on both sides: P-(lo) is exactly zero
        (CONTRACT, EXPAND, 3),  # both blocks zero, every solution decays both ways
    ],
)
def test_zero_boundary_blocks_and_a_full_kernel(ahead, behind, kernel, no_fallback):
    f = switching_field(ahead, behind)
    assert assert_matches_oracle(f, [0], (-30, 30)) == [kernel]


def test_a_continuum_at_the_low_end_stops_on_the_residual(monkeypatch, no_fallback):
    # autonomous-saddle's small values crowd together (0.5012, 0.5050,
    # 0.5111, ...), so p = 5 columns need many inverse-iteration steps to
    # resolve the smallest one; its empty kernel is decided in a few, and
    # resolving the value continues that iteration on the residual test,
    # which ends it well before the cap with the oracle's value
    scenario = Scenario.builtin("autonomous-saddle")
    f = scenario.build_field()
    window = tuple(scenario.options["index_window"])
    plus, minus = whole_line_families(f, [0], window, scenario.horizon)
    steps = []
    ritz_step = fredholm._ritz_step

    def counting(sec, levels, x):
        steps.append(sec.count)
        return ritz_step(sec, levels, x)

    monkeypatch.setattr(fredholm, "_ritz_step", counting)
    (spectrum,) = fredholm.truncated_spectra(f, [0], window, plus, minus, GAP_RATIO)
    decided = len(steps)
    resolved = spectrum.resolved()
    monkeypatch.undo()
    assert decided <= 3
    assert 20 < len(steps) < fredholm._ITERATION_CAP
    assert fredholm._null_space(spectrum, GAP_RATIO) == 0
    svals = oracle_spectrum(f, 0, window, plus[0], minus[0])[0]
    assert_decided(spectrum, svals[::-1][:1], svals[0])
    assert abs(resolved.smallest[0] - svals[-1]) <= 1e-12 * svals[0]


@pytest.mark.parametrize("draw", range(8))
def test_no_section_with_a_null_value_is_decided_at_the_first_step(draw, monkeypatch, no_fallback):
    # a section with a null pair (d = 2, seed 10 of the random fields above;
    # kept value 0.267): from `_start`, and from `_start` moved by 1e-15 in
    # the later draws, the first step's Ritz pair above the null group is
    # rounding noise (1.61 with error estimate 0.50 from the unmoved start),
    # so only a later step may decide the count
    f = asymptotically_hyperbolic(2010, 2)
    plus, minus = whole_line_families(f, [0], (-30, 30), 40)
    start, rng = fredholm._start, np.random.default_rng(draw)

    def moved(width, d):
        x = start(width, d)
        return x if draw == 0 else x + 1e-15 * rng.standard_normal(x.shape)

    steps = []
    ritz_step = fredholm._ritz_step

    def counting(sec, levels, x):
        steps.append(sec.count)
        return ritz_step(sec, levels, x)

    monkeypatch.setattr(fredholm, "_start", moved)
    monkeypatch.setattr(fredholm, "_ritz_step", counting)
    (spectrum,) = fredholm.truncated_spectra(f, [0], (-30, 30), plus, minus, GAP_RATIO)
    assert len(steps) >= 2
    assert fredholm._null_space(spectrum, GAP_RATIO) == 2
    svals = oracle_spectrum(f, 0, (-30, 30), plus[0], minus[0])[0]
    assert_decided(spectrum, svals[::-1][:3], svals[0])


def test_the_dense_fallback_cuts_with_the_same_scale(monkeypatch):
    # with no inverse-iteration step allowed every sample falls back to the
    # dense SVD; its scale, null groups and kept values are the structured ones
    scenario = Scenario.builtin("mobius-double")
    f = scenario.build_field()
    lams = scenario.options["lambdas"]
    lo, hi = scenario.options["index_window"]
    plus, minus = whole_line_families(f, lams, (lo, hi), scenario.horizon)
    steps, errors = fredholm.assemble_truncated(f, lams, (lo, hi))
    assert not any(errors)
    first = np.stack([projector_at(fam, lo) for fam in minus])
    last = np.stack([np.eye(f.dim) - projector_at(fam, hi) for fam in plus])
    structured = fredholm._solve_spectra(steps, first, last, GAP_RATIO)
    monkeypatch.setattr(fredholm, "_ITERATION_CAP", 0)
    dense = fredholm._solve_spectra(steps, first, last, GAP_RATIO)
    monkeypatch.undo()
    assert sum(len(s.smallest) > 1 for s in dense) > 0  # some sample has a kernel
    for one, other in zip(structured, dense):
        assert one.scale == other.scale
        assert len(one.smallest) == len(other.smallest)
        assert other.error == 0.0 and other.resolved() is other
        assert_decided(one, other.smallest, one.scale)


def test_index_exits_four_on_the_first_indeterminate_sample(tmp_path, capsys):
    # sigma_min / sigma_max falls from 0.021 (sample 2) to 0.0035 at
    # sample 7 and rises to 0.014 at sample 12: with gap_ratio 5e5 the
    # empty-kernel rule refuses sample 7 only, and index must stop there
    # with the message the dense rule gives for that sample
    doc = builtin_document("realization-mobius")
    doc["options"] = {"lambdas": [0, 2, 7, 12]}
    doc["tolerances"] = {"gap_ratio": 5e5}
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))

    scenario = Scenario.load(path)
    f = scenario.build_field()
    window = tuple(scenario.options["index_window"])
    plus, minus = whole_line_families(f, [7], window, scenario.horizon)
    svals, scale = oracle_spectrum(f, 7, window, plus[0], minus[0])
    assert dense_null_count(svals, scale, 5e5) is None
    message = (
        f"the smallest singular value {svals[-1]:.3e} sits too close to the null "
        f"cutoff {1e-8 * scale:.3e} = 1e-8 x the block-norm scale {scale:.3e} to "
        "certify an empty kernel"
    )
    code = cli.run(["index", "--scenario", str(path), "--out", str(tmp_path / "out")])
    assert code == 4
    assert capsys.readouterr().err == f"error: {message}\n"


def test_f3_marks_only_the_indeterminate_sample():
    # sample 8 sits 1e-5 past the Moebius flip: the decaying subspaces
    # meet to within 5e-11 but the truncation's smallest value is above
    # the null cut and within gap_ratio of it
    angles = 2.0 * np.pi * np.arange(16) / 16
    angles[8] = np.pi + 1e-5
    loop = ParameterLoop(samples=angles[:, None], angular=True)
    a_field = realization_field(mobius_bundle(loop), trivial_bundle(loop, 2, 1), q=0.5)
    residual, residual_derivative = decaying_quadratic()
    f = PerturbedSystemSpec(
        a_field=a_field,
        residual=residual,
        residual_derivative=residual_derivative,
        r0=1.0,
    ).to_nonlinear()
    options = CertifyOptions(f3_window=(-30, 30))
    cert = certify_bifurcation(f, options)
    assert cert.f3_verdicts == ("pass",) * 8 + ("indeterminate",) + ("pass",) * 7

    lin = linearize_at_zero(f)
    check = check_F3(lin, 8, window=(-30, 30), horizon=options.horizon)
    plus, minus = whole_line_families(lin, [8], (-30, 30), options.horizon)
    svals, scale = oracle_spectrum(lin, 8, (-30, 30), plus[0], minus[0])
    assert check.message == (
        "could not certify the half-line splittings or the kernel count: the "
        f"smallest singular value {svals[-1]:.3e} sits too close to the null cutoff "
        f"{1e-8 * scale:.3e} = 1e-8 x the block-norm scale {scale:.3e} to certify an "
        "empty kernel"
    )


def test_a_wide_window_needs_no_dense_matrix(no_fallback):
    # the dense truncation at +-300 with d = 4 is 2,408 x 2,404 (46 MB);
    # the structured count stays far below that
    scenario = Scenario.builtin("mobius-double")
    f = scenario.build_field()
    window = (-300, 300)
    plus, minus = whole_line_families(f, [0], window, scenario.horizon)
    witnesses = (verify_ed(plus[0]), verify_ed(minus[0]))
    tracemalloc.start()
    try:
        report = fredholm.kernel_cokernel(f, 0, window, witnesses)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8e6
    assert report.consistent


def test_a_strong_contraction_names_the_scale_of_its_null_cut(tmp_path):
    # at q = 1e-4 the block-norm scale grows like 1/q and the null cut with
    # it, so F3 passes no sample and certify fails its
    # hypotheses, as before; the message names the scale next to the cut and
    # no longer offers a larger window, which cannot lower the cut
    doc = builtin_document("system2-mobius")
    doc["field"]["q"] = 1e-4
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    code = cli.run(["certify", "--scenario", str(path), "--out", str(tmp_path / "out")])
    results = json.loads((tmp_path / "out" / "report.json").read_text())["results"]
    assert code == 2 and results["verdict"] == "hypotheses_failed"
    # sample 8, at the Moebius flip, has a kernel; the other 15 stay undecided
    assert results["f3_verdicts"] == ["indeterminate"] * 8 + ["fail"] + ["indeterminate"] * 7

    scenario = Scenario.load(path)
    lin = linearize_at_zero(scenario.build_nonlinear())
    window = tuple(scenario.options["f3_window"])
    check = check_F3(lin, 0, window=window, horizon=scenario.horizon)
    plus, minus = whole_line_families(lin, [0], window, scenario.horizon)
    svals, scale = oracle_spectrum(lin, 0, window, plus[0], minus[0])
    assert scale > 1e3
    assert check.message.endswith(
        f"the smallest singular value {svals[-1]:.3e} sits too close to the null cutoff "
        f"{1e-8 * scale:.3e} = 1e-8 x the block-norm scale {scale:.3e} to certify an "
        "empty kernel"
    )


@pytest.fixture
def ritz_steps(monkeypatch):
    """The row counts of every `fredholm._ritz_step` call, in order."""
    calls = []
    ritz_step = fredholm._ritz_step

    def counting(sec, levels, x):
        calls.append(sec.count)
        return ritz_step(sec, levels, x)

    monkeypatch.setattr(fredholm, "_ritz_step", counting)
    return calls


def ladder_field(d: int) -> DiscreteVectorField:
    """A realization of dimension d at q = 0.5 whose stable bundle ahead carries one Moebius twist."""
    loop = ParameterLoop.circle(16)
    ahead = mobius_bundle(loop)
    if d > 2:
        ahead = direct_sum(ahead, trivial_bundle(loop, d - 2, d // 2 - 1))
    return realization_field(ahead, trivial_bundle(loop, d, d // 2), q=0.5)


def test_an_index_wide_batch_decides_its_counts_in_at_most_four_ritz_steps(ritz_steps, no_fallback):
    # the shape of the index-wide benchmark: d = 4, +-100, 6 samples; the
    # counts are decided long before the kept values are resolved
    f = ladder_field(4)
    lams = [0, 3, 5, 8, 11, 14]
    plus, minus = whole_line_families(f, lams, (-100, 100), 40)
    spectra = fredholm.truncated_spectra(f, lams, (-100, 100), plus, minus, GAP_RATIO)
    assert 0 < len(ritz_steps) <= 4
    assert ritz_steps[0] == len(lams)
    for lam, fam_plus, fam_minus, spectrum in zip(lams, plus, minus, spectra):
        svals, scale = oracle_spectrum(f, lam, (-100, 100), fam_plus, fam_minus)
        expected = dense_null_count(svals, scale, GAP_RATIO)
        assert fredholm._null_space(spectrum, GAP_RATIO) == expected


def test_a_continuum_of_triples_is_decided_without_the_dense_fallback(ritz_steps, no_fallback):
    # A_n = 0.5 I at d = 3 on both half-lines: every small singular value is
    # a triple and the low end is a continuum, which the residual test alone
    # cannot resolve within the iteration cap; the empty kernel is decided
    f = switching_field([0.5] * 3, [0.5] * 3)
    plus, minus = whole_line_families(f, [0], (-30, 30), 40)
    (spectrum,) = fredholm.truncated_spectra(f, [0], (-30, 30), plus, minus, GAP_RATIO)
    assert len(ritz_steps) <= 4
    assert fredholm._null_space(spectrum, GAP_RATIO) == 0
    svals = oracle_spectrum(f, 0, (-30, 30), plus[0], minus[0])[0]
    assert svals[-1] <= spectrum.smallest[0] <= svals[-1] + (1.0 + TEMPLE_SLACK) * spectrum.error


@pytest.mark.parametrize(
    "reach, d, lams",
    [
        (30, 2, [0, 8]), (30, 4, [0, 8]), (30, 8, [0, 8]),
        (100, 2, [0, 8]), (100, 4, [0, 8]), (100, 8, [8]),
        (300, 2, [8]), (300, 4, [8]),
    ],
)
def test_decided_counts_match_the_dense_oracle_on_the_window_ladder(reach, d, lams, no_fallback):
    # windows +-30, +-100 and +-300 with d in {2, 4, 8}; +-300 at d = 8 is
    # left out, its dense matrix (4,816 x 4,808) taking about 40 s to factor
    counts = assert_matches_oracle(ladder_field(d), lams, (-reach, reach))
    assert None not in counts and 1 in counts
