"""The kernel screen against the dense oracle.

Before any inverse-iteration step, `fredholm._screen` tries one block
Cholesky of M'^T M' - tau^2 I, tau = 2 gap_ratio x the null cut: M' = M
where the geometric kernel count of a sample is 0, and M deflated by a
rank-k block along the families' kernel basis where it is k > 0.  These
tests check that every floor it proves lies below the dense
truncation's true value of its rank and every Ritz value of a kernel
basis above its own, that every count stays the dense one, that a
section whose kernel the geometric count misses fails it, that a poor
kernel basis decides nothing, that it stands aside where tau^2 nears
the rounding level, and that each row keeps the bits it gets alone.
"""

import json

import numpy as np
import pytest

from homindex import bifurcation, cli, fredholm
from homindex.bifurcation import linearize_at_zero
from homindex.dichotomy import GAP_RATIO, whole_line_families
from homindex.errors import HomindexError, IndeterminateError
from homindex.field import (
    ParameterLoop,
    direct_sum,
    mobius_bundle,
    realization_field,
    trivial_bundle,
)
from homindex.scenario import Scenario, builtin_document, builtin_names

from helpers import assert_decided, projector_at
from test_truncation import dense_null_count, oracle_spectrum


def screened_index(field, lams, window, horizon=40, gap_ratio=GAP_RATIO):
    """`index_from_families` outcomes, with the dense oracle of every sample whose families exist."""
    plus, minus = whole_line_families(field, lams, window, horizon, gap_ratio=gap_ratio)
    reports = fredholm.index_from_families(
        field, lams, window, plus, minus, gap_ratio=gap_ratio
    )
    for lam, fam_plus, fam_minus, report in zip(lams, plus, minus, reports):
        if isinstance(fam_plus, HomindexError) or isinstance(fam_minus, HomindexError):
            continue
        yield lam, report, oracle_spectrum(field, lam, window, fam_plus, fam_minus)


def assert_screen_matches_oracle(field, lams, window, horizon=40) -> int:
    """Every count is the dense one and every floor lies below the dense sigma_min.

    Returns how many samples the screen decided.
    """
    screened = 0
    for lam, report, (svals, scale) in screened_index(field, lams, window, horizon):
        expected = dense_null_count(svals, scale, GAP_RATIO)
        if isinstance(report, IndeterminateError) and "singular value" in str(report):
            assert expected is None, (lam, report)
            continue
        if isinstance(report, HomindexError):
            continue  # the geometric count or a fit refused the sample
        assert report.dim_ker_truncated == expected, (lam, report, expected)
        spectrum = report.truncation
        if spectrum.floor:
            screened += 1
            ascending = svals[::-1]
            assert report.dim_ker == expected == len(spectrum.smallest) - 1
            assert 1.7 * GAP_RATIO * 1e-8 * scale <= spectrum.smallest[-1] <= ascending[expected]
            # the Ritz values on a deflated screen's kernel basis bound the null group
            assert (ascending[:expected] <= spectrum.smallest[:-1] + 1e-15 * scale).all()
            assert (spectrum.smallest[:-1] <= 0.5e-8 * scale).all()
            assert spectrum.scale == pytest.approx(scale, rel=1e-12)
    return screened


def builtin_cases():
    for name in builtin_names():
        for window in ("index_window", "f3_window"):
            yield name, window


@pytest.mark.parametrize("name, window", list(builtin_cases()))
def test_every_builtin_screen_agrees_with_the_dense_oracle(name, window):
    scenario = Scenario.builtin(name)
    if window == "f3_window" and scenario.data["field"]["kind"] == "system2":
        f = linearize_at_zero(scenario.build_nonlinear())
    else:
        f = scenario.build_field()
    lams = scenario.options["lambdas"]
    window = tuple(scenario.options[window])
    screened = assert_screen_matches_oracle(f, lams, window, scenario.horizon)
    # every sample, also where a kernel sits (a Moebius sum of two copies
    # has one at every sample, the Moebius flip sample 8 one)
    assert screened == len(lams)


def grid_field(q: float, d: int):
    """A Moebius realization at contraction q over 16 loop samples, d = 2 or 4.

    Ahead, the Moebius line (plus a trivial line in the last two
    coordinates at d = 4); behind, trivial lines: a kernel at the flip
    sample 8 only.
    """
    loop = ParameterLoop.circle(16)
    ahead, behind = mobius_bundle(loop), trivial_bundle(loop, 2, 1)
    if d == 4:
        line = trivial_bundle(loop, 2, 1)
        ahead, behind = direct_sum(ahead, line), direct_sum(behind, line)
    return realization_field(ahead, behind, q=q)


@pytest.mark.parametrize("q", [0.02, 0.35, 0.65, 0.9])
@pytest.mark.parametrize("d", [2, 4])
def test_the_screen_agrees_with_the_dense_oracle_across_contraction_and_dimension(q, d):
    # sample 8 sits at the Moebius flip, where the kernel is one-dimensional
    screened = assert_screen_matches_oracle(grid_field(q, d), [0, 3, 8, 12], (-30, 30))
    # at q = 0.9 the flip sample's families are refused at horizon 40
    assert screened == (4 if q < 0.9 else 3)


def flip_sample_reports(monkeypatch, dims):
    """The index reports of samples 0 (no kernel) and 8 (a kernel) with the geometric counts forced to `dims`."""
    monkeypatch.setattr(fredholm, "_intersection_dimensions", lambda frames: list(dims))
    return fredholm.whole_line_index(grid_field(0.5, 2), [0, 8], (-30, 30), 40)


def test_a_kernel_fails_the_screen_whatever_the_geometric_count(monkeypatch):
    # the flip sample's kernel, counted 0 geometrically, reaches the screen,
    # fails it and is counted 1 by the iteration: the disagreement shows in
    # the report and F3 is indeterminate there; sample 0 is screened as before
    clean, kernel = flip_sample_reports(monkeypatch, [0, 0])
    assert clean.truncation.floor and clean.consistent and clean.dim_ker_truncated == 0
    assert not kernel.truncation.floor
    assert kernel.dim_ker == 0 and kernel.dim_ker_truncated == 1 and not kernel.consistent
    checks = bifurcation._f3_verdicts([0, 8], (-30, 30), [clean, kernel])
    assert [c.verdict for c in checks] == ["pass", "indeterminate"]
    assert checks[0].sigma_min_bound == "at least"
    assert checks[1].sigma_min_bound == "at most"


def test_a_geometric_kernel_over_an_invertible_section_is_flagged(monkeypatch):
    # the converse: a kernel-free section counted 1 geometrically skips the
    # screen, and the iteration's 0 disagrees with it
    clean, kernel = flip_sample_reports(monkeypatch, [1, 1])
    assert not clean.truncation.floor
    assert clean.dim_ker == 1 and clean.dim_ker_truncated == 0 and not clean.consistent
    # the flip sample's kernel is screened after the rank-one deflation
    assert kernel.truncation.floor and len(kernel.truncation.smallest) == 2
    assert kernel.consistent and kernel.dim_ker_truncated == 1


def test_a_poor_kernel_basis_decides_nothing(monkeypatch):
    # a random basis in place of the families' at the flip sample: its Ritz
    # value sits far above the cut, so the iteration counts the kernel
    witnesses = fredholm._kernel_witnesses

    def scrambled(*args):
        rng = np.random.default_rng(7)
        return [
            (e[0], rng.standard_normal(e[1].shape), e[2]) if isinstance(e, tuple) else e
            for e in witnesses(*args)
        ]

    monkeypatch.setattr(fredholm, "_kernel_witnesses", scrambled)
    clean, kernel = fredholm.whole_line_index(grid_field(0.5, 2), [0, 8], (-30, 30), 40)
    assert clean.truncation.floor and clean.consistent and clean.dim_ker_truncated == 0
    assert not kernel.truncation.floor
    assert kernel.consistent and kernel.dim_ker_truncated == 1


def test_a_two_dimensional_kernel_is_screened_after_a_rank_two_deflation():
    # two Moebius lines ahead of two trivial ones at d = 4: the flip sample
    # has a kernel of dimension 2
    loop = ParameterLoop.circle(16)
    ahead = direct_sum(mobius_bundle(loop), mobius_bundle(loop))
    behind = direct_sum(trivial_bundle(loop, 2, 1), trivial_bundle(loop, 2, 1))
    f = realization_field(ahead, behind, q=0.5)
    assert assert_screen_matches_oracle(f, [0, 8], (-30, 30)) == 2
    clean, kernel = fredholm.whole_line_index(f, [0, 8], (-30, 30), 40)
    assert len(clean.truncation.smallest) == 1 and clean.dim_ker_truncated == 0
    assert len(kernel.truncation.smallest) == 3 and kernel.dim_ker_truncated == 2


def test_each_deflated_row_keeps_the_bits_it_gets_alone():
    scenario = Scenario.builtin("mobius-double")
    f = scenario.build_field()
    lams = scenario.options["lambdas"]
    window = tuple(scenario.options["index_window"])
    plus, minus = whole_line_families(f, lams, window, scenario.horizon)
    batch = fredholm.truncated_spectra(f, lams, window, plus, minus, GAP_RATIO, [1] * len(lams))
    for i, lam in enumerate(lams):
        (alone,) = fredholm.truncated_spectra(
            f, [lam], window, [plus[i]], [minus[i]], GAP_RATIO, [1]
        )
        assert alone.floor and batch[i].floor
        assert alone.smallest.tobytes() == batch[i].smallest.tobytes()


def test_index_reads_inconsistent_where_the_geometric_count_misses_a_kernel(
    monkeypatch, tmp_path
):
    doc = builtin_document("realization-mobius")
    doc["options"] = {"lambdas": [0, 8]}
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    monkeypatch.setattr(fredholm, "_intersection_dimensions", lambda frames: [0] * len(frames))
    assert cli.run(["index", "--scenario", str(path), "--out", str(tmp_path / "out")]) == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    per = report["results"]["per_lambda"]
    assert [(p["dim_ker"], p["dim_ker_truncated"], p["consistent"]) for p in per] == [
        (0, 0, True),
        (0, 1, False),
    ]
    assert report["warnings"] == ["lambda 8: geometric and truncated kernel counts disagree"]


def graded_section(g: float):
    """A d = 2 section on 16 times: steps -0.8 I, P-(lo) = diag(0, 1), I - P+(hi) = diag(g, 1).

    Its first coordinate has the near-kernel 0.8^i at time i, which the
    last boundary row weighs with g: sigma_min grows with g from 0.
    """
    steps = np.broadcast_to(-0.8 * np.eye(2), (1, 15, 2, 2)).copy()
    first = np.diag([0.0, 1.0])[None]
    last = np.diag([g, 1.0])[None]
    return steps, first, last


def dense_ratio(g: float) -> float:
    """sigma_min of `graded_section(g)` over tau = 2 GAP_RATIO 1e-8 scale."""
    sec = fredholm._Sections(*graded_section(g))
    sigma_min = np.linalg.svd(sec.dense(0), compute_uv=False)[-1]
    return sigma_min / (2.0 * GAP_RATIO * fredholm._NULL_CUT * sec.scale[0])


def weight_for(ratio: float) -> float:
    """The boundary weight g at which sigma_min = ratio * tau, by bisection."""
    lo, hi = 0.0, 1.0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if dense_ratio(mid) < ratio else (lo, mid)
    return hi


@pytest.mark.parametrize("ratio, floor", [(1.01, True), (0.99, False)])
def test_a_section_just_above_the_shift_is_screened_and_one_just_below_is_iterated(ratio, floor):
    g = weight_for(ratio)
    assert dense_ratio(g) == pytest.approx(ratio, rel=1e-9)
    steps, first, last = graded_section(g)
    (spectrum,) = fredholm._solve_spectra(steps, first, last, GAP_RATIO, [True])
    assert spectrum.floor is floor
    # sigma_min is twice the empty-kernel threshold either way: the count is 0
    assert fredholm._null_space(spectrum, GAP_RATIO) == 0
    sigma_min = np.linalg.svd(fredholm._Sections(steps, first, last).dense(0), compute_uv=False)
    assert_decided(spectrum, sigma_min[-1:], sigma_min[0])


def test_a_gap_ratio_near_one_makes_the_screen_stand_aside():
    # at gap_ratio 1.01, tau^2 = 4e-16 scale^2 lies below the factor's
    # rounding level: no section is screened, however far from singular
    scenario = Scenario.builtin("realization-trivial")
    f = scenario.build_field()
    lams = scenario.options["lambdas"]
    window = tuple(scenario.options["index_window"])
    plus, minus = whole_line_families(f, lams, window, scenario.horizon)
    steps, _ = fredholm.assemble_truncated(f, lams, window)
    first = np.stack([projector_at(fam, window[0]) for fam in minus])
    last = np.stack([np.eye(f.dim) - projector_at(fam, window[1]) for fam in plus])
    sec = fredholm._Sections(steps, first, last)
    assert (fredholm._screen(sec, GAP_RATIO) > 0).all()
    assert (fredholm._screen(sec, 1.01) == 0).all()
    reports = fredholm.index_from_families(f, lams, window, plus, minus, gap_ratio=1.01)
    assert not any(r.truncation.floor for r in reports)
    assert all(r.consistent and r.dim_ker_truncated == 0 for r in reports)


def test_each_row_keeps_the_screen_bits_it_gets_alone():
    # the Moebius builtin on the F3 window, whose flip sample fails the screen,
    # next to samples that pass it
    scenario = Scenario.builtin("system2-mobius")
    f = linearize_at_zero(scenario.build_nonlinear())
    lams = list(range(f.n_params))
    window = tuple(scenario.options["f3_window"])
    plus, minus = whole_line_families(f, lams, window, scenario.horizon)
    steps, _ = fredholm.assemble_truncated(f, lams, window)
    first = np.stack([projector_at(fam, window[0]) for fam in minus])
    last = np.stack([np.eye(f.dim) - projector_at(fam, window[1]) for fam in plus])
    sec = fredholm._Sections(steps, first, last)
    floors = fredholm._screen(sec, GAP_RATIO)
    assert (floors == 0).sum() == 1 and (floors > 0).sum() == len(lams) - 1
    for i in range(len(lams)):
        alone = fredholm._screen(fredholm._Sections(steps[[i]], first[[i]], last[[i]]), GAP_RATIO)
        assert alone.tobytes() == floors[i : i + 1].tobytes()
