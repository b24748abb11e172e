"""The blocked QR recurrence of the rate sweep and the march, the fit's doubling chains,
the frame checks' principal angle, stacked boundary projectors and the bundle gauge."""

from __future__ import annotations

import json
import sys
from collections import Counter

import numpy as np
import pytest

from helpers import (
    per_step_sweep,
    projector_at,
    qr_recurrence,
    random_hyperbolic,
    random_orthogonal,
)
from homindex import dichotomy
from homindex.bundle import bundle_csv_rows, bundle_from_projectors, first_sw_class, index_bundle_pair
from homindex.cli import run
from homindex.dichotomy import (
    ProjectorFamily,
    build_projector_families,
    family_run,
    verify_families,
    whole_line_families,
)
from homindex.errors import NumericError
from homindex.field import (
    DiscreteVectorField,
    ParameterLoop,
    direct_sum,
    mobius_bundle,
    realization_field,
    tabulated_field,
    trivial_bundle,
)
from homindex.scenario import Scenario, builtin_document, builtin_names

#: relative agreement of the blocked recurrence with the per-step oracle
RECURRENCE_RTOL = 1e-10


def realization(q: float, d: int) -> DiscreteVectorField:
    """A Moebius line plus a trivial bundle of rank d/2 - 1 ahead, trivial rank d/2 behind."""
    loop = ParameterLoop.circle(16)
    ahead = mobius_bundle(loop)
    if d > 2:
        ahead = direct_sum(ahead, trivial_bundle(loop, d - 2, d // 2 - 1))
    return realization_field(ahead, trivial_bundle(loop, d, d // 2), q=q)


def non_normal_table(d: int, rng) -> DiscreteVectorField:
    """Hyperbolic non-normal constants on each half-line, joined by a random bump."""
    times = np.arange(-200, 201)
    behind, ahead = (random_hyperbolic(rng, d, n_stable=d // 2, max_shear=4.0)[0] for _ in "ab")
    bump = 0.1 * np.exp(-np.abs(times) / 4.0)[:, None, None] * rng.standard_normal((len(times), d, d))
    return tabulated_field(np.where((times >= 0)[:, None, None], ahead, behind) + bump, (-200, 200))


def recurrence_cases():
    cases = [pytest.param(name, id=name) for name in builtin_names()]
    cases += [
        pytest.param((q, d), id=f"q{q}-d{d}")
        for q in (0.02, 0.1, 0.35, 0.5, 0.65, 0.97)
        for d in (2, 4, 8)
    ]
    cases += [pytest.param(("table", d), id=f"table-d{d}") for d in (2, 3, 5, 8)]
    return cases


def case_field(case) -> tuple[DiscreteVectorField, int]:
    if isinstance(case, str):
        scenario = Scenario.builtin(case)
        return scenario.build_field(), scenario.horizon
    kind, d = case
    if kind == "table":
        return non_normal_table(d, np.random.default_rng(24 + d)), 40
    # q = 0.97 needs a run of 115 steps to separate its rates log q and -log q
    return realization(kind, d), 200 if kind == 0.97 else 40


def assert_close(got: np.ndarray, want: np.ndarray, name: str) -> None:
    assert got.shape == want.shape, name
    scale = max(1.0, float(np.abs(want).max(initial=0.0)))
    assert np.abs(got - want).max(initial=0.0) <= RECURRENCE_RTOL * scale, name


@pytest.mark.parametrize("case", recurrence_cases())
def test_the_blocked_sweep_and_march_match_the_per_step_recurrence(case):
    field, horizon = case_field(case)
    lams = list(range(field.n_params))
    d, length = field.dim, 30
    # the sweep of a family's run, both sides in one stack, as the builds read it
    (lo_p, hi_p), (lo_m, hi_m) = (family_run(side, 0, length, horizon) for side in ("plus", "minus"))
    plus = field.stack(lams, np.arange(hi_p, lo_p - 1, -1))[0].swapaxes(-1, -2)
    minus = field.stack(lams, np.arange(lo_m, hi_m + 1))[0]
    factors = np.concatenate([plus, minus])
    got, want = dichotomy._sweep(factors, horizon), per_step_sweep(factors, horizon)
    for name, g, w in zip(("frames", "logs", "rates"), got, want):
        assert_close(g, w, name)
    # the march from the anchor, forward through A(n) on the plus side and
    # backward through A(n)^T on the minus side, of the sweep's columns there
    # whose rates are not below zero: the dominant directions of the march,
    # as a build's free complement is.  (A march of dominated directions is
    # unstable: rounding pulls it toward the dominant ones, so no two orders
    # of rounding agree on it.)
    forward = field.stack(lams, np.arange(0, length))[0]
    backward = field.stack(lams, np.arange(-1, -length - 1, -1))[0].swapaxes(-1, -2)
    marched = 0
    for moves, rows in ((forward, slice(None, len(lams))), (backward, slice(len(lams), None))):
        (p,) = set((want[2][rows] >= 0.0).sum(axis=1).tolist())
        if 0 < p < d:
            seed = want[0][rows, -1, :, :p]
            got_march, want_march = dichotomy._advance(moves, seed), qr_recurrence(moves, seed)
            assert_close(got_march[0], want_march[0], "march frames")
            assert_close(got_march[1], want_march[1], "march logs")
            marched += 1
    assert marched


FAMILY_ARRAYS = ("times", "image_frames", "kernel_frames", "image_steps", "kernel_steps")


def assert_same_family_bits(a, b) -> None:
    assert isinstance(a, ProjectorFamily) and isinstance(b, ProjectorFamily), (a, b)
    assert (a.side, a.anchor, a.rank, a.bound) == (b.side, b.anchor, b.rank, b.bound)
    for name in FAMILY_ARRAYS:
        x, y = getattr(a, name), getattr(b, name)
        assert x.shape == y.shape and x.tobytes() == y.tobytes(), name


def test_stiff_rows_fall_back_beside_blocked_ones_and_keep_their_batch_of_one_bits(monkeypatch):
    # samples 0-3 at q = 0.02 (rates log 2500 apart per step, so a product of 4
    # steps loses about 1e-3), samples 4-7 at q = 0.5; d = 4
    values = np.concatenate(
        [realization(q, 4).stack(range(4), np.arange(-100, 101))[0] for q in (0.02, 0.5)]
    )

    def make():
        return tabulated_field(values, (-100, 100), loop=ParameterLoop.circle(8))

    calls = []
    blocked = dichotomy._blocked

    def recorded(factors, start, k):
        frames, diags, seams = blocked(factors, start, k)
        calls.append((k, factors.shape[1], seams > dichotomy._SEAM_TOL))
        return frames, diags, seams

    monkeypatch.setattr(dichotomy, "_blocked", recorded)
    plus, minus = whole_line_families(make(), range(8), (-30, 30), 40)
    # the sweep of all 16 runs in blocks, then the 8 stiff ones one step at a
    # time; the marches of 2 equal-rate columns stay blocked
    stiff = np.array([True] * 4 + [False] * 4)
    (k, run, failed), (k_again, run_again, _), (k_march, steps, failed_march) = calls
    assert (k, run, k_again, run_again) == (dichotomy._BLOCK, 70, 1, 70)
    assert failed.tolist() == np.concatenate([stiff, stiff]).tolist()
    assert (k_march, steps, failed_march.any()) == (dichotomy._BLOCK, 30, False)
    for lam in range(8):
        alone_plus, alone_minus = whole_line_families(make(), [lam], (-30, 30), 40)
        assert_same_family_bits(plus[lam], alone_plus[0])
        assert_same_family_bits(minus[lam], alone_minus[0])


def singular_step_field(singular: np.ndarray, at: int) -> DiscreteVectorField:
    """The saddle diag(0.5, 2) with A(at) = A(-at) = `singular`."""
    saddle = np.diag([0.5, 2.0])

    def evaluate(lams, n):
        mats = np.where((np.abs(n) == at)[:, None, None], singular, saddle)
        return np.broadcast_to(mats, (len(lams),) + mats.shape)

    return DiscreteVectorField(dim=2, evaluator=evaluate, window=(-200, 200))


@pytest.mark.parametrize("at", [5, 6, 7, 8])
def test_a_singular_step_inside_a_block_is_named_at_its_own_time(at):
    # the plus sweep reads times 69 down to 0 and the minus sweep -70 up to -1,
    # 4 to a block, so these times sit at every place of a block on some side
    plus, minus = whole_line_families(
        singular_step_field(np.diag([0.5, 0.0]), at), [0], (-30, 30), 40
    )
    assert isinstance(plus[0], NumericError), plus[0]
    assert str(plus[0]).endswith(f"the splitting is not regular at time {at}")
    assert isinstance(minus[0], NumericError), minus[0]
    assert str(minus[0]).endswith(f"the splitting is not regular at time {-at}")
    plus, minus = whole_line_families(
        singular_step_field(np.diag([0.0, 2.0]), at), [0], (-30, 30), 40
    )
    assert isinstance(plus[0], ProjectorFamily) and isinstance(minus[0], ProjectorFamily)


def count_linalg(monkeypatch, names=("qr", "inv")) -> dict:
    counts = dict.fromkeys(names, 0)
    for name in names:
        original = getattr(np.linalg, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    return counts


def test_an_index_wide_pass_takes_at_most_80_qr_calls(tmp_path, monkeypatch):
    # the shape of the index-wide benchmark: d = 4, n = 16, 6 samples, +-100;
    # one sample at a time it took 253, and 79 before the closed-form 2 x 2 blocks
    doc = builtin_document("realization-mobius")
    doc["dimension"] = 4
    doc["field"].update(
        q=0.5,
        stable_ahead={"kind": "mobius_sum", "copies": 2},
        stable_behind={"kind": "trivial", "rank": 2},
    )
    doc["horizon"] = 40
    doc["options"] = {"lambdas": [0, 3, 5, 8, 11, 14], "index_window": [-100, 100]}
    path = tmp_path / "wide.json"
    path.write_text(json.dumps(doc))
    counts = count_linalg(monkeypatch)
    assert run(["index", "--scenario", str(path), "--out", str(tmp_path / "out")]) == 0
    assert counts["qr"] <= 80, counts


def certify_loop_pass(tmp_path):
    """The shape of the certify-loop benchmark: system2 loops of 32 samples with
    F3 and localization windows +-30, one Moebius and one trivial ahead."""
    for k, ahead in enumerate(({"kind": "mobius"}, {"kind": "trivial", "rank": 1})):
        doc = builtin_document("system2-mobius")
        doc["loop"]["n"] = 32
        doc["field"].update(stable_ahead=ahead, q=0.45)
        doc["options"].update(f3_window=[-30, 30], localize_window=[-30, 30])
        path = tmp_path / f"loop{k}.json"
        path.write_text(json.dumps(doc))
        assert run(["certify", "--scenario", str(path), "--out", str(tmp_path / f"out{k}")]) == 0


def test_a_certify_loop_pass_takes_at_most_46_qr_and_6_inv_calls(tmp_path, monkeypatch):
    # 116 qr and 11 inv before the closed-form 2 x 2 blocks, 45 and 6 before the
    # kernel screen; a fresh process adds the generic seed's and the Ritz
    # start's qr, which later passes reuse.  The screen decides all 64 F3
    # samples with no factor: the Moebius flip sample's kernel basis takes one
    # qr; resolving each lambda0 from the start factors its one row (2 x 6) and
    # takes 5 Ritz steps; localization takes 3 x 7
    counts = count_linalg(monkeypatch)
    certify_loop_pass(tmp_path)
    assert counts["qr"] <= 46 and counts["inv"] <= 6, counts


def test_no_linalg_call_of_a_certify_loop_pass_factors_a_two_row_block_in_a_hot_loop(
    tmp_path, monkeypatch
):
    # the sweep and march QRs, the complements, the block norms, the fit's and
    # the regularity check's singular values and the factor's inverses take
    # closed forms at d = 2; what stays are a few stacked calls per invocation:
    # the boundary projectors' inverses, the bundle SVDs and the generic seed
    two_rows = Counter()
    for name in ("qr", "svd", "inv", "solve", "det", "lstsq", "norm", "eig", "eigvals"):
        original = getattr(np.linalg, name)

        def counted(a, *args, _name=name, _original=original, **kwargs):
            if np.ndim(a) >= 2 and np.shape(a)[-2] == 2:
                two_rows[_name, sys._getframe(1).f_code.co_name] += 1
            return _original(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    certify_loop_pass(tmp_path)
    allowed = {("inv", "_projectors"), ("svd", "bundle_from_projectors"), ("qr", "_generic_seed")}
    assert set(two_rows) <= allowed, two_rows
    assert sum(two_rows.values()) <= 11, two_rows


def step_loop_chains(steps_stack: np.ndarray, points) -> np.ndarray:
    """Oracle: each point's chain steps[a + delta - 1] @ ... @ steps[a], one step at a time."""
    k = steps_stack.shape[-1]
    chains = []
    for a, delta in points:
        chain = np.broadcast_to(np.eye(k), (len(steps_stack), k, k))
        for t in range(a, a + delta):
            chain = steps_stack[:, t] @ chain
        chains.append(chain)
    return np.stack(chains, axis=1)


def test_the_doubling_chains_match_the_step_loop():
    # the builtins, and the non-normal tables, whose steps do not commute
    compared = 0
    for case in list(builtin_names()) + [("table", 3), ("table", 5)]:
        field, horizon = case_field(case)
        for fams in whole_line_families(field, range(field.n_params), (-30, 45), horizon):
            fams = [f for f in fams if isinstance(f, ProjectorFamily)]
            points = dichotomy._fit_points(len(fams[0].times) - 1)
            assert {delta for _, delta in points} - {len(fams[0].times) - 1} <= {
                2**i for i in range(8)
            }
            for attr in ("image_steps", "kernel_steps"):
                steps = np.stack([getattr(f, attr) for f in fams])
                if not steps.shape[-1]:
                    continue
                got, want = dichotomy._chain_points(steps, points), step_loop_chains(steps, points)
                scale = np.abs(want).max(axis=(-2, -1), keepdims=True)
                assert (np.abs(got - want) <= 1e-12 * scale).all(), (case, attr)
                compared += got.shape[0] * got.shape[1]
    assert compared > 1000


def test_a_chain_that_overflows_midway_is_named_at_its_first_sampled_point():
    # a kernel growing by 1e30 per step is finite for 8 steps and infinite for
    # 16: the step loop and the doubling table both first fail at (0, 16)
    steps = 20
    family = ProjectorFamily(
        side="plus",
        anchor=0,
        times=np.arange(steps + 1),
        rank=0,
        image_frames=np.zeros((steps + 1, 1, 0)),
        kernel_frames=np.ones((steps + 1, 1, 1)),
        image_steps=np.zeros((steps, 0, 0)),
        kernel_steps=np.full((steps, 1, 1), 1e30),
        bound=0.0,
    )
    (got,) = verify_families([family])
    assert isinstance(got, NumericError)
    assert str(got) == "the kernel transition chain at family offset 0, 16 steps is not finite"


@pytest.mark.parametrize("d", [2, 3, 4, 8])
def test_the_smallest_sine_gives_the_basis_singular_value_and_the_bound(d):
    rng = np.random.default_rng(40 + d)
    for r in range(d + 1):
        for _ in range(5):
            q = random_orthogonal(rng, d)
            im, ker = q[:, :r], q[:, r:].copy()
            # lean the kernel toward the image: the smallest principal angle
            angle = 10.0 ** rng.uniform(-6, 0) if 0 < r < d else np.pi / 2
            if 0 < r < d:
                ker[:, 0] = np.cos(angle) * q[:, 0] + np.sin(angle) * q[:, r]
            for frames in ((im, ker), (ker, im)):
                sine = dichotomy._smallest_sine(frames[0][None], frames[1][None])[0]
                assert sine == pytest.approx(np.sin(angle), rel=1e-9)
            # the assembly's crossing test reads sigma_min([U V]) off the sine
            basis = np.linalg.svd(np.concatenate([im, ker], axis=1), compute_uv=False)
            smin = sine / np.sqrt(1.0 + np.sqrt(1.0 - sine * sine))
            assert smin == pytest.approx(basis.min(), rel=1e-9)


def test_the_boundary_projectors_of_a_batch_have_each_family_s_bits():
    # rank 2 ahead on one field and rank 1 on another: two rank groups
    loop = ParameterLoop.circle(8)
    behind = trivial_bundle(loop, 3, 1)
    fields = [
        realization_field(direct_sum(mobius_bundle(loop), trivial_bundle(loop, 1, 1)), behind),
        realization_field(trivial_bundle(loop, 3, 1), behind),
    ]
    fams = []
    for field in fields:
        fams += build_projector_families(field, range(8), "plus", 0, 20, 40)
    fams = fams[::3] + fams[1::3] + fams[2::3]
    assert {f.rank for f in fams} == {1, 2}
    for n in (0, 7, 20):
        got = dichotomy._projectors_at(fams, n)
        for row, fam in zip(got, fams):
            assert row.tobytes() == projector_at(fam, n).tobytes()


def test_a_rounding_level_change_of_the_projectors_moves_no_csv_frame_entry():
    # an SVD spans a degenerate singular space as it likes, so rounding can rotate
    # or flip the frame it returns; the gauged frames move at rounding level
    scenario = Scenario.builtin("mobius-double")
    field = scenario.build_field()
    opts = scenario.options
    pair = index_bundle_pair(field, opts["anchor_plus"], opts["anchor_minus"], scenario.horizon)
    rng = np.random.default_rng(16)
    for bundle in pair:
        projs = [bundle.projector(i) for i in range(len(field.loop))]
        nudged = [p + 1e-15 * rng.standard_normal(p.shape) for p in projs]
        rows = bundle_csv_rows(bundle_from_projectors(field.loop, projs, bundle.name))[1]
        again = bundle_from_projectors(field.loop, nudged, bundle.name)
        moved = np.abs(np.array(bundle_csv_rows(again)[1]) - np.array(rows)).max()
        assert moved <= 1e-12, moved
        assert first_sw_class(again) == first_sw_class(bundle)
