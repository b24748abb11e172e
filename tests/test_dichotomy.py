"""Certified projector families and their splittings, spectra, shift route."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    dense_product,
    distance_to_one,
    in_spectrum,
    march_image,
    march_kernel,
    projector_at,
    random_hyperbolic,
    rotation,
    shift_operator_projector,
    span_gap,
)
from homindex import dichotomy
from homindex.dichotomy import (
    EDWitness,
    ProjectorFamily,
    build_projector_family,
    dichotomy_spectra,
    dichotomy_spectrum,
    verify_ed,
)
from homindex.errors import (
    CertificationError,
    IndeterminateError,
    InputError,
    NoDichotomyError,
    NumericError,
    WindowTooShortError,
)
from homindex.field import (
    DiscreteVectorField,
    ParameterLoop,
    autonomous_field,
    direct_sum,
    mobius_bundle,
    realization_field,
    tabulated_field,
    trivial_bundle,
)
from homindex.fredholm import whole_line_index
from homindex.scenario import Scenario, builtin_document, builtin_names

SADDLE = np.diag([0.5, 2.0])


def saddle_field():
    return autonomous_field(SADDLE)


def anchor_frames(fam):
    """Image and kernel frames of a family at its anchor."""
    i = fam.index_of(fam.anchor)
    return fam.image_frames[i], fam.kernel_frames[i]


def family_projectors(fam) -> np.ndarray:
    """The projectors (times, d, d) the family forms from its frames, one time at a time."""
    return np.stack([projector_at(fam, n) for n in fam.times])


def test_splitting_on_diagonal_saddle():
    field = saddle_field()
    for side in ("plus", "minus"):
        fam = build_projector_family(field, 0, side, 0)
        image, kernel = anchor_frames(fam)
        assert fam.rank == 1
        assert np.allclose(np.abs(image[:, 0]), [1.0, 0.0], atol=1e-10)
        assert np.allclose(np.abs(kernel[:, 0]), [0.0, 1.0], atol=1e-10)
        assert fam.side == side


def eig_subspace(m, which: str) -> np.ndarray:
    """Oracle: orthonormal frame of the real stable/unstable eigenspace."""
    w, v = np.linalg.eig(m)
    sel = np.abs(w) < 1.0 if which == "stable" else np.abs(w) > 1.0
    rank = int(sel.sum())
    if rank == 0:
        return np.zeros((m.shape[0], 0))
    cols = np.hstack([v[:, sel].real, v[:, sel].imag])
    return np.linalg.svd(cols)[0][:, :rank]


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000), st.integers(1, 4), st.booleans())
def test_splitting_spans_match_eigenspaces(seed, dim, forward):
    rng = np.random.default_rng(seed)
    m, moduli = random_hyperbolic(rng, dim)
    field = autonomous_field(m)
    n_stable = int((moduli < 1.0).sum())

    fam = build_projector_family(field, 0, "plus" if forward else "minus", 0)
    image, kernel = anchor_frames(fam)
    assert fam.rank == n_stable
    if forward:
        assert span_gap(image, eig_subspace(m, "stable")) <= 1e-7
    else:
        assert span_gap(kernel, eig_subspace(m, "unstable")) <= 1e-7


def assert_family_contract(fam, mats):
    """What a certified family's projectors satisfy on the steps `mats` (steps, d, d).

    Invariance to 1e-7 and idempotency to 1e-8 (1 + bound)^2, max-abs, and
    the bound `_assemble_batch` states from the checks it makes: in
    operator norms, |A P_i - P_{i+1} A| <= |R_i| (1 + bound) / sigma_min(B_i)
    for the transport residual R_i, up to the rounding of P, eps cond(B_i) |P_i|,
    times |A|.
    """
    p = family_projectors(fam)
    assert np.abs(p.trace(axis1=1, axis2=2) - fam.rank).max() <= 1e-8
    invariance = mats @ p[:-1] - p[1:] @ mats
    assert np.abs(invariance).max() <= 1e-7
    assert np.abs(p @ p - p).max() <= 1e-8 * (1.0 + fam.bound) ** 2
    d, r = fam.dim, fam.rank
    basis = np.concatenate([fam.image_frames, fam.kernel_frames], axis=-1)
    steps = np.zeros(mats.shape)
    steps[:, :r, :r], steps[:, r:, r:] = fam.image_steps, fam.kernel_steps
    transport = mats @ basis[:-1] - basis[1:] @ steps
    sv = np.linalg.svd(basis, compute_uv=False)
    norm = lambda x: np.linalg.norm(x, 2, axis=(-2, -1))  # noqa: E731
    bound = norm(transport) * (1.0 + fam.bound) / sv[:-1, -1]
    rounding = d * np.finfo(float).eps * sv[:-1, 0] / sv[:-1, -1]
    rounding *= (1.0 + norm(mats)) * (1.0 + fam.bound)
    assert (norm(invariance) <= bound + rounding).all()
    if r < d:
        smallest = np.linalg.svd(fam.kernel_steps, compute_uv=False).min()
        assert smallest >= 1e-6


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10_000), st.integers(2, 4), st.booleans())
def test_certified_family_random_fields(seed, dim, forward):
    rng = np.random.default_rng(seed)
    m, moduli = random_hyperbolic(rng, dim)
    field = autonomous_field(m)
    side = "plus" if forward else "minus"
    fam = build_projector_family(field, 0, side, 0, length=20)
    assert fam.rank == int((moduli < 1.0).sum())
    assert fam.bound >= 1.0 or fam.rank in (0, dim)
    assert_family_contract(fam, np.broadcast_to(m, (20, dim, dim)))


def non_normal_table(rng, d: int, n_stable: int, cond: float, times: int) -> np.ndarray:
    """Steps S D(n) S^-1 with cond(S) = cond, D(n) triangular stable and unstable blocks."""
    q1, q2 = (np.linalg.qr(rng.standard_normal((d, d)))[0] for _ in range(2))
    conj = q1 @ np.diag(np.geomspace(1.0, cond, d)) @ q2
    moduli = np.concatenate([rng.uniform(0.2, 0.6, n_stable), rng.uniform(1.8, 4.0, d - n_stable)])
    diag = moduli * rng.choice([-1.0, 1.0], (times, d))
    blocks = np.triu(rng.uniform(-0.3, 0.3, (times, d, d)), 1)
    blocks[:, n_stable:, :n_stable] = 0.0
    blocks[:, :n_stable, n_stable:] = 0.0
    blocks[:, np.arange(d), np.arange(d)] = diag
    return conj @ blocks @ np.linalg.inv(conj)


def test_certified_family_random_non_normal_tables():
    # the frames' projectors keep the contract on time-varying non-normal steps
    # conjugated by matrices of condition number up to 1e3
    rng = np.random.default_rng(2026)
    for d in range(2, 7):
        for k in range(6):
            n_stable = int(rng.integers(0, d + 1))
            cond = 10.0 ** rng.uniform(0.0, 3.0) if k else 1e3
            field = tabulated_field(non_normal_table(rng, d, n_stable, cond, 241), (-120, 120))
            side = ("plus", "minus")[k % 2]
            fam = build_projector_family(field, 0, side, 0, length=20)
            assert fam.rank == n_stable, (d, k)
            lo = 0 if side == "plus" else -20
            assert_family_contract(fam, field.matrices(0, lo, lo + 19))


def test_family_is_constant_for_diagonal_saddle():
    field = saddle_field()
    plus = build_projector_family(field, 0, "plus", 0, length=30)
    assert plus.times[0] == 0 and plus.times[-1] == 30
    minus = build_projector_family(field, 0, "minus", 0, length=30)
    assert minus.times[0] == -30 and minus.times[-1] == 0
    for fam in (plus, minus):
        assert fam.rank == 1
        assert np.allclose(family_projectors(fam), np.diag([1.0, 0.0]), atol=1e-10)
    assert np.allclose(projector_at(plus, 7), np.diag([1.0, 0.0]), atol=1e-10)
    assert minus.index_of(-30) == 0


def test_family_after_transient_matches_dense_product_oracle():
    transient = np.array([[0.7, 0.4], [0.2, 1.1]])
    times = range(-8, 170)
    table = np.array([transient if -5 <= n < 5 else SADDLE for n in times])
    field = tabulated_field(table, (-8, 169))

    # oracle: solutions decay iff the state at time 5 lies on the stable
    # axis, i.e. the initial value is a multiple of transient^-5 e1
    phi = dense_product([transient] * 5)
    v = np.linalg.solve(phi, np.array([1.0, 0.0]))
    v /= np.linalg.norm(v)
    expected_p0 = np.outer(v, v)

    fam = build_projector_family(field, 0, "plus", 0, length=60)
    assert fam.rank == 1
    assert np.allclose(projector_at(fam, 0), expected_p0, atol=1e-8)
    for n in range(40, 61):
        assert np.allclose(projector_at(fam, n), np.diag([1.0, 0.0]), atol=1e-9)
    resid = np.abs(transient @ projector_at(fam, 4) - projector_at(fam, 5) @ transient).max()
    assert resid <= 1e-10


def test_verify_ed_frozen_constants_diagonal_saddle():
    field = saddle_field()
    fam = build_projector_family(field, 0, "plus", 0, length=60)
    witness = verify_ed(fam)
    assert witness.k_const == pytest.approx(1.0, abs=1e-9)
    assert witness.alpha == pytest.approx(0.5, abs=1e-9)
    assert witness.family.rank == 1
    assert witness.checked_pairs > 10
    # K (1 + alpha) / (1 - alpha) (1 + sup-norm of the family) = 6 exactly
    assert witness.green_bound() == pytest.approx(6.0, abs=1e-8)


def test_verify_ed_slow_saddle_alpha():
    field = autonomous_field(np.diag([0.9, 2.0]))
    fam = build_projector_family(field, 0, "plus", 0, length=60)
    witness = verify_ed(fam)
    assert witness.alpha == pytest.approx(0.9, abs=1e-9)
    assert witness.k_const == pytest.approx(1.0, abs=1e-9)


def test_verify_ed_full_rank_contraction():
    field = autonomous_field(np.diag([0.9, 2.0]) / 4.0)
    fam = build_projector_family(field, 0, "plus", 0, length=60)
    assert fam.rank == 2
    assert np.allclose(family_projectors(fam), np.eye(2), atol=1e-10)
    witness = verify_ed(fam)
    assert witness.alpha == pytest.approx(0.5, abs=1e-9)
    assert witness.k_const == pytest.approx(1.0, abs=1e-9)


def test_splitting_rejects_unit_modulus():
    field = autonomous_field(np.diag([1.0, 2.0]))
    with pytest.raises(NoDichotomyError):
        build_projector_family(field, 0, "plus", 0)


def test_splitting_indeterminate_until_horizon_grows():
    # rates +-0.02 are clear of the zero margin but their gap 0.04 is
    # below log(1e3)/100, so a 100-step run cannot split them
    field = autonomous_field(np.diag([0.98, 1.02]))
    with pytest.raises(IndeterminateError, match="run of 100 steps"):
        build_projector_family(field, 0, "plus", 0, length=60, horizon=40)
    # a family of length L >= horizon/2 averages its rates over L steps,
    # so a longer family resolves the gap at the same horizon once
    # log(1e3)/(L + 40) is below it
    for side in ("plus", "minus"):
        for length in (200, 400):
            fam = build_projector_family(field, 0, side, 0, length=length, horizon=40)
            assert fam.rank == 1, (side, length)
    fam = build_projector_family(field, 0, "plus", 0, horizon=300)
    assert fam.rank == 1
    # a 0.04 rate gap separates the two axes slowly
    assert np.allclose(np.abs(anchor_frames(fam)[0][:, 0]), [1.0, 0.0], atol=1e-4)


def test_spectrum_diagonal_saddle():
    res = dichotomy_spectrum(saddle_field())
    assert len(res.intervals) == 2
    assert in_spectrum(res, 0.5) and in_spectrum(res, 2.0)
    assert res.admits_ed
    for (lo, hi), target in zip(res.intervals, (0.5, 2.0)):
        assert hi - lo <= 1e-2
        assert abs(0.5 * (lo + hi) - target) <= 1e-2
    assert distance_to_one(res.intervals) >= 0.49
    near_one = int(np.argmin(np.abs(res.grid - 1.0)))
    assert res.verdicts[near_one] == "ed:1"
    # one classification per cell between the points rate +- zero_margin
    assert res.n_probes <= 4 * 2 + 1


def test_spectrum_scaled_rotation_single_band():
    res = dichotomy_spectrum(autonomous_field(0.7 * rotation(1.0)))
    assert len(res.intervals) == 1
    lo, hi = res.intervals[0]
    assert hi - lo <= 1e-2
    assert in_spectrum(res, 0.7)
    assert res.admits_ed


def test_spectrum_scaling_covariance():
    a = np.array([[0.5, 0.2], [0.0, 2.0]])
    base = dichotomy_spectrum(autonomous_field(a))
    scaled = dichotomy_spectrum(autonomous_field(3.0 * a))
    assert len(base.intervals) == len(scaled.intervals) == 2
    for (lo, hi), (slo, shi) in zip(base.intervals, scaled.intervals):
        assert abs(3.0 * 0.5 * (lo + hi) - 0.5 * (slo + shi)) <= 3e-2


def test_spectrum_flags_unit_modulus():
    res = dichotomy_spectrum(autonomous_field(np.diag([1.0, 2.0])))
    assert in_spectrum(res, 1.0)
    assert not res.admits_ed
    assert distance_to_one(res.intervals) == 0.0


def test_spectrum_and_splitting_input_validation():
    field = saddle_field()
    with pytest.raises(InputError):
        dichotomy_spectrum(field, grid=15)
    with pytest.raises(InputError):
        dichotomy_spectrum(field, gamma_min=0.0)
    with pytest.raises(InputError):
        dichotomy_spectrum(field, gamma_min=2.0, gamma_max=1.0)
    with pytest.raises(InputError):
        dichotomy_spectrum(field, zero_margin=0.0)
    with pytest.raises(InputError):
        dichotomy_spectrum(field, horizon=4)
    with pytest.raises(InputError):
        build_projector_family(field, 0, "sideways", 0)
    with pytest.raises(InputError):
        build_projector_family(field, 0, "plus", 0, horizon=4)


def test_shift_route_autonomous_saddle():
    fam = shift_operator_projector(saddle_field(), n_times=64)
    assert fam.times[0] == -24 and fam.times[-1] == 23
    assert len(fam.times) == 48
    assert fam.rank == 1
    assert np.abs(family_projectors(fam) - np.diag([1.0, 0.0])).max() <= 1e-6


def test_shift_route_full_contraction():
    fam = shift_operator_projector(autonomous_field(0.5 * np.eye(2)), n_times=32)
    assert fam.rank == 2
    assert np.abs(family_projectors(fam) - np.eye(2)).max() <= 1e-8
    with pytest.raises(InputError):
        shift_operator_projector(saddle_field(), n_times=8)


def test_shift_route_agrees_with_marching_families():
    ahead = np.array([[0.5, 0.3], [0.0, 2.0]])
    table = np.array([SADDLE if n < 0 else ahead for n in range(-56, 56)])
    field = tabulated_field(table, (-56, 55))

    shift_fam = shift_operator_projector(field, n_times=64)
    assert shift_fam.rank == 1
    plus = build_projector_family(field, 0, "plus", 0, length=22, horizon=24)
    minus = build_projector_family(field, 0, "minus", 0, length=24, horizon=24)
    for n in range(12, 21):
        assert np.abs(projector_at(shift_fam, n) - projector_at(plus, n)).max() <= 1e-6
    for n in range(-20, -11):
        assert np.abs(projector_at(shift_fam, n) - projector_at(minus, n)).max() <= 1e-6


def test_shift_route_unit_spectrum_is_indeterminate():
    # stable and unstable axes swap across n = 0, so a solution decays in
    # both directions: the whole-line dichotomy fails and the periodic
    # closure has unit-circle spectrum
    table = np.array([SADDLE if n < 0 else np.diag([2.0, 0.5]) for n in range(-32, 32)])
    field = tabulated_field(table, (-32, 31))
    with pytest.raises(IndeterminateError):
        shift_operator_projector(field, n_times=64)


def test_spectrum_verdict_stable_under_small_perturbations():
    base = dichotomy_spectrum(saddle_field(), horizon=50)
    margin = distance_to_one(base.intervals)
    assert margin > 0.4
    radius = margin / 4.0
    for seed in range(20):
        rng = np.random.default_rng(1_000 + seed)
        bumps = rng.standard_normal((200, 2, 2))
        bumps *= radius / np.linalg.norm(bumps, ord=2, axis=(1, 2), keepdims=True)
        field = tabulated_field(SADDLE + bumps, (-100, 99))
        res = dichotomy_spectrum(field, horizon=50)
        assert res.admits_ed
        assert distance_to_one(res.intervals) > 0.1


def realization_mobius():
    """The builtin realization-mobius field (q = 0.5), its horizon and its samples."""
    scenario = Scenario.builtin("realization-mobius")
    return scenario.build_field(), scenario.horizon, scenario.options["lambdas"]


def test_spectrum_of_a_realization_contains_q_and_its_inverse():
    # the field is the identity on [-8, 8] and q-scaled beyond; the rates
    # average the times h/2 to 1.5 h away from 0, past that middle
    field, horizon, lams = realization_mobius()
    for lam, res in zip(lams, dichotomy_spectra(field, lams, horizon=horizon)):
        assert in_spectrum(res, 0.5) and in_spectrum(res, 2.0), (lam, res.intervals)
        if res.admits_ed:
            assert len(res.intervals) == 2, (lam, res.intervals)
            for (lo, hi), target in zip(res.intervals, (0.5, 2.0)):
                assert target - 1e-2 <= lo and hi <= target + 1e-2, (lam, res.intervals)


def test_spectrum_cells_agree_with_a_dense_per_gamma_scan(monkeypatch):
    """Cell verdicts and intervals against a direct verdict at each of 4,096 gammas."""
    samples = []
    cells = dichotomy._spectrum

    def recorded(gammas, *sample):
        samples.append(sample)
        return cells(gammas, *sample)

    monkeypatch.setattr(dichotomy, "_spectrum", recorded)
    field, horizon, _ = realization_mobius()
    results = dichotomy_spectra(field, [0, 4, 8, 12], grid=4096, horizon=horizon)
    for f in (
        saddle_field(),
        autonomous_field(0.7 * rotation(1.0)),
        autonomous_field(np.diag([1.0, 2.0])),
        autonomous_field(np.diag([0.5, 0.51])),  # an unresolved gap: indeterminate
    ):
        results += dichotomy_spectra(f, [0], grid=4096)
    seen = set()
    for res, sample in zip(results, samples, strict=True):
        rates = np.concatenate([sample[1], sample[3]])
        zero_margin = sample[5]
        edges = np.concatenate([rates - zero_margin, rates + zero_margin])
        assert res.n_probes <= 2 * len(rates) + 1
        for gamma, verdict in zip(res.grid, res.verdicts):
            lg = np.log(gamma)
            if np.abs(edges - lg).min() <= 1e-9:
                continue
            direct = dichotomy._verdict(lg, *sample)
            assert verdict == direct, (gamma, verdict, direct)
            assert in_spectrum(res, gamma) == (not direct.startswith("ed")), (gamma, res.intervals)
            seen.add(direct.split(":")[0])
    assert seen == {"ed", "no_ed", "indeterminate"}


def test_spectrum_counts_do_not_move_with_rounding(monkeypatch):
    # rates equal up to rounding (the rank-2 fibres of mobius-double, the rate
    # groups of a realization) give one cut: every rate nudged by 4 ulp, all up,
    # all down, alternately or at random, keeps each sample's count and verdicts
    samples = []
    cells = dichotomy._spectrum

    def recorded(gammas, *sample):
        samples.append((gammas, sample))
        return cells(gammas, *sample)

    monkeypatch.setattr(dichotomy, "_spectrum", recorded)
    results = []
    for name in ("mobius-double", "realization-mobius"):
        field = Scenario.builtin(name).build_field()
        results += dichotomy_spectra(field, range(field.n_params))
    rng = np.random.default_rng(7)
    for res, (gammas, (qp, rates_p, qm, rates_m, *rest)) in zip(results, samples, strict=True):
        d = len(rates_p)
        for signs in (np.ones(2 * d), -np.ones(2 * d), (-1.0) ** np.arange(2 * d),
                      rng.choice([-1.0, 1.0], 2 * d)):
            rates = np.concatenate([rates_p, rates_m])
            rates = rates + 4.0 * signs * np.abs(np.spacing(rates))
            got = cells(gammas, qp, rates[:d], qm, rates[d:], *rest)
            assert got.n_probes == res.n_probes, (res.rates, signs)
            assert (got.verdicts, got.at_one) == (res.verdicts, res.at_one)
            assert len(got.intervals) == len(res.intervals)
            assert np.allclose(got.intervals, res.intervals, rtol=1e-14, atol=0.0)
    # so the count is a function of the scenario: one value per builtin
    assert len({r.n_probes for r in results[:16]}) == len({r.n_probes for r in results[16:]}) == 1


def test_a_grid_point_on_an_edge_is_classified_itself():
    # rates log(gamma_k) - zero_margin on both sides of an autonomous
    # saddle: the edge log(gamma_k) ends the failing cell around the lower
    # rate and, classified with the strict margin, passes
    gammas = np.geomspace(0.05, 20.0, 64)
    zero_margin, upper = 2e-3, np.log(2.0)
    for k in range(20, 30):
        lower = np.log(gammas[k]) - zero_margin
        if lower + zero_margin == np.log(gammas[k]):
            break
    else:
        pytest.fail("no grid point whose log is an exact edge")
    rates, frames = np.array([lower, upper]), np.eye(2)
    sample = (frames, rates, frames, rates, 100, zero_margin, 1e3)
    res = dichotomy._spectrum(gammas, *sample)
    assert res.verdicts[k] == dichotomy._verdict(np.log(gammas[k]), *sample) == "ed:1"
    assert res.verdicts[k - 1] == "ed:0" and res.verdicts[k + 1] == "ed:1"
    # the interval is the failing cell's closure, so it ends on that edge
    (lo, hi), _ = res.intervals
    assert np.isclose(lo, np.exp(lower - zero_margin), rtol=1e-14)
    assert np.isclose(hi, gammas[k], rtol=1e-14)
    # one classification per cell, and one more for the point on an edge
    assert res.n_probes == 5 + 1


def test_a_default_family_and_the_spectrum_at_one_agree(monkeypatch):
    # a family of length `horizon` at 0 sweeps the spectrum's run and
    # averages the same steps, so its verdict is the spectrum's at gamma 1
    samples = []
    cells = dichotomy._spectrum

    def recorded(gammas, *sample):
        samples.append(sample)
        return cells(gammas, *sample)

    monkeypatch.setattr(dichotomy, "_spectrum", recorded)
    cases = [
        (saddle_field(), "ed:1", None),
        (autonomous_field(np.diag([1.0, 2.0])), "no_ed", NoDichotomyError),
        (autonomous_field(np.diag([0.98, 1.02])), "indeterminate", IndeterminateError),
    ]
    for field, verdict, error in cases:
        assert dichotomy_spectrum(field, horizon=40).at_one == verdict
        assert dichotomy._verdict(0.0, *samples[-1]) == verdict
        if error is None:
            assert build_projector_family(field, 0, "plus", 0, horizon=40).rank == 1
        else:
            with pytest.raises(error):
                build_projector_family(field, 0, "plus", 0, horizon=40)


def test_admits_ed_reads_the_verdict_at_one_off_the_grid():
    # a grid from gamma 1.5 up does not hold gamma = 1; its verdict is taken
    # there all the same, so lambda 8, where the decaying subspaces meet, admits
    # no dichotomy
    field, horizon, _ = realization_mobius()
    at_zero, at_eight = dichotomy_spectra(field, [0, 8], gamma_min=1.5, horizon=horizon)
    assert at_zero.grid[0] == 1.5
    assert (at_zero.at_one, at_zero.admits_ed) == ("ed:1", True)
    assert (at_eight.at_one, at_eight.admits_ed) == ("no_ed", False)


def test_spectra_rows_equal_single_sample_spectra():
    field, horizon, lams = realization_mobius()
    kwargs = {
        "gamma_min": 0.1,
        "gamma_max": 10.0,
        "grid": 40,
        "horizon": horizon,
        "zero_margin": 3e-3,
        "gap_ratio": 500.0,
    }
    batch = dichotomy_spectra(field, lams[::-1], **kwargs)
    for lam, res in zip(lams[::-1], batch):
        alone = dichotomy_spectrum(field, lam, **kwargs)
        assert res.intervals == alone.intervals
        assert res.verdicts == alone.verdicts
        assert res.n_probes == alone.n_probes
        assert np.array_equal(res.grid, alone.grid)


def frame_pair(gap: float):
    """A plus image and a minus kernel in R^3 whose one principal cosine is 1 - gap."""
    angle = np.arccos(1.0 - gap)
    plus = np.array([[1.0], [0.0], [0.0]])
    minus = np.array([[np.cos(angle), 0.0], [np.sin(angle), 0.0], [0.0, 1.0]])
    return plus, minus


def test_the_meet_rule_counts_refuses_and_clears_by_the_principal_cosine():
    # 1 - cos at most _ANGLE_TOL is a meet, up to _ANGLE_BAND it is refused
    outcomes = dichotomy._intersection_dimensions(
        [frame_pair(1e-12), frame_pair(1e-6), frame_pair(1e-2), (np.eye(3)[:, :0], np.eye(3))]
    )
    assert outcomes[0] == 1 and outcomes[2:] == [0, 0]
    assert isinstance(outcomes[1], IndeterminateError)
    assert "principal angle between the decaying subspaces is ambiguous" in str(outcomes[1])
    # the spectrum's verdict reads the same rule off its stable and unstable directions
    rates = np.log([0.5, 2.0, 2.0])
    for gap, verdict in ((1e-12, "no_ed"), (1e-6, "indeterminate"), (1e-2, "ed:1")):
        plus, minus = frame_pair(gap)
        stable_minus = np.array([[-minus[1, 0]], [minus[0, 0]], [0.0]])
        sample = (np.eye(3), rates, np.hstack([stable_minus, minus]), rates, 100, 2e-3, 1e3)
        assert dichotomy._verdict(0.0, *sample) == verdict, gap


def test_frames_meet_in_at_least_the_excess_of_their_ranks():
    # orthonormal frames of ranks r+ and d - r- in R^d, r+ > r-, meet in at least
    # r+ - r- dimensions with cosines one up to rounding, so the index count
    # never exceeds the kernel count
    rng = np.random.default_rng(19)
    for d in range(2, 9):
        pairs, excess = [], []
        for r_plus in range(1, d + 1):
            for r_minus in range(r_plus):
                for _ in range(3):
                    plus = np.linalg.qr(rng.standard_normal((d, r_plus)))[0]
                    minus = np.linalg.qr(rng.standard_normal((d, d - r_minus)))[0]
                    pairs.append((plus, minus))
                    excess.append(r_plus - r_minus)
        counts = dichotomy._intersection_dimensions(pairs)
        assert len(counts) == 3 * d * (d + 1) // 2
        assert all(isinstance(c, int) and c >= e for c, e in zip(counts, excess)), d


def mobius_sum_scenario(copies: int, q: float, n: int) -> Scenario:
    """A realization of `copies` Moebius lines ahead over a trivial rank-`copies` bundle behind."""
    doc = builtin_document("realization-mobius")
    doc["dimension"] = 2 * copies
    doc["field"].update(
        q=q,
        stable_ahead={"kind": "mobius_sum", "copies": copies},
        stable_behind={"kind": "trivial", "rank": copies},
    )
    doc["loop"]["n"] = n
    return Scenario.from_dict(doc)


def test_spectrum_and_index_agree_where_the_decaying_subspaces_meet_at_a_tiny_angle():
    # copies 2 and 3 of the ahead sum lie in the complement of the behind
    # bundle at every angle, so the kernel has dimension 2 and no sample
    # splits; at q = 0.9 the meet at lambda 11 shows 1 - cos = 1.2e-12,
    # which a sigma_min >= 1e-6 test of [Q+ | Q-] (1.09e-6) called transversal
    scenario = mobius_sum_scenario(4, 0.9, 16)
    field, lams, horizon = scenario.build_field(), scenario.options["lambdas"], scenario.horizon
    assert horizon == 40 and len(lams) == 16
    spectra = dichotomy_spectra(field, lams, horizon=horizon)
    assert [res.admits_ed for res in spectra] == [False] * 16
    assert {res.at_one for res in spectra} == {"no_ed"}
    reports = whole_line_index(field, lams, (-60, 60), horizon)
    assert [(rep.index, rep.dim_ker) for rep in reports] == [(0, 2)] * 16


def test_family_window_too_short():
    table = np.array([SADDLE for _ in range(31)])
    field = tabulated_field(table, (0, 30))
    with pytest.raises(WindowTooShortError) as excinfo:
        build_projector_family(field, 0, "plus", 0)
    # default length equals the horizon, so the sweep wants 200 steps
    assert excinfo.value.required == 200


# ---------------------------------------------------------------------------
# the fit and assembly path without LAPACK on scalar blocks


def test_scalar_singular_values_are_lapacks_bits():
    rng = np.random.default_rng(11)
    x = rng.choice([-1.0, 1.0], 100_000) * 10.0 ** rng.uniform(-100, 100, 100_000)
    stack = x.reshape(1000, 100, 1, 1)
    got = dichotomy._singular_values(stack)
    assert got.shape == (1000, 100, 1)
    assert np.array_equal(got, np.linalg.svd(stack, compute_uv=False))
    # non-finite entries: |x| (LAPACK gives NaN for inf and raises for NaN)
    odd = dichotomy._singular_values(np.array([np.inf, -np.inf, np.nan, 0.0]).reshape(4, 1, 1))
    assert odd[:2, 0].tolist() == [np.inf, np.inf]
    assert np.isnan(odd[2, 0]) and odd[3, 0] == 0.0


def rank_zero_family(growth: float, steps: int = 8) -> ProjectorFamily:
    """A one-dimensional rank-0 family whose kernel grows by `growth` per step."""
    return ProjectorFamily(
        side="plus",
        anchor=0,
        times=np.arange(steps + 1),
        rank=0,
        image_frames=np.zeros((steps + 1, 1, 0)),
        kernel_frames=np.ones((steps + 1, 1, 1)),
        image_steps=np.zeros((steps, 0, 0)),
        kernel_steps=np.full((steps, 1, 1), growth),
        bound=0.0,
    )


def test_an_overflowing_chain_fails_its_own_family_only():
    batch = [rank_zero_family(g) for g in (2.0, 1e200, 3.0, np.nan)]
    got = dichotomy.verify_families(batch)
    # a kernel chain of 1e200 per step is infinite after two steps, a NaN one at once
    assert isinstance(got[1], NumericError)
    assert "kernel transition chain at family offset 0, 2 steps is not finite" in str(got[1])
    assert isinstance(got[3], NumericError)
    assert "offset 0, 1 steps" in str(got[3])
    for i, growth in ((0, 2.0), (2, 3.0)):
        (alone,) = dichotomy.verify_families([rank_zero_family(growth)])
        assert isinstance(got[i], EDWitness)
        assert (got[i].k_const, got[i].alpha) == (alone.k_const, alone.alpha)
        assert got[i].alpha == pytest.approx(1.0 / growth, rel=1e-12)


def test_a_rank_two_kernel_with_two_distinct_rates_fits_as_with_lapacks_values(monkeypatch):
    # kernel rates 20 and 2 per step on triangular steps, the shape the QR
    # recurrence gives: over 16 steps the chain is graded by 10^16 > 1 / eps,
    # and its smaller singular value, 2^16, sets alpha = 1/2
    steps = 16
    family = ProjectorFamily(
        side="plus",
        anchor=0,
        times=np.arange(steps + 1),
        rank=0,
        image_frames=np.zeros((steps + 1, 2, 0)),
        kernel_frames=np.broadcast_to(np.eye(2), (steps + 1, 2, 2)),
        image_steps=np.zeros((steps, 0, 0)),
        kernel_steps=np.broadcast_to(np.array([[20.0, 1.0], [0.0, 2.0]]), (steps, 2, 2)),
        bound=0.0,
    )
    got = verify_ed(family)
    monkeypatch.setattr(dichotomy, "_singular_values", lambda x: np.linalg.svd(x, compute_uv=False))
    ref = verify_ed(family)
    assert got.alpha == pytest.approx(0.5, rel=1e-4)
    assert got.alpha == pytest.approx(ref.alpha, rel=1e-14)
    assert got.k_const == pytest.approx(ref.k_const, rel=1e-14)


#: relative slack a backward preimage may take on the fitted constants
FIT_SLACK = 0.05


def backward_preimages(wit: EDWitness):
    """Least-norm preimages of kernel vectors after 1, 2, 4 and 8 steps from offset 0.

    The backward form of the dichotomy, solved per family with `lstsq`
    on the transition matrix phi that the family's frames and steps
    assemble.  Yields (delta, column norms of z, residual of phi z = y).
    """
    fam = wit.family
    d, r = fam.dim, fam.rank
    inv_lo = np.linalg.inv(np.concatenate([fam.image_frames[0], fam.kernel_frames[0]], axis=-1))
    chain_im, chain_ker = np.eye(r), np.eye(d - r)
    for delta in range(1, 9):
        chain_im = fam.image_steps[delta - 1] @ chain_im
        chain_ker = fam.kernel_steps[delta - 1] @ chain_ker
        if delta in (1, 2, 4, 8):
            blocks = np.zeros((d, d))
            blocks[:r, :r] = chain_im
            blocks[r:, r:] = chain_ker
            basis_hi = np.concatenate([fam.image_frames[delta], fam.kernel_frames[delta]], axis=-1)
            phi = basis_hi @ blocks @ inv_lo
            y = fam.kernel_frames[delta]
            z = np.linalg.lstsq(phi, y, rcond=None)[0]
            yield delta, np.linalg.norm(z, axis=0), np.abs(phi @ z - y).max(initial=0.0)


def test_the_growth_fit_bounds_the_backward_preimages():
    # the fit checks no backward form: from offset 0 the growth fit covers
    # steps 1, 2, 4 and 8, and on orthonormal frames |z| <= 1 / sigma_min of
    # the kernel chain, so every preimage meets K alpha**delta to rounding
    loop = ParameterLoop.circle(16)
    fields = []
    for name in builtin_names():
        scenario = Scenario.builtin(name)
        fields.append((scenario.build_field(), scenario.horizon))
    ahead = direct_sum(direct_sum(mobius_bundle(loop), mobius_bundle(loop)), trivial_bundle(loop, 4, 1))
    for q in (0.02, 0.97):
        # q = 0.97 needs a run of 115 steps to separate its rates log q and -log q
        fields.append((realization_field(mobius_bundle(loop), trivial_bundle(loop, 2, 1), q=q), 200))
        fields.append((realization_field(ahead, trivial_bundle(loop, 8, 4), q=q), 200))
    probed = 0
    for field, horizon in fields:
        plus, minus = dichotomy.whole_line_families(field, range(field.n_params), (-30, 30), horizon)
        for wit in dichotomy.verify_families(plus + minus):
            assert isinstance(wit, EDWitness), wit
            for delta, norms, resid in backward_preimages(wit):
                bound = wit.k_const * wit.alpha**delta
                assert resid <= 1e-8
                assert norms.max(initial=0.0) <= (1.0 + FIT_SLACK) * bound
                assert norms.max(initial=0.0) <= (1.0 + 1e-12) * bound
                probed += len(norms)
    assert probed > 1000


def test_sweep_frames_match_the_per_step_marches():
    # the plus images and minus kernels are the rate sweep's columns, the free
    # complements one stacked march; the per-step marches they replaced pull
    # the image back one preimage SVD at a time from the family's last time and
    # push the kernel forward one QR at a time from its first
    loop = ParameterLoop.circle(16)
    fields = []
    for name in builtin_names():
        scenario = Scenario.builtin(name)
        fields.append((scenario.build_field(), scenario.horizon))
    ahead = direct_sum(direct_sum(mobius_bundle(loop), mobius_bundle(loop)), trivial_bundle(loop, 4, 1))
    for q in (0.02, 0.5, 0.97):
        horizon = 200 if q == 0.97 else 40
        fields.append((realization_field(mobius_bundle(loop), trivial_bundle(loop, 2, 1), q=q), horizon))
        fields.append((realization_field(ahead, trivial_bundle(loop, 8, 4), q=q), horizon))
    # every field above has symmetric steps, so A(n)^T = A(n) there; these do not
    rng = np.random.default_rng(24)
    times = np.arange(-200, 201)
    for d in (2, 3, 5, 8):
        behind, ahead_m = (random_hyperbolic(rng, d, n_stable=d // 2, max_shear=4.0)[0] for _ in "ab")
        bump = 0.1 * np.exp(-np.abs(times) / 4.0)[:, None, None] * rng.standard_normal((len(times), d, d))
        table = np.where((times >= 0)[:, None, None], ahead_m, behind) + bump
        fields.append((tabulated_field(table, (-200, 200)), 40))
    compared = 0
    for field, horizon in fields:
        lams = list(range(field.n_params))
        for fams in dichotomy.whole_line_families(field, lams, (-30, 30), horizon):
            assert all(isinstance(fam, ProjectorFamily) for fam in fams), fams
            mats = field.stack(lams, fams[0].times[:-1])[0]
            image, regular = march_image(mats, np.stack([fam.image_frames[-1] for fam in fams]))
            kernel = march_kernel(mats, np.stack([fam.kernel_frames[0] for fam in fams]))
            assert regular.all()
            for got, want in (
                (np.stack([fam.image_frames for fam in fams]), image),
                (np.stack([fam.kernel_frames for fam in fams]), kernel),
            ):
                if got.shape[-1]:
                    cosines = np.linalg.svd(got.swapaxes(-1, -2) @ want, compute_uv=False)
                    assert (1.0 - cosines.min(axis=-1)).max() <= 1e-12
                    compared += cosines.shape[0] * cosines.shape[1]
    assert compared > 19_000


def singular_step_field(singular: np.ndarray) -> DiscreteVectorField:
    """The saddle diag(0.5, 2) with A(5) = A(-5) = `singular`."""

    def evaluate(lams, n):
        mats = np.where((np.abs(n) == 5)[:, None, None], singular, SADDLE)
        return np.broadcast_to(mats, (len(lams),) + mats.shape)

    return DiscreteVectorField(dim=2, evaluator=evaluate, window=(-200, 200))


def test_a_singular_step_is_refused_where_it_breaks_the_splitting():
    # diag(0.5, 0) kills the expanding axis: the preimage of the plus image
    # under A(5) is the whole plane, and A(-5)^T loses the complement of the
    # minus image; each side names the time
    plus, minus = dichotomy.whole_line_families(
        singular_step_field(np.diag([0.5, 0.0])), [0], (-30, 30), 40
    )
    assert isinstance(plus[0], NumericError), plus[0]
    assert str(plus[0]).endswith("the splitting is not regular at time 5")
    assert isinstance(minus[0], NumericError), minus[0]
    assert str(minus[0]).endswith("the splitting is not regular at time -5")
    # diag(0, 2) kills the contracting axis only: a noninvertible step that
    # keeps the splitting, so both families certify
    plus, minus = dichotomy.whole_line_families(
        singular_step_field(np.diag([0.0, 2.0])), [0], (-30, 30), 40
    )
    assert isinstance(plus[0], ProjectorFamily) and isinstance(minus[0], ProjectorFamily)
    assert plus[0].rank == minus[0].rank == 1


def test_closed_form_slopes_match_polyfit_and_ignore_the_batch():
    rng = np.random.default_rng(12)
    for x in (
        np.array([1.0, 2.0, 4.0, 8.0, 16.0, 21.0, 1.0, 2.0, 4.0, 8.0, 13.0]),
        rng.uniform(0.0, 50.0, 30),
        np.array([3.0, 5.0]),
    ):
        y = 3.0 * rng.standard_normal((40, 1)) * x + rng.standard_normal((40, len(x)))
        got = dichotomy._fit_slopes(x, y)
        expected = np.array([np.polyfit(x, row, 1)[0] for row in y])
        np.testing.assert_allclose(got, expected, rtol=1e-12, atol=1e-12)
        for i in range(len(y)):
            assert dichotomy._fit_slopes(x, y[i : i + 1])[0] == got[i]


def framed_pair(d: int, r: int, s: float, rng) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal image (d, r) and kernel (d, d - r) frames with sigma_min([im, ker]) = s.

    The first kernel column leans toward the first image column at the
    cosine 1 - s^2; the eigenvalues of basis^T basis are 1 +- the cosines.
    """
    q = np.linalg.qr(rng.standard_normal((d, d)))[0]
    im, ker = q[:, :r], q[:, r:].copy()
    if 0 < r < d:
        cosine = 1.0 - s * s
        ker[:, 0] = cosine * q[:, 0] + np.sqrt(1.0 - cosine * cosine) * q[:, r]
    return im, ker


@pytest.mark.parametrize("d", [1, 2, 3, 4, 8])
def test_the_projector_bound_formula_matches_the_svd_of_p(d):
    # |P| = 1 / (s sqrt(2 - s^2)), s = sigma_min([im, ker]), read off the basis SVD
    # the assembly already takes.  Both it and the SVD of P carry an error of
    # about eps / s (the conditioning of the basis; 4e-9 apart at s = 1e-7 and
    # each within 2e-9 of a 40-digit reference), so below s = 2e-5 the
    # tolerance follows 20 eps / s
    rng = np.random.default_rng(13 + d)
    for r in range(d + 1):
        for s in (1.0, 0.5, 1e-2, 1e-4, 1e-5, 1e-6, 1e-7):
            im, ker = framed_pair(d, r, s, rng)
            frames = [np.stack([im, im])[None], np.stack([ker, ker])[None]]
            (fam,) = dichotomy._assemble_batch(
                np.eye(d)[None, None], np.array([[0, 1]]), *frames, ["plus"], [0],
                dichotomy.TAU_INV, dichotomy.SIGMA_REG,
            )
            assert isinstance(fam, ProjectorFamily), (r, s, fam)
            expected = np.linalg.svd(projector_at(fam, 0), compute_uv=False)[0] if r else 0.0
            if r in (0, d):
                assert fam.bound == float(r > 0)
                continue
            tolerance = max(1e-10, 20.0 * np.finfo(float).eps / s)
            assert abs(fam.bound - expected) <= tolerance * expected, (r, s)


def test_a_step_off_the_frames_fails_frame_transport_at_its_time():
    # the assembly forms no projector: a step that carries the image off the
    # next image frame is refused by the frame transport check, at that time
    rng = np.random.default_rng(5)
    m, _ = random_hyperbolic(rng, 3, n_stable=1)
    field = autonomous_field(m)
    fam = build_projector_family(field, 0, "plus", 0, length=10)
    mats = field.matrices(0, 0, 9).copy()
    args = (
        fam.times[None], fam.image_frames[None], fam.kernel_frames[None], ["plus"], [0],
        dichotomy.TAU_INV, dichotomy.SIGMA_REG,
    )
    (again,) = dichotomy._assemble_batch(mats[None], *args)
    assert again.bound == fam.bound
    assert again.image_steps.tobytes() == fam.image_steps.tobytes()
    mats[6] += 1e-3 * np.outer(fam.kernel_frames[7][:, 0], fam.image_frames[6][:, 0])
    (refused,) = dichotomy._assemble_batch(mats[None], *args)
    assert isinstance(refused, CertificationError)
    assert "frame transport residual" in str(refused) and "at time 6 exceeds" in str(refused)


def one_row_verdict(rates, cut, run, zero_margin, gap_ratio):
    """The one-sided rule, one row at a time: the oracle of the batched classification."""
    if np.abs(rates - cut).min() < zero_margin:
        return "no_ed"
    below = rates < cut
    if below.any() and (~below).any():
        if rates[~below].min() - rates[below].max() < np.log(gap_ratio) / run:
            return "indeterminate"
    return "ed"


def test_batched_rate_classification_matches_the_one_row_rule():
    rng = np.random.default_rng(14)
    offsets = rng.choice([-0.3, -0.05, -0.02, 0.0015, 0.02, 0.05, 0.4], (400, 3))
    offsets += rng.uniform(-1e-3, 1e-3, offsets.shape) * rng.integers(0, 2, offsets.shape)
    for cut in (0.0, 0.01, -0.03):
        rates = cut + offsets
        status, below = dichotomy._classify_rates(rates, cut, 120, 2e-3, 1e3)
        expected = [one_row_verdict(row, cut, 120, 2e-3, 1e3) for row in rates]
        assert status.tolist() == expected
        assert set(expected) == {"ed", "no_ed", "indeterminate"}
        assert np.array_equal(below, rates < cut)
