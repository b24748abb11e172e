"""Certified projector families and their splittings, spectra, shift route."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import dense_product, random_hyperbolic, rotation, span_gap
from homindex.dichotomy import (
    build_projector_family,
    dichotomy_spectrum,
    shift_operator_projector,
    verify_ed,
)
from homindex.errors import (
    IndeterminateError,
    InputError,
    NoDichotomyError,
    WindowTooShortError,
)
from homindex.field import autonomous_field, tabulated_field

SADDLE = np.diag([0.5, 2.0])


def saddle_field():
    return autonomous_field(SADDLE)


def anchor_frames(fam):
    """Image and kernel frames of a family at its anchor."""
    i = fam.index_of(fam.anchor)
    return fam.image_frames[i], fam.kernel_frames[i]


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
    worst_inv = 0.0
    worst_idem = 0.0
    for i in range(len(fam.times) - 1):
        worst_inv = max(
            worst_inv, float(np.abs(m @ fam.projectors[i] - fam.projectors[i + 1] @ m).max())
        )
    for p in fam.projectors:
        worst_idem = max(worst_idem, float(np.abs(p @ p - p).max()))
    assert worst_inv <= 1e-7
    assert worst_idem <= 1e-8 * (1.0 + fam.bound) ** 2
    if fam.rank < dim:
        smallest = min(
            float(np.linalg.svd(s, compute_uv=False).min()) for s in fam.kernel_steps
        )
        assert smallest >= 1e-6


def test_family_is_constant_for_diagonal_saddle():
    field = saddle_field()
    plus = build_projector_family(field, 0, "plus", 0, length=30)
    assert plus.times[0] == 0 and plus.times[-1] == 30
    minus = build_projector_family(field, 0, "minus", 0, length=30)
    assert minus.times[0] == -30 and minus.times[-1] == 0
    for fam in (plus, minus):
        assert fam.rank == 1
        assert np.allclose(fam.projectors, np.diag([1.0, 0.0]), atol=1e-10)
    assert np.allclose(plus.projector(7), np.diag([1.0, 0.0]), atol=1e-10)
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
    assert np.allclose(fam.projector(0), expected_p0, atol=1e-8)
    for n in range(40, 61):
        assert np.allclose(fam.projector(n), np.diag([1.0, 0.0]), atol=1e-9)
    resid = np.abs(transient @ fam.projector(4) - fam.projector(5) @ transient).max()
    assert resid <= 1e-10


def test_verify_ed_frozen_constants_diagonal_saddle():
    field = saddle_field()
    fam = build_projector_family(field, 0, "plus", 0, length=60)
    witness = verify_ed(field, 0, fam)
    assert witness.k_const == pytest.approx(1.0, abs=1e-9)
    assert witness.alpha == pytest.approx(0.5, abs=1e-9)
    assert witness.rank == 1
    assert witness.checked_pairs > 10
    # K (1 + alpha) / (1 - alpha) (1 + sup-norm of the family) = 6 exactly
    assert witness.green_bound(fam.bound) == pytest.approx(6.0, abs=1e-8)


def test_verify_ed_slow_saddle_alpha():
    field = autonomous_field(np.diag([0.9, 2.0]))
    fam = build_projector_family(field, 0, "plus", 0, length=60)
    witness = verify_ed(field, 0, fam)
    assert witness.alpha == pytest.approx(0.9, abs=1e-9)
    assert witness.k_const == pytest.approx(1.0, abs=1e-9)


def test_verify_ed_full_rank_contraction():
    field = autonomous_field(np.diag([0.9, 2.0]) / 4.0)
    fam = build_projector_family(field, 0, "plus", 0, length=60)
    assert fam.rank == 2
    assert np.allclose(fam.projectors, np.eye(2), atol=1e-10)
    witness = verify_ed(field, 0, fam)
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
    with pytest.raises(IndeterminateError):
        build_projector_family(field, 0, "plus", 0, length=60, horizon=40)
    fam = build_projector_family(field, 0, "plus", 0, horizon=300)
    assert fam.rank == 1
    # a 0.04 rate gap separates the two axes slowly
    assert np.allclose(np.abs(anchor_frames(fam)[0][:, 0]), [1.0, 0.0], atol=1e-4)


def test_spectrum_diagonal_saddle():
    res = dichotomy_spectrum(saddle_field())
    assert len(res.intervals) == 2
    assert res.contains(0.5) and res.contains(2.0)
    assert res.admits_ed
    for (lo, hi), target in zip(res.intervals, (0.5, 2.0)):
        assert hi - lo <= 1e-2
        assert abs(0.5 * (lo + hi) - target) <= 1e-2
    assert res.distance_to_one() >= 0.49
    near_one = int(np.argmin(np.abs(res.grid - 1.0)))
    assert res.verdicts[near_one] == "ed:1"
    assert res.n_probes >= len(res.grid)


def test_spectrum_scaled_rotation_single_band():
    res = dichotomy_spectrum(autonomous_field(0.7 * rotation(1.0)))
    assert len(res.intervals) == 1
    lo, hi = res.intervals[0]
    assert hi - lo <= 1e-2
    assert res.contains(0.7)
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
    assert res.contains(1.0)
    assert not res.admits_ed
    assert res.distance_to_one() == 0.0


def test_spectrum_and_splitting_input_validation():
    field = saddle_field()
    with pytest.raises(InputError):
        dichotomy_spectrum(field, grid=15)
    with pytest.raises(InputError):
        dichotomy_spectrum(field, gamma_min=0.0)
    with pytest.raises(InputError):
        dichotomy_spectrum(field, gamma_min=2.0, gamma_max=1.0)
    with pytest.raises(InputError):
        build_projector_family(field, 0, "sideways", 0)
    with pytest.raises(InputError):
        build_projector_family(field, 0, "plus", 0, horizon=4)


def test_shift_route_autonomous_saddle():
    fam = shift_operator_projector(saddle_field(), n_times=64)
    assert fam.times[0] == -24 and fam.times[-1] == 23
    assert len(fam.times) == 48
    assert fam.rank == 1
    assert np.abs(fam.projectors - np.diag([1.0, 0.0])).max() <= 1e-6


def test_shift_route_full_contraction():
    fam = shift_operator_projector(autonomous_field(0.5 * np.eye(2)), n_times=32)
    assert fam.rank == 2
    assert np.abs(fam.projectors - np.eye(2)).max() <= 1e-8
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
        assert np.abs(shift_fam.projector(n) - plus.projector(n)).max() <= 1e-6
    for n in range(-20, -11):
        assert np.abs(shift_fam.projector(n) - minus.projector(n)).max() <= 1e-6


def test_shift_route_unit_spectrum_is_indeterminate():
    # stable and unstable axes swap across n = 0, so a solution decays in
    # both directions: the whole-line dichotomy fails and the periodic
    # closure has unit-circle spectrum
    table = np.array([SADDLE if n < 0 else np.diag([2.0, 0.5]) for n in range(-32, 32)])
    field = tabulated_field(table, (-32, 31))
    with pytest.raises(IndeterminateError):
        shift_operator_projector(field, n_times=64)


def test_spectrum_verdict_stable_under_small_perturbations():
    base = dichotomy_spectrum(saddle_field())
    margin = base.distance_to_one()
    assert margin > 0.4
    radius = margin / 4.0
    for seed in range(20):
        rng = np.random.default_rng(1_000 + seed)
        bumps = rng.standard_normal((200, 2, 2))
        bumps *= radius / np.linalg.norm(bumps, ord=2, axis=(1, 2), keepdims=True)
        field = tabulated_field(SADDLE + bumps, (-100, 99))
        res = dichotomy_spectrum(field)
        assert res.admits_ed
        assert res.distance_to_one() > 0.1


def test_family_window_too_short():
    table = np.array([SADDLE for _ in range(31)])
    field = tabulated_field(table, (0, 30))
    with pytest.raises(WindowTooShortError) as excinfo:
        build_projector_family(field, 0, "plus", 0)
    # default length equals the horizon, so the sweep wants 200 steps
    assert excinfo.value.required == 200
