"""Acceptance gate: eleven independently checkable criteria.

One test function per criterion, so ``pytest -v`` prints one pass/fail
line for each.  Every expected value is pinned here with its tolerance
and cross-checked against an in-test oracle (bare eigendecompositions,
direct stencil recursions, from-scratch boundary-conditioned rank
counts, analytic class values), never against the code under test.
"""

import numpy as np
import pytest

import matrixcore
from helpers import (
    eig_projector,
    half_line_witnesses,
    perturb_field,
    projector_at,
    random_hyperbolic,
    random_orthogonal,
    rotation,
    shift_operator_projector,
    value_at,
)

from homindex.bifurcation import (
    CertifyOptions,
    certify_bifurcation,
    localize_bifurcations,
)
from homindex.bundle import KOClassDesk, index_bundle_pair
from homindex.cli import run
from homindex.dichotomy import (
    build_projector_family,
    dichotomy_spectrum,
    verify_ed,
)
from homindex.field import (
    ParameterLoop,
    autonomous_field,
    direct_sum,
    mobius_bundle,
    realization_field,
    tabulated_field,
    trivial_bundle,
)
from homindex.fredholm import FiniteWindowSequence, green_solve, kernel_cokernel
from homindex.scenario import Scenario, builtin_names

SADDLE = np.diag([0.5, 2.0])


def stencil_defect(field_, lam, phi, psi) -> float:
    """Oracle: sup over covered times of |phi(n+1) - A_n phi(n) - psi(n)|."""
    lo, hi = phi.window
    worst = 0.0
    for i, n in enumerate(range(lo, hi)):
        row = phi.values[i + 1] - field_.matrix(lam, n) @ phi.values[i]
        worst = max(worst, float(np.abs(row - value_at(psi, n)).max()))
    return worst


def test_criterion_01_contour_and_eigen_projectors_agree():
    """200 random hyperbolic matrices: contour vs eigen route, sup <= 1e-8."""
    for seed in range(200):
        rng = np.random.default_rng(10_000 + seed)
        d = 2 + seed % 3
        m, _ = random_hyperbolic(rng, d)
        split = matrixcore.spectral_projector_contour(m)
        oracle = eig_projector(m)
        assert np.abs(split.stable_projector - oracle).max() <= 1e-8


def random_diagonalizable(rng, dim: int, unit_block: bool):
    """Random real diagonalizable matrix with known eigenvalue moduli.

    `unit_block` plants one modulus exactly on the unit circle (a 1x1
    sign block or a rotation pair).  Rotation angles stay in
    [0.5, pi - 0.5]: the growth-rate sweep averages an oscillating log
    whose residue scales like 1/(frequency * window), so angles near 0
    or pi would need an unboundedly long run for any fixed accuracy.
    Moduli are capped at 2.2 and the conjugator kept mildly sheared for
    the same reason: the residue is relative, the tolerance absolute.
    """
    blocks, moduli = [], []
    remaining = dim
    if unit_block:
        if remaining >= 2 and rng.random() < 0.5:
            blocks.append(rotation(rng.uniform(0.5, np.pi - 0.5)))
            moduli.extend([1.0, 1.0])
            remaining -= 2
        else:
            blocks.append(np.array([[1.0 if rng.random() < 0.5 else -1.0]]))
            moduli.append(1.0)
            remaining -= 1
    while remaining > 0:
        size = 2 if remaining >= 2 and rng.random() < 0.4 else 1
        r = rng.uniform(0.2, 0.85) if rng.random() < 0.5 else rng.uniform(1.2, 2.2)
        if size == 1:
            blocks.append(np.array([[r * (1.0 if rng.random() < 0.5 else -1.0)]]))
            moduli.append(r)
        else:
            blocks.append(r * rotation(rng.uniform(0.5, np.pi - 0.5)))
            moduli.extend([r, r])
        remaining -= size
    core = np.zeros((dim, dim))
    at = 0
    for b in blocks:
        k = b.shape[0]
        core[at : at + k, at : at + k] = b
        at += k
    q = random_orthogonal(rng, dim)
    s = np.exp(rng.uniform(0.0, np.log(1.3), size=dim))
    v = q @ (s[:, None] * random_orthogonal(rng, dim))
    return v @ core @ np.linalg.inv(v), sorted(set(moduli))


def test_criterion_02_autonomous_spectrum_matches_eigenvalue_moduli():
    """50 random diagonalizable matrices (unit-circle moduli included):
    computed spectrum and {|lambda_i|} match within absolute 1e-2."""
    for seed in range(50):
        rng = np.random.default_rng(20_000 + seed)
        d = 2 + seed % 2
        m, moduli = random_diagonalizable(rng, d, unit_block=seed % 2 == 1)
        result = dichotomy_spectrum(autonomous_field(m), 0, horizon=200)
        intervals = result.intervals
        assert intervals, f"seed {seed}: empty spectrum for moduli {moduli}"
        for mod in moduli:
            assert any(a - 1e-2 <= mod <= b + 1e-2 for a, b in intervals), (
                f"seed {seed}: modulus {mod} not covered by {intervals}"
            )
        for a, b in intervals:
            assert min(abs(a - mod) for mod in moduli) <= 1e-2
            assert min(abs(b - mod) for mod in moduli) <= 1e-2


def test_criterion_03_ed_certificate_and_inverse_bound_for_the_saddle():
    """diag(0.5, 2): fitted (K, alpha) = (1, 0.5) +- 1e-6, invariance
    residual <= 1e-7, and the minimal-norm-preimage inverse bound holds
    on the image of the projector."""
    f = autonomous_field(SADDLE)
    fam = build_projector_family(f, 0, "plus", 0, length=40)
    wit = verify_ed(fam)
    assert abs(wit.k_const - 1.0) <= 1e-6
    assert abs(wit.alpha - 0.5) <= 1e-6

    times = [int(t) for t in fam.times]
    for i in range(len(times) - 1):
        a = f.matrix(0, times[i])
        residual = a @ projector_at(fam, times[i]) - projector_at(fam, times[i + 1]) @ a
        assert np.abs(residual).max() <= 1e-7

    # contraction on the image at rate alpha is equivalent to the
    # preimage of every image vector under the propagator being at
    # least (1/K)(1/alpha)^(k-n) times as long
    rng = np.random.default_rng(3)
    for _ in range(50):
        n, k = sorted(rng.integers(0, 31, size=2))
        x = rng.standard_normal(2)
        y = projector_at(fam, k) @ x
        if np.linalg.norm(y) < 1e-9:
            continue
        propagator = np.linalg.matrix_power(SADDLE, k - n)
        z = np.linalg.solve(propagator, y)
        lower = (1.0 / wit.k_const) * (1.0 / wit.alpha) ** (k - n) * np.linalg.norm(y)
        assert np.linalg.norm(z) >= lower * (1.0 - 1e-9)
        # the preimage lies in the image of the projector
        leak = (np.eye(2) - projector_at(fam, n)) @ z
        assert np.linalg.norm(leak) <= 1e-9 * np.linalg.norm(z)


def test_criterion_04_truncated_shift_projector_is_the_constant_saddle_projector():
    """Weighted-shift route, 64 window times: every interior projector
    equals diag(1, 0) within 1e-6."""
    fam = shift_operator_projector(autonomous_field(SADDLE), n_times=64)
    expected = np.diag([1.0, 0.0])
    assert len(fam.times) == 48  # an eighth is discarded at each end
    for n in fam.times:
        assert np.abs(projector_at(fam, n) - expected).max() <= 1e-6


def test_criterion_05_green_solutions_invert_the_stencil():
    """|L(M psi) - psi|_inf <= 1e-10 for >= 50 random forcings across
    both half-lines, both hyperbolicity signs, d in {1, 2, 4}."""
    solves = 0
    for d in (1, 2, 4):
        rng = np.random.default_rng(30_000 + d)
        v = random_orthogonal(rng, d)
        spectra = {
            "stable": rng.uniform(0.3, 0.7, size=d),
            "unstable": rng.uniform(1.4, 2.5, size=d),
        }
        if d > 1:
            mixed = np.concatenate(
                [rng.uniform(0.3, 0.7, size=d // 2), rng.uniform(1.4, 2.5, size=d - d // 2)]
            )
            spectra["mixed"] = mixed
        for moduli in spectra.values():
            f = autonomous_field(v @ np.diag(moduli) @ v.T)
            for side in ("plus", "minus"):
                fam = build_projector_family(f, 0, side, 0, length=30)
                window = (0, 29) if side == "plus" else (-30, -1)
                for _ in range(4):
                    psi = FiniteWindowSequence.tabulate(
                        window, rng.standard_normal((30, d))
                    )
                    phi = green_solve(fam, 0, psi)
                    assert stencil_defect(f, 0, phi, psi) <= 1e-10
                    solves += 1
    assert solves >= 50


def test_criterion_06_formula_index_equals_truncated_rank_index():
    """20 random asymptotically hyperbolic fields: the projector-rank
    index equals both the rank difference of the constructed tails and
    a from-scratch boundary-conditioned truncation count, exactly."""
    times = np.arange(-160, 161)
    for case in range(20):
        rng = np.random.default_rng(40_000 + case)
        d = 2 + case % 3
        a_plus, moduli_plus = random_hyperbolic(
            rng, d, stable_hi=0.55, unstable_lo=1.8,
            n_stable=int(rng.integers(0, d + 1)),
        )
        a_minus, moduli_minus = random_hyperbolic(
            rng, d, stable_hi=0.55, unstable_lo=1.8,
            n_stable=int(rng.integers(0, d + 1)),
        )
        # the stable-count request only biases the block packing; the
        # ground truth is read off the moduli actually built
        s_plus = int(np.sum(moduli_plus < 1.0))
        s_minus = int(np.sum(moduli_minus < 1.0))
        table = np.empty((321, d, d))
        table[times <= -5] = a_minus
        table[times >= 5] = a_plus
        for n in range(-4, 5):
            table[160 + n] = random_orthogonal(rng, d)
        f = tabulated_field(table, window=(-160, 160))

        wits = half_line_witnesses(f, length=40, horizon=60)
        report = kernel_cokernel(f, 0, (-40, 40), wits)
        assert report.index == s_plus - s_minus
        assert report.consistent

        # oracle: stack the stencil with decay boundary rows and count
        lo, hi, w = -40, 40, 81
        fam_plus, fam_minus = wits[0].family, wits[1].family
        stacked = np.zeros(((w - 1) * d + 2 * d, w * d))
        for i, n in enumerate(range(lo, hi)):
            stacked[i * d : (i + 1) * d, i * d : (i + 1) * d] = -f.matrix(0, n)
            stacked[i * d : (i + 1) * d, (i + 1) * d : (i + 2) * d] = np.eye(d)
        stacked[(w - 1) * d : w * d, :d] = projector_at(fam_minus, lo)
        stacked[w * d :, (w - 1) * d :] = np.eye(d) - projector_at(fam_plus, hi)
        svals = np.linalg.svd(stacked, compute_uv=False)
        cut = 1e-8 * svals[0]
        assert not np.any((svals > cut / 10) & (svals < cut * 10)), (
            f"case {case}: singular values crowd the rank cutoff"
        )
        rank = int(np.sum(svals > cut))
        dim_ker = w * d - rank
        effective_rows = (w - 1) * d + s_minus + (d - s_plus)
        dim_coker = effective_rows - rank
        assert dim_coker >= 0
        assert report.index == dim_ker - dim_coker


def test_criterion_07_realization_hits_the_requested_classes():
    """Moebius against the trivial line gives (0, 1); trivial-k against
    trivial-m gives (k - m, 0); a Moebius + Moebius input is orientable."""
    loop = ParameterLoop.circle(16)

    f = realization_field(mobius_bundle(loop), trivial_bundle(loop, 2, 1))
    cls = KOClassDesk.of_pair(*index_bundle_pair(f, anchor_plus=8, anchor_minus=-8, horizon=40))
    assert (cls.virtual_rank, cls.delta_w1) == (0, 1)

    for d, k, m in ((2, 1, 1), (3, 2, 1), (4, 3, 1), (4, 1, 3)):
        f = realization_field(trivial_bundle(loop, d, k), trivial_bundle(loop, d, m))
        cls = KOClassDesk.of_pair(
            *index_bundle_pair(f, anchor_plus=8, anchor_minus=-8, horizon=40)
        )
        assert (cls.virtual_rank, cls.delta_w1) == (k - m, 0)

    double = direct_sum(mobius_bundle(loop), mobius_bundle(loop))
    f = realization_field(double, trivial_bundle(loop, 4, 2))
    cls = KOClassDesk.of_pair(*index_bundle_pair(f, anchor_plus=8, anchor_minus=-8, horizon=40))
    assert (cls.virtual_rank, cls.delta_w1) == (0, 0)


def tail_margin(field_, n_params: int, probe: int = 150) -> float:
    """Hyperbolicity margin of the asymptotic tails: the smallest
    distance of any tail eigenvalue modulus to the unit circle, over
    every parameter and both ends.  The perturbation bound scales with
    this margin, not with the whole-line spectrum (which touches one
    whenever the index is nonzero)."""
    worst = np.inf
    for lam in range(n_params):
        for n in (probe, -probe):
            moduli = np.abs(np.linalg.eigvals(field_.matrix(lam, n)))
            worst = min(worst, float(np.abs(moduli - 1.0).min()))
    return worst


def test_criterion_08_index_and_class_survive_margin_small_perturbations():
    """20 random perturbations inside a quarter of the certified tail
    margin: every pointwise index and the desk class are unchanged.

    Two realization fields are exercised.  The rank-one field carries
    nonzero pointwise indices whose kernel meet is dimension-forced
    (2 + 2 - 3 in R^3), so it stays decidable under perturbation; the
    Moebius field carries the orientation bit, which lives at the
    bundle level -- its loop forces an exact subspace tangency at one
    parameter (that is what the class certifies), so its invariance is
    asserted on the class."""
    loop = ParameterLoop.circle(16)

    rank_one = realization_field(trivial_bundle(loop, 3, 2), trivial_bundle(loop, 3, 1))
    margin = tail_margin(rank_one, 16)
    assert margin > 0.4
    gamma = margin / 4.0

    baseline_class = KOClassDesk.of_pair(
        *index_bundle_pair(rank_one, anchor_plus=8, anchor_minus=-8, horizon=40)
    )
    assert (baseline_class.virtual_rank, baseline_class.delta_w1) == (1, 0)
    baseline_index = tuple(
        kernel_cokernel(rank_one, lam, (-30, 30), half_line_witnesses(rank_one, lam=lam)).index
        for lam in range(16)
    )
    assert baseline_index == (1,) * 16

    for trial in range(20):
        rng = np.random.default_rng(50_000 + trial)
        bumps = rng.standard_normal((16, 3, 3))
        bumps *= 0.99 * gamma / np.linalg.norm(bumps, ord=2, axis=(1, 2), keepdims=True)

        def pert(lams, times, b=bumps):
            return b[lams][:, None] / (1.0 + 0.05 * np.abs(times))[:, None, None]

        perturbed, smallness = perturb_field(
            rank_one, pert, gamma_plus=gamma, gamma_minus=gamma
        )
        assert smallness.small
        cls = KOClassDesk.of_pair(
            *index_bundle_pair(perturbed, anchor_plus=8, anchor_minus=-8, horizon=40)
        )
        assert (cls.virtual_rank, cls.delta_w1) == (1, 0)
        for lam in range(16):
            report = kernel_cokernel(
                perturbed, lam, (-30, 30), half_line_witnesses(perturbed, lam=lam)
            )
            assert report.index == 1

    mobius = realization_field(mobius_bundle(loop), trivial_bundle(loop, 2, 1))
    margin_m = tail_margin(mobius, 16)
    assert margin_m > 0.4
    gamma_m = margin_m / 4.0

    baseline_m = KOClassDesk.of_pair(
        *index_bundle_pair(mobius, anchor_plus=8, anchor_minus=-8, horizon=40)
    )
    assert (baseline_m.virtual_rank, baseline_m.delta_w1) == (0, 1)

    for trial in range(20):
        rng = np.random.default_rng(60_000 + trial)
        bumps = rng.standard_normal((16, 2, 2))
        bumps *= 0.99 * gamma_m / np.linalg.norm(bumps, ord=2, axis=(1, 2), keepdims=True)

        def pert(lams, times, b=bumps):
            return b[lams][:, None] / (1.0 + 0.05 * np.abs(times))[:, None, None]

        perturbed, smallness = perturb_field(
            mobius, pert, gamma_plus=gamma_m, gamma_minus=gamma_m
        )
        assert smallness.small
        cls = KOClassDesk.of_pair(
            *index_bundle_pair(perturbed, anchor_plus=8, anchor_minus=-8, horizon=40)
        )
        assert (cls.virtual_rank, cls.delta_w1) == (0, 1)


def test_criterion_09_nemitski_derivative_agreement_and_remainder_slope():
    """Analytic fibre derivative vs central differences <= 1e-6, and the
    quadratic family's Taylor remainder has log-log slope >= 1.8."""
    f = Scenario.builtin("system2-mobius").build_nonlinear()
    rng = np.random.default_rng(60_000)
    phi = rng.uniform(-0.4, 0.4, (1, 21, 2))
    lam, times = 3, np.arange(-10, 11)

    blocks = f.derivative(np.array([lam]), times, phi)[0]
    h = 1e-6
    for i, n in enumerate(times):
        x = phi[0, i]
        fd = np.empty((2, 2))
        for j in range(2):
            e = np.zeros(2)
            e[j] = h
            fd[:, j] = (f.value(lam, n, x + e) - f.value(lam, n, x - e)) / (2.0 * h)
        assert np.abs(blocks[i] - fd).max() <= 1e-6

    # sup-norm remainder of F(phi + h u) - F(phi) - h F'(phi) u along u = (1, 1)
    base = f.value([lam], times, phi)[0]
    slope_u = blocks.sum(axis=2)
    steps = (1e-2, 1e-3, 1e-4)
    rems = [
        float(np.abs(f.value([lam], times, phi + h)[0] - base - h * slope_u).max())
        for h in steps
    ]
    assert all(rem > 0 for rem in rems)
    for h1, r1, h2, r2 in zip(steps, rems, steps[1:], rems[1:]):
        slope = np.log(r1 / r2) / np.log(h1 / h2)
        assert slope >= 1.8


def test_criterion_10_end_to_end_certification_and_localization():
    """The Moebius system is certified with lambda0 at the first loop
    sample, and localization clusters within two grid steps of the
    fibre-flip angle pi with nonlinear residual <= 1e-9."""
    f = Scenario.builtin("system2-mobius").build_nonlinear()
    cert = certify_bifurcation(f, CertifyOptions(horizon=40, f3_window=(-30, 30)))
    assert cert.verdict == "bifurcation_certified"
    assert cert.lambda0 == 0
    assert (cert.index_class.virtual_rank, cert.index_class.delta_w1) == (0, 1)

    found = localize_bifurcations(f, cert, window=(-30, 30), horizon=40)
    assert found, "no candidate solutions were localized"
    two_grid_steps = 2.0 * (2.0 * np.pi / 16.0)
    for lam, phi in found:
        assert abs(f.loop.angle(lam) - np.pi) <= two_grid_steps + 1e-12
        lo, hi = phi.window
        residual = max(
            float(
                np.abs(phi.values[i + 1] - f.value(lam, n, phi.values[i])).max()
            )
            for i, n in enumerate(range(lo, hi))
        )
        assert residual <= 1e-9
        assert phi.norm_inf > 0.0


def test_criterion_11_reports_are_byte_identical_across_thread_counts(tmp_path):
    """Every builtin scenario: the report bytes do not depend on the
    worker-pool size."""
    command_for = {
        "autonomous-saddle": "spectrum",
        "mobius-double": "class",
        "realization-mobius": "class",
        "realization-trivial": "class",
        "system2-mobius": "certify",
    }
    assert sorted(command_for) == list(builtin_names())
    for name in builtin_names():
        blobs = []
        for threads in ("1", "8"):
            out = tmp_path / f"{name}-{threads}"
            code = run(
                [
                    command_for[name],
                    "--scenario",
                    name,
                    "--out",
                    str(out),
                    "--threads",
                    threads,
                ]
            )
            assert code == 0
            blobs.append((out / "report.json").read_bytes())
        assert blobs[0] == blobs[1], f"{name}: report differs across thread counts"
