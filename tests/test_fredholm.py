"""Tests for finite-window difference operators, index reports and Green solvers.

Expected values come from independent in-test oracles: dense
transcriptions of the operator stencil, closed-form geometric sums,
direct-recursion checks of L(M psi) = psi, and singular-value rank
counts of explicitly assembled boundary-conditioned truncations.
"""

import numpy as np
import pytest

from homindex import dichotomy, field, fredholm
from homindex.scenario import Scenario, builtin_document
from homindex.errors import (
    DomainError,
    IndeterminateError,
    InputError,
)

from helpers import (
    assert_decided,
    assert_scale,
    block_norm_scale,
    boundary_conditioned,
    distance_to_one,
    green_kernel,
    half_line_witnesses,
    kernel_convolve,
    perturb_field,
    projector_at,
    random_hyperbolic,
    random_orthogonal,
    truncated_null_space,
    value_at,
)

SADDLE = np.diag([0.5, 2.0])
MIXED = np.array([[0.5, 0.3], [0.0, 2.0]])


def seq(window, values):
    return fredholm.FiniteWindowSequence.tabulate(window, np.asarray(values, dtype=float))


def impulse(window, at, d, comp=0, amp=1.0):
    w = window[1] - window[0] + 1
    v = np.zeros((w, d))
    v[at - window[0], comp] = amp
    return fredholm.FiniteWindowSequence.tabulate(window, v)


def apply_stencil(field_, lam, phi):
    """Oracle: (L phi)(n) = phi(n+1) - A_n phi(n) by direct recursion."""
    lo, hi = phi.window
    out = np.empty((hi - lo, phi.values.shape[1]))
    for i, n in enumerate(range(lo, hi)):
        out[i] = phi.values[i + 1] - field_.matrix(lam, n) @ phi.values[i]
    return out


# ---------------------------------------------------------------- sequences


def test_sequence_decay_flags_and_validation():
    quiet = seq((0, 9), np.full((10, 1), 1e-8))
    assert quiet.decays_left and quiet.decays_right
    assert quiet.norm_inf == pytest.approx(1e-8)

    v = np.zeros((10, 1))
    v[0, 0] = 1.0
    v[-1, 0] = 1e-9
    loud_left = seq((0, 9), v)
    # a 10-point window checks exactly its single outermost index per side
    assert not loud_left.decays_left
    assert loud_left.decays_right
    assert value_at(loud_left, 0)[0] == 1.0
    assert value_at(loud_left, 9)[0] == 1e-9

    with pytest.raises(InputError):
        seq((0, 9), np.zeros((9, 1)))
    with pytest.raises(InputError):
        seq((3, 2), np.zeros((0, 1)))
    with pytest.raises(InputError):
        seq((0, 1), np.array([[np.inf], [0.0]]))


# --------------------------------------------------------------- truncation


def test_truncated_matrix_frozen_scalar_contraction():
    f = field.autonomous_field([[0.5]])
    (blocks,), errors = fredholm.assemble_truncated(f, [0], (0, 2))
    assert errors == [None]
    np.testing.assert_array_equal(blocks, np.full((2, 1, 1), -0.5))


def test_truncated_operator_shape_and_block_structure():
    f = field.autonomous_field(MIXED)
    window = (-5, 6)
    (blocks,), _ = fredholm.assemble_truncated(f, [0], window)
    w = window[1] - window[0] + 1
    assert blocks.shape == (w - 1, 2, 2)
    # one block -A_n per step n = lo, ..., hi - 1
    np.testing.assert_array_equal(blocks, np.broadcast_to(-MIXED, (w - 1, 2, 2)))
    with pytest.raises(InputError):
        fredholm.assemble_truncated(f, [0], (3, 3))


def test_truncated_annihilates_sampled_solution():
    f = field.autonomous_field([[0.5]])
    (blocks,), _ = fredholm.assemble_truncated(f, [0], (0, 20))
    phi = seq((0, 20), 0.5 ** np.arange(21.0)[:, None])
    # block row i maps phi to blocks[i] phi(i) + phi(i + 1)
    residual = (blocks @ phi.values[:-1, :, None])[..., 0] + phi.values[1:]
    np.testing.assert_array_equal(residual, np.zeros((20, 1)))
    np.testing.assert_array_equal(residual, apply_stencil(f, 0, phi))


# ------------------------------------------------------------- green solver


def test_green_solve_scalar_contraction_impulse():
    f = field.autonomous_field([[0.5]], window=(-200, 200))
    fam = dichotomy.build_projector_family(f, 0, side="plus", anchor=0, length=60)
    assert fam.rank == 1
    psi = impulse((0, 59), 0, 1)
    phi = fredholm.green_solve(fam, 0, psi)
    assert phi.window == (0, 60)
    assert value_at(phi, 0)[0] == 0.0
    for n in range(1, 21):
        assert value_at(phi, n)[0] == pytest.approx(0.5 ** (n - 1), abs=1e-13)
    assert np.abs(apply_stencil(f, 0, phi) - psi.values).max() <= 1e-12
    assert phi.decays_right


def test_green_solve_scalar_expansion_impulse():
    f = field.autonomous_field([[2.0]], window=(-200, 200))
    fam = dichotomy.build_projector_family(f, 0, side="plus", anchor=0, length=60)
    assert fam.rank == 0
    psi = impulse((0, 59), 0, 1)
    phi = fredholm.green_solve(fam, 0, psi)
    assert value_at(phi, 0)[0] == pytest.approx(-0.5, abs=1e-15)
    assert np.abs(phi.values[1:]).max() <= 1e-15
    assert np.abs(apply_stencil(f, 0, phi) - psi.values).max() <= 1e-12


def test_green_solve_zero_forcing():
    f = field.autonomous_field(SADDLE, window=(-200, 200))
    for side in ("plus", "minus"):
        fam = dichotomy.build_projector_family(f, 0, side=side, anchor=0, length=40)
        window = (0, 39) if side == "plus" else (-40, -1)
        psi = seq(window, np.zeros((40, 2)))
        phi = fredholm.green_solve(fam, 0, psi)
        assert np.abs(phi.values).max() == 0.0


def test_green_solve_minus_side_impulse_saddle():
    f = field.autonomous_field(SADDLE, window=(-200, 200))
    fam = dichotomy.build_projector_family(f, 0, side="minus", anchor=0, length=60)
    psi_window = (-60, -1)

    # forcing along the contracting axis: causal response from the impulse on
    stable = fredholm.green_solve(fam, 0, impulse(psi_window, -10, 2, comp=0))
    assert stable.window == (-60, 0)
    assert np.abs(apply_stencil(f, 0, stable)
                  - impulse(psi_window, -10, 2, comp=0).values).max() <= 1e-12
    assert np.abs(stable.values[:51]).max() == 0.0  # zero through n = -10 inclusive
    assert value_at(stable, -5)[0] == pytest.approx(0.5**4, abs=1e-15)
    assert value_at(stable, 0)[0] == pytest.approx(0.5**9, abs=1e-15)

    # forcing along the expanding axis: anticausal response below the impulse
    unstable = fredholm.green_solve(fam, 0, impulse(psi_window, -10, 2, comp=1))
    assert np.abs(apply_stencil(f, 0, unstable)
                  - impulse(psi_window, -10, 2, comp=1).values).max() <= 1e-12
    assert value_at(unstable, -10)[1] == pytest.approx(-0.5, abs=1e-15)
    assert value_at(unstable, -12)[1] == pytest.approx(-0.125, abs=1e-15)
    assert np.abs(unstable.values[60 - 9 :]).max() == 0.0  # zero strictly above -10
    assert unstable.decays_left


def test_green_solve_matches_green_kernel_convolution():
    f = field.autonomous_field(MIXED, window=(-200, 200))
    fam = dichotomy.build_projector_family(f, 0, side="plus", anchor=0, length=40)
    rng = np.random.default_rng(7)
    psi = seq((0, 30), rng.standard_normal((31, 2)))
    phi = fredholm.green_solve(fam, 0, psi)

    kern = green_kernel(fam)
    conv = kernel_convolve(lambda n, k: kern(n, k + 1), psi, window=(0, 40))
    assert np.abs(phi.values - conv).max() <= 1e-9


def test_green_kernel_matches_dense_chain_oracle():
    f = field.autonomous_field(MIXED, window=(-200, 200))
    fam = dichotomy.build_projector_family(f, 0, side="plus", anchor=0, length=40)
    kern = green_kernel(fam)
    eye = np.eye(2)
    for m in range(0, 9):
        for n in range(0, 9):
            if m <= n:
                expected = np.linalg.matrix_power(MIXED, n - m) @ projector_at(fam, m)
            else:
                chain = np.linalg.matrix_power(MIXED, m - n)
                expected = -np.linalg.solve(chain, eye - projector_at(fam, m))
            assert np.abs(kern(n, m) - expected).max() <= 1e-10, (n, m)


def test_green_solve_window_and_support_validation():
    f = field.autonomous_field([[0.5]], window=(-200, 200))
    plus = dichotomy.build_projector_family(f, 0, side="plus", anchor=0, length=40)
    minus = dichotomy.build_projector_family(f, 0, side="minus", anchor=0, length=40)

    # forcing beyond the family window is refused on either side, naming both
    with pytest.raises(InputError, match=r"on \[50, 50\], outside the plus window \[0, 39\]"):
        fredholm.green_solve(plus, 0, impulse((0, 60), 50, 1))
    with pytest.raises(InputError, match=r"on \[-50, -50\], outside the minus window \[-40, -1\]"):
        fredholm.green_solve(minus, 0, impulse((-60, -1), -50, 1))
    # and so is forcing on the far side of kappa
    with pytest.raises(InputError, match=r"support on \[2, 2\], outside the plus window \[5, 39\]"):
        fredholm.green_solve(plus, 5, impulse((0, 20), 2, 1))
    with pytest.raises(InputError, match="leaves no plus half-window"):
        fredholm.green_solve(plus, 100, impulse((100, 120), 102, 1))
    with pytest.raises(InputError, match="dimension"):
        fredholm.green_solve(plus, 0, seq((0, 39), np.zeros((40, 2))))
    # zeros outside the window are not forcing
    phi = fredholm.green_solve(plus, 0, impulse((-10, 60), 3, 1))
    assert phi.window == (0, 40) and value_at(phi, 4)[0] == 1.0


def nonnormal_table():
    """Saddle on [-160, 160] with a non-normal transient near n = 0."""
    table = np.array([SADDLE] * 321)
    table[158:163] = np.array([[0.9, 0.4], [0.3, 1.1]])
    return field.tabulated_field(table, window=(-160, 160))


def test_green_solve_residuals_on_random_forcing():
    f2 = nonnormal_table()
    f1 = field.autonomous_field([[0.5]], window=(-200, 200))
    rng = np.random.default_rng(11)
    for f_, d in ((f2, 2), (f1, 1)):
        for side in ("plus", "minus"):
            fam = dichotomy.build_projector_family(f_, 0, side=side, anchor=0, length=50)
            window = (0, 49) if side == "plus" else (-50, -1)
            for _ in range(10):
                psi = seq(window, rng.standard_normal((50, d)))
                phi = fredholm.green_solve(fam, 0, psi)
                resid = np.abs(apply_stencil(f_, 0, phi) - psi.values).max()
                assert resid <= 1e-10, (side, d, resid)


def test_green_solve_matches_the_convolution_past_a_nonnormal_stretch():
    # rounding that leaves its subbundle past the transient is a homogeneous
    # solution growing at the expansion rate: the stencil defect cannot see it; the
    # Green-kernel oracle and the far-end condition (I - P(end)) phi(end) = 0 can
    f = nonnormal_table()
    rng = np.random.default_rng(11)
    for side in ("plus", "minus"):
        fam = dichotomy.build_projector_family(f, 0, side=side, anchor=0, length=50)
        window = (0, 49) if side == "plus" else (-50, -1)
        psi = seq(window, rng.standard_normal((50, 2)))
        phi = fredholm.green_solve(fam, 0, psi)

        kern = green_kernel(fam)
        conv = kernel_convolve(lambda n, k: kern(n, k + 1), psi, window=phi.window)
        assert np.abs(phi.values - conv).max() <= 1e-9, side
        end = phi.window[1]
        far = (np.eye(2) - projector_at(fam, end)) @ value_at(phi, end)
        assert np.abs(far).max() <= 1e-12, side


def test_green_solve_stays_under_the_green_bound_on_long_half_lines():
    # sample 3 of both Moebius builtins at length 140, where rounding marched
    # outside its subbundle would grow to sups near 1e23
    for name in ("realization-mobius", "mobius-double"):
        scenario = Scenario.from_dict(builtin_document(name))
        f = scenario.build_field()
        rng = np.random.default_rng(3)
        for side in ("plus", "minus"):
            fam = dichotomy.build_projector_family(
                f, 3, side=side, anchor=0, length=140, horizon=scenario.horizon
            )
            window = (0, 139) if side == "plus" else (-140, -1)
            psi = seq(window, rng.standard_normal((140, f.dim)))
            phi = fredholm.green_solve(fam, 0, psi)
            bound = dichotomy.verify_ed(fam).green_bound() * psi.norm_inf
            assert phi.norm_inf <= bound, (name, side, phi.norm_inf, bound)


# -------------------------------------------------------------- convolution


def test_kernel_convolve_green_decay_flags():
    f = field.autonomous_field([[0.5]], window=(-300, 300))
    fam = dichotomy.build_projector_family(f, 0, side="plus", anchor=0, length=100)
    phi = seq((0, 100), 0.8 ** np.arange(101.0)[:, None])
    out = seq((0, 100), kernel_convolve(green_kernel(fam), phi, window=(0, 100)))
    # closed form: sum_{k<=n} 0.5^(n-k) 0.8^k = (0.8^(n+1) - 0.5^(n+1)) / 0.3
    n = np.arange(101.0)
    expected = (0.8 ** (n + 1) - 0.5 ** (n + 1)) / 0.3
    np.testing.assert_allclose(out.values[:, 0], expected, atol=1e-12)
    assert out.decays_right and not out.decays_left


# ------------------------------------------------------------ index reports


def test_kernel_cokernel_invertible_autonomous_saddle():
    f = field.autonomous_field(SADDLE, window=(-200, 200))
    wit = half_line_witnesses(f)
    report = fredholm.kernel_cokernel(f, 0, (-30, 30), wit)
    assert report.index == 0
    assert report.dim_ker == 0 and report.dim_coker == 0
    assert report.rank_plus == 1 and report.rank_minus == 1
    assert report.consistent
    assert truncated_null_space(f, 0, (-30, 30), wit)[1] == ()


def test_kernel_cokernel_rank_jump_index_two():
    times = np.arange(-160, 161)
    table = np.empty((321, 2, 2))
    table[times <= -1] = np.diag([2.0, 2.0])
    table[times == 0] = np.eye(2)
    table[times >= 1] = np.diag([0.5, 0.5])
    f = field.tabulated_field(table, window=(-160, 160))

    # oracle first: dense truncation over [-30, 30] with the half-line
    # boundary conditions both trivial here (P- = 0 forces nothing and
    # P+ = I leaves the top end fully free), so the bare stencil's null
    # count is the kernel dimension.
    w = 61
    dense = np.zeros(((w - 1) * 2, w * 2))
    for i, n in enumerate(range(-30, 30)):
        a = table[160 + n]
        dense[2 * i : 2 * i + 2, 2 * i : 2 * i + 2] = -a
        dense[2 * i : 2 * i + 2, 2 * i + 2 : 2 * i + 4] = np.eye(2)
    svals = np.linalg.svd(dense, compute_uv=False)
    null_dim = int((svals < 1e-8 * svals[0]).sum()) + (w * 2 - len(svals))
    assert null_dim == 2

    wit = half_line_witnesses(f)
    report = fredholm.kernel_cokernel(f, 0, (-30, 30), wit)
    assert report.rank_plus == 2 and report.rank_minus == 0
    assert report.index == 2
    assert report.dim_ker == 2 and report.dim_coker == 0
    assert report.consistent
    basis = truncated_null_space(f, 0, (-30, 30), wit)[1]
    assert len(basis) == report.dim_ker_truncated == 2
    for element in basis:
        assert element.decays_left and element.decays_right


def test_kernel_cokernel_mobius_realization():
    loop = field.ParameterLoop.circle(16)
    f = field.realization_field(field.mobius_bundle(loop), field.trivial_bundle(loop, 2, 1))

    # oracle: the forward-decaying line at time 0 is the Moebius fibre
    # (cos(theta/2), sin(theta/2)); the backward-decaying line is span(e2).
    # They meet exactly at theta = pi (loop sample 8 of 16).  The window
    # reaches 40 so the homoclinic settles past its identity plateau on
    # [-8, 8] well before the outermost decay-checked stretch.
    for lam, expect_ker in ((0, 0), (8, 1)):
        theta = loop.angle(lam)
        fibre = np.array([np.cos(theta / 2.0), np.sin(theta / 2.0)])
        meets = abs(fibre @ np.array([0.0, 1.0])) > 1.0 - 1e-12
        assert meets == (expect_ker == 1)

        wit = half_line_witnesses(f, lam=lam, length=40)
        report = fredholm.kernel_cokernel(f, lam, (-40, 40), wit)
        assert report.rank_plus == 1 and report.rank_minus == 1
        assert report.index == 0
        assert report.dim_ker == expect_ker
        assert report.dim_coker == expect_ker
        assert report.consistent
        basis = truncated_null_space(f, lam, (-40, 40), wit)[1]
        assert len(basis) == report.dim_ker_truncated == expect_ker
    homoclinic = basis[0]
    assert homoclinic.decays_left and homoclinic.decays_right


def test_index_two_way_on_random_asymptotically_hyperbolic_fields():
    times = np.arange(-160, 161)
    hits = 0
    for seed in range(20):
        rng = np.random.default_rng(9_000 + seed)
        d = 2 + seed % 2
        # rates kept sharp enough that kernel elements visibly settle
        # before the 10% outermost stretch of the [-40, 40] window
        a_minus, moduli_minus = random_hyperbolic(rng, d, stable_hi=0.55, unstable_lo=1.8)
        a_plus, moduli_plus = random_hyperbolic(rng, d, stable_hi=0.55, unstable_lo=1.8)
        table = np.empty((321, d, d))
        table[times <= -5] = a_minus
        table[times >= 5] = a_plus
        for n in range(-4, 5):
            table[160 + n] = random_orthogonal(rng, d)
        f = field.tabulated_field(table, window=(-160, 160))

        wit = half_line_witnesses(f, length=40, horizon=60)
        report = fredholm.kernel_cokernel(f, 0, (-40, 40), wit)

        assert report.rank_plus == int(np.sum(np.asarray(moduli_plus) < 1.0))
        assert report.rank_minus == int(np.sum(np.asarray(moduli_minus) < 1.0))
        assert report.index == report.rank_plus - report.rank_minus
        assert report.consistent
        assert report.dim_ker - report.dim_coker == report.index
        # rank-nullity bookkeeping at the bottom anchor, exactly
        fam_minus = wit[1].family
        assert fam_minus.rank + fam_minus.kernel_frames.shape[2] == d
        basis = truncated_null_space(f, 0, (-40, 40), wit)[1]
        assert len(basis) == report.dim_ker_truncated
        for element in basis:
            assert element.decays_left and element.decays_right
        hits += report.dim_ker > 0
    assert hits >= 1  # the ensemble does exercise nontrivial kernels


@pytest.mark.parametrize(
    "name, window",
    [("mobius-double", "index_window"), ("system2-mobius", "f3_window")],
)
def test_values_only_singular_values_match_a_full_svd(name, window):
    # mobius-double on the index command's window, system2-mobius on
    # F3's (the linearization along the trivial branch, window +-30)
    scenario = Scenario.builtin(name)
    f = scenario.build_field()
    lo, hi = scenario.options[window]
    assert (lo, hi) == (-30, 30)
    kernels = 0
    for lam in scenario.options["lambdas"]:
        wit = half_line_witnesses(f, lam=lam, length=hi, horizon=scenario.horizon)
        report = fredholm.kernel_cokernel(f, lam, (lo, hi), wit)
        svals, basis = truncated_null_space(f, lam, (lo, hi), wit)
        # the null group and the smallest kept value, ascending
        small = svals[::-1][: len(basis) + 1]
        assert report.truncation.smallest.shape == small.shape
        assert_decided(report.truncation, small, svals[0])
        # the null cut's scale: the closed form on the dense blocks, within
        # [sigma_max, 2 sigma_max]
        (spectrum,) = fredholm.truncated_spectra(
            f, [lam], (lo, hi), [wit[0].family], [wit[1].family], dichotomy.GAP_RATIO
        )
        dense = boundary_conditioned(f, lam, (lo, hi), wit[0].family, wit[1].family)
        assert_scale(spectrum.scale, block_norm_scale(dense, f.dim), svals[0])
        assert report.dim_ker_truncated == len(basis)
        kernels += len(basis)
    assert kernels > 0  # the Moebius flip gives some sample a kernel


def test_index_invariant_under_small_perturbations():
    base = field.autonomous_field(SADDLE, window=(-160, 160))
    spectrum = dichotomy.dichotomy_spectrum(base, 0, horizon=80)
    margin = distance_to_one(spectrum.intervals)
    assert margin > 0.4
    gamma = margin / 4.0

    baseline = fredholm.kernel_cokernel(base, 0, (-30, 30), half_line_witnesses(base))
    assert baseline.index == 0

    for seed in range(20):
        rng = np.random.default_rng(40_000 + seed)
        bumps = rng.standard_normal((321, 2, 2))
        bumps *= 0.99 * gamma / np.linalg.norm(bumps, ord=2, axis=(1, 2), keepdims=True)
        perturbed, smallness = perturb_field(
            base, lambda lams, times: bumps[None, times + 160], gamma_plus=gamma, gamma_minus=gamma
        )
        assert smallness.small
        report = fredholm.kernel_cokernel(
            perturbed, 0, (-30, 30), half_line_witnesses(perturbed)
        )
        assert report.index == baseline.index
        assert report.consistent


def test_kernel_cokernel_error_paths():
    f = field.autonomous_field(SADDLE, window=(-200, 200))
    short = half_line_witnesses(f, length=20)
    with pytest.raises(DomainError):
        fredholm.kernel_cokernel(f, 0, (-30, 30), short)

    wit = half_line_witnesses(f)
    with pytest.raises(InputError):
        fredholm.kernel_cokernel(f, 0, (5, 30), wit)
    with pytest.raises(InputError):
        fredholm.kernel_cokernel(f, 0, (-3, 3), wit)  # truncation window below 8
    with pytest.raises(InputError):
        fredholm.kernel_cokernel(f, 0, (-30, 30), (wit[1], wit[0]))


def test_kernel_cokernel_indeterminate_near_tangency():
    # a loop sampled so finely that one Moebius fibre tilts from span(e2)
    # by ~7e-3 radians: the smallest principal angle falls in the
    # ambiguous band and the report must refuse rather than guess.
    loop = field.ParameterLoop.circle(450)
    f = field.realization_field(field.mobius_bundle(loop), field.trivial_bundle(loop, 2, 1))
    lam = 226
    with pytest.raises(IndeterminateError):
        fredholm.kernel_cokernel(f, lam, (-30, 30), half_line_witnesses(f, lam=lam))


def test_index_report_guards():
    with pytest.raises(InputError):
        fredholm.IndexReport(
            index=1, dim_ker=0, dim_coker=0, rank_plus=1, rank_minus=0,
            consistent=True, dim_ker_truncated=0,
        )
    with pytest.raises(InputError):
        fredholm.IndexReport(
            index=0, dim_ker=0, dim_coker=0, rank_plus=1, rank_minus=0,
            consistent=True, dim_ker_truncated=0,
        )
