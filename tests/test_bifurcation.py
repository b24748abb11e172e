"""Tests for nonlinear fields, hypothesis checks, and bifurcation search.

Expected values come from closed-form hand evaluation (quadratic maps),
independent in-test oracles (direct recursion residuals, subspace
geometry), or analytic structure of the built examples; nothing is
copied from the implementation under test.
"""

import dataclasses

import numpy as np
import pytest

from homindex.errors import InputError, NumericError
from homindex.field import (
    ParameterLoop,
    SampledBundle,
    construct_hyperbolic_family,
    mobius_bundle,
    realization_field,
    trivial_bundle,
)
from homindex import bifurcation, fredholm
from homindex.dichotomy import GAP_RATIO, whole_line_families
from homindex.fredholm import FiniteWindowSequence
from homindex.bifurcation import (
    BifurcationCertificate,
    CertifyOptions,
    NonlinearField,
    PerturbedSystemSpec,
    certify_bifurcation,
    check_F3,
    linearize_at_zero,
    localize_bifurcations,
)

from helpers import (
    assert_decided,
    assert_scale,
    block_norm_scale,
    boundary_conditioned,
    projector_at,
    value_at,
)


# ---------------------------------------------------------------------------
# builders and oracles


def quadratic_field(window=(-50, 50)) -> NonlinearField:
    """Scalar f(x) = 0.5 x + x^2 with analytic derivative."""
    return NonlinearField(
        dim=1,
        evaluator=lambda lams, times, x: 0.5 * x + x**2,
        derivative=lambda lams, times, x: (0.5 + 2.0 * x)[..., None],
        window=window,
        r0=1.0,
    )


def decaying_quadratic(amplitude=1.0):
    """R(n, x) = amplitude e^{-|n|} (x0^2, x0 x1) and its fibre derivative, over stacks."""

    def residual(lams, times, x):
        w = amplitude * np.exp(-np.abs(times))[:, None]
        return w * np.stack([x[..., 0] ** 2, x[..., 0] * x[..., 1]], axis=-1)

    def residual_derivative(lams, times, x):
        w = amplitude * np.exp(-np.abs(times))[:, None, None]
        rows = [[2.0 * x[..., 0], np.zeros(x.shape[:-1])], [x[..., 1], x[..., 0]]]
        return w * np.moveaxis(np.array(rows), (0, 1), (-2, -1))

    return residual, residual_derivative


def mobius_system(n_samples=16, amplitude=1.0, q=0.5) -> PerturbedSystemSpec:
    """Saddle realization of (Moebius, trivial line) + decaying quadratic."""
    loop = ParameterLoop.circle(n_samples)
    a_field = realization_field(
        mobius_bundle(loop), trivial_bundle(loop, 2, 1), q=q
    )
    residual, residual_derivative = decaying_quadratic(amplitude)
    return PerturbedSystemSpec(
        a_field=a_field,
        residual=residual,
        residual_derivative=residual_derivative,
        r0=1.0,
    )


def linear_system(stable_rank_ahead=1, stable_rank_behind=1, dim=2,
                  n_samples=16) -> PerturbedSystemSpec:
    loop = ParameterLoop.circle(n_samples)
    a_field = realization_field(
        trivial_bundle(loop, dim, stable_rank_ahead),
        trivial_bundle(loop, dim, stable_rank_behind),
        q=0.5,
    )
    return PerturbedSystemSpec(
        a_field=a_field,
        residual=lambda lams, times, x: np.zeros(x.shape),
        residual_derivative=lambda lams, times, x: np.zeros(x.shape + (dim,)),
        r0=1.0,
    )


def residual_oracle(f: NonlinearField, lam: int, phi: FiniteWindowSequence) -> float:
    """Sup-norm defect of the recursion phi(n+1) = f_n(lam, phi(n))."""
    lo, hi = phi.window
    worst = 0.0
    for n in range(lo, hi):
        step = f.evaluator(np.array([lam]), np.array([n]), value_at(phi, n)[None, None])
        worst = max(worst, float(abs(value_at(phi, n + 1) - np.asarray(step)[0, 0]).max()))
    return worst


# ---------------------------------------------------------------------------
# NonlinearField


def test_nonlinear_field_trivial_branch_guard():
    with pytest.raises(InputError):
        NonlinearField(
            dim=1,
            evaluator=lambda lams, times, x: 0.5 * x + 1e-6,
            derivative=lambda lams, times, x: np.full(x.shape + (1,), 0.5),
            window=(-10, 10),
            r0=1.0,
        )
    f = quadratic_field()
    assert f.n_params == 1


def test_value_is_zero_exactly_on_the_trivial_branch():
    times = np.arange(-20, 21)
    f = mobius_system(8).to_nonlinear()
    assert abs(f.value([3], times, np.zeros((1, 41, 2)))).max() == 0.0
    fq = quadratic_field()
    assert abs(fq.value([0], times, np.zeros((1, 41, 1)))).max() == 0.0


def test_value_validation_and_failure_names_the_time():
    f = quadratic_field(window=(-10, 10))
    with pytest.raises(InputError, match="outside the evaluable window"):
        f.value([0], np.arange(-20, 21), np.ones((1, 41, 1)))
    with pytest.raises(InputError, match="states must form"):
        f.value([0], np.arange(-5, 6), np.ones((1, 11, 2)))  # dimension mismatch

    def broken(lams, times, x):
        if np.any((times == 3) & np.any(x != 0.0, axis=-1)):
            raise ValueError("boom")
        return 0.0 * x

    fb = NonlinearField(
        dim=1,
        evaluator=broken,
        derivative=lambda lams, times, x: np.zeros(x.shape + (1,)),
        window=(-5, 5),
        r0=1.0,
    )
    with pytest.raises(InputError) as excinfo:
        fb.value([0], np.arange(-5, 6), np.ones((1, 11, 1)))
    assert "n=3" in str(excinfo.value)


def test_value_quadratic_impulse():
    f = quadratic_field()
    times = np.arange(-5, 6)
    states = np.zeros((1, 11, 1))
    states[0, 7, 0] = 1.0  # impulse at n = 2
    out = f.value([0], times, states)
    assert out.shape == (1, 11, 1)
    # 0.5 * 1 + 1^2 at the impulse, zero elsewhere
    assert out[0, 7, 0] == pytest.approx(1.5, abs=0.0)
    mask = np.ones(11, dtype=bool)
    mask[7] = False
    assert abs(out[0, mask]).max() == 0.0


def test_value_decay_closed_form():
    f = quadratic_field(window=(-10, 100))
    ns = np.arange(0, 81)
    out = f.value([0], ns, (0.8**ns)[None, :, None])[0, :, 0]
    # closed form: 0.5 * 0.8^n + 0.64^n
    expected = 0.5 * 0.8**ns + 0.64**ns
    assert abs(out - expected).max() < 1e-15
    # independent geometric-envelope fit: log-magnitudes drop linearly
    slope = np.polyfit(ns, np.log(out), 1)[0]
    assert slope < np.log(0.9)


def test_derivative_quadratic_blocks():
    f = quadratic_field()
    times = np.arange(-4, 5)
    states = np.zeros((1, 9, 1))
    states[0, 5, 0] = 1.0  # impulse at n = 1
    blocks = bifurcation._derivatives(f, [0], times, states)
    assert blocks.shape == (1, 9, 1, 1)
    # D f = 0.5 + 2 phi: 0.5 everywhere except 2.5 at the impulse
    for i, n in enumerate(times):
        expected = 2.5 if n == 1 else 0.5
        assert blocks[0, i, 0, 0] == pytest.approx(expected, abs=1e-12)

    # central differences agree with the analytic derivative
    fd = bifurcation._fd_derivative(f, [0], times, states)
    assert fd.shape == blocks.shape
    assert abs(fd - blocks).max() < 1e-6

    # a block acts on a state as its matrix: 2.5 * 2 at the impulse
    assert blocks[0, 5] @ np.array([2.0]) == pytest.approx([5.0])


def per_column_differences(f, lams, times, states):
    """Oracle: F0's central differences with one `value` read per column and sign."""
    cols = np.empty(states.shape + (f.dim,))
    for j in range(f.dim):
        e = np.zeros(f.dim)
        e[j] = bifurcation.FD_STEP
        ahead, behind = f.value(lams, times, states + e), f.value(lams, times, states - e)
        cols[..., j] = (ahead - behind) / (2.0 * bifurcation.FD_STEP)
    return cols


def test_f0_differences_are_one_read_with_the_bits_of_a_read_per_column(monkeypatch):
    f = mobius_system(16).to_nonlinear()
    lams = np.array([0, 5, 8, 15])
    times, states = bifurcation._probe_grid(list(range(-10, 11)), f.dim, f.r0, len(lams))
    expected = per_column_differences(f, lams, times, states)
    validate, reads = bifurcation._validate, []

    def counted(fn, label, *args, **kwargs):
        reads.append(label)
        return validate(fn, label, *args, **kwargs)

    monkeypatch.setattr(bifurcation, "_validate", counted)
    got = bifurcation._fd_derivative(f, lams, times, states)
    assert reads == ["evaluator"]  # 2 dim = 4 reads before
    assert got.tobytes() == expected.tobytes()


@pytest.mark.parametrize("failure", ["raise", "nan"])
def test_a_failing_difference_probe_names_the_entry_a_read_per_column_names(failure):
    # sample 1 fails only where column 1 is perturbed down, at time 2
    def evaluate(lams, times, x):
        bad = (lams[:, None] == 1) & (times[None, :] == 2) & (x[..., 1] < 0.0)
        if failure == "raise" and bad.any():
            raise ValueError("probe refused")
        out = 0.5 * x
        out[bad] = np.nan
        return out

    f = NonlinearField(
        dim=2,
        evaluator=evaluate,
        derivative=lambda lams, times, x: np.broadcast_to(0.5 * np.eye(2), x.shape + (2,)),
        window=(-5, 5),
        loop=ParameterLoop.circle(8),
    )
    lams, times, states = [0, 1], np.arange(-2, 3), np.zeros((2, 5, 2))
    error = InputError if failure == "raise" else NumericError
    for differences in (per_column_differences, bifurcation._fd_derivative):
        with pytest.raises(error, match=r"\(lam=1, n=2\)"):
            differences(f, lams, times, states)


def test_derivatives_validate_the_stack_and_name_the_entry():
    def make(derivative):
        return NonlinearField(
            dim=2,
            evaluator=lambda lams, times, x: 0.5 * x,
            derivative=derivative,
            window=(-5, 5),
            r0=1.0,
        )

    times = np.arange(-2, 3)
    states = np.zeros((2, 5, 2))
    with pytest.raises(InputError, match=r"derivative returned shape \(2,\) at \(lam=0, n=-2\)"):
        bifurcation._derivatives(
            make(lambda lams, times, x: np.zeros(x.shape)), [0, 0], times, states
        )

    def non_finite(lams, times, x):
        out = np.broadcast_to(0.5 * np.eye(2), x.shape + (2,)).copy()
        out[(times == 1)[None, :] & (np.arange(len(lams)) == 1)[:, None]] = np.nan
        return out

    message = r"derivative returned non-finite entries at \(lam=0, n=1\)"
    with pytest.raises(NumericError, match=message):
        bifurcation._derivatives(make(non_finite), [0, 0], times, states)
    with pytest.raises(InputError, match="outside the evaluable window"):
        bifurcation._derivatives(make(non_finite), [0], np.arange(-6, 0), np.zeros((1, 6, 2)))


def test_a_residual_of_a_smaller_shape_is_refused_not_broadcast():
    # A x + R and A + D_x R would broadcast an (S, T, 1) R or an (S, T, d) D_x R
    loop = ParameterLoop.circle(8)
    a_field = realization_field(mobius_bundle(loop), trivial_bundle(loop, 2, 1))
    zero = lambda lams, times, x: np.zeros(x.shape)  # noqa: E731
    narrow = lambda lams, times, x: np.zeros(x.shape[:-1] + (1,))  # noqa: E731
    with pytest.raises(InputError, match=r"^evaluator failure at \(lam=0, n=-10000\): residual "
                       r"returned shape \(1, 1, 1\), not \(1, 1, 2\)$"):
        PerturbedSystemSpec(a_field, narrow, zero).to_nonlinear()
    f = PerturbedSystemSpec(a_field, zero, zero).to_nonlinear()
    with pytest.raises(InputError, match=r"^derivative failure at \(lam=3, n=-1\): residual "
                       r"derivative returned shape \(1, 1, 2\), not \(1, 1, 2, 2\)$"):
        bifurcation._derivatives(f, [3], [-1, 0], np.zeros((1, 2, 2)))
    lin = linearize_at_zero(f)
    _, (error,) = lin.stack([5], [7])
    assert str(error) == (
        "evaluator failure at (lam=5, n=7): residual derivative returned shape (1, 1, 2), "
        "not (1, 1, 2, 2)"
    )


# ---------------------------------------------------------------------------
# linearization


def test_linearize_at_zero_quadratic_and_linear():
    field = linearize_at_zero(quadratic_field())
    for n in (-7, 0, 13):
        assert field.matrix(0, n)[0, 0] == pytest.approx(0.5, abs=1e-12)

    a = np.array([[0.3, 1.0], [0.0, 2.0]])
    f_lin = NonlinearField(
        dim=2,
        evaluator=lambda lams, times, x: x @ a.T,
        derivative=lambda lams, times, x: np.broadcast_to(a, x.shape + (2,)),
        window=(-30, 30),
        r0=1.0,
    )
    lin = linearize_at_zero(f_lin)
    for n in (-20, 0, 20):
        assert abs(lin.matrix(0, n) - a).max() < 1e-9


def test_linearize_at_zero_system2_is_a_plus_d():
    spec = mobius_system(8)
    f = spec.to_nonlinear()
    lin = linearize_at_zero(f)
    assert lin.loop is not None and len(lin.loop) == 8
    for lam in (0, 3, 7):
        for n in (-12, -3, 0, 5, 12):
            expected = spec.a_field.matrix(lam, n)  # D2R(.,0) = 0 here
            assert abs(lin.matrix(lam, n) - expected).max() < 1e-10

    # central differences of the system at zero agree to the pinned tolerance
    h = 1e-5
    for lam in (0, 5):
        for n in (-9, 0, 9):
            fd = np.column_stack(
                [(f.value(lam, n, h * e) - f.value(lam, n, -h * e)) / (2.0 * h) for e in np.eye(2)]
            )
            assert abs(fd - lin.matrix(lam, n)).max() < 1e-6


def test_perturbed_system_side_conditions():
    loop = ParameterLoop.circle(8)
    a_field = realization_field(
        trivial_bundle(loop, 2, 1), trivial_bundle(loop, 2, 1), q=0.5
    )
    spec = PerturbedSystemSpec(
        a_field=a_field,
        residual=lambda lams, times, x: np.array([1e-6, 0.0]) + 0.0 * x,
        residual_derivative=lambda lams, times, x: np.zeros(x.shape + (2,)),
        r0=1.0,
    )
    with pytest.raises(InputError, match="not a trivial branch"):
        spec.to_nonlinear()


# ---------------------------------------------------------------------------
# F3 checks


def test_check_f3_autonomous_saddle_passes():
    loop = ParameterLoop.circle(8)
    field = construct_hyperbolic_family(trivial_bundle(loop, 2, 1), 0.5)
    res = check_F3(field, 0, window=(-30, 30), horizon=40)
    assert res.verdict == "pass" and res.passed
    assert res.rank_plus == 1 and res.rank_minus == 1
    assert res.kernel_dim == 0
    # sigma_min against the dense truncation: the empty geometric count sends
    # the sample to the screen, whose floor lies below the dense value and
    # resolves to within _VALUE_TOL * scale of it; the null cut's scale is
    # the closed form on its blocks, within [sigma_max, 2 sigma_max]
    plus, minus = whole_line_families(field, [0], (-30, 30), 40)
    dense = boundary_conditioned(field, 0, (-30, 30), plus[0], minus[0])
    svals = np.linalg.svd(dense, compute_uv=False)
    (spectrum,) = fredholm.truncated_spectra(
        field, [0], (-30, 30), plus, minus, GAP_RATIO, screen=[0]
    )
    assert spectrum.floor and res.sigma_min_bound == "at least"
    assert res.sigma_min == spectrum.smallest[0] <= svals[-1]
    assert res.message.endswith(f"singular value at least {res.sigma_min:.3e})")
    assert_decided(spectrum, svals[-1:], svals[0])
    assert_scale(spectrum.scale, block_norm_scale(dense, 2), svals[0])


def test_check_f3_realization_pass_and_fail():
    n = 16
    loop = ParameterLoop.circle(n)
    mb = mobius_bundle(loop)
    field = realization_field(mb, trivial_bundle(loop, 2, 1), q=0.5)

    # oracle: the kernel appears exactly where the Moebius fibre meets
    # the backward-decaying direction e2, i.e. at theta = pi
    for lam in (0, n // 2):
        cosine = abs(float(mb.fibre(lam)[1, 0]))  # |<fibre, e2>|
        expect_kernel = cosine > 1.0 - 1e-8
        res = check_F3(field, lam, window=(-30, 30), horizon=40)
        if expect_kernel:
            assert res.verdict == "fail"
            assert res.kernel_dim == 1
        else:
            assert res.verdict == "pass"
            assert res.kernel_dim == 0
    assert check_F3(field, 0, window=(-30, 30), horizon=40).passed


def test_check_f3_modulus_one_is_indeterminate():
    loop = ParameterLoop.circle(8)
    mats = np.tile(np.diag([1.0, 0.5]), (8, 101, 1, 1))
    from homindex.field import tabulated_field

    field = tabulated_field(mats, window=(-50, 50), loop=loop)
    res = check_F3(field, 0, window=(-8, 8), horizon=12)
    assert res.verdict == "indeterminate"
    assert not res.passed


# ---------------------------------------------------------------------------
# certification


def test_certify_system2_mobius_certified():
    f = mobius_system(16).to_nonlinear()
    cert = certify_bifurcation(f, CertifyOptions(
        anchor_plus=8, anchor_minus=-8, horizon=40, f3_window=(-30, 30)
    ))
    assert cert.verdict == "bifurcation_certified"
    assert cert.f0_ok and cert.f1_ok and cert.f2_ok and cert.f3_ok
    assert cert.lambda0 == 0  # first loop sample passes F3
    assert cert.rank_plus == 1 and cert.rank_minus == 1
    assert (cert.index_class.virtual_rank, cert.index_class.delta_w1) == (0, 1)
    assert cert.anchor_minus < 0 < cert.anchor_plus
    assert any("equicontinuity" in w for w in cert.warnings)
    assert any("sufficient" in w for w in cert.warnings)
    assert cert.f3_verdicts[0] == "pass"
    assert cert.f3_verdicts[8] == "fail"  # theta = pi sample


@pytest.mark.parametrize("lam, honest", [(0, "pass"), (8, "fail")])
def test_f3_is_indeterminate_where_the_two_kernel_counts_disagree(monkeypatch, lam, honest):
    # sample 0 has no kernel and sample 8 (theta = pi) a kernel of dimension 1;
    # a truncated count that says otherwise makes the sample indeterminate
    f = mobius_system(16).to_nonlinear()
    options = CertifyOptions(horizon=40, f3_window=(-30, 30))
    before = certify_bifurcation(f, options)
    index_from_families, seen = bifurcation.index_from_families, []

    def disagreeing(*args, **kwargs):
        reports = index_from_families(*args, **kwargs)
        wrong = 1 - reports[lam].dim_ker
        reports[lam] = dataclasses.replace(reports[lam], consistent=False, dim_ker_truncated=wrong)
        seen.append(reports)
        return reports

    monkeypatch.setattr(bifurcation, "index_from_families", disagreeing)
    after = certify_bifurcation(f, options)
    assert before.f3_verdicts[lam] == honest
    verdicts = list(before.f3_verdicts)
    verdicts[lam] = "indeterminate"
    assert list(after.f3_verdicts) == verdicts
    assert after.verdict == before.verdict == "bifurcation_certified"
    assert after.lambda0 == (1 if lam == 0 else 0)
    (check,) = bifurcation._f3_verdicts([lam], (-30, 30), [seen[0][lam]])
    dim_ker = seen[0][lam].dim_ker
    assert check.message == (
        f"the geometric kernel count {dim_ker} and the truncated count {1 - dim_ker} "
        "on [-30, 30] disagree"
    )


def test_a_nonzero_index_fails_f3_whatever_the_kernel_counts():
    spectrum = fredholm.TruncationSpectrum(np.array([1e-17, 0.5]), 1.0)
    report = fredholm.IndexReport(
        index=1, dim_ker=1, dim_coker=0, rank_plus=2, rank_minus=1,
        consistent=False, dim_ker_truncated=2, truncation=spectrum,
    )
    (check,) = bifurcation._f3_verdicts([3], (-30, 30), [report])
    assert check.verdict == "fail"
    assert check.message == "Fredholm index 1 != 0 precludes invertibility"


def test_certify_f0_rejects_a_wrong_derivative():
    # a zero residual derivative misses D_x R(0, x) = [[2 x0, 0], [x1, x0]], which is
    # 1 at the probe state x = (0.5 r0, 0) at time 0
    spec = dataclasses.replace(
        mobius_system(16), residual_derivative=lambda lams, times, x: np.zeros(x.shape + (2,))
    )
    cert = certify_bifurcation(spec.to_nonlinear(), CertifyOptions(
        anchor_plus=8, anchor_minus=-8, horizon=40, f3_window=(-30, 30)
    ))
    assert not cert.f0_ok and cert.f1_ok and cert.f2_ok and cert.f3_ok
    assert cert.verdict == "hypotheses_failed"
    assert "(F0)/(F1) sampled validation failed; see the evidence table" in cert.warnings
    evidence = dict(cert.evidence)
    assert float(evidence["f0_derivative_deviation"]) == pytest.approx(1.0, abs=1e-3)
    assert float(evidence["f0_derivative_deviation"]) > (
        bifurcation.F0_DERIVATIVE_TOL * float(evidence["f0_derivative_scale"])
    )
    assert "f0_remainder_ratios" not in evidence


def test_certify_f0_scales_its_derivative_tolerance_with_the_derivative():
    # at q = 5e-6 the derivative's entries reach about 1/q = 2e5, and central
    # differences of the exact derivative deviate from it by about 1e-6 in
    # absolute terms, 5e-12 of its size
    cert = certify_bifurcation(mobius_system(16, q=5e-6).to_nonlinear(), CertifyOptions(
        anchor_plus=8, anchor_minus=-8, horizon=40, f3_window=(-30, 30)
    ))
    deviation = float(dict(cert.evidence)["f0_derivative_deviation"])
    assert bifurcation.F0_DERIVATIVE_TOL < deviation < 1e-5
    assert cert.f0_ok and cert.f1_ok
    # the scale row follows the deviation row, so a reader checks the gate
    # deviation <= F0_DERIVATIVE_TOL * scale from the report alone
    names = [name for name, _ in cert.evidence]
    assert names[names.index("f0_derivative_deviation") + 1] == "f0_derivative_scale"
    scale = float(dict(cert.evidence)["f0_derivative_scale"])
    assert 1e5 < scale and deviation <= bifurcation.F0_DERIVATIVE_TOL * scale


def test_certify_linear_hyperbolic_obstruction_vanishes():
    f = linear_system(1, 1).to_nonlinear()
    cert = certify_bifurcation(f, CertifyOptions(
        anchor_plus=8, anchor_minus=-8, horizon=40, f3_window=(-30, 30)
    ))
    assert cert.verdict == "obstruction_vanishes"
    assert cert.f3_ok and cert.lambda0 == 0
    assert (cert.index_class.virtual_rank, cert.index_class.delta_w1) == (0, 0)


def test_certify_rank_mismatch_hypotheses_failed():
    f = linear_system(2, 1).to_nonlinear()  # index 1: F3 impossible
    cert = certify_bifurcation(f, CertifyOptions(
        anchor_plus=8, anchor_minus=-8, horizon=40, f3_window=(-30, 30)
    ))
    assert cert.verdict == "hypotheses_failed"
    assert not cert.f3_ok
    assert cert.rank_plus == 2 and cert.rank_minus == 1
    assert cert.lambda0 is None
    assert any("F3" in w for w in cert.warnings)


def test_certify_verdict_invariant_guard():
    with pytest.raises(InputError):
        BifurcationCertificate(
            verdict="bifurcation_certified",
            f0_ok=True, f1_ok=True, f2_ok=True, f3_ok=True,
            lambda0=0, anchor_plus=8, anchor_minus=-8,
            rank_plus=1, rank_minus=1,
            index_class=None,  # missing class cannot certify
        )
    with pytest.raises(InputError):
        BifurcationCertificate(
            verdict="not_a_verdict",
            f0_ok=True, f1_ok=True, f2_ok=True, f3_ok=True,
            lambda0=0, anchor_plus=8, anchor_minus=-8,
            rank_plus=1, rank_minus=1, index_class=None,
        )


def test_certify_verdict_stable_under_loop_rotation():
    n = 16
    loop = ParameterLoop.circle(n)
    base_verdict = None
    for shift in (0, 1, 5):
        mb = mobius_bundle(loop)
        tv = trivial_bundle(loop, 2, 1)
        mb_rolled = SampledBundle(
            loop=loop, rank=1,
            frames=np.roll(np.asarray(mb.frames), -shift, axis=0),
            name="mobius-rolled",
        )
        a_field = realization_field(mb_rolled, tv, q=0.5)
        residual, residual_derivative = decaying_quadratic()
        f = PerturbedSystemSpec(
            a_field=a_field, residual=residual,
            residual_derivative=residual_derivative, r0=1.0,
        ).to_nonlinear()
        cert = certify_bifurcation(f, CertifyOptions(
            anchor_plus=8, anchor_minus=-8, horizon=40, f3_window=(-30, 30)
        ))
        if base_verdict is None:
            base_verdict = cert.verdict
        assert cert.verdict == base_verdict == "bifurcation_certified"


# ---------------------------------------------------------------------------
# localization


def test_localize_system2_cluster_near_pi():
    n = 32
    spec = mobius_system(n)
    f = spec.to_nonlinear()
    cert = certify_bifurcation(f, CertifyOptions(
        anchor_plus=8, anchor_minus=-8, horizon=40, f3_window=(-30, 30)
    ))
    assert cert.verdict == "bifurcation_certified"

    found = localize_bifurcations(f, cert, window=(-30, 30), horizon=40)
    assert found, "expected at least one candidate near theta = pi"
    loop = f.loop
    spacing = 2.0 * np.pi / n
    for lam, phi in found:
        # cluster location: within two grid steps of theta = pi
        assert abs(loop.angle(lam) - np.pi) <= 2.0 * spacing
        # independent residual oracle and nontriviality window
        assert residual_oracle(f, lam, phi) <= 1e-9
        sup = abs(np.asarray(phi.values)).max()
        assert 1e-5 < sup < f.r0
    # candidates at the exact kernel angle exist
    assert any(lam == n // 2 for lam, _ in found)
    # the family tolerances reach localization: without a dichotomy every sample is skipped
    assert localize_bifurcations(f, cert, window=(-30, 30), horizon=40, zero_margin=0.8) == []


def test_localize_linear_fields_empty():
    f = linear_system(1, 1).to_nonlinear()
    cert = certify_bifurcation(f, CertifyOptions(
        anchor_plus=8, anchor_minus=-8, horizon=40, f3_window=(-30, 30)
    ))
    assert localize_bifurcations(f, cert, window=(-30, 30), horizon=40) == []

    loop = ParameterLoop.circle(8)
    autonomous = construct_hyperbolic_family(trivial_bundle(loop, 2, 1), 0.5)
    f2 = NonlinearField(
        dim=2,
        evaluator=lambda lams, times, x: (autonomous.stack(lams, times)[0] @ x[..., None])[..., 0],
        derivative=lambda lams, times, x: autonomous.stack(lams, times)[0],
        window=(-200, 200),
        r0=1.0,
        loop=loop,
    )
    cert2 = certify_bifurcation(f2, CertifyOptions(
        anchor_plus=4, anchor_minus=-4, horizon=40, f3_window=(-30, 30)
    ))
    assert localize_bifurcations(f2, cert2, window=(-30, 30), horizon=40) == []


def test_localize_requires_certificate_and_survives_divergence():
    f = mobius_system(8).to_nonlinear()
    with pytest.raises(InputError):
        localize_bifurcations(f, None, window=(-20, 20), horizon=30)

    # violently nonlinear residual (no invariant fibre this time):
    # Newton may diverge or collapse to zero but never raises
    loop = ParameterLoop.circle(8)
    a_field = realization_field(
        mobius_bundle(loop), trivial_bundle(loop, 2, 1), q=0.5
    )

    def wild_residual(lams, times, x):
        w = 1e4 * np.exp(-np.abs(times))[:, None]
        return w * np.stack([x[..., 1] ** 2, x[..., 0] * x[..., 1]], axis=-1)

    def wild_derivative(lams, times, x):
        w = 1e4 * np.exp(-np.abs(times))[:, None, None]
        rows = [[np.zeros(x.shape[:-1]), 2.0 * x[..., 1]], [x[..., 1], x[..., 0]]]
        return w * np.moveaxis(np.array(rows), (0, 1), (-2, -1))

    wild = PerturbedSystemSpec(
        a_field=a_field,
        residual=wild_residual,
        residual_derivative=wild_derivative,
        r0=1.0,
    )
    fw = wild.to_nonlinear()
    cert = certify_bifurcation(fw, CertifyOptions(
        anchor_plus=8, anchor_minus=-8, horizon=30, f3_window=(-20, 20)
    ))
    found = localize_bifurcations(fw, cert, window=(-20, 20), horizon=30)
    for lam, phi in found:
        assert residual_oracle(fw, lam, phi) <= 1e-9


# ---------------------------------------------------------------------------
# lockstep Gauss-Newton


def lockstep_inputs(f, lams, scales, window, horizon, tilt=0.0):
    """Gauss-Newton runs at `lams`: each sample's principal near-kernel seed at `scales`.

    The seed comes from the linearization's families anchored at zero,
    whatever its cosine, plus `tilt` times seeded noise.  Returns the
    samples, starts, P-(lo) and I - P+(hi) of the runs.
    """
    plus, minus = whole_line_families(linearize_at_zero(f), lams, window, horizon)
    rng = np.random.default_rng(0)
    runs = []
    for lam, fam_plus, fam_minus in zip(lams, plus, minus):
        overlap = fam_plus.image_frames[0].T @ fam_minus.kernel_frames[fam_minus.index_of(0)]
        u, _, vt = np.linalg.svd(overlap)
        (base,) = bifurcation._seed_sequences([fam_plus], [fam_minus], u[None, :, 0], vt[None, 0], window)
        p_lo = projector_at(fam_minus, window[0])
        q_hi = np.eye(f.dim) - projector_at(fam_plus, window[1])
        for scale in scales:
            start = scale * base + tilt * rng.standard_normal(base.shape)
            runs.append((lam, start, p_lo, q_hi))
    return [np.array(column) for column in zip(*runs)]


def marched_seed(fam_plus, fam_minus, image_coords, kernel_coords, window):
    """Oracle: one seed marched alone, a product or solve per step with 1-D coordinates."""
    lo, hi = window
    vals = np.empty((hi - lo + 1, fam_plus.dim))
    c = np.asarray(image_coords, dtype=float)
    for i in range(hi + 1):
        vals[i - lo] = fam_plus.image_frames[i] @ c
        if i < hi:
            c = fam_plus.image_steps[i] @ c
    first, k = fam_minus.index_of(lo), np.asarray(kernel_coords, dtype=float)
    for i in range(fam_minus.index_of(0) - 1, first - 1, -1):
        k = np.linalg.solve(fam_minus.kernel_steps[i], k)
        vals[i - first] = fam_minus.kernel_frames[i] @ k
    top = float(np.abs(vals).max())
    return vals / top if top > 0.0 else vals


def test_all_seeds_march_together_with_the_bits_of_each_alone(monkeypatch):
    f = mobius_system(16).to_nonlinear()
    window = (-30, 30)
    plus, minus = whole_line_families(linearize_at_zero(f), range(16), window, 40)
    rng = np.random.default_rng(7)
    image, kernel = rng.standard_normal((16, 1)), rng.standard_normal((16, 1))
    solves = []
    solve = np.linalg.solve
    monkeypatch.setattr(np.linalg, "solve", lambda *a: solves.append(1) or solve(*a))
    got = bifurcation._seed_sequences(plus, minus, image, kernel, window)
    assert len(solves) == 30  # one stacked solve per step, 30 per seed before
    monkeypatch.setattr(np.linalg, "solve", solve)
    for lam in range(16):
        expected = marched_seed(plus[lam], minus[lam], image[lam], kernel[lam], window)
        assert got[lam].tobytes() == expected.tobytes()
    # localization seeds through one stacked SVD and one march for all samples
    seeds = bifurcation._seeds(plus, minus, window)
    for lam in range(16):
        overlap = plus[lam].image_frames[0].T @ minus[lam].kernel_frames[minus[lam].index_of(0)]
        u, cosines, vt = np.linalg.svd(overlap)
        expected = [
            marched_seed(plus[lam], minus[lam], u[:, k], vt[k], window)
            for k in range(len(cosines))
            if cosines[k] >= bifurcation.SEED_COSINE
        ]
        assert [seed.tobytes() for seed in seeds[lam]] == [seed.tobytes() for seed in expected]
    assert sum(map(len, seeds)) >= 1


def same_outcome(a, b) -> bool:
    return (a is None and b is None) or (
        a is not None and b is not None and np.array_equal(a, b)
    )


def test_each_lockstep_run_equals_a_batch_holding_it_alone(monkeypatch):
    f = mobius_system(16).to_nonlinear()
    window = (-30, 30)
    lams, starts, p_lo, q_hi = lockstep_inputs(f, [6, 7, 8, 9], (1e-2, 0.3, 3.0), window, 40, 1e-3)
    factored = []
    solve = bifurcation.section_least_squares

    def counting(steps, first, last, rhs):
        factored.append(len(steps))
        return solve(steps, first, last, rhs)

    monkeypatch.setattr(bifurcation, "section_least_squares", counting)
    batch = bifurcation._gauss_newton(f, lams, starts, window, p_lo, q_hi)
    # one factor per iteration covers every active run; runs finish at different steps
    assert factored[0] == len(lams) and factored == sorted(factored, reverse=True)
    assert len(set(factored)) > 1
    for i in range(len(lams)):
        rows = slice(i, i + 1)
        (alone,) = bifurcation._gauss_newton(
            f, lams[rows], starts[rows], window, p_lo[rows], q_hi[rows]
        )
        assert same_outcome(alone, batch[i]), i
    polished = [x for x in batch if x is not None]
    assert len(polished) == len(lams)
    for lam, start, x in zip(lams, starts, batch):
        phi = FiniteWindowSequence.tabulate(window, x)
        assert residual_oracle(f, int(lam), phi) <= 1e-9
        if lam == 8:
            # at the kernel angle the solutions form a line through the seed: the
            # minimum-norm steps stay next to the start instead of sliding along it
            assert float(np.abs(x - start).max()) <= 1e-2
        else:
            assert float(np.abs(x).max()) <= 1e-9


def wild_system(broken_sample=None) -> NonlinearField:
    """The violently nonlinear residual of the divergence test, on the n = 8 Moebius saddle.

    With `broken_sample`, the residual of that sample is infinite
    wherever a state leaves the box |x| <= 1.5.
    """
    loop = ParameterLoop.circle(8)
    a_field = realization_field(mobius_bundle(loop), trivial_bundle(loop, 2, 1), q=0.5)

    def residual(lams, times, x):
        w = 1e4 * np.exp(-np.abs(times))[:, None]
        out = w * np.stack([x[..., 1] ** 2, x[..., 0] * x[..., 1]], axis=-1)
        far = (np.asarray(lams) == broken_sample)[:, None] & (np.abs(x).max(axis=-1) > 1.5)
        out[far] = np.inf
        return out

    def derivative(lams, times, x):
        w = 1e4 * np.exp(-np.abs(times))[:, None, None]
        rows = [[np.zeros(x.shape[:-1]), 2.0 * x[..., 1]], [x[..., 1], x[..., 0]]]
        return w * np.moveaxis(np.array(rows), (0, 1), (-2, -1))

    return PerturbedSystemSpec(
        a_field=a_field, residual=residual, residual_derivative=derivative, r0=1.0
    ).to_nonlinear()


def test_a_non_finite_sample_aborts_only_its_own_runs():
    window = (-20, 20)
    sound, broken = wild_system(), wild_system(broken_sample=4)
    scales = (1e-4, 1e-2, 0.1, 3.0)
    lams, starts, p_lo, q_hi = lockstep_inputs(sound, [3, 4, 5], scales, window, 30)
    expected = bifurcation._gauss_newton(sound, lams, starts, window, p_lo, q_hi)
    got = bifurcation._gauss_newton(broken, lams, starts, window, p_lo, q_hi)
    differ = [i for i in range(len(lams)) if not same_outcome(expected[i], got[i])]
    # the run at sample 4 that starts outside the box converges on the sound
    # field and aborts on the broken one; every other run is untouched, the
    # converging ones at the large start on samples 3 and 5 included
    assert [(int(lams[i]), float(np.abs(starts[i]).max())) for i in differ] == [(4, 3.0)]
    assert expected[differ[0]] is not None and got[differ[0]] is None
    assert expected[-1] is not None

    cert = certify_bifurcation(broken, CertifyOptions(
        anchor_plus=8, anchor_minus=-8, horizon=30, f3_window=window
    ))
    for lam, phi in localize_bifurcations(broken, cert, window=window, horizon=30):
        assert residual_oracle(broken, lam, phi) <= 1e-9
