"""Fields, their matrix tables, loops and sampled bundles."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    dense_product,
    perturb_field,
    quadratic_system_linearization,
    realization_matrix,
)
from homindex.bifurcation import CertifyOptions, certify_bifurcation, linearize_at_zero
from homindex.errors import DomainError, InputError, SamplingError
from homindex.field import (
    DiscreteVectorField,
    ParameterLoop,
    SampledBundle,
    autonomous_field,
    construct_hyperbolic_family,
    direct_sum,
    mobius_bundle,
    realization_field,
    tabulated_field,
    trivial_bundle,
)
from homindex.scenario import Scenario


def _scenario_bundle(spec, loop, dim):
    if spec["kind"] == "mobius":
        return mobius_bundle(loop)
    if spec["kind"] == "trivial":
        return trivial_bundle(loop, dim, spec["rank"])
    return direct_sum(mobius_bundle(loop), mobius_bundle(loop))


def test_propagator_composition_order():
    # A_0 swaps coordinates, A_1 scales; Phi(2, 0) = A_1 @ A_0
    a0 = np.array([[0.0, 1.0], [1.0, 0.0]])
    a1 = np.diag([2.0, 3.0])
    f = tabulated_field(np.stack([a0, a1]), window=(0, 1))
    expected = np.array([[0.0, 2.0], [3.0, 0.0]])
    assert np.allclose(dense_product(f.matrices(0, 0, 1)), expected)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000), dim=st.integers(1, 4))
def test_cocycle_identity(seed, dim):
    rng = np.random.default_rng(seed)
    mats = rng.uniform(-1.0, 1.0, size=(9, dim, dim))
    f = tabulated_field(mats, window=(0, 8))

    def product(k, n):  # Phi(k, n) = A_{k-1} ... A_n read from the field's table
        return dense_product(f.matrices(0, n, k - 1))

    k, m, n = 9, 5, 2
    assert np.allclose(product(k, m) @ product(m, n), product(k, n), atol=1e-12)
    assert np.allclose(product(k, n), dense_product(mats[n:k]), atol=1e-12)


def test_loop_validation():
    with pytest.raises(InputError):
        ParameterLoop(np.zeros((4, 1)))
    with pytest.raises(InputError):
        ParameterLoop(np.ones((10, 1)))
    loop = ParameterLoop.circle(16)
    assert len(loop) == 16
    assert loop.angular
    assert loop.angle(8) == pytest.approx(np.pi)


def test_mobius_bundle_frames():
    loop = ParameterLoop.circle(16)
    mb = mobius_bundle(loop)
    assert mb.rank == 1 and mb.dim == 2
    assert np.allclose(mb.fibre(0)[:, 0], [1.0, 0.0])
    assert np.allclose(mb.fibre(8)[:, 0], [0.0, 1.0], atol=1e-12)
    plain = ParameterLoop(np.linspace(0.0, 1.0, 16)[:, None])
    with pytest.raises(InputError):
        mobius_bundle(plain)


def test_bundle_invariants():
    loop = ParameterLoop.circle(8)
    bad = np.repeat(np.array([[1.0], [1.0]])[None], 8, axis=0)
    with pytest.raises(InputError):
        SampledBundle(loop=loop, rank=1, frames=bad)
    # frames jumping between the two coordinate axes tilt by pi/2
    frames = np.zeros((8, 2, 1))
    frames[::2, 0, 0] = 1.0
    frames[1::2, 1, 0] = 1.0
    with pytest.raises(SamplingError):
        SampledBundle(loop=loop, rank=1, frames=frames)


def test_hyperbolic_family_action_on_fibre():
    loop = ParameterLoop.circle(16)
    mb = mobius_bundle(loop)
    fam = construct_hyperbolic_family(mb, q=0.5)
    for i in (0, 3, 8, 12):
        h = fam.matrix(i, 0)
        v = mb.fibre(i)[:, 0]
        w = np.array([-v[1], v[0]])
        assert np.allclose(h @ v, 0.5 * v, atol=1e-12)
        assert np.allclose(h @ w, 2.0 * w, atol=1e-12)
        assert np.allclose(h, h.T, atol=1e-12)
    # frozen fibre at theta = pi/2: (cos pi/4, sin pi/4)
    s = np.sqrt(0.5)
    assert np.allclose(mb.fibre(4)[:, 0], [s, s], atol=1e-12)
    with pytest.raises(DomainError):
        construct_hyperbolic_family(mb, q=1.5)


def test_realization_field_pieces():
    loop = ParameterLoop.circle(16)
    e = mobius_bundle(loop)
    f = trivial_bundle(loop, 2, 1)
    fld = realization_field(e, f, q=0.5, kappa_minus=-4, kappa_plus=4)
    h_f = construct_hyperbolic_family(f, 0.5)
    h_e = construct_hyperbolic_family(e, 0.5)
    for lam in (0, 5):
        assert np.allclose(fld.matrix(lam, -5), h_f.matrix(lam, 0))
        assert np.allclose(fld.matrix(lam, -4), np.eye(2))
        assert np.allclose(fld.matrix(lam, 0), np.eye(2))
        assert np.allclose(fld.matrix(lam, 4), np.eye(2))
        assert np.allclose(fld.matrix(lam, 5), h_e.matrix(lam, 0))
    with pytest.raises(InputError):
        realization_field(e, f, kappa_minus=1, kappa_plus=4)


def test_perturbation_smallness_report():
    base = autonomous_field(np.diag([0.5, 2.0]), window=(-100, 100))
    def bump(lams, times):
        one = 1e-3 * np.exp(-np.abs(times))[:, None, None] * np.eye(2)
        return np.broadcast_to(one, (len(lams),) + one.shape)

    pert, report = perturb_field(base, bump, gamma_plus=1e-2, gamma_minus=1e-2)
    assert report.small
    assert report.observed_plus == pytest.approx(1e-3)
    assert np.allclose(pert.matrix(0, 0), np.diag([0.5, 2.0]) + 1e-3 * np.eye(2))
    _, report2 = perturb_field(base, bump, gamma_plus=1e-4, gamma_minus=1e-2)
    assert not report2.plus_ok and report2.minus_ok and not report2.small


def test_direct_sum_block_structure():
    loop = ParameterLoop.circle(12)
    s = direct_sum(mobius_bundle(loop), trivial_bundle(loop, 2, 1))
    assert s.dim == 4 and s.rank == 2
    fib = s.fibre(0)
    assert np.allclose(fib[:2, 0], [1.0, 0.0])
    assert np.allclose(fib[2:, 1], [1.0, 0.0])
    assert abs(fib[2:, 0]).max() == 0.0 and abs(fib[:2, 1]).max() == 0.0


def test_tabulated_field_window_checks():
    mats = np.zeros((3, 2, 2)) + np.eye(2)
    f = tabulated_field(mats, window=(-1, 1))
    assert np.allclose(f.matrix(0, -1), np.eye(2))
    with pytest.raises(InputError):
        f.matrix(0, 2)
    with pytest.raises(InputError):
        tabulated_field(mats, window=(0, 4))


def test_stacked_constructor_checks_name_the_first_offender():
    with pytest.raises(InputError, match="loop samples 3 and 4 coincide"):
        ParameterLoop(np.array([0.0, 1, 2, 3, 3, 5, 6, 6, 8, 9])[:, None])
    loop = ParameterLoop.circle(8)
    frames = np.zeros((8, 2, 1))
    frames[:, 0, 0] = 1.0
    skewed = frames.copy()
    skewed[5, 0, 0] = 2.0
    with pytest.raises(InputError, match="frame 5 is not orthonormal"):
        SampledBundle(loop=loop, rank=1, frames=skewed)
    for flipped, named in ((4, "fibres 3 and 4"), (7, "fibres 6 and 7")):
        tilted = frames.copy()
        tilted[flipped] = [[0.0], [1.0]]
        with pytest.raises(SamplingError, match=named):
            SampledBundle(loop=loop, rank=1, frames=tilted)

    base = autonomous_field(np.diag([0.5, 2.0]), window=(-100, 100))

    def spiky(lams, times):
        out = np.zeros((len(lams), len(times), 2, 2))
        out[:, times == 7] = np.inf
        return out

    with pytest.raises(InputError, match=r"perturbation evaluator broken at \(lam=0, n=7\)"):
        perturb_field(base, spiky, gamma_plus=1.0, gamma_minus=1.0)


def test_realization_entries_equal_the_pointwise_oracle():
    for name in ("realization-mobius", "mobius-double"):
        scenario = Scenario.builtin(name)
        spec, loop = scenario.data["field"], scenario.build_loop()
        field = scenario.build_field()
        ahead = _scenario_bundle(spec["stable_ahead"], loop, field.dim)
        behind = _scenario_bundle(spec["stable_behind"], loop, field.dim)
        times = list(range(-80, 81)) + [-10_000, 10_000]
        for lam in range(field.n_params):
            table, errors = field.stack([lam], times)
            assert errors == [None]
            for n, entry in zip(times, table[0]):
                expected = realization_matrix(ahead, behind, spec["q"], -8, 8, lam, n)
                assert np.array_equal(entry, expected), (name, lam, n)


def test_system2_linearization_entries_equal_the_pointwise_oracle():
    scenario = Scenario.builtin("system2-mobius")
    spec, loop = scenario.data["field"], scenario.build_loop()
    f = scenario.build_nonlinear()
    certify_bifurcation(f, CertifyOptions(horizon=40, f3_window=(-30, 30)))
    lin = linearize_at_zero(f)  # the table certification filled
    ahead = _scenario_bundle(spec["stable_ahead"], loop, 2)
    behind = _scenario_bundle(spec["stable_behind"], loop, 2)
    times = list(range(-70, 70)) + [-10_000, 10_000]
    for lam in range(lin.n_params):
        table, errors = lin.stack([lam], times)
        assert errors == [None]
        for n, entry in zip(times, table[0]):
            expected = quadratic_system_linearization(
                realization_matrix(ahead, behind, spec["q"], -8, 8, lam, n),
                spec["residual"]["amplitude"],
                n,
            )
            assert np.array_equal(entry, expected), (lam, n)
