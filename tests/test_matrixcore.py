"""Unit-circle hyperbolicity verdicts and spectral projectors."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import eig_projector, random_hyperbolic, rotation
from homindex.errors import DomainError, IndeterminateError, InputError, NumericError
from matrixcore import (
    SpectralSplit,
    is_hyperbolic,
    spectral_projector_contour,
    spectral_projector_eigen,
)


def test_diagonal_saddle_projector():
    m = np.diag([0.5, 2.0])
    for split in (spectral_projector_contour(m), spectral_projector_eigen(m)):
        assert np.allclose(split.stable_projector, np.diag([1.0, 0.0]), atol=1e-10)
        assert split.stable_rank == 1
        assert split.unstable_rank == 1
        assert split.gap == pytest.approx(0.5)


def test_upper_triangular_projector_frozen():
    # eigenvalues 0.5 (vector e1) and 2 (vector (2, 3)); projecting onto
    # span(e1) along span((2, 3)) gives the closed form below
    m = np.array([[0.5, 1.0], [0.0, 2.0]])
    expected = np.array([[1.0, -2.0 / 3.0], [0.0, 0.0]])
    assert np.allclose(eig_projector(m), expected, atol=1e-12)
    assert np.allclose(spectral_projector_contour(m).stable_projector, expected, atol=1e-8)
    assert np.allclose(spectral_projector_eigen(m).stable_projector, expected, atol=1e-10)


def test_rotation_is_not_hyperbolic():
    m = rotation(np.pi / 2)
    verdict = is_hyperbolic(m)
    assert verdict["decision"] == "not_hyperbolic"
    assert verdict["gap"] == pytest.approx(0.0, abs=1e-12)
    with pytest.raises(DomainError):
        spectral_projector_contour(m)
    with pytest.raises(DomainError):
        spectral_projector_eigen(m)


def test_margin_band_is_indeterminate():
    m = np.diag([1.0 + 1e-12, 2.0])
    verdict = is_hyperbolic(m)
    assert verdict["decision"] == "indeterminate"
    with pytest.raises(IndeterminateError):
        spectral_projector_contour(m)
    with pytest.raises(IndeterminateError):
        spectral_projector_eigen(m)


def test_margin_is_configurable():
    m = np.diag([1.0 + 1e-9, 2.0])
    assert is_hyperbolic(m)["decision"] == "indeterminate"
    assert is_hyperbolic(m, margin=1e-10)["decision"] == "hyperbolic"


def test_non_invertible_matrix_is_allowed():
    m = np.diag([0.0, 2.0])
    assert is_hyperbolic(m)["decision"] == "hyperbolic"
    split = spectral_projector_contour(m)
    assert np.allclose(split.stable_projector, np.diag([1.0, 0.0]), atol=1e-10)


def test_complex_pair_inside_circle():
    m = 0.5 * rotation(1.0)
    split = spectral_projector_contour(m)
    assert split.stable_rank == 2
    assert np.allclose(split.stable_projector, np.eye(2), atol=1e-10)
    assert split.gap == pytest.approx(0.5)


def test_input_validation():
    with pytest.raises(InputError):
        is_hyperbolic(np.zeros((2, 3)))
    with pytest.raises(InputError):
        is_hyperbolic(np.array([[np.nan, 0.0], [0.0, 1.0]]))
    with pytest.raises(InputError):
        is_hyperbolic(np.eye(2), margin=0.0)
    with pytest.raises(InputError):
        spectral_projector_contour(np.diag([0.5, 2.0]), nodes=8)


def test_split_constructor_rejects_non_projector():
    bad = np.array([[0.5, 0.0], [0.0, 0.0]])
    with pytest.raises(NumericError):
        SpectralSplit(bad, np.eye(2) - bad, 1, 0.5)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10_000), dim=st.integers(1, 4))
def test_contour_matches_eigen_oracle(seed, dim):
    rng = np.random.default_rng(seed)
    m, moduli = random_hyperbolic(rng, dim)
    split = spectral_projector_contour(m)
    assert abs(split.stable_projector - eig_projector(m)).max() < 1e-8
    assert split.stable_rank == int(np.sum(moduli < 1.0))
    p = split.stable_projector
    assert abs(p @ p - p).max() < 1e-8 * (1 + abs(p).max())
    assert abs(m @ p - p @ m).max() < 1e-8 * (1 + abs(m).max()) * (1 + abs(p).max())
    assert abs(p + split.unstable_projector - np.eye(dim)).max() < 1e-12
