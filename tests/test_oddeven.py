"""The odd-even reduction of the truncation core against dense linear algebra.

`fredholm._regularized_factor` and `_gram_solve` work level by level
on the blocks of a boundary-conditioned truncation M, eliminating every
other alive block column at once.  Every width from 2 to 40 meets each
pattern of even and odd alive counts at every level; each test compares
with the densely formed M.  The null cut's scale, `_Sections.scale`, is
checked on the same sections.
"""

import numpy as np
import pytest

from homindex import fredholm
from homindex.dichotomy import GAP_RATIO

from helpers import assert_scale, block_norm_scale

WIDTHS = range(2, 41)
DIMS = (1, 2, 4)


def sections(width: int, d: int, seed: int, count: int = 2) -> fredholm._Sections:
    """Random blocks; the samples differ in scale, as the samples of a batch do."""
    rng = np.random.default_rng(1000 * width + 10 * d + seed)
    scale = np.array([0.5, 3.0, 1.0, 0.2])[:count, None, None, None]
    steps = scale * rng.standard_normal((count, width - 1, d, d))
    first = rng.standard_normal((count, d, d))
    last = rng.standard_normal((count, d, d))
    return fredholm._Sections(steps, first, last)


def dense_factor(levels: list, width: int, d: int, i: int) -> np.ndarray:
    """Sample i's R, with block row c the row eliminating column c."""
    r = np.zeros((width, d, width, d))
    for (out, kept), (diag, left, right) in zip(fredholm._levels(width), levels):
        cols, neighbours = np.arange(width)[out], np.arange(width)[kept]
        for j, c in enumerate(cols):
            r[c, :, c] = diag[i, j]
            if j >= 1:
                r[c, :, neighbours[j - 1]] = left[i, j - 1]
            if j < len(neighbours):
                r[c, :, neighbours[j]] = right[i, j]
    return r.reshape(width * d, width * d)


def test_the_levels_eliminate_every_column_once():
    for width in range(1, 70):
        plan = fredholm._levels(width)
        assert len(plan) == int(np.ceil(np.log2(width + 1)))
        eliminated = np.concatenate([np.arange(width)[out] for out, _ in plan])
        assert sorted(eliminated.tolist()) == list(range(width))
    assert len(fredholm._levels(201)) == 8  # a +-100 window
    assert len(fredholm._levels(601)) == 10  # a +-300 window


@pytest.mark.parametrize("d", DIMS)
def test_the_factor_squares_to_the_regularized_gram_matrix(d):
    for width in WIDTHS:
        sec = sections(width, d, seed=0)
        root_mu = np.array([1e-3, 0.7])
        levels = fredholm._regularized_factor(sec, root_mu)
        assert len(levels) == len(fredholm._levels(width))
        for i in range(sec.count):
            m = sec.dense(i)
            r = dense_factor(levels, width, d, i)
            gram = m.T @ m + root_mu[i] ** 2 * np.eye(width * d)
            scale = np.abs(gram).max()
            assert np.abs(r.T @ r - gram).max() <= 1e-13 * scale, (width, i)
            smallest = min(
                np.linalg.svd(diag[i], compute_uv=False).min() for diag, _, _ in levels
            )
            assert smallest >= root_mu[i] * (1.0 - 1e-12)


@pytest.mark.parametrize("d", DIMS)
def test_the_level_solve_matches_a_dense_solve(d):
    rng = np.random.default_rng(d)
    for width in WIDTHS:
        sec = sections(width, d, seed=1)
        root_mu = np.array([0.3, 0.05])
        levels = [
            (np.linalg.inv(diag), left, right)
            for diag, left, right in fredholm._regularized_factor(sec, root_mu)
        ]
        x = rng.standard_normal((sec.count, width, d, 3))
        y = fredholm._gram_solve(levels, x.copy())
        for i in range(sec.count):
            m = sec.dense(i)
            gram = m.T @ m + root_mu[i] ** 2 * np.eye(width * d)
            expected = np.linalg.solve(gram, x[i].reshape(width * d, 3))
            got = y[i].reshape(width * d, 3)
            assert np.abs(got - expected).max() <= 1e-9 * np.abs(expected).max(), (width, i)


@pytest.mark.parametrize("d", DIMS)
def test_the_scale_bounds_sigma_max_within_two(d):
    for width in WIDTHS:
        random = sections(width, d, seed=2)
        zero = np.zeros_like(random.first)
        for sec in (random, fredholm._Sections(random.steps, zero, zero)):
            for i in range(sec.count):
                m = sec.dense(i)
                top = np.linalg.svd(m, compute_uv=False)[0]
                assert_scale(sec.scale[i], block_norm_scale(m, d), top)


@pytest.mark.parametrize("width", [2, 3, 8, 17])
def test_a_large_block_moves_only_its_own_samples_scale(width):
    sec = sections(width, 2, seed=3, count=3)
    steps = np.array(sec.steps)
    steps[1, (width - 1) // 2] *= 1e6
    sec = fredholm._Sections(steps, sec.first, sec.last)
    alone = [float(sec.take([i]).scale[0]) for i in range(3)]
    assert sec.scale.tolist() == alone
    for i in range(3):
        m = sec.dense(i)
        assert_scale(sec.scale[i], block_norm_scale(m, 2), np.linalg.svd(m, compute_uv=False)[0])
    assert sec.scale[1] > 1e5 * max(sec.scale[0], sec.scale[2])


@pytest.mark.parametrize("width", [2, 3, 4, 9])
def test_a_zero_pivot_gives_only_its_sample_a_kernel(width):
    # P-(lo) = diag(0.5, 0) leaves x_0 = (0, t) free: with a zero last block
    # sample 0 has a one-dimensional kernel, with I - P+(hi) = I sample 1 none
    # (its smallest value is about 0.9^(w - 1), well clear of the cut)
    d = 2
    steps = np.zeros((2, width - 1, d, d))
    steps[:, :] = np.diag([0.5, 0.9])
    first = np.stack([np.diag([0.5, 0.0]), np.diag([0.5, 0.0])])
    last = np.stack([np.zeros((d, d)), np.eye(d)])
    sec = fredholm._Sections(steps, first, last)
    found = fredholm._smallest_values(sec, None)
    for i, expected in enumerate((1, 0)):
        spectrum = found[i]
        assert spectrum is not None and spectrum.scale == sec.scale[i]
        svals = np.linalg.svd(sec.dense(i), compute_uv=False)
        assert int((svals < 1e-8 * sec.scale[i]).sum()) == expected
        assert fredholm._null_space(spectrum, GAP_RATIO) == expected
        np.testing.assert_allclose(
            spectrum.smallest, svals[::-1][: expected + 1], rtol=0, atol=1e-12 * svals[0]
        )


def homoclinic_sections(width: int, d: int, seed: int, count: int = 3):
    """Sections whose kernel is one homoclinic sequence v, returned with v (count, w, d).

    In a random orthonormal frame the steps are diag(2, 1/2, ...) before
    the middle time and diag(1/2, 2, ...) from it on, so the first frame
    axis decays at both ends and every other axis grows at one of them;
    P-(lo) and I - P+(hi) remove the first axis.  The other singular
    values stay near 1/2 and above, far from the null cut.
    """
    rng = np.random.default_rng(7000 + 10 * width + d + seed)
    steps = np.empty((count, width - 1, d, d))
    first = np.empty((count, d, d))
    kernel = np.empty((count, width, d))
    for i in range(count):
        frame = np.linalg.qr(rng.standard_normal((d, d)))[0]
        before, after = np.full(d, 2.0), np.full(d, 2.0)
        before[1:], after[0] = 0.5, 0.5
        axis = np.zeros(d)
        axis[0] = 1.0
        for n in range(width):
            kernel[i, n] = frame @ (axis * 2.0 ** -abs(n - width // 2))
        for n in range(width - 1):
            steps[i, n] = -frame @ np.diag(before if n < width // 2 else after) @ frame.T
        first[i] = np.eye(d) - np.outer(frame[:, 0], frame[:, 0])
    return fredholm._Sections(steps, first, first.copy()), kernel


def solve(sec: fredholm._Sections, rhs: np.ndarray) -> np.ndarray:
    return fredholm.section_least_squares(sec.steps, sec.first, sec.last, rhs)


@pytest.mark.parametrize("d", DIMS)
def test_the_least_squares_step_matches_lstsq_on_full_rank_sections(d):
    rng = np.random.default_rng(40 + d)
    for width in (2, 3, 8, 17, 40):
        sec = sections(width, d, seed=4, count=4)
        rhs = rng.standard_normal((sec.count, width + 1, d))
        got = solve(sec, rhs)
        for i in range(sec.count):
            m = sec.dense(i)
            assert np.linalg.svd(m, compute_uv=False)[-1] > 1e-4 * sec.scale[i]
            expected = np.linalg.lstsq(m, rhs[i].reshape(-1), rcond=None)[0]
            error = np.linalg.norm(got[i].reshape(-1) - expected)
            assert error <= 1e-12 * np.linalg.norm(expected), (width, i)


@pytest.mark.parametrize("d", DIMS)
def test_the_least_squares_step_has_no_component_along_an_exact_null_vector(d):
    # the seminormal step alone leaves a component about 1e2-1e3 |rhs| long
    # along v; projecting out the Ritz vector takes it to the rounding of
    # that vector, and the step is lstsq's minimum-norm one
    rng = np.random.default_rng(50 + d)
    for width in (8, 21, 41):
        sec, kernel = homoclinic_sections(width, d, seed=0)
        rhs = rng.standard_normal((sec.count, width + 1, d))
        got = solve(sec, rhs)
        for i in range(sec.count):
            m, v = sec.dense(i), kernel[i].reshape(-1)
            v = v / np.linalg.norm(v)
            assert np.linalg.norm(m @ v) <= 1e-15 * sec.scale[i]
            step = got[i].reshape(-1)
            assert abs(v @ step) <= 1e-10 * np.linalg.norm(step), (width, i)
            expected = np.linalg.lstsq(m, rhs[i].reshape(-1), rcond=None)[0]
            assert np.linalg.norm(step - expected) <= 1e-10 * np.linalg.norm(expected)


def test_each_least_squares_solution_gets_the_bits_it_gets_alone():
    rng = np.random.default_rng(60)
    for sec in (sections(17, 2, seed=5, count=4), homoclinic_sections(17, 2, seed=1)[0]):
        rhs = rng.standard_normal((sec.count, 18, 2))
        batch = solve(sec, rhs)
        for i in range(sec.count):
            alone = solve(sec.take([i]), rhs[i : i + 1])
            assert np.array_equal(alone[0], batch[i])
