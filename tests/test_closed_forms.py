"""The closed forms of the small-block helpers against LAPACK.

`dichotomy._qr_diagonal`, `dichotomy._complement`,
`dichotomy._singular_values` and `fredholm._upper_inverse` factor
blocks of at most two rows elementwise, with no LAPACK call.  Each must
agree with the LAPACK result it replaces to a few ulp of the block's
norm, on random stacks and on the blocks where a formula could slip:
an exactly zero subdiagonal, signed zeros, axis-aligned factors, entries
near the recurrence's product cap (1e300) and near 1e-300.  The smaller
singular value of a graded 2 x 2 block must agree to a few ulp of
itself, as LAPACK's does.  Each must give a row the bits that row gets
in a batch of one.
"""

from __future__ import annotations

import numpy as np
import pytest

from homindex.dichotomy import _complement, _qr_diagonal, _singular_values
from homindex.fredholm import _upper_inverse

EPS = np.finfo(float).eps

#: agreement allowed, in units of eps times the block's 2-norm
ULPS = 8


def random_blocks(shape, seed=0):
    """Standard normal blocks, each scaled by its own factor between exp(-7) and exp(7)."""
    rng = np.random.default_rng(seed)
    scale = np.exp(rng.uniform(-7.0, 7.0, shape[:-2] + (1, 1)))
    return rng.standard_normal(shape) * scale


def adversarial_blocks():
    """2 x 2 blocks that hit the branches and the ends of the range."""
    cases = [
        [[1.0, 0.3], [0.0, 2.0]],  # zero subdiagonal: no reflection
        [[-1.0, 0.3], [-0.0, 2.0]],
        [[0.0, 1.0], [1.0, 0.0]],  # axis-aligned, zero pivot
        [[-0.0, 1.0], [-1.0, 0.0]],
        [[0.0, 0.0], [0.0, 0.0]],
        [[-0.0, -0.0], [-0.0, -0.0]],
        [[0.0, 0.0], [3.0, 0.0]],
        [[2.0, 0.0], [0.0, 0.5]],  # diagonal
        [[0.5, 0.0], [0.0, 2.0]],
        [[1.0, 1.0], [1e-30, 1.0]],  # a subdiagonal far below the pivot
        [[1e-30, 1.0], [1.0, 1.0]],  # a pivot far below the subdiagonal
        [[1e300, -7e299], [3e299, 1e300]],  # near the product cap
        [[1e300, 1e300], [1e300, 1e300]],
        [[9e299, 0.0], [0.0, 1e-300]],
        [[1e-300, 3e-301], [-2e-300, 5e-301]],  # near 1e-300
        [[1e-300, 0.0], [1e-300, 0.0]],
        [[1.0, 2.0], [2.0, 4.0]],  # singular
    ]
    return np.array(cases, dtype=float)


def two_norms(x):
    return np.linalg.norm(x, 2, axis=(-2, -1))


def lapack_qr(b):
    q, r = np.linalg.qr(b)
    return q, np.diagonal(r, axis1=-2, axis2=-1)


@pytest.mark.parametrize("shape", [(50, 2, 2), (3, 7, 2, 1), (40, 1, 1), (40, 1, 2)])
def test_the_qr_closed_form_agrees_with_lapack_to_a_few_ulp(shape):
    b = random_blocks(shape)
    q, diag = _qr_diagonal(b)
    q_ref, diag_ref = lapack_qr(b)
    assert q.shape == q_ref.shape and diag.shape == diag_ref.shape
    # LAPACK's sign convention: the same Q, not just the same span
    assert np.abs(q - q_ref).max() <= ULPS * EPS
    norms = two_norms(b)[..., None]
    assert (np.abs(diag - diag_ref) <= ULPS * EPS * norms).all()


def test_the_qr_closed_form_agrees_with_lapack_on_adversarial_blocks():
    b = adversarial_blocks()
    for x in (b, b[..., :1]):
        q, diag = _qr_diagonal(x)
        q_ref, diag_ref = lapack_qr(x)
        assert np.abs(q - q_ref).max() <= ULPS * EPS
        assert (np.abs(diag - diag_ref) <= ULPS * EPS * two_norms(x)[..., None]).all()
        assert (np.signbit(diag) == np.signbit(diag_ref))[diag != 0.0].all()
    # an exactly zero subdiagonal reflects nothing: Q = I and R = b, bit for bit
    flat = b[np.asarray(b[:, 1, 0] == 0.0)]
    q, diag = _qr_diagonal(flat)
    assert (q == np.eye(2)).all()
    assert (diag == np.stack([flat[:, 0, 0], flat[:, 1, 1]], axis=-1)).all()


def test_a_sign_flip_of_a_column_flips_its_r_entry_and_keeps_q():
    # `_blocked` normalizes frames afterwards because QR(B S) = (Q, R S) exactly
    # (up to the sign of a zero)
    b = np.concatenate([random_blocks((30, 2, 2)), adversarial_blocks()])
    q, diag = _qr_diagonal(b)
    for signs in ([-1.0, 1.0], [1.0, -1.0], [-1.0, -1.0]):
        q_s, diag_s = _qr_diagonal(b * np.array(signs))
        assert np.array_equal(q_s, q)
        assert np.array_equal(diag_s, diag * np.array(signs))


def test_the_complement_agrees_with_lapacks_complete_qr():
    x = np.concatenate([random_blocks((60, 2, 1)), adversarial_blocks()[..., :1]])
    got = _complement(x)
    ref = np.linalg.qr(x, mode="complete")[0][..., 1:]
    assert got.shape == ref.shape == (len(x), 2, 1)
    assert np.abs(got - ref).max() <= ULPS * EPS
    # orthonormal and orthogonal to the frame's column, up to rounding
    assert np.abs(np.linalg.norm(got[..., 0], axis=-1) - 1.0).max() <= 4 * EPS
    cosine = np.abs((got * x).sum(axis=(-2, -1))) / np.maximum(np.abs(x).max(axis=(-2, -1)), 1e-300)
    assert cosine.max() <= 4 * EPS


@pytest.mark.parametrize("shape", [(200, 2, 2), (5, 9, 2, 2), (50, 1, 1), (20, 3, 3)])
def test_singular_values_agree_with_lapack_to_a_few_ulp_of_the_norm(shape):
    x = random_blocks(shape, seed=1)
    got = _singular_values(x)
    ref = np.linalg.svd(x, compute_uv=False)
    assert got.shape == ref.shape
    assert (np.abs(got - ref) <= ULPS * EPS * ref[..., :1]).all()
    assert (got[..., :-1] >= got[..., 1:]).all()


def test_singular_values_agree_with_lapack_on_adversarial_blocks():
    x = adversarial_blocks()
    got = _singular_values(x)
    ref = np.linalg.svd(x, compute_uv=False)
    assert (np.abs(got - ref) <= ULPS * EPS * ref[..., :1]).all()
    # the block norms of `_Sections.scale`, against the norm they replaced
    assert (np.abs(got[..., 0] - two_norms(x)) <= ULPS * EPS * two_norms(x)).all()


def graded_blocks(n=400, seed=6):
    """Nearly upper triangular blocks graded by up to 1e30: the shape of the fit's kernel chains."""
    rng = np.random.default_rng(seed)
    x = np.empty((n, 2, 2))
    x[:, 0, 0] = rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(0.0, 30.0, n)
    x[:, 0, 1] = rng.standard_normal(n) * 10.0 ** rng.uniform(-3.0, 3.0, n)
    x[:, 1, 1] = rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-3.0, 3.0, n)
    x[:, 1, 0] = rng.standard_normal(n) * 10.0 ** rng.uniform(-20.0, -3.0, n)
    x[: n // 2, 1, 0] = 0.0
    return x


def test_the_smaller_singular_value_is_accurate_to_a_few_ulp_of_itself_on_graded_blocks():
    # hypot(E, H) - hypot(F, G) is accurate only to a few ulp of the larger
    # value, and gives exactly 0 on the first two blocks
    exact = np.array([[[1e20, 0.0], [0.0, 1.0]], [[1e20, 1.0], [0.0, 1.0]], [[1.0, 1e20], [0.0, 1.0]]])
    got = _singular_values(exact)
    assert got[0].tolist() == [1e20, 1.0]
    assert got[1, 1] == pytest.approx(1.0, rel=2 * EPS)
    assert got[2, 1] == pytest.approx(1e-20, rel=2 * EPS)
    x = graded_blocks()
    got, ref = _singular_values(x), np.linalg.svd(x, compute_uv=False)
    assert ref[:, 1].min() > 0.0 and (ref[:, 0] / ref[:, 1]).max() > 1e30
    assert (np.abs(got - ref) <= ULPS * EPS * ref).all()


def test_larger_blocks_keep_the_bits_of_lapacks_norm():
    x = random_blocks((30, 4, 4), seed=2)
    assert _singular_values(x)[..., 0].tobytes() == two_norms(x).tobytes()


def test_a_non_finite_two_by_two_block_gives_non_finite_values_without_raising():
    blocks = []
    for bad in (np.inf, -np.inf, np.nan):
        for i in range(4):
            x = np.array([[1.0, 2.0], [3.0, 4.0]]).ravel()
            x[i] = bad
            blocks.append(x.reshape(2, 2))
    blocks.append(np.array([[np.inf, np.inf], [np.inf, np.inf]]))
    blocks.append(np.array([[np.nan, np.inf], [-np.inf, 0.0]]))
    with np.errstate(invalid="ignore"):
        values = _singular_values(np.array(blocks))
    # as the docstring states: the larger value inf or NaN, the smaller NaN
    assert (np.isinf(values[:, 0]) | np.isnan(values[:, 0])).all()
    assert np.isnan(values[:, 1]).all()


def upper_blocks(shape, seed=3):
    u = np.triu(random_blocks(shape, seed))
    d = u.shape[-1]
    # the factor's diagonal blocks have singular values at least 1e-10 scale
    u[..., range(d), range(d)] += np.sign(u[..., range(d), range(d)]) * 1e-3
    return u


@pytest.mark.parametrize(
    "shape", [(100, 2, 2), (4, 6, 2, 2), (30, 1, 1), (50, 3, 3), (6, 20, 4, 4), (10, 8, 8)]
)
def test_the_triangular_inverse_agrees_with_lapack(shape):
    u = upper_blocks(shape).reshape(-1, *shape[-2:])
    if shape[-1] == 2:
        u = np.concatenate([u, np.triu(adversarial_blocks()[[0, 1, 7, 8, 9, 11, 13, 14]])])
    got, ref = _upper_inverse(u), np.linalg.inv(u)
    # each entry to a few ulp of the inverse's own size
    assert (np.abs(got - ref) <= ULPS * EPS * np.abs(ref).max(axis=(-2, -1), keepdims=True)).all()
    assert (np.tril(got, -1) == 0.0).all()


def test_the_triangular_inverse_keeps_the_two_row_closed_form_bits():
    # [[a, b], [0, c]]^-1 = [[1/a, -b (1/c) / a], [0, 1/c]], entry for entry
    u = np.concatenate(
        [upper_blocks((100, 2, 2)), np.triu(adversarial_blocks()[[0, 1, 7, 8, 9, 11, 13, 14]])]
    )
    a, b, c = u[:, 0, 0], u[:, 0, 1], u[:, 1, 1]
    closed = np.zeros(u.shape)
    closed[:, 0, 0], closed[:, 1, 1] = 1.0 / a, 1.0 / c
    closed[:, 0, 1] = -(b * closed[:, 1, 1]) / a
    assert _upper_inverse(u).tobytes() == closed.tobytes()


@pytest.mark.parametrize(
    "helper, shape",
    [
        (lambda x: _qr_diagonal(x), (40, 2, 2)),
        (lambda x: _qr_diagonal(x), (40, 2, 1)),
        (lambda x: (_complement(x),), (40, 2, 1)),
        (lambda x: (_singular_values(x),), (40, 2, 2)),
        (lambda x: (_upper_inverse(np.triu(x)),), (40, 2, 2)),
    ],
)
def test_each_row_keeps_the_bits_it_gets_in_a_batch_of_one(helper, shape):
    x = np.concatenate([random_blocks(shape, seed=4), adversarial_blocks()[..., : shape[-1]]])
    with np.errstate(divide="ignore", invalid="ignore"):
        batched = helper(x)
        for i in range(len(x)):
            alone = helper(x[i : i + 1])
            for got, one in zip(batched, alone):
                assert got[i : i + 1].tobytes() == one.tobytes()
