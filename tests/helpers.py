"""Shared test utilities: independent oracles, random samplers and fixtures.

Most oracles here are deliberately small re-derivations (plain
eigendecomposition, dense propagator products, a Green's-function
evaluator and its convolution, a full SVD of the densely assembled
boundary-conditioned truncation, the distance of a spectrum to 1,
`march_image` and `march_kernel`, the per-step frame marches that
`dichotomy` ran before it read its canonical frames off the rate sweep,
and `qr_recurrence` and `per_step_sweep`, the one-step-at-a-time QR
recurrence it ran before it stepped in blocks) so that library results
can be checked against an implementation that shares no code with them.
`per_step_sweep` takes its generic start from `dichotomy._generic_seed`.

The rest reuse library code, and say which:

- `projector_at` forms a family's projector at one time from its
  frames with the library's `dichotomy._projectors`;
- `shift_operator_projector` reads its projectors off the contour route
  of `matrixcore` (a test module), but validates and packages their
  frames with the library's `dichotomy._assemble_batch`, so the frame
  transversality, kernel regularity and frame transport checks are the
  library's;
- `perturb_field` builds a `DiscreteVectorField` around the library's
  evaluator contract;
- `stable_unstable_bundles` is `bundle.index_bundle_pair` with the
  minus bundle replaced by its orthogonal complement;
- `half_line_witnesses` is a fixture, built with the library itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
import pytest

import matrixcore
from homindex.bundle import bundle_from_projectors, index_bundle_pair
from homindex.dichotomy import (
    GAP_RATIO,
    HORIZON,
    SIGMA_REG,
    TAU_INV,
    ProjectorFamily,
    _assemble_batch,
    _check_window,
    _generic_seed,
    _projectors,
    _raise_or_return,
    build_projector_family,
    verify_ed,
)
from homindex.errors import (
    CertificationError,
    DomainError,
    IndeterminateError,
    InputError,
    NumericError,
)
from homindex.field import DiscreteVectorField, SampledBundle
from homindex.fredholm import _VALUE_TOL, FiniteWindowSequence

__all__ = [
    "rotation",
    "eig_projector",
    "random_orthogonal",
    "random_conjugator",
    "random_hyperbolic",
    "dense_product",
    "realization_matrix",
    "quadratic_system_linearization",
    "green_kernel",
    "kernel_convolve",
    "boundary_conditioned",
    "block_norm_scale",
    "assert_scale",
    "assert_decided",
    "truncated_null_space",
    "span_gap",
    "distance_to_one",
    "in_spectrum",
    "projector_at",
    "preimage_frames",
    "march_image",
    "march_kernel",
    "qr_recurrence",
    "per_step_sweep",
    "shift_operator_projector",
    "SmallnessReport",
    "perturb_field",
    "stable_unstable_bundles",
    "half_line_witnesses",
]

#: times on each side of 0 at which `perturb_field` samples the perturbation
TAIL_SAMPLES = 50


def rotation(theta: float) -> np.ndarray:
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, -s], [s, c]])


def eig_projector(m) -> np.ndarray:
    """Oracle: spectral projector onto |z| < 1 via a bare eigendecomposition."""
    a = np.asarray(m, dtype=float)
    w, v = np.linalg.eig(a)
    sel = (np.abs(w) < 1.0).astype(complex)
    return (v @ (sel[:, None] * np.linalg.inv(v))).real


def random_orthogonal(rng, dim: int) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((dim, dim)))
    return q * np.sign(np.diag(r))


def random_conjugator(rng, dim: int, max_shear: float = 2.0) -> np.ndarray:
    """Random real matrix with condition number at most max_shear."""
    s = np.exp(rng.uniform(0.0, np.log(max_shear), size=dim))
    s /= s.min()
    return random_orthogonal(rng, dim) @ (s[:, None] * random_orthogonal(rng, dim))


def random_hyperbolic(
    rng,
    dim: int,
    stable_lo: float = 0.15,
    stable_hi: float = 0.85,
    unstable_lo: float = 1.2,
    unstable_hi: float = 4.0,
    max_shear: float = 2.0,
    n_stable: int | None = None,
):
    """Random real matrix with eigenvalue moduli bounded away from the circle.

    Assembled from 1x1 blocks (real eigenvalues, random sign) and 2x2
    rotation blocks (complex pairs), then conjugated by a moderately
    conditioned random real matrix.  Returns (matrix, sorted moduli).
    """
    blocks = []
    moduli = []
    remaining = dim
    stable_left = rng.integers(0, dim + 1) if n_stable is None else n_stable
    while remaining > 0:
        size = 2 if remaining >= 2 and rng.random() < 0.4 else 1
        take_stable = 0 < stable_left and (stable_left >= size or size == 1)
        if take_stable and size <= stable_left:
            r = rng.uniform(stable_lo, stable_hi)
            stable_left -= size
        else:
            r = rng.uniform(unstable_lo, unstable_hi)
        if size == 1:
            blocks.append(np.array([[r * (1 if rng.random() < 0.5 else -1)]]))
            moduli.append(r)
        else:
            theta = rng.uniform(0.25, np.pi - 0.25)
            blocks.append(r * rotation(theta))
            moduli.extend([r, r])
        remaining -= size
    core = np.zeros((dim, dim))
    at = 0
    for b in blocks:
        k = b.shape[0]
        core[at : at + k, at : at + k] = b
        at += k
    v = random_conjugator(rng, dim, max_shear=max_shear)
    return v @ core @ np.linalg.inv(v), np.sort(np.array(moduli))


def dense_product(matrices) -> np.ndarray:
    """Oracle: left-to-right composition product A_{k-1} ... A_0 of a list."""
    out = np.eye(matrices[0].shape[0])
    for a in matrices:
        out = a @ out
    return out


def realization_matrix(ahead, behind, q, kappa_minus, kappa_plus, lam, n) -> np.ndarray:
    """Oracle: one entry of a realization field, evaluated at a single (lam, n).

    The identity on kappa_minus..kappa_plus; before it the hyperbolic
    matrix q P + (1/q)(I - P) of the behind fibre, after it that of the
    ahead fibre, with P the orthogonal projector onto the fibre.
    """
    frame = ahead.frames[lam]
    if n <= kappa_plus:
        if n >= kappa_minus:
            return np.eye(frame.shape[0])
        frame = behind.frames[lam]
    p = frame @ frame.T
    return q * p + (1.0 / q) * (np.eye(frame.shape[0]) - p)


def quadratic_system_linearization(a, amplitude, n) -> np.ndarray:
    """Oracle: D_x of x -> a x + amplitude e^{-|n|} (x0^2, x0 x1) at x = 0, at one time.

    The residual's fibre derivative at zero is the zero matrix scaled by
    the decay weight; it is added so that the sum is formed as in the
    system it checks.
    """
    w = amplitude * float(np.exp(-abs(n)))
    x = np.zeros(2)
    return a + w * np.array([[2.0 * x[0], 0.0], [x[1], x[0]]])


def green_kernel(fam):
    """Oracle: the dichotomy Green's function G(n, m) of a projector family.

    For m <= n, G carries the image component of P(m) forward from m
    to n through the image transition factors; for n < m it carries the
    kernel component of I - P(m) backward through the kernel transition
    factors, with a minus sign.
    """

    def g(n: int, m: int) -> np.ndarray:
        i_n, i_m, r = fam.index_of(n), fam.index_of(m), fam.rank
        coords = np.linalg.inv(np.hstack([fam.image_frames[i_m], fam.kernel_frames[i_m]]))
        if m <= n:
            block = coords[:r]
            for i in range(i_m, i_n):
                block = fam.image_steps[i] @ block
            return fam.image_frames[i_n] @ block
        block = coords[r:]
        for i in range(i_m - 1, i_n - 1, -1):
            block = np.linalg.solve(fam.kernel_steps[i], block)
        return -(fam.kernel_frames[i_n] @ block)

    return g


def projector_at(fam: ProjectorFamily, n: int) -> np.ndarray:
    """The projector of `fam` at time `n`, formed from its frames by `dichotomy._projectors`."""
    i = fam.index_of(n)
    return _projectors(fam.image_frames[i], fam.kernel_frames[i])


def value_at(seq, n: int) -> np.ndarray:
    """The vector of a `FiniteWindowSequence` at time `n`, which must lie in its window."""
    lo, hi = seq.window
    assert lo <= n <= hi, (n, seq.window)
    return seq.values[n - lo]


def kernel_convolve(kernel, phi, window) -> np.ndarray:
    """Oracle: values of (kernel * phi)(n) = sum_k kernel(n, k) phi(k) on `window`."""
    k_lo = phi.window[0]
    return np.array(
        [
            sum(kernel(n, k_lo + j) @ v for j, v in enumerate(phi.values))
            for n in range(window[0], window[1] + 1)
        ]
    )


def boundary_conditioned(field, lam, window, fam_plus, fam_minus) -> np.ndarray:
    """Oracle: the dense boundary-conditioned truncation on `window`.

    Rows, top to bottom: phi(n+1) - A_n phi(n) for lo <= n < hi, read
    entry by entry with `field.matrix`; P-(lo) phi(lo); (I - P+(hi))
    phi(hi).  The ((w+1) d) x (w d) matrix is formed in full.
    """
    lo, hi = int(window[0]), int(window[1])
    d = field.dim
    w = hi - lo + 1
    stacked = np.zeros(((w + 1) * d, w * d))
    for i, n in enumerate(range(lo, hi)):
        stacked[i * d : (i + 1) * d, i * d : (i + 1) * d] = -field.matrix(lam, n)
        stacked[i * d : (i + 1) * d, (i + 1) * d : (i + 2) * d] = np.eye(d)
    stacked[(w - 1) * d : w * d, :d] = projector_at(fam_minus, lo)
    stacked[w * d :, (w - 1) * d :] = np.eye(d) - projector_at(fam_plus, hi)
    return stacked


def block_norm_scale(stacked: np.ndarray, d: int) -> float:
    """Oracle: sqrt(|N|_1 |N|_inf) for the d x d block norms N_ij = |M_ij|_2 of a dense M.

    Every block of the grid is taken, zero or not, in whatever order the
    rows of `stacked` come.  The result bounds M's largest singular
    value from above (Golub & Van Loan, Matrix Computations, 2.3).
    """
    rows, cols = stacked.shape[0] // d, stacked.shape[1] // d
    blocks = stacked.reshape(rows, d, cols, d).transpose(0, 2, 1, 3)
    norms = np.linalg.norm(blocks, 2, axis=(-2, -1))
    return float(np.sqrt(norms.sum(axis=0).max()) * np.sqrt(norms.sum(axis=1).max()))


def assert_scale(got: float, expected: float, sigma_max: float) -> None:
    """A null-cut scale is `expected`, the closed form, and lies in [sigma_max, 2 sigma_max]."""
    assert got == pytest.approx(expected, rel=1e-12, abs=0)
    assert sigma_max * (1.0 - 1e-12) <= got <= 2.0 * sigma_max


#: relative slack the kept value may take on its Kato-Temple error estimate,
#: whose gap comes from Ritz values, not from the true spectrum
TEMPLE_SLACK = 0.05


def assert_decided(spectrum, expected, sigma_max, gap_ratio=GAP_RATIO):
    """A spectrum summary against the dense values it summarizes, `expected` ascending.

    A screened summary ends in a floor, at most the true value of its
    rank and at least 1.7 x the empty-kernel threshold `gap_ratio` x
    the null cut, after the Ritz values of a deflated screen's kernel
    basis, each at or above its true value and below half the cut; its
    resolved kept value lies within `_VALUE_TOL` * scale of the true
    one.  Otherwise the null group matches to 1e-12 sigma_max and the
    kept value is a Ritz value, at or above its true value and within
    its own error estimate of it (with `TEMPLE_SLACK`).  Either way the
    resolved summary matches to 1e-12 sigma_max and to the 3 digits a
    report prints.
    """
    got, rounding = spectrum.smallest, 1e-12 * sigma_max
    resolved = spectrum.resolved()
    if spectrum.floor:
        assert len(got) == len(expected) and spectrum.error == 0.0
        assert (expected[:-1] - rounding <= got[:-1]).all()
        assert (got[:-1] <= 0.5e-8 * spectrum.scale).all()
        assert 1.7 * gap_ratio * 1e-8 * spectrum.scale <= got[-1] <= expected[-1]
        assert abs(resolved.smallest[-1] - expected[-1]) <= _VALUE_TOL * spectrum.scale
    else:
        np.testing.assert_allclose(got[:-1], expected[:-1], rtol=0, atol=rounding)
        assert expected[-1] - rounding <= got[-1]
        assert got[-1] - expected[-1] <= (1.0 + TEMPLE_SLACK) * spectrum.error + rounding
    assert f"{resolved.smallest[-1]:.3e}" == f"{expected[-1]:.3e}"
    np.testing.assert_allclose(resolved.smallest, expected, rtol=0, atol=rounding)
    assert resolved.error <= _VALUE_TOL * spectrum.scale


def truncated_null_space(field, lam, window, witnesses, decay_tol=1e-6):
    """Oracle: full SVD of the boundary-conditioned truncation on `window`.

    Returns the singular values (descending) and the null vectors, each
    scaled to sup-norm one, as `FiniteWindowSequence`s.  A vector is
    null when its singular value is below 1e-8 times `block_norm_scale`
    of the matrix, the cut `fredholm.kernel_cokernel` uses.  The
    matrix comes from `boundary_conditioned`, which shares no code with
    `kernel_cokernel`.
    """
    wit_plus, wit_minus = witnesses
    stacked = boundary_conditioned(field, lam, window, wit_plus.family, wit_minus.family)
    svals, vt = np.linalg.svd(stacked, full_matrices=True)[1:]
    n_null = int((svals < 1e-8 * block_norm_scale(stacked, field.dim)).sum())
    w, d = window[1] - window[0] + 1, field.dim
    basis = []
    for row in vt[len(svals) - n_null : len(svals)]:
        values = row.reshape(w, d)
        basis.append(
            FiniteWindowSequence.tabulate(
                window, values / np.abs(values).max(), decay_tol=decay_tol
            )
        )
    return svals, tuple(basis)


def span_gap(f, g) -> float:
    """Oracle: spectral-norm distance between the column spans of two frames.

    Frames need not be orthonormal; each span is turned into its
    orthogonal projector first.  Zero-column frames denote the zero
    subspace.
    """

    def orth_proj(m):
        m = np.asarray(m, dtype=float)
        if m.ndim == 1:
            m = m[:, None]
        if m.shape[1] == 0:
            return np.zeros((m.shape[0], m.shape[0]))
        q, _ = np.linalg.qr(m)
        return q @ q.T

    return float(np.linalg.norm(orth_proj(f) - orth_proj(g), 2))


def in_spectrum(res, gamma: float) -> bool:
    """Whether `gamma` lies in one of the closed intervals of a `SpectrumResult`."""
    return any(lo <= gamma <= hi for lo, hi in res.intervals)


def distance_to_one(intervals) -> float:
    """Oracle: distance from 1 to the union of closed `intervals`; inf when there are none."""
    if not intervals:
        return float("inf")
    return float(min(max(lo - 1.0, 1.0 - hi, 0.0) for lo, hi in intervals))


def preimage_frames(a: np.ndarray, frame: np.ndarray):
    """Oracle: orthonormal frames of the preimages {x : a x in span(frame)} for a stack.

    Works for singular `a` as well.  Returns the frames and the
    dimension each preimage actually has (None when the frame is empty
    or full); a regular splitting keeps the frame's column count.
    """
    d, r = a.shape[-1], frame.shape[-1]
    if r == 0:
        return np.zeros(a.shape[:-1] + (0,)), None
    if r == d:
        return np.broadcast_to(np.eye(d), a.shape), None
    resid = (np.eye(d) - frame @ frame.swapaxes(-1, -2)) @ a
    _, s, vt = np.linalg.svd(resid)
    cutoff = np.maximum(s[..., 0], 1.0) * 1e-11
    rank = (s > cutoff[..., None]).sum(axis=-1)
    return vt[..., d - r :, :].swapaxes(-1, -2), d - rank


def march_image(a: np.ndarray, seed: np.ndarray):
    """Oracle: image frames pulled back from `seed` at the last time, one preimage per step.

    `a` (samples, steps, d, d) holds the step matrices.  Returns the
    frames (samples, steps + 1, d, r) and, per sample, whether every
    preimage kept dimension r.
    """
    n, length, d, r = a.shape[0], a.shape[1], a.shape[-1], seed.shape[-1]
    im = np.empty((n, length + 1, d, r))
    im[:, length] = seed
    regular = np.ones(n, dtype=bool)
    for i in range(length - 1, -1, -1):
        im[:, i], found = preimage_frames(a[:, i], im[:, i + 1])
        if found is not None:
            regular &= found == r
    return im, regular


def march_kernel(a: np.ndarray, seed: np.ndarray) -> np.ndarray:
    """Oracle: kernel frames pushed forward by the field from `seed` at the first time, one QR a step."""
    ker = np.empty((a.shape[0], a.shape[1] + 1) + seed.shape[1:])
    ker[:, 0] = seed
    for i in range(a.shape[1]):
        ker[:, i + 1] = np.linalg.qr(a[:, i] @ ker[:, i])[0]
    return ker


def qr_recurrence(factors: np.ndarray, start: np.ndarray):
    """Oracle: the QR recurrence Q_{t+1} R_t = F_t Q_t one step at a time, each R_t signed nonnegative.

    `factors` (rows, steps, d, d) in the order applied, `start` (rows, d,
    p).  Returns the frames (rows, steps + 1, d, p) and the log |R_t,jj|
    (rows, steps, p), floored at 1e-300: the march `dichotomy` ran
    before it stepped in blocks.
    """
    rows, steps, d = factors.shape[:3]
    frames = np.empty((rows, steps + 1, d, start.shape[-1]))
    logs = np.empty((rows, steps, start.shape[-1]))
    frames[:, 0] = start
    for t in range(steps):
        q, r = np.linalg.qr(factors[:, t] @ frames[:, t])
        diag = np.diagonal(r, axis1=-2, axis2=-1)
        frames[:, t + 1] = q * np.where(diag < 0.0, -1.0, 1.0)[..., None, :]
        logs[:, t] = np.log(np.maximum(np.abs(diag), 1e-300))
    return frames, logs


def per_step_sweep(factors: np.ndarray, horizon: int):
    """Oracle: `dichotomy._sweep` one step at a time, with a running total of the rates.

    Returns the frames after each of the last steps - horizon + 1 steps,
    the log |R_jj| of the steps between them and the rates, the means of
    the log |R_jj| past the first horizon/2 steps and short of the last
    horizon/2, over horizon/2 steps at least.
    """
    rows, steps, d = factors.shape[:3]
    frames, logs = qr_recurrence(factors, np.broadcast_to(_generic_seed(d), (rows, d, d)))
    averaged = range(horizon // 2, max(horizon, steps - horizon // 2))
    total = np.zeros((rows, d))
    for t in averaged:
        total += logs[:, t]
    return frames[:, horizon:], logs[:, horizon:], total / len(averaged)


def _family_from_projectors(
    field: DiscreteVectorField, times: np.ndarray, projectors: np.ndarray, side: str, anchor: int
) -> ProjectorFamily:
    """Validated family of the frames of the given projectors of parameter sample 0."""
    d = field.dim
    traces = np.array([float(np.trace(p)) for p in projectors])
    rank = int(round(traces[0]))
    if np.abs(traces - rank).max() > 1e-2:
        raise CertificationError(
            "projector ranks are not constant on the window: traces span "
            f"[{traces.min():.4f}, {traces.max():.4f}]"
        )
    im = np.empty((len(times), d, rank))
    ker = np.empty((len(times), d, d - rank))
    eye = np.eye(d)
    for i, p in enumerate(projectors):
        u, s, _ = np.linalg.svd(p)
        if rank > 0 and s[rank - 1] < 0.5:
            raise NumericError(f"projector at time {times[i]} has an unclear image rank")
        if rank < d and s[rank] > 0.5:
            raise NumericError(f"projector at time {times[i]} has an unclear image rank")
        im[i] = u[:, :rank]
        u2, s2, _ = np.linalg.svd(eye - p)
        ker[i] = u2[:, : d - rank]
    mats = field.matrices(0, int(times[0]), int(times[-2]))
    (outcome,) = _assemble_batch(
        mats[None], times[None], im[None], ker[None], [side], [anchor], TAU_INV, SIGMA_REG
    )
    return _raise_or_return(outcome)


def shift_operator_projector(field: DiscreteVectorField, n_times: int = 64) -> ProjectorFamily:
    """Oracle: dichotomy projectors from the weighted-shift operator route.

    The field's parameter sample 0 is closed periodically over a
    centered window of `n_times` times; the weighted right shift then
    becomes an (n d) x (n d) matrix whose unit-circle spectral
    projector, read off block by block on the lattice basis, yields the
    dichotomy projectors.  A boundary layer of n_times/8 on each side is
    discarded.  Requires the closed operator to be hyperbolic; an
    eigenvalue near the unit circle (which may be a truncation artifact,
    or a genuine failure of the whole-line dichotomy) raises
    IndeterminateError with advice to enlarge the window.
    """
    if n_times < 16:
        raise InputError("the shift route needs at least 16 window times")
    d = field.dim
    lo = -(n_times // 2)
    times = np.arange(lo, lo + n_times)
    _check_window(field, int(times[0]), int(times[-1]))
    # block (i, i - 1 mod n_times) of the shift holds A(times[i - 1])
    big = np.zeros((n_times, d, n_times, d))
    rows = np.arange(n_times)
    big[rows, :, rows - 1, :] = field.matrices(0, int(times[0]), int(times[-1]))[rows - 1]
    big = big.reshape(n_times * d, n_times * d)
    try:
        split = matrixcore.spectral_projector_contour(big)
    except (DomainError, IndeterminateError) as exc:
        raise IndeterminateError(
            "periodic closure of the weighted shift has an eigenvalue within the "
            f"margin of the unit circle ({exc}); this can be a truncation artifact "
            "- increase n_times, or check that the field admits a dichotomy on "
            "the whole line"
        ) from exc
    discard = n_times // 8
    keep = np.arange(discard, n_times - discard)
    projs = np.stack(
        [split.stable_projector[i * d : (i + 1) * d, i * d : (i + 1) * d] for i in keep]
    )
    return _family_from_projectors(field, times[keep], projs, "full", int(times[keep][0]))


@dataclass(frozen=True)
class SmallnessReport:
    """Sampled tail bounds for a perturbation against declared budgets."""

    gamma_plus: float
    gamma_minus: float
    observed_plus: float
    observed_minus: float

    @property
    def plus_ok(self) -> bool:
        return self.observed_plus <= self.gamma_plus

    @property
    def minus_ok(self) -> bool:
        return self.observed_minus <= self.gamma_minus

    @property
    def small(self) -> bool:
        return self.plus_ok and self.minus_ok


def perturb_field(
    base: DiscreteVectorField,
    perturbation: Callable[[np.ndarray, np.ndarray], np.ndarray],
    gamma_plus: float,
    gamma_minus: float,
) -> tuple[DiscreteVectorField, SmallnessReport]:
    """Additive perturbation of a field with sampled tail-size bookkeeping.

    `perturbation` is an evaluator of the `DiscreteVectorField` form.
    Returns the perturbed field together with a report stating whether
    the sampled perturbation norms stay within gamma_plus on times
    >= 0 and within gamma_minus on times <= 0.  The tails of every
    parameter sample are sampled on the `TAIL_SAMPLES` times on each
    side of 0, with one call; the first broken (lam, n) in
    sample-then-time order is named.  The report records the verdict;
    it does not stop the construction.
    """
    if gamma_plus < 0 or gamma_minus < 0:
        raise InputError("perturbation budgets must be nonnegative")
    d = base.dim
    lo = max(base.window[0], -TAIL_SAMPLES)
    hi = min(base.window[1], TAIL_SAMPLES)
    times = np.arange(lo, hi + 1)
    e = np.asarray(perturbation(np.arange(base.n_params), times), dtype=float)
    bad = [(0, 0)]  # a stack of the wrong shape is broken from its first entry on
    if e.shape == (base.n_params, len(times), d, d):
        bad = np.argwhere(~np.isfinite(e).all(axis=(2, 3))).tolist()
    if bad:
        lam, i = bad[0]
        raise InputError(f"perturbation evaluator broken at (lam={lam}, n={times[i]})")
    sizes = np.linalg.norm(e, 2, axis=(2, 3))
    obs_plus = float(sizes[:, times >= 0].max(initial=0.0))
    obs_minus = float(sizes[:, times <= 0].max(initial=0.0))

    def evaluate(lams: np.ndarray, times: np.ndarray) -> np.ndarray:
        return base.evaluator(lams, times) + np.asarray(perturbation(lams, times), dtype=float)

    report = SmallnessReport(
        gamma_plus=gamma_plus,
        gamma_minus=gamma_minus,
        observed_plus=obs_plus,
        observed_minus=obs_minus,
    )
    out = DiscreteVectorField(
        dim=d,
        evaluator=evaluate,
        window=base.window,
        loop=base.loop,
    )
    return out, report


def stable_unstable_bundles(
    field: DiscreteVectorField,
    anchor_plus: int,
    anchor_minus: int,
    horizon: int = HORIZON,
) -> tuple[SampledBundle, SampledBundle]:
    """Stable and unstable bundles of a parametrized field over its loop.

    The fibres are the forward-decaying set im P+(lam, anchor_plus) and
    the backward-decaying set ker P-(lam, anchor_minus), from families
    anchored at 0, anchor_minus <= 0 <= anchor_plus.  The unstable
    bundle is the orthogonal complement of the index pair's im P-, which
    `anchor_bundles` splits off as the complement of ker P-.  Any
    per-sample certification failure propagates with the failing sample
    named.
    """
    stable, minus_image = index_bundle_pair(field, anchor_plus, anchor_minus, horizon)
    eye = np.eye(field.dim)
    unstable = bundle_from_projectors(
        field.loop,
        [eye - minus_image.projector(i) for i in range(len(field.loop))],
        f"ker P- at n={anchor_minus}",
    )
    return stable, unstable


def half_line_witnesses(field_, lam=0, length=30, horizon=40):
    """Certified (plus, minus) witnesses of half-line families anchored at 0."""
    fams = (
        build_projector_family(field_, lam, "plus", 0, length=length, horizon=horizon),
        build_projector_family(field_, lam, "minus", 0, length=length, horizon=horizon),
    )
    return tuple(verify_ed(fam) for fam in fams)
