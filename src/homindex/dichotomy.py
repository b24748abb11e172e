"""Exponential splittings, dichotomy certification and dichotomy spectra.

Rates of long matrix products are accumulated with QR factorizations
along the run, never by forming the whole product, so horizons of a few
hundred steps are safe even when singular values spread over hundreds
of decades.  The recurrence (`_advance`) forms products of 4 steps
only, which keeps it to one sequential QR per block and a few stacked
ones, and it redoes a row one step at a time where such a product lost
accuracy.  Blocks of at most two rows, the planar case, never reach
LAPACK: the QRs (`_qr_diagonal`), the complements (`_complement`) and
the 2 x 2 singular values (`_singular_values`) are closed forms,
evaluated elementwise over the stack.  The rates are the per-column
means of log |R_jj| between the QR transient and the anchor
(`_sweep`), so a longer run averages more steps (Dieci & Van Vleck,
SIAM J. Numer. Anal. 40, 2002); on a plus family run of `length +
horizon` steps, length >= horizon/2, they cover the times [anchor + horizon/2, anchor + length +
horizon/2).  The rates of a run of n steps split only across a gap of
at least log(gap_ratio) / n.  The associated orthonormal columns,
grouped by rate, span the splitting subspaces.

Scaling the field by 1/gamma shifts every rate by -log(gamma) and
leaves the singular directions unchanged, so one pair of runs serves
every gamma of a dichotomy spectrum, read off the rates in closed form.
The whole line splits exactly where the plus image and the minus kernel
at 0 are complementary, and their meet is the kernel of L (Palmer, Proc.
AMS 104, 1988): one principal-angle rule, `_intersection_dimensions`,
decides it for the spectrum and for `fredholm`'s count.  An undecided
cell lies inside the spectral intervals; `spectrum` flags one at gamma = 1.

Loop-wide sweeps: the QR method is the same for every parameter
sample and both half-lines, so `build_projector_families` runs it for
many samples at once with the sample on numpy's leading axis, and
`whole_line_families` for the plus and minus windows of many samples
together: the sweep, the free-complement march, the family checks
and the `verify_families` fits each take a few stacked calls (per
block of steps, per doubling of a chain) instead of one call per
sample, side and step.  numpy's stacked calls
give every row the bits it would get alone, so a family is the same
whatever it was batched with.  The single-sample
`build_projector_family`, `verify_ed` and `dichotomy_spectrum` are
batches of one, and no command calls them.  A failing sample keeps
the error a single-sample build would raise and never stops the
others.  Each
command builds one batch of both sides, and a caller that needs the
families again keeps them: `certify` builds one batch anchored at 0
that F2, F3 and localization all read.  A family holds no fit: a
command fits each family at most once, and `verify_families` returns
the witnesses.

A family is its frames: a reader forms the projector U (B^-1)[:r], B
= [U V], with `_projectors`, and `_assemble_batch` checks the frames.
The weighted-shift route, which cross-checks the marched families
through a unit-circle spectral projector, is a test oracle
(`shift_operator_projector` in `tests/helpers.py`); it validates its
projectors' frames with this module's `_assemble_batch`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    CertificationError,
    HomindexError,
    IndeterminateError,
    InputError,
    NoDichotomyError,
    NumericError,
    WindowTooShortError,
    fresh,
)
from .field import DiscreteVectorField

__all__ = [
    "HORIZON",
    "ProjectorFamily",
    "EDWitness",
    "SpectrumResult",
    "family_run",
    "build_projector_family",
    "build_projector_families",
    "whole_line_families",
    "verify_ed",
    "verify_families",
    "dichotomy_spectra",
    "dichotomy_spectrum",
]

#: default one-sided horizon for rate estimation
HORIZON = 100

#: regularity floor for kernel transition matrices
SIGMA_REG = 1e-6

#: frame transport tolerance for certified projector families
TAU_INV = 1e-7

#: consecutive-rate gaps below log(GAP_RATIO)/(run length) are unresolved
GAP_RATIO = 1e3

#: a rate this close to the cut line means no dichotomy at that scaling
ZERO_MARGIN = 2e-3

#: a principal cosine this close to one counts as an intersection
_ANGLE_TOL = 1e-8

#: cosines between the two thresholds are refused as ambiguous
_ANGLE_BAND = 1e-4

#: spectrum cut points closer than this, relative to max(1, |cut|), are one:
#: rates equal up to the sweep's rounding (10 eps measured) give edges that close
_CUT_TOL = 64 * np.finfo(float).eps

#: fewest family steps on which dichotomy constants are fitted
MIN_FIT_STEPS = 4

#: most anchor times at which transition chains are sampled for the fit
MAX_ANCHORS = 12


def _check_window(field: DiscreteVectorField, lo: int, hi: int) -> None:
    if field.window[0] > lo or field.window[1] < hi:
        raise WindowTooShortError(
            f"field window {field.window} does not cover the needed times [{lo}, {hi}]",
            required=hi - lo + 1,
        )


#: factors per block of the blocked QR recurrence (`_advance`)
_BLOCK = 4

#: largest seam between a block's stepped end frame and the next block's start frame
_SEAM_TOL = 1e-10


def _householder(x: np.ndarray):
    """LAPACK's Householder reflector of the first columns of 2-row stacks x (..., 2, p): beta, tau, v.

    dlarfg's formulas for a first column (alpha, c): beta = -sign(alpha)
    hypot(alpha, c), tau = (beta - alpha) / beta and v = (1, c / (alpha -
    beta)), so that H = I - tau v v^T maps (alpha, c) to (beta, 0); no
    reflection (tau = 0, beta = alpha) when c is exactly 0.  Elementwise
    over the stack.
    """
    alpha, c = x[..., 0, 0], x[..., 1, 0]
    reflect = c != 0.0
    beta = np.where(reflect, -np.copysign(np.hypot(alpha, c), alpha), alpha)
    tau = (beta - alpha) / np.where(reflect, beta, 1.0)
    v = c * (1.0 / np.where(reflect, alpha - beta, 1.0))
    return beta, tau, v


def _reflected_corner(x: np.ndarray, tau: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Entry (1, 1) of H x for 2-row stacks (..., 2, p >= 2), as dlarf forms it: x1 - tau v (v^T x1)."""
    return x[..., 1, 1] + v * (-tau * (x[..., 0, 1] + v * x[..., 1, 1]))


def _reflection(x: np.ndarray):
    """`_householder`'s reflection of 2-row stacks x (..., 2, p) as a matrix: H (..., 2, 2), beta, tau, v.

    H = I - tau v v^T, formed as dorg2r forms it.
    """
    beta, tau, v = _householder(x)
    h = np.empty(beta.shape + (2, 2))
    h[..., 0, 0] = 1.0 - tau
    h[..., 0, 1] = h[..., 1, 0] = off = -tau * v
    h[..., 1, 1] = 1.0 + v * off
    return h, beta, tau, v


def _qr_diagonal(b: np.ndarray):
    """Unnormalized Q factors of a stack (..., d, p) and the diagonals of their R factors.

    Blocks of one or two rows take LAPACK's Householder QR in closed form,
    elementwise over the stack (`_reflection`; a 1-row block is its own
    R), so a row keeps the bits it gets alone; Q and R then agree with
    LAPACK's to a few ulp of the block's norm, and the QR of B S, S a
    diagonal of signs, is still (Q, R S) exactly, up to the signs of
    zeros.  Larger blocks go to LAPACK.
    """
    m, p = b.shape[-2:]
    if m == 1 and p:
        return np.ones(b.shape[:-2] + (1, 1)), b[..., 0, :1]
    if m == 2 and p:
        h, beta, tau, v = _reflection(b)
        if p == 1:
            return h[..., :1], beta[..., None]
        return h, np.stack([beta, _reflected_corner(b, tau, v)], -1)
    q, r = np.linalg.qr(b)
    return q, np.diagonal(r, axis1=-2, axis2=-1)


def _complement(x: np.ndarray) -> np.ndarray:
    """Orthonormal complements (..., d, d - p) of the column spans of stacked frames (..., d, p).

    The last columns of each frame's complete QR: of `_reflection`'s H for
    a 2 x 1 frame, with no LAPACK call, else of LAPACK's.
    """
    if x.shape[-2:] == (2, 1):
        return _reflection(x)[0][..., 1:]
    return np.linalg.qr(x, mode="complete")[0][..., x.shape[-1] :]


def _signs(diag: np.ndarray) -> np.ndarray:
    return np.where(diag < 0.0, -1.0, 1.0)


def _blocked(factors: np.ndarray, start: np.ndarray, k: int):
    """`_advance` in blocks of `k` factors: frames, R diagonals and each row's largest seam.

    A Householder QR of B S, S a diagonal of signs, takes the reflections
    of B's and returns (Q, R S), so each loop runs on unnormalized
    factors, and the signs of the R diagonals, multiplied up along the
    blocks and then along the steps inside each block, normalize the
    frames afterwards.  A row whose block products leave the
    floating-point range enters the QRs with zeros in their place and
    gets an infinite seam.  With k = 1 the block-start frames are the
    frames.
    """
    rows, steps, d = factors.shape[:3]
    p = start.shape[-1]
    n_blocks = -(-steps // k)
    pad = n_blocks * k - steps
    if pad:  # the last block's missing steps are identities, whose results are dropped
        eye = np.broadcast_to(np.eye(d), (rows, pad, d, d))
        factors = np.concatenate([factors, eye], axis=1)
    blocks = factors.reshape(rows, n_blocks, k, d, d)
    # the products of every block but the last: k - 1 stacked matmuls
    heading = n_blocks if k == 1 else n_blocks - 1
    products = blocks[:, :heading, 0]
    with np.errstate(over="ignore", invalid="ignore"):
        for j in range(1, k):
            products = blocks[:, :heading, j] @ products
    if k > 1:
        out_of_range = ~(_max_abs(products).max(axis=1, initial=0.0) <= 1e300)
        products[out_of_range] = 0.0
    # the block-start frames: one sequential QR per block
    heads = np.empty((rows, heading + 1, d, p))
    heads[:, 0] = start
    head_diags = np.ones(heads.shape[:2] + (p,))
    for b in range(heading):
        heads[:, b + 1], head_diags[:, b + 1] = _qr_diagonal(products[:, b] @ heads[:, b])
    heads *= np.cumprod(_signs(head_diags), axis=1)[..., None, :]
    if k == 1:
        inner, diags, seams = heads[:, 1:, None], head_diags[:, 1:, None], np.zeros(rows)
    else:
        # the frames inside the blocks: k per-step QRs, each stacked over all blocks
        q = heads
        inner = np.empty(heads.shape[:2] + (k, d, p))
        diags = np.empty(heads.shape[:2] + (k, p))
        for j in range(k):
            q, diags[:, :, j] = _qr_diagonal(blocks[:, :, j] @ q)
            inner[:, :, j] = q
        inner *= np.cumprod(_signs(diags), axis=2)[..., None, :]
        seams = _max_abs(inner[:, :-1, -1] - heads[:, 1:]).max(axis=1, initial=0.0)
        seams[out_of_range] = np.inf
    frames = np.concatenate([start[:, None], inner.reshape(rows, -1, d, p)[:, :steps]], axis=1)
    return frames, diags.reshape(rows, -1, p)[:, :steps], seams


def _advance(factors: np.ndarray, start: np.ndarray):
    """The QR recurrence Q_{t+1} R_t = F_t Q_t along stacked runs, in blocks of `_BLOCK` steps.

    `factors` (rows, steps, d, d) holds each run's F_t in the order
    applied, and `start` (rows, d, p) the orthonormal Q_0.  Returns the
    frames Q_t (rows, steps + 1, d, p), signed so that every R_t has a
    nonnegative diagonal, and the log |R_t,jj| (rows, steps, p), floored
    at 1e-300.  The products of each block's factors take k - 1 stacked
    matmuls, one sequential QR per block gives the block-start frames,
    and k per-step QRs, each stacked over all blocks, the frames and R
    diagonals at every time.  Every QR is `_qr_diagonal`'s: at d <= 2 a
    closed form, within a few ulp of LAPACK's Householder QR, with no
    LAPACK call.  A product loses accuracy like eps exp(k times the
    spread of the rates), so each row checks its own seams,
    the distances between a block's stepped end frame and the next
    block's start frame: a row with a seam above `_SEAM_TOL` (or a
    non-finite one) is redone one step per block, which is the
    sequential recurrence.  The rule reads only the row's own data, so
    a row gets the bits it gets in a batch of one.
    """
    frames, diags, seams = _blocked(factors, start, _BLOCK)
    redo = np.flatnonzero(~(seams <= _SEAM_TOL))
    if redo.size:
        frames[redo], diags[redo], _ = _blocked(factors[redo], start[redo], 1)
    return frames, np.log(np.maximum(np.abs(diags), 1e-300))


_GENERIC_SEEDS: dict[int, np.ndarray] = {}


def _generic_seed(d: int) -> np.ndarray:
    """Fixed generic orthogonal start for QR accumulations.

    Seeding with the identity can lock a column onto a subdominant axis
    when a stretch of exactly axis-aligned factors is followed by a
    mixing transient, leaving the final columns on no mode at all; a
    generic (but deterministic) start always sorts the columns by rate.
    """
    if d not in _GENERIC_SEEDS:
        rng = np.random.default_rng(776_000 + d)
        q, r = np.linalg.qr(rng.standard_normal((d, d)))
        seed = q * np.sign(np.diag(r))
        seed.setflags(write=False)
        _GENERIC_SEEDS[d] = seed
    return _GENERIC_SEEDS[d]


def _sweep(factors: np.ndarray, horizon: int):
    """QR accumulation along stacked runs of factors, in the order given.

    `factors` has shape (samples, steps, d, d), steps >= `horizon`, and
    holds each run's factors in the order the sweep applies them: a
    plus run the transposed A(n) in decreasing time (right singular
    directions of the forward propagator), a minus run the A(n) in
    increasing time.  Runs of both sides can share one stack, and the
    recurrence runs in blocks of steps (`_advance`).  Returns the
    orthogonal factors after each of the last steps - horizon + 1 steps
    (the frames at a family's times, far end first), the log |R_jj| of
    the steps between them, and the per-column rates: the means of log
    |R_jj| over the steps past the QR transient (the first horizon/2)
    and short of the last horizon/2 (at the anchor, a realization's
    identity middle), over horizon/2 steps at least.
    """
    n_samples, n_steps, d = factors.shape[0], factors.shape[1], factors.shape[-1]
    frames, logs = _advance(factors, np.broadcast_to(_generic_seed(d), (n_samples, d, d)))
    averaged = slice(horizon // 2, max(horizon, n_steps - horizon // 2))
    # a sum over a middle axis adds the steps in order, as a running total does
    rates = logs[:, averaged].sum(axis=1) / (averaged.stop - averaged.start)
    return frames[:, horizon:], logs[:, horizon:], rates


def _singular_values(x: np.ndarray) -> np.ndarray:
    """Singular values (..., k) of a stack of matrices (..., m, n), descending.

    1 x 1 and 2 x 2 blocks take closed forms, elementwise over the stack
    and with no LAPACK call, so each keeps the bits it gets alone.  A
    1 x 1 block gives |x|: the same bits as LAPACK for |x| in [1e-138,
    1e138], where LAPACK does not rescale, and inf for an infinite entry
    (LAPACK gives NaN there) and NaN for a NaN one (LAPACK raises).  A
    2 x 2 block [[a, b], [c, d]] is the sum of a scaled rotation [[E, -H],
    [H, E]] and a scaled reflection [[F, G], [G, -F]], E, F = (a +- d)/2
    and G, H = (c +- b)/2, so its larger value is hypot(E, H) + hypot(F,
    G) (after Demmel & Kahan, SIAM J. Sci. Stat. Comput. 11, 1990), within
    a few ulp of itself and with no overflow short of its own.  Their
    difference would be accurate only to a few ulp of the larger value,
    so the smaller is taken as LAPACK takes it: the block is reduced to
    its triangular factor [[r11, r12], [0, r22]] (`_householder`, the
    bidiagonal form LAPACK's SVD starts from), and sigma_min = |r11 r22|
    / sigma_max, as in LAPACK's dlas2.  It is then accurate to a few ulp
    of itself wherever r22 is, which holds on triangular and graded
    blocks such as the kernel chains of the fit (diag(1e20, 1) gives 1,
    not 0).  A non-finite entry gives inf or NaN for the larger value
    and NaN for the smaller (LAPACK raises or gives NaN).  Larger blocks
    give LAPACK's values, the bits of `np.linalg.norm(x, 2)` in the
    first.
    """
    if x.shape[-2:] == (1, 1):
        return np.abs(x[..., 0])
    if x.shape[-2:] == (2, 2):
        h = 0.5 * x  # exact for normal entries, and the sums below cannot overflow
        a, b, c, d = h[..., 0, 0], h[..., 0, 1], h[..., 1, 0], h[..., 1, 1]
        smax = np.hypot(a + d, c - b) + np.hypot(a - d, c + b)
        r11, tau, v = _householder(x)
        # |r11| / smax <= 1 up to rounding, so the product cannot overflow
        smin = np.abs(r11) / np.where(smax > 0.0, smax, 1.0) * np.abs(_reflected_corner(x, tau, v))
        smin = np.minimum(smin, smax)
        return np.stack([smax, np.where(np.isfinite(smax), smin, np.nan)], axis=-1)
    return np.linalg.svd(x, compute_uv=False)


def _lost_rank(logs: np.ndarray, backward: np.ndarray) -> np.ndarray:
    """Mask (rows, steps) of the steps whose factor lost rank on the columns it moved.

    `logs` (rows, steps, k) holds each step's log |R_jj|.  A row pulling
    an image back (`backward`, through A(n)^T) loses rank at |R_jj| <=
    1e-11 max(1, max |R_jj|), where the image's preimage outgrows it; a
    row pushing a kernel forward through A(n) at |R_jj| < 1e-250.
    """
    floor = np.where(backward[:, None], np.log(1e-11) + logs.max(-1, initial=0.0), np.log(1e-250))
    return logs.min(axis=-1, initial=np.inf) <= floor


def _classify_rates(rates, cut, run, zero_margin, gap_ratio):
    """One-sided verdicts of the rows of `rates` (n, d) against `cut`, and their below-cut masks.

    A row is "no_ed" when a rate sits within `zero_margin` of the cut,
    else "indeterminate" when the rates on the two sides of the cut are
    closer than log(gap_ratio) / run, else "ed".  One masked min and max
    over all rows gives each row's distance and gap.
    """
    below = rates < cut
    dist = np.abs(rates - cut).min(axis=1)
    gap = np.where(below, np.inf, rates).min(axis=1) - np.where(below, rates, -np.inf).max(axis=1)
    split = below.any(axis=1) & (~below).any(axis=1)
    status = np.where(split & (gap < np.log(gap_ratio) / run), "indeterminate", "ed")
    return np.where(dist < zero_margin, "no_ed", status), below


def _projectors(im: np.ndarray, ker: np.ndarray) -> np.ndarray:
    """Projectors (..., d, d) onto the image frames along the kernel frames, U (B^-1)[:r]."""
    return im @ np.linalg.inv(np.concatenate([im, ker], axis=-1))[..., : im.shape[-1], :]


def _projectors_at(families: list, n: int) -> np.ndarray:
    """Projectors (len(families), d, d) of the families at time `n`: one `_projectors` call per rank.

    Each row has the bits of `_projectors` on its family's frames at `n` alone.
    """
    by_rank: dict[int, list[int]] = {}
    for i, fam in enumerate(families):
        by_rank.setdefault(fam.rank, []).append(i)
    d = families[0].dim
    out = np.empty((len(families), d, d))
    for members in by_rank.values():
        im, ker = (
            np.stack([getattr(families[i], name)[families[i].index_of(n)] for i in members])
            for name in ("image_frames", "kernel_frames")
        )
        out[members] = _projectors(im, ker)
    return out


@dataclass(frozen=True)
class ProjectorFamily:
    """Invariant projector family over a window of consecutive times.

    `image_frames[i]` and `kernel_frames[i]` hold orthonormal bases of
    the image and kernel of the projector at time `times[i]`, which
    `_projectors` forms from them, and the step matrices satisfy
    ``A(times[i]) @ image_frames[i] = image_frames[i+1] @ image_steps[i]``
    (same for the kernel).  `bound` is the largest operator norm of a
    projector in the family.  A family can serve several readers (a
    certificate hands its families to localization), so
    `build_projector_families` hands out read-only arrays.  Those
    families were validated when assembled (`_assemble_batch`, with the
    caller's tolerances); the constructor checks only the shapes.
    """

    side: str
    anchor: int
    times: np.ndarray
    rank: int
    image_frames: np.ndarray
    kernel_frames: np.ndarray
    image_steps: np.ndarray
    kernel_steps: np.ndarray
    bound: float

    def __post_init__(self):
        im, ker = self.image_frames.shape, self.kernel_frames.shape
        dims = (len(self.times), im[-1] + ker[-1])
        if not len(im) == len(ker) == 3 or not im[:2] == ker[:2] == dims:
            raise InputError("frame stacks and times disagree")

    @property
    def dim(self) -> int:
        return self.image_frames.shape[1]

    def index_of(self, n: int) -> int:
        i = int(n) - int(self.times[0])
        if not (0 <= i < len(self.times)):
            raise InputError(f"time {n} outside the family window [{self.times[0]}, {self.times[-1]}]")
        return i


def _first_true(bad: np.ndarray):
    """(row, first True column) for every row of a boolean matrix that has one."""
    rows = np.flatnonzero(bad.any(axis=1))
    return zip(rows.tolist(), bad[rows].argmax(axis=1).tolist())


def _max_abs(x: np.ndarray) -> np.ndarray:
    """Max-abs entry of each matrix in a stack; 0 for empty matrices."""
    return np.abs(x).max(axis=(-2, -1), initial=0.0)


def _smallest_sine(im: np.ndarray, ker: np.ndarray) -> np.ndarray:
    """Sine of the smallest principal angle between complementary orthonormal frames (..., d, .).

    sigma_min((I - U U^T) V), taken on the frame with fewer columns: on
    complementary frames the other's extra singular values are 1.  A
    one-column frame gives a vector norm, and an empty frame 1.
    """
    small, big = (im, ker) if im.shape[-1] <= ker.shape[-1] else (ker, im)
    if small.shape[-1] == 0:
        return np.ones(small.shape[:-2])
    off = small - big @ (big.swapaxes(-1, -2) @ small)
    if small.shape[-1] == 1:
        return np.sqrt((off[..., 0] ** 2).sum(axis=-1))
    return _singular_values(off).min(axis=-1)


def _assemble_batch(
    mats: np.ndarray,
    times: np.ndarray,
    im: np.ndarray,
    ker: np.ndarray,
    sides: list,
    anchors: list,
    tau_inv: float,
    sigma_reg: float,
    errors: dict | None = None,
) -> list:
    """Validate marched frames and package one projector family per sample.

    Row j is a family of side `sides[j]` at `anchors[j]` on the times
    `times[j]` (samples, steps + 1); `mats` (samples, steps, d, d)
    holds A(times[j, i]) for i < steps, and `im` and `ker` (samples,
    steps + 1, d, .) the image and kernel frames.  `errors` maps
    samples that already failed to their error.  Every other sample
    gets its family, or the first error of the checks in the order a
    single-sample run meets them: frame transversality at each time,
    then per step kernel regularity and frame transport.

    These checks bound the projectors P_i = U_i (B_i^-1)[:r], B_i =
    [U_i V_i], that the family's readers form (`_projectors`).  Let R_i
    = A B_i - B_{i+1} diag(S_i, T_i) be the transport residual, S_i and
    T_i the step matrices, and E = diag(I_r, 0).  Since P_i = B_i E
    B_i^-1, A P_i - P_{i+1} A = R_i E B_i^-1 - P_{i+1} R_i B_i^-1, so the
    invariance residual is at most |R_i| (1 + bound) / sigma_min(B_i).
    And (B^-1)[:r] U = I_r, so P is idempotent up to rounding times
    cond(B).
    """
    errors = {} if errors is None else errors
    d, r = im.shape[-2], im.shape[-1]
    sine = _smallest_sine(im, ker)
    # the eigenvalues of B^T B, B = [U V], are 1 +- the principal cosines, so
    # sigma_min(B) = sqrt(1 - cos) = sin / sqrt(1 + cos) at the smallest angle
    smin = sine / np.sqrt(1.0 + np.sqrt(np.maximum(1.0 - sine * sine, 0.0)))
    crossing = smin < 1e-8
    for j, i in _first_true(crossing):
        errors.setdefault(
            j,
            NumericError(
                f"image and kernel frames almost intersect at time {times[j, i]} "
                f"(smallest singular value {smin[j, i]:.2e})"
            ),
        )
    # for orthonormal frames, |P| = 1 / sin(smallest angle between image and
    # kernel); 0 for rank 0 and 1 for rank d
    s = np.where(crossing, 1.0, sine)
    bound = (1.0 / s).max(axis=1) if r else np.zeros(len(mats))

    here, ahead = slice(None, -1), slice(1, None)
    im_steps = im[:, ahead].swapaxes(-1, -2) @ (mats @ im[:, here])
    ker_steps = ker[:, ahead].swapaxes(-1, -2) @ (mats @ ker[:, here])
    a_scale = np.maximum.accumulate(np.maximum(_max_abs(mats), 1.0), axis=1)
    if d - r > 0:
        ker_smin = _singular_values(ker_steps).min(axis=-1)
    else:
        ker_smin = np.full(mats.shape[:2], np.inf)
    irregular = ker_smin < sigma_reg
    transport = np.maximum(
        _max_abs(mats @ im[:, here] - im[:, ahead] @ im_steps),
        _max_abs(mats @ ker[:, here] - ker[:, ahead] @ ker_steps),
    )
    transport_bad = transport > tau_inv * (1.0 + a_scale)
    for j, i in _first_true(irregular | transport_bad):
        if irregular[j, i]:
            msg = (
                f"kernel transition at time {times[j, i]} is not regular "
                f"(smallest singular value {ker_smin[j, i]:.3e} < {sigma_reg:.1e})"
            )
        else:
            msg = (
                f"frame transport residual {transport[j, i]:.3e} at time {times[j, i]} "
                f"exceeds {tau_inv:.1e}"
            )
        errors.setdefault(j, CertificationError(msg))

    times = np.asarray(times, dtype=int)
    for arr in (times, im, ker, im_steps, ker_steps):
        arr.setflags(write=False)
    return [
        errors[j] if j in errors else ProjectorFamily(
            side=sides[j],
            anchor=anchors[j],
            times=times[j],
            rank=r,
            image_frames=im[j],
            kernel_frames=ker[j],
            image_steps=im_steps[j],
            kernel_steps=ker_steps[j],
            bound=float(bound[j]),
        )
        for j in range(len(mats))
    ]


def family_run(side: str, anchor: int, length: int, horizon: int) -> tuple[int, int]:
    """First and last time the sweep of a half-line family reads.

    A family of `length` steps at `anchor` sweeps `length + horizon`
    factors: [anchor, anchor + length + horizon) on the plus side and
    [anchor - length - horizon, anchor) on the minus side.  With
    `length` = `horizon` this is the run of `dichotomy_spectra`.
    """
    run = length + horizon
    return (anchor, anchor + run - 1) if side == "plus" else (anchor - run, anchor - 1)


def _family_plan(field: DiscreteVectorField, side: str, anchor: int, length, horizon: int):
    """Validated family window: (length, first and last swept time, family times, offset).

    `offset` locates the family's first time inside the swept run.
    """
    if side not in ("plus", "minus"):
        raise InputError(f"side must be 'plus' or 'minus', got {side!r}")
    if horizon < 8:
        raise InputError("rate estimation needs a horizon of at least 8 steps")
    length = int(length) if length is not None else horizon
    if length < 2:
        raise InputError("family window must contain at least 2 steps")
    lo, hi = family_run(side, anchor, length, horizon)
    _check_window(field, lo, hi)
    if side == "plus":
        return length, lo, hi, np.arange(anchor, anchor + length + 1), 0
    return length, lo, hi, np.arange(anchor - length, anchor + 1), horizon


def _build_batch(pending: list, horizon: int, tolerances: tuple) -> list:
    """Families (or errors) of the pending runs of both sides, built together.

    `pending` holds, per half-line window, (side, anchor, times, offset,
    runs): `runs` (samples, run, d, d) is what its read returned, the
    factors in sweep order (decreasing time on the plus side), and the
    family's steps start `offset` into the run in increasing time.
    Rows of equal run length share one sweep, whose frames at the
    family times give each row's canonical subspace (the plus image,
    the minus kernel), and rows of equal run length and rank one march
    of the free complement and one assembly; numpy's stacked calls give
    each row the bits it would get alone.  A step that is singular on a
    marched or swept frame is a `NumericError` naming its time.
    Returns the outcomes window by window, in the order of their rows.
    """
    tau_inv, sigma_reg, zero_margin, gap_ratio = tolerances
    out = [[None] * len(runs) for *_, runs in pending]
    by_run: dict[int, list[int]] = {}
    for w, (*_, runs) in enumerate(pending):
        by_run.setdefault(runs.shape[1], []).append(w)
    for run, windows in by_run.items():
        origin, sides, anchors, times, factors, steps = [], [], [], [], [], []
        for w in windows:
            side, anchor, fam_times, offset, runs = pending[w]
            n = len(runs)
            origin += [(w, k) for k in range(n)]
            sides += [side] * n
            anchors += [anchor] * n
            times += [fam_times] * n
            ordered = runs[:, ::-1] if side == "plus" else runs
            factors.append(runs.swapaxes(-1, -2) if side == "plus" else runs)
            steps.append(ordered[:, offset : offset + len(fam_times) - 1])
        times, factors, steps = np.stack(times), np.concatenate(factors), np.concatenate(steps)
        # one sweep; its frames at the family times hold each splitting
        frames, logs, rates = _sweep(factors, horizon)
        del factors
        length, d = frames.shape[1] - 1, frames.shape[-1]
        status, masks = _classify_rates(rates, 0.0, run, zero_margin, gap_ratio)
        for j in np.flatnonzero(status != "ed").tolist():
            w, k = origin[j]
            side, anchor = sides[j], anchors[j]
            if status[j] == "no_ed":
                out[w][k] = NoDichotomyError(
                    f"no dichotomy detected at anchor {anchor} on the {side} side: a sampled "
                    f"rate sits within {zero_margin:.1e} of zero"
                )
            else:
                out[w][k] = IndeterminateError(
                    f"run of {run} steps is too short to separate the rate groups at anchor "
                    f"{anchor} ({side} side); a longer family or horizon lengthens it"
                )
        ranks = np.where(status == "ed", masks.sum(axis=1), -1)
        for r in np.unique(ranks[ranks >= 0]).tolist():
            rows = np.flatnonzero(ranks == r)
            members = rows.tolist()
            plus = np.array([sides[j] == "plus" for j in members])
            fam_times = times[rows]
            # the sweep's frames and step logs in increasing time, below-rate
            # columns first, each group in its original column order
            order = np.argsort(~masks[rows], axis=1, kind="stable")[:, None, :]
            at = np.where(plus[:, None], np.arange(length, -1, -1), np.arange(length + 1))
            basis = np.take_along_axis(frames[rows[:, None], at], order[:, :, None, :], axis=3)
            between = np.where(plus[:, None], at[:, 1:], at[:, :-1])
            step_logs = np.take_along_axis(logs[rows[:, None], between], order, axis=2)
            canonical = _lost_rank(step_logs[..., r:], plus)
            # the free complement from the anchor: the plus kernel forward
            # through A(n), the minus image's complement backward through A(n)^T
            a = steps[rows]
            seed = np.where(plus[:, None, None], basis[:, 0, :, r:], basis[:, -1, :, r:])
            if r < d:
                moves = np.where(plus[:, None, None, None], a, a[:, ::-1].swapaxes(-1, -2))
                free, free_logs = _advance(moves, seed)
            else:
                free = np.empty((len(rows), length + 1, d, 0))
                free_logs = np.empty((len(rows), length, 0))
            free[~plus], free_logs[~plus] = free[~plus, ::-1], free_logs[~plus, ::-1]
            free_lost = _lost_rank(free_logs, ~plus)
            im, ker = basis[..., :r], basis[..., r:]
            ker[plus] = free[plus]
            if r and not plus.all():
                im[~plus] = _complement(free[~plus])
            # a pulled-back image meets a singular step at its latest time, a pushed
            # kernel at its earliest; each side meets its canonical frame's first
            pulled = np.where(plus[:, None], canonical, free_lost) & (r > 0)
            pushed = np.where(plus[:, None], free_lost, canonical)
            errors = {}
            for i in np.flatnonzero(pulled.any(axis=1) | pushed.any(axis=1)).tolist():
                if pulled[i].any() and (plus[i] or not pushed[i].any()):
                    t = fam_times[i, length - 1 - pulled[i, ::-1].argmax()]
                    lost = f"the preimage under A({t}) of the image frame has a dimension above {r}"
                else:
                    t = fam_times[i, pushed[i].argmax()]
                    lost = f"A({t}) lost rank on the kernel frame"
                errors[i] = NumericError(f"{lost}; the splitting is not regular at time {t}")
            families = _assemble_batch(
                a, fam_times, im, ker, [sides[j] for j in members],
                [anchors[j] for j in members], tau_inv, sigma_reg, errors,
            )
            for j, family in zip(members, families):
                w, k = origin[j]
                out[w][k] = family
    return out


def _build_windows(
    field: DiscreteVectorField,
    lams,
    windows,
    horizon: int,
    tau_inv=TAU_INV,
    sigma_reg=SIGMA_REG,
    zero_margin=ZERO_MARGIN,
    gap_ratio=GAP_RATIO,
) -> list:
    """Outcome lists of many samples on several half-line windows, built in one batch.

    `windows` lists (side, anchor, length); the tolerances are those of
    `build_projector_families`.  Each window reads its run with one
    `field.stack` in its sweep order (the plus sweep runs down from the
    far end), so a bad entry is named where that side's sweep meets it
    first.  The rows of all windows go through one `_build_batch`.
    """
    tolerances = (tau_inv, sigma_reg, zero_margin, gap_ratio)
    out, plans = [], []
    for side, anchor, length in windows:
        try:
            _, lo, hi, times, offset = _family_plan(field, side, anchor, length, horizon)
        except HomindexError as exc:
            out.append([fresh(exc) for _ in lams])
            continue
        sweep = np.arange(hi, lo - 1, -1) if side == "plus" else np.arange(lo, hi + 1)
        plans.append((len(out), side, anchor, times, offset, sweep))
        out.append(None)
    pending, owners = [], []
    for w, side, anchor, times, offset, sweep in plans:
        mats, out[w] = field.stack(lams, sweep)
        good = [i for i, exc in enumerate(out[w]) if exc is None]
        if good:
            pending.append((side, anchor, times, offset, mats[good]))
            owners.append((w, good))
    for (w, good), built in zip(owners, _build_batch(pending, horizon, tolerances)):
        for i, outcome in zip(good, built):
            out[w][i] = outcome
    return out


def build_projector_families(
    field: DiscreteVectorField,
    lams,
    side: str,
    anchor: int,
    length: int | None = None,
    horizon: int = HORIZON,
    tau_inv: float = TAU_INV,
    sigma_reg: float = SIGMA_REG,
    zero_margin: float = ZERO_MARGIN,
    gap_ratio: float = GAP_RATIO,
) -> list:
    """Certified projector families of many parameter samples in one sweep.

    The construction and checks are those of `build_projector_family`,
    run once for all samples with the sample on numpy's leading axis,
    on the runs of one `field.stack` read.  Returns, in the order of
    `lams`, each sample's `ProjectorFamily` or the `HomindexError` its
    build raised; a failing sample never stops the others.
    """
    (outcomes,) = _build_windows(
        field, lams, [(side, anchor, length)], horizon,
        tau_inv, sigma_reg, zero_margin, gap_ratio,
    )
    return outcomes


def whole_line_families(
    field: DiscreteVectorField, lams, window, horizon: int = HORIZON, **tolerances
) -> tuple[list, list]:
    """Both half-line families anchored at 0 on `window`, built in one batch.

    The plus families cover [0, window[1]] and the minus families
    [window[0], 0], each side bit for bit its `build_projector_families`
    outcomes with `tolerances`; both sides share the sweep, marches and
    assembly where their run lengths and ranks agree.  Returns the plus
    and minus outcome lists.
    """
    lo, hi = int(window[0]), int(window[1])
    windows = [("plus", 0, hi), ("minus", 0, -lo)]
    plus, minus = _build_windows(field, lams, windows, horizon, **tolerances)
    return plus, minus


def _raise_or_return(outcome):
    if isinstance(outcome, HomindexError):
        raise fresh(outcome)
    return outcome


def build_projector_family(
    field: DiscreteVectorField,
    lam: int,
    side: str,
    anchor: int,
    length: int | None = None,
    horizon: int = HORIZON,
    tau_inv: float = TAU_INV,
    sigma_reg: float = SIGMA_REG,
    zero_margin: float = ZERO_MARGIN,
    gap_ratio: float = GAP_RATIO,
) -> ProjectorFamily:
    """Certified invariant projector family on a half-line window.

    One QR sweep over `length + horizon` steps classifies the rates,
    and past its `horizon` transient its columns span the canonical
    subspace at every family time: the QR method carries the leading
    (faster-growing) columns exactly, so on the plus side, swept
    backward through A(n)^T, the trailing ones span the preimages of
    the decaying image, and on the minus side, swept forward, the
    leading ones span the growing kernel (Dieci & Van Vleck, SIAM J.
    Numer. Anal. 40, 2002).  The other subspace, the free choice, is
    fixed orthogonal at the anchor and marched away from it: the plus
    kernel forward through A(n), the complement of the minus image
    backward through A(n)^T, since {x : A x in V}^perp = A^T V^perp.
    The sweep and the march are the same QR recurrence, run in blocks
    of 4 steps and redone one step at a time for a sample whose block
    products lost accuracy (`_advance`).
    Frame transversality, kernel regularity and frame transport are
    validated before returning, and they bound the invariance and
    idempotency of the projectors (`_assemble_batch`).  This is
    `build_projector_families` for a single sample.

    No command calls it: the tests take it as the per-sample reference
    for the batch, and `perfbench/tracer.py` rebinds it by name.
    """
    (outcome,) = build_projector_families(
        field, [lam], side, anchor, length, horizon,
        tau_inv, sigma_reg, zero_margin, gap_ratio,
    )
    return _raise_or_return(outcome)


@dataclass(frozen=True)
class EDWitness:
    """Certified dichotomy constants attached to a projector family.

    The family's image contracts like ``k_const * alpha**delta`` and its
    kernel expands at least like ``alpha**(-delta) / k_const`` on every
    checked pair; `checked_pairs` counts those pairs, image and kernel.
    """

    family: ProjectorFamily
    k_const: float
    alpha: float
    checked_pairs: int

    def green_bound(self) -> float:
        """Sup-norm bound for half-line Green solutions per unit forcing."""
        return self.k_const * (1.0 + self.alpha) / (1.0 - self.alpha) * (1.0 + self.family.bound)


def _fit_slopes(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Least-squares line slopes of the rows of `y` (n, p) against `x` (p,).

    The closed form sum(dx (y - mean y)) / sum(dx^2), dx = x - mean x,
    from reductions along each row only, so a family's constants do not
    depend on the batch it was fitted in.  One point gives y / x.
    """
    if len(x) == 1:
        return y[:, 0] / x[0]
    dx = x - x.mean()
    return ((y - y.mean(axis=1, keepdims=True)) * dx).sum(axis=1) / (dx * dx).sum()


def _chain_points(steps_stack: np.ndarray, points: list[tuple[int, int]]):
    """Transition chains at every sample point (anchor a, delta) at once.

    `steps_stack` (samples, steps, k, k) holds per-step transition
    matrices; the chain of a point is steps[a+delta-1] @ ... @ steps[a].
    A dyadic table holds the chains of 2^l steps from every start, each
    level one stacked product of two halves from the level below.  A
    point whose delta is a power of two reads its entry; any other
    point (the `_verify_batch` points (0, steps)) multiplies the
    entries of the binary digits of delta in order.  Returns (samples,
    points, k, k).
    """
    longest = max(delta for _, delta in points)
    table = [steps_stack]
    while 2 ** len(table) <= longest:
        span, half = 2 ** (len(table) - 1), table[-1]
        table.append(half[:, span:] @ half[:, : half.shape[1] - span])
    chains = []
    for a, delta in points:
        level = delta.bit_length() - 1
        chain, at = table[level][:, a], a + 2**level
        for level in range(level - 1, -1, -1):
            if delta >> level & 1:
                chain, at = table[level][:, at] @ chain, at + 2**level
        chains.append(chain)
    return np.stack(chains, axis=1)


def _fit_points(steps: int) -> list[tuple[int, int]]:
    """The (anchor, delta) points a fit samples on a family of `steps` steps.

    Up to `MAX_ANCHORS` anchors spread over the window, each with the
    powers of two that fit in it, and (0, steps); in anchor-major,
    delta-minor order, the order of the checks.
    """
    anchors = sorted(set(np.linspace(0, steps - 1, min(MAX_ANCHORS, steps), dtype=int).tolist()))
    return [
        (a, delta)
        for a in anchors
        for delta in range(1, steps - a + 1)
        if delta & (delta - 1) == 0 or delta == steps
    ]


def _chain_sizes(chains: np.ndarray, largest: bool) -> np.ndarray:
    """Largest or smallest singular value of each chain in a stack (..., k, k).

    A chain with a non-finite entry gets NaN and never reaches LAPACK,
    whose SVD may fail to converge on it.  The finite chains take one
    stacked call, which gives each of them the bits it gets alone.
    """
    finite = np.isfinite(chains).all(axis=(-2, -1))
    values = _singular_values(chains[finite])
    sizes = np.full(finite.shape, np.nan)
    sizes[finite] = values.max(-1) if largest else values.min(-1)
    return sizes


def _verify_batch(fams: list) -> list:
    """`verify_ed` fits for families of equal window length, rank and dimension.

    Returns, per family, (k_const, alpha, checked_pairs) or its error.
    The chains at the `_fit_points` come from a doubling table
    (`_chain_points`), one stacked product per doubling.
    K is the maximum over the sampled pairs, so every pair meets the
    constants by construction.  The backward bound needs no check of
    its own: the chains from offset 0 cover steps 1, 2, 4, ..., and on
    orthonormal frames the least-norm preimage of a kernel vector
    after delta steps is at most 1 / sigma_min of the kernel chain, so
    it is at most K alpha**delta.
    """
    steps = len(fams[0].times) - 1
    if steps < MIN_FIT_STEPS:
        return [InputError("family window too short to fit dichotomy constants") for _ in fams]
    d = fams[0].dim
    r = fams[0].rank
    n = len(fams)
    points = _fit_points(steps)
    offsets = [a for a, _ in points]
    x = np.array([dl for _, dl in points], dtype=float)
    im_steps = np.stack([f.image_steps for f in fams])
    ker_steps = np.stack([f.kernel_steps for f in fams])

    fits = []  # (is_stable, log sizes (n, points), slope)
    if r > 0:
        smax = _chain_sizes(_chain_points(im_steps, points), largest=True)
        y_s = np.log(np.maximum(smax, 1e-300))
        fits.append((True, y_s, _fit_slopes(x, y_s)))
    if d - r > 0:
        smin = _chain_sizes(_chain_points(ker_steps, points), largest=False)
        y_u = np.log(np.maximum(smin, 1e-300))
        fits.append((False, y_u, -_fit_slopes(x, y_u)))
    log_alpha = np.max([part for _, _, part in fits], axis=0)

    errors: dict[int, Exception] = {}
    # a chain that overflowed has no size to fit; its family alone fails
    for stable, y, _ in fits:
        for j, p in _first_true(~np.isfinite(y)):
            errors.setdefault(
                j,
                NumericError(
                    f"the {'image' if stable else 'kernel'} transition chain at family offset "
                    f"{offsets[p]}, {points[p][1]} steps is not finite"
                ),
            )
    for j in np.flatnonzero(log_alpha >= 0.0).tolist():
        stable_first, y, part = fits[0]
        if stable_first and part[j] == log_alpha[j]:
            p = int(np.argmax(y[j] / x))
        else:
            p = int(np.argmin(fits[-1][1][j] / x))
        errors.setdefault(
            j,
            NoDichotomyError(
                f"fitted rate alpha = {np.exp(log_alpha[j]):.6f} >= 1; offending orbit at "
                f"family offset {offsets[p]}, {points[p][1]} steps"
            ),
        )
    alpha = np.exp(log_alpha)

    log_k = np.zeros(n)
    for stable, y, _ in fits:
        sized = y if stable else -y
        log_k = np.maximum(log_k, (sized - x * log_alpha[:, None]).max(axis=1))
    k_const = np.exp(log_k)

    checked = len(points) * len(fits)
    return [
        errors.get(j, (float(k_const[j]), float(alpha[j]), checked))
        for j in range(n)
    ]


def verify_families(families) -> list:
    """`verify_ed` for many families, batched over families of equal shape.

    Takes the outcomes of `build_projector_families`.  Returns, in
    order, each family's `EDWitness` or the `HomindexError` its
    validation raised; an error given in place of a family is passed
    through.  A family listed twice is fitted once.
    """
    groups: dict[tuple, dict[int, ProjectorFamily]] = {}
    for fam in families:
        if isinstance(fam, ProjectorFamily):
            shape = (len(fam.times), fam.rank, fam.dim)
            groups.setdefault(shape, {})[id(fam)] = fam
    fits = {}
    for group in groups.values():
        # an overflowing chain fails its own family (`_verify_batch`), without warnings
        with np.errstate(over="ignore", invalid="ignore"):
            fits.update(zip(group, _verify_batch(list(group.values()))))
    outcomes = [fits[id(fam)] if isinstance(fam, ProjectorFamily) else fam for fam in families]
    return [
        fit if isinstance(fit, Exception) else EDWitness(fam, *fit)
        for fam, fit in zip(families, outcomes)
    ]


def verify_ed(family: ProjectorFamily) -> EDWitness:
    """Fit and validate dichotomy constants (K, alpha) on a projector family.

    Image and kernel transition chains are sampled over anchor times and
    dyadic step counts; log extreme singular values are fitted by least
    squares, alpha is the worse of the decay and reciprocal growth
    rates, and K is then the smallest constant covering every sampled
    pair.  The backward (inverse) bound on the kernel follows from the
    growth fit (see `_verify_batch`).  Raises NoDichotomyError when the
    fitted alpha reaches 1.  This is `verify_families` for one family.

    No command calls it: the tests take it as the per-family reference
    for the batch, and `perfbench/tracer.py` rebinds it by name.
    """
    (outcome,) = verify_families([family])
    return _raise_or_return(outcome)


@dataclass(frozen=True)
class SpectrumResult:
    """Dichotomy spectrum of one parameter sample.

    `intervals` are the sorted disjoint closed intervals of scaling
    factors gamma in [gamma_min, gamma_max] where no dichotomy was
    detected.  Each endpoint is exactly a cell edge exp(rate +-
    zero_margin) or gamma_min or gamma_max.  `verdicts` holds the
    verdict strings ("ed:<stable rank>", "no_ed", "indeterminate") of
    the `grid` points, and `n_probes` counts the classifications the
    cells and the grid points on cell edges took.
    The intervals are closures, but an edge is classified with a strict
    margin: a grid point exactly on an interval's end may read "ed:<rank>".
    `rates` holds the growth factors exp(rate) that the plus and the
    minus run measured, one ascending tuple per side; a factor outside
    [gamma_min, gamma_max] is a spectral point the grid does not see.
    An undecided ("indeterminate") cell lies inside the intervals.
    `at_one` is the verdict at gamma = 1, on or off the grid; when it is
    "indeterminate", `admits_ed` is undecided and `spectrum` flags it.
    """

    intervals: tuple
    grid: np.ndarray
    verdicts: tuple
    n_probes: int
    rates: tuple
    at_one: str

    @property
    def admits_ed(self) -> bool:
        """Whether the unscaled field admits a dichotomy (its verdict at gamma = 1)."""
        return self.at_one.startswith("ed")


def _intersection_dimensions(frames: list) -> list:
    """Dimension of the meet of each frame pair's subspaces, or its refusal.

    `frames[i]` pairs orthonormal frames of the plus image and the minus
    kernel at one time.  Counts the principal cosines between them within
    `_ANGLE_TOL` of one, from one stacked SVD per rank pair, and refuses
    cosines inside the ambiguous band below that.
    """
    out: list = [0] * len(frames)
    groups: dict[tuple, list[int]] = {}
    for i, (f_plus, f_minus) in enumerate(frames):
        groups.setdefault((f_plus.shape[1], f_minus.shape[1]), []).append(i)
    for members in groups.values():
        f_plus, f_minus = (np.stack([frames[i][k] for i in members]) for k in (0, 1))
        cosines = np.linalg.svd(f_plus.swapaxes(-1, -2) @ f_minus, compute_uv=False)
        for i, gaps in zip(members, 1.0 - np.clip(cosines, 0.0, 1.0)):
            ambiguous = gaps[(gaps > _ANGLE_TOL) & (gaps <= _ANGLE_BAND)]
            out[i] = int(np.sum(gaps <= _ANGLE_TOL)) if not ambiguous.size else IndeterminateError(
                "a principal angle between the decaying subspaces is ambiguous (cosine within "
                f"{float(ambiguous.min()):.2e} of one); enlarge the window or refine the "
                "parameter sampling to separate the subspaces"
            )
    return out


def _verdict(lg, qp, rates_p, qm, rates_m, run, zero_margin, gap_ratio) -> str:
    """Dichotomy verdict of the field scaled by exp(-lg), from the directions and rates at 0.

    Past the rate checks, `_intersection_dimensions` decides: a meet of the
    stable plus and unstable minus directions is "no_ed", an ambiguous
    angle "indeterminate".
    """
    status, below = _classify_rates(np.stack([rates_p, rates_m]), lg, run, zero_margin, gap_ratio)
    # a rate at the cut on either side beats an unresolved gap
    if "no_ed" in status:
        return "no_ed"
    if "indeterminate" in status:
        return "indeterminate"
    s_mask, u_mask = below[0], rates_m > lg
    s, u = int(s_mask.sum()), int(u_mask.sum())
    if s + u != len(rates_p):
        return "no_ed"
    (meet,) = _intersection_dimensions([(qp[:, s_mask], qm[:, u_mask])])
    if isinstance(meet, HomindexError):
        return "indeterminate"
    return "no_ed" if meet else f"ed:{s}"


def _spectrum(gammas, *sample) -> SpectrumResult:
    """Spectrum on a `gammas` grid of one `sample`: the `_verdict` arguments after lg.

    The verdict at log gamma depends only on which rates lie below it
    or within `zero_margin` of it, so it is constant between the edges
    rate +- zero_margin.  Every edge bounds the failing cell around its
    rate, so the failing cells' closures are the spectral intervals.
    Edges within `_CUT_TOL` of each other are one cut, at the smallest,
    so equal rates leave no empty cell whose count moves with rounding.
    """
    _, rates_p, _, rates_m, _, zero_margin, _ = sample
    logs = np.log(gammas)
    l_min, l_max = float(logs[0]), float(logs[-1])
    rates = np.concatenate([rates_p, rates_m])
    edges = np.sort(np.concatenate([rates - zero_margin, rates + zero_margin]))
    apart = np.diff(edges, prepend=-np.inf) > _CUT_TOL * np.maximum(1.0, np.abs(edges))
    edges = set(edges[apart].tolist())
    cuts = [l_min] + sorted(e for e in edges if l_min < e < l_max) + [l_max]
    cells = [_verdict(0.5 * (a + b), *sample) for a, b in zip(cuts[:-1], cuts[1:])]

    ends = np.exp(cuts)
    ends[[0, -1]] = gammas[[0, -1]]
    failing = [not verdict.startswith("ed") for verdict in cells]
    intervals = []
    for k in np.flatnonzero(failing).tolist():
        lo = intervals.pop()[0] if k and failing[k - 1] else float(ends[k])
        intervals.append((lo, float(ends[k + 1])))

    # the grid points take their cell's verdict; a grid point on an edge is
    # classified itself
    on_edge = {lg: _verdict(lg, *sample) for lg in logs.tolist() if lg in edges}
    cell_of = np.minimum(np.searchsorted(cuts, logs, side="right") - 1, len(cells) - 1)
    verdicts = [on_edge.get(lg, cells[i]) for lg, i in zip(logs.tolist(), cell_of.tolist())]
    # gamma = 1, on or off the grid, is classified itself: inside the grid this
    # is its cell's verdict, which is constant on the cell
    at_one = _verdict(0.0, *sample)
    factors = tuple(tuple(np.exp(np.sort(r)).tolist()) for r in (rates_p, rates_m))
    return SpectrumResult(
        tuple(intervals), gammas, tuple(verdicts), len(cells) + len(on_edge), factors, at_one
    )


def dichotomy_spectra(
    field: DiscreteVectorField,
    lams,
    gamma_min: float = 0.05,
    gamma_max: float = 20.0,
    grid: int = 64,
    horizon: int = HORIZON,
    zero_margin: float = ZERO_MARGIN,
    gap_ratio: float = GAP_RATIO,
) -> list:
    """Dichotomy spectra of many parameter samples from one batched sweep.

    The field scaled by 1/gamma has a dichotomy when the rates split
    cleanly on both half-lines, the stable-plus and unstable-minus ranks
    sum to the dimension and the two frames do not meet at time 0 under
    `index`'s principal-angle rule (`_intersection_dimensions`).  An
    undecided cell lies inside the intervals, and `at_one` is the verdict
    at gamma = 1.
    The rates come from the runs
    `family_run(side, 0, horizon, horizon)`: one `field.stack` reads
    both of every sample in increasing time (so a sample fails as a
    per-run read would), one sweep takes them all, and `_spectrum`
    reads each sample's spectrum off its rates, one verdict per cell.
    Returns each sample's `SpectrumResult` or error, in order.
    """
    if not (0.0 < gamma_min < gamma_max):
        raise InputError("need 0 < gamma_min < gamma_max")
    if grid < 16:
        raise InputError("gamma grid needs at least 16 points")
    if not zero_margin > 0.0:
        raise InputError("zero_margin must be positive")
    runs = [_family_plan(field, side, 0, horizon, horizon)[1:3] for side in ("plus", "minus")]
    mats, errors = field.stack(lams, np.concatenate([np.arange(lo, hi + 1) for lo, hi in runs]))
    good = [i for i, exc in enumerate(errors) if exc is None]
    out = list(errors)
    if good:
        n, plus = len(good), mats[good, 2 * horizon - 1 :: -1].swapaxes(-1, -2)
        frames, _, rates = _sweep(np.concatenate([plus, mats[good, 2 * horizon :]]), horizon)
        q = frames[:, -1]
        gammas = np.geomspace(gamma_min, gamma_max, grid)
        for row, i in enumerate(good):
            sample = (q[row], rates[row], q[n + row], rates[n + row])
            out[i] = _spectrum(gammas, *sample, 2 * horizon, zero_margin, gap_ratio)
    return out


def dichotomy_spectrum(
    field: DiscreteVectorField,
    lam: int = 0,
    gamma_min: float = 0.05,
    gamma_max: float = 20.0,
    grid: int = 64,
    horizon: int = HORIZON,
    zero_margin: float = ZERO_MARGIN,
    gap_ratio: float = GAP_RATIO,
) -> SpectrumResult:
    """Dichotomy spectrum of one parameter sample: `dichotomy_spectra` for a batch of one.

    No command calls it: the tests take it as the per-sample reference
    for the batch, and `perfbench/tracer.py` rebinds it by name.
    """
    (outcome,) = dichotomy_spectra(
        field, [lam], gamma_min, gamma_max, grid, horizon, zero_margin, gap_ratio
    )
    return _raise_or_return(outcome)

