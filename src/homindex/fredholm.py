"""Difference operators on integer windows: truncation, index, Green solves.

The first-order difference operator (L phi)(n) = phi(n+1) - A_n phi(n)
acting on sequences vanishing at both ends is Fredholm precisely when
the field carries exponential dichotomies on both half-lines.  Its
index is the rank difference of the two half-line projector families,
its kernel is the meet of the forward-decaying and backward-decaying
subspaces, and the half-line Green's-function solution inverts it on
either half-line.  Everything here works on finite windows whose
boundary conditions encode the half-line decay characterizations -
never plain zero endpoints, which would shift the index.

The truncated kernel count reads singular values of the
boundary-conditioned truncation M: the block rows P-(lo), phi(n+1) -
A_n phi(n) and I - P+(hi).  M is block lower-bidiagonal and is never
formed.  `truncated_spectra` resolves, for many parameter samples at
once (the sample on numpy's leading axis), only what the count needs:
- a scale, the block-norm bound sqrt(|N|_1 |N|_inf) on sigma_max with
  N_ij = |M_ij|_2 (Golub & Van Loan, Matrix Computations, 2.3); M has
  at most two blocks per block row and column, so sigma_max <= scale
  <= 2 sigma_max, from the block norms of all samples at once (in
  closed form at d <= 2, `dichotomy._singular_values`) and no loop;
- where the geometric count (`_intersection_dimensions`) is k, a
  screen: one block Cholesky of M'^T M' - tau^2 I, tau = 2 gap_ratio x
  the null cut, whose success proves sigma_min(M') above the
  empty-kernel rule's threshold (`_screen`).  M' = M at k = 0; at k > 0
  M' adds one rank-k block at time 0 that pushes the kernel the
  families give out of the solutions (`_kernel_witnesses`,
  `_deflate`), which bounds M's (k + 1)-th smallest value by the same
  floor, and k Ritz values on that kernel bound the null group from
  above: the count is k with no iteration;
- elsewhere, and where the screen fails, the values below the null cut
  1e-8 scale and the smallest one above it, by inverse subspace
  iteration with a factor R, R^T R = M^T M + mu I, of M stacked on
  regularization rows sqrt(mu) I, sqrt(mu) = 1e-10 scale, each step
  ending with a Rayleigh-Ritz step on M; a sample stops as soon as its
  count is decided.
The geometric count picks the method, never the answer: a section with
more than k small values fails the screen, one with fewer keeps a Ritz
value above half the cut, and where the screen succeeds the iteration
would decide the same k.  Both work on odd-even (cyclic) reduction,
after S. J. Wright, Stable parallel algorithms for two-point boundary
value problems (SIAM J. Sci. Stat. Comput. 13, 1992): each level
eliminates every other alive block column of all samples at once, so
a window of w times takes ceil(log2(w + 1)) levels (8 at +-100)
instead of w sequential steps.  R takes one batched QR per level,
each solve with R^T R two passes over them; the screen factors
M'^T M' - tau^2 I elementwise, with no LAPACK call.  A sample the
iteration leaves unresolved at its cap falls back to a values-only
dense SVD of its own matrix, the only place M is formed, cut with the
same scale.  Everything costs O(w d^3) flops per sample and step on a
window of w times.

The same factor serves the Gauss-Newton localization in `bifurcation`,
whose Jacobian has M's block layout with -D_x f(lam, n, phi(n)) in
place of -A_n: `section_least_squares` takes the minimum-norm
least-squares step of many runs at once from the corrected seminormal
equations, with the directions below the null cut projected out.

`whole_line_index` counts index and kernel for many samples at once,
from half-line families anchored at zero (`index_from_families` counts
families built elsewhere); `kernel_cokernel` is the same count for one
sample and given witnesses.

`green_solve` reads only its projector family: the image part marches
forward in image coordinates and the kernel part backward in kernel
coordinates, each through the family's step matrices in the direction
the dichotomy contracts it, so no propagator is ever formed over a long
window.  Forcing outside the steps the family covers is refused.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field
from functools import cached_property

import numpy as np

from .dichotomy import (
    GAP_RATIO,
    EDWitness,
    ProjectorFamily,
    _complement,
    _intersection_dimensions,
    _projectors_at,
    _singular_values,
    verify_families,
    whole_line_families,
)
from .errors import (
    DomainError,
    HomindexError,
    IndeterminateError,
    InputError,
    fresh,
)
from .field import DiscreteVectorField

__all__ = [
    "DECAY_TOL",
    "SOLVE_TOL",
    "FiniteWindowSequence",
    "IndexReport",
    "TruncationSpectrum",
    "assemble_truncated",
    "truncated_spectra",
    "kernel_cokernel",
    "index_from_families",
    "whole_line_index",
    "green_solve",
]

#: sup-norm level under which a sequence counts as settled at a window end
DECAY_TOL = 1e-6

#: largest sup-norm defect of L phi - psi that `solve` accepts in a Green solution
SOLVE_TOL = 1e-8

#: cutoff, relative to the scale, separating null from non-null singular values
_NULL_CUT = 1e-8

#: root of the regularization mu, relative to the scale, in the factor R
_REGULARIZATION = 1e-10

#: the inverse iteration resolves the smallest kept value to this times the
#: scale; the scale is at most 2 sigma_max, so this is at most 1e-12 sigma_max
_VALUE_TOL = 5e-13

#: inverse-iteration steps before a sample falls back to the dense SVD
_ITERATION_CAP = 150


@dataclass(frozen=True)
class FiniteWindowSequence:
    """Vector sequence on consecutive integer times with decay flags.

    `values[i]` is the vector at time `window[0] + i`.  The decay flags
    record whether the sup-norm over the 10% outermost indices at each
    end stays below the tolerance the sequence was tabulated with.
    """

    window: tuple[int, int]
    values: np.ndarray
    decays_left: bool
    decays_right: bool

    @classmethod
    def tabulate(
        cls,
        window,
        values,
        decay_tol: float = DECAY_TOL,
    ) -> "FiniteWindowSequence":
        lo, hi = int(window[0]), int(window[1])
        if lo > hi:
            raise InputError(f"window [{lo}, {hi}] is empty")
        v = np.array(values, dtype=float)
        if v.ndim == 1:
            v = v[:, None]
        if v.ndim != 2:
            raise InputError("sequence values must be a (times, dim) array")
        if v.shape[0] != hi - lo + 1:
            raise InputError(
                f"window [{lo}, {hi}] has {hi - lo + 1} times but {v.shape[0]} values given"
            )
        if not np.all(np.isfinite(v)):
            raise InputError("sequence values must be finite")
        edge = max(1, int(np.ceil(0.1 * v.shape[0])))
        mags = np.abs(v).max(axis=1)
        return cls(
            window=(lo, hi),
            values=v,
            decays_left=bool(mags[:edge].max() < decay_tol),
            decays_right=bool(mags[-edge:].max() < decay_tol),
        )

    @property
    def dim(self) -> int:
        return self.values.shape[1]

    @property
    def norm_inf(self) -> float:
        return float(np.abs(self.values).max())


@dataclass(frozen=True)
class TruncationSpectrum:
    """The singular values of a boundary-conditioned truncation that the kernel count reads.

    `smallest` holds, ascending, every value below the null cut
    (`1e-8 * scale`) and then the smallest value above it, as Ritz
    values (upper bounds on the true ones) as precise as the count
    needed them; `error` estimates the last one's error.  Where `floor`
    is set, the screen (`_screen`) decided the count k instead:
    `smallest` holds the k Ritz values of M on a kernel basis
    (`_deflate`), all below half the cut, and then a proved lower bound
    on the (k + 1)-th smallest value, at least 1.7 times gap_ratio times
    the cut, not a Ritz value.  `resolved()` resolves the smallest kept
    value to `_VALUE_TOL` * scale by running the inverse iteration on
    this row alone from its start (`section`).  `scale` is the
    block-norm bound sqrt(|N|_1 |N|_inf), N_ij = |M_ij|_2, on
    sigma_max: sigma_max <= scale <= 2 sigma_max.
    """

    smallest: np.ndarray
    scale: float
    error: float = 0.0
    floor: bool = False
    section: object = dataclass_field(default=None, repr=False, compare=False)

    def resolved(self) -> "TruncationSpectrum":
        if not self.floor and self.error <= _VALUE_TOL * self.scale:
            return self
        (one,) = _smallest_values(self.section, None)
        return _dense_spectrum(self.section, 0) if one is None else one


@dataclass(frozen=True)
class IndexReport:
    """Kernel, cokernel and index of the difference operator on a window.

    `dim_ker` comes from the subspace route (the principal-angle rule
    `_intersection_dimensions` at time zero, which `spectrum` reads too);
    `dim_ker_truncated` from the boundary-conditioned truncation's null
    space.  The flag records their agreement; the index always equals
    the half-line projector rank difference, and the cokernel dimension
    is the kernel dimension minus the index.  The truncation's singular
    values are summarized, not listed: `truncation` is the
    `TruncationSpectrum` the count read.  The report holds no kernel
    basis.
    """

    index: int
    dim_ker: int
    dim_coker: int
    rank_plus: int
    rank_minus: int
    consistent: bool
    dim_ker_truncated: int
    truncation: TruncationSpectrum | None = dataclass_field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if self.index != self.dim_ker - self.dim_coker:
            raise InputError("index must equal dim ker - dim coker")
        if self.consistent and self.index != self.rank_plus - self.rank_minus:
            raise InputError(
                "a consistent report must have index equal to the projector rank difference"
            )


def assemble_truncated(field: DiscreteVectorField, lams, window) -> tuple[np.ndarray, list]:
    """Step blocks of the finite sections of phi(n+1) - A_n(lam) phi(n) on `window`.

    Returns the (S, w-1, d, d) stack of -A_n for lo <= n < hi, one row
    per sample of `lams`, from one `field.stack` read, and each
    sample's read error (None for a good row; a failed row is zero).
    Block row i of a sample's section maps the values (phi(lo), ...,
    phi(hi)) to ``blocks[s, i] @ phi(lo + i) + phi(lo + i + 1)``: the
    section is block lower-bidiagonal, and its identity blocks are
    implicit.
    """
    lo, hi = int(window[0]), int(window[1])
    if hi - lo + 1 < 2:
        raise InputError("truncation window needs at least two times")
    mats, errors = field.stack(lams, np.arange(lo, hi))
    return -mats, errors


def _require_coverage(fam: ProjectorFamily, lo: int, hi: int, label: str) -> None:
    have = (int(fam.times[0]), int(fam.times[-1]))
    if have[0] > lo or have[1] < hi:
        raise DomainError(
            f"the {label} witness family covers times {list(have)} but the "
            f"computation needs [{lo}, {hi}]; rebuild it on a longer window"
        )


def _null_space(spectrum: TruncationSpectrum, gap_ratio: float) -> int:
    """Null dimension by the grouped singular-value rule; the values before a screened floor."""
    if spectrum.floor:
        return len(spectrum.smallest) - 1
    small, scale = spectrum.smallest, spectrum.scale
    cut = _NULL_CUT * scale
    n_zero = int((small < cut).sum())
    smallest_kept = float(small[n_zero])
    if n_zero:
        largest_zero = float(small[n_zero - 1])
        if smallest_kept < max(largest_zero, scale * 1e-15) * gap_ratio:
            raise IndeterminateError(
                f"no clear singular-value gap separates the null group ({largest_zero:.3e}, "
                f"below the null cutoff {cut:.3e} = 1e-8 x the block-norm scale "
                f"{scale:.3e}) from the rest ({smallest_kept:.3e})"
            )
    elif smallest_kept < cut * gap_ratio:
        raise IndeterminateError(
            f"the smallest singular value {smallest_kept:.3e} sits too close to the null "
            f"cutoff {cut:.3e} = 1e-8 x the block-norm scale {scale:.3e} to certify an "
            "empty kernel"
        )
    return n_zero


# ---------------------------------------------------------------------------
# the structured truncation solver


def _t(x: np.ndarray) -> np.ndarray:
    return np.swapaxes(x, -1, -2)


class _Sections:
    """Boundary-conditioned truncations of S samples, kept as blocks.

    The block rows of each (w+1)d x wd matrix M are, top to bottom:
    ``first`` = P-(lo) in block column 0; ``steps[i]`` = -A_n and the
    identity in block columns i and i+1; ``last`` = I - P+(hi) in
    block column w-1.  M itself is never formed.  `matvec` takes
    vectors laid out as (S, w, d, k) and `rmatvec` as (S, w + 1, d, k).
    `scale` bounds each sample's sigma_max within a factor of two.
    """

    def __init__(self, steps: np.ndarray, first: np.ndarray, last: np.ndarray):
        self.steps, self.first, self.last = steps, first, last
        self.count, self.width, self.dim = steps.shape[0], steps.shape[1] + 1, steps.shape[2]

    def take(self, rows) -> "_Sections":
        part = _Sections(self.steps[rows], self.first[rows], self.last[rows])
        if "scale" in self.__dict__:  # each row's scale has the bits it gets alone
            part.__dict__["scale"] = self.scale[rows]
        return part

    def matvec(self, x: np.ndarray) -> np.ndarray:
        s, w, d, k = x.shape
        y = np.empty((s, w + 1, d, k))
        np.matmul(self.first, x[:, 0], out=y[:, 0])
        np.matmul(self.steps, x[:, :-1], out=y[:, 1:w])
        y[:, 1:w] += x[:, 1:]
        np.matmul(self.last, x[:, -1], out=y[:, w])
        return y

    def rmatvec(self, y: np.ndarray) -> np.ndarray:
        s, w1, d, k = y.shape
        x = np.empty((s, w1 - 1, d, k))
        np.matmul(_t(self.steps), y[:, 1:-1], out=x[:, :-1])
        np.matmul(_t(self.last), y[:, -1], out=x[:, -1])
        x[:, 1:] += y[:, 1:-1]
        x[:, 0] += _t(self.first) @ y[:, 0]
        return x

    @cached_property
    def scale(self) -> np.ndarray:
        """Per sample, sqrt(|N|_1 |N|_inf) for the block norms N_ij = |M_ij|_2.

        It bounds sigma_max from above (Golub & Van Loan, 2.3).  Every
        block norm is at most sigma_max and every block row and column
        holds at most two blocks, so it is at most 2 sigma_max.  The
        identity blocks count as norm 1; the two roots keep a finite
        table from overflowing.  The block norms are the largest values
        of `_singular_values`: at d <= 2 its closed forms, within a few
        ulp of LAPACK's, and LAPACK's own bits above.
        """
        blocks = np.concatenate([self.first[:, None], self.steps, self.last[:, None]], axis=1)
        norms = _singular_values(blocks)[..., 0]
        first, steps, last = norms[:, 0], norms[:, 1:-1], norms[:, -1]
        # block row i + 1 holds steps[i] and an identity; block column c holds
        # steps[c] (first as well for c = 0) and the identity of step c - 1
        # (last as well for c = w - 1)
        row_sums = np.maximum(np.maximum(first, last), 1.0 + steps.max(axis=1))
        column_sums = np.maximum(
            np.maximum(first + steps[:, 0], 1.0 + last),
            1.0 + steps[:, 1:].max(axis=1, initial=0.0),
        )
        return np.sqrt(column_sums) * np.sqrt(row_sums)

    def dense(self, i: int) -> np.ndarray:
        """Sample i's matrix M, formed densely (the fallback only)."""
        w, d = self.width, self.dim
        blocks = np.zeros((w + 1, d, w, d))
        cols = np.arange(w - 1)
        blocks[0, :, 0, :] = self.first[i]
        blocks[cols + 1, :, cols, :] = self.steps[i]
        blocks[cols + 1, :, cols + 1, :] = np.eye(d)
        blocks[w, :, w - 1, :] = self.last[i]
        return blocks.reshape((w + 1) * d, w * d)


def _levels(width: int) -> list:
    """(eliminated, kept) block-column slices of each odd-even level on `width` columns.

    Level l eliminates the alive columns 2^l - 1, 3 * 2^l - 1, ... and
    keeps the ones halfway between them, so ceil(log2(width + 1))
    levels eliminate every column once.
    """
    out, stride = [], 1
    while stride - 1 < width:
        out.append((slice(stride - 1, None, 2 * stride), slice(2 * stride - 1, None, 2 * stride)))
        stride *= 2
    return out


def _regularized_factor(sec: _Sections, root_mu: np.ndarray) -> list:
    """Odd-even factor R of [M; root_mu I]: R^T R = M^T M + mu I.

    Wright's orthogonal block cyclic reduction.  Every alive block
    column p sits between two couplings: row blocks on the columns
    p - 1 and p, with d nonzero rows at the first level and 2d after
    it.  Each level eliminates every other alive column with one
    batched QR of its own rows: root_mu * I and its two couplings.  The
    first d rows of the triangle are R's block row of that column, with
    one block on the column itself and one on each alive neighbour
    (`_levels` gives the columns); the other 2d rows couple the two
    neighbours, which are adjacent at the next level.
    P-(lo) starts as the coupling left of column 0 and I - P+(hi) as
    the one right of column w - 1.  The diagonal blocks have smallest
    singular value at least root_mu.  Returns, per level, the diagonal
    blocks (S, n, d, d) of its n eliminated columns, the blocks on the
    kept column left of eliminated column i, for i >= 1, and those on
    the kept column right of it, for i below the kept count.
    """
    s, w, d = sec.count, sec.width, sec.dim
    eye = np.eye(d)
    # coupling p joins alive columns p - 1 (its `on_left` part) and p (its
    # `on_right` part); couplings 0 and m hang off the ends of m alive columns
    on_left = np.zeros((s, w + 1, 2 * d, d))
    on_right = np.zeros((s, w + 1, 2 * d, d))
    on_right[:, 0, :d] = sec.first
    on_left[:, 1:w, :d] = sec.steps
    on_right[:, 1:w, :d] = eye
    on_left[:, w, :d] = sec.last
    levels, c = [], d
    while on_left.shape[1] > 1:
        alive = on_left.shape[1] - 1
        n_out, n_kept = (alive + 1) // 2, alive // 2
        # eliminated column p's block columns: p, p - 1, p + 1; a coupling
        # has c nonzero rows, d at the first level and 2d after it
        stack = np.zeros((s, n_out, d + 2 * c, 3 * d))
        stack[..., :d, :d] = root_mu[:, None, None, None] * eye
        stack[..., d : d + c, :d] = on_right[:, 0 : 2 * n_out : 2, :c]
        stack[..., d : d + c, d : 2 * d] = on_left[:, 0 : 2 * n_out : 2, :c]
        stack[..., d + c :, :d] = on_left[:, 1 : 2 * n_out : 2, :c]
        stack[..., d + c :, 2 * d :] = on_right[:, 1 : 2 * n_out : 2, :c]
        r = np.linalg.qr(stack, mode="r")
        c = 2 * d
        levels.append(
            (
                np.ascontiguousarray(r[..., :d, :d]),
                np.ascontiguousarray(r[:, 1:, :d, d : 2 * d]),
                np.ascontiguousarray(r[:, :n_kept, :d, 2 * d :]),
            )
        )
        # with an even count the last alive column stays, and so does its end coupling
        end = slice(alive, None) if alive % 2 == 0 else slice(0, 0)
        on_left = np.concatenate([r[..., d:, d : 2 * d], on_left[:, end]], axis=1)
        on_right = np.concatenate([r[..., d:, 2 * d :], on_right[:, end]], axis=1)
    return levels


def _gram_solve(levels: list, x: np.ndarray) -> np.ndarray:
    """(R^T R)^-1 x in place, for x (S, w, d, p) and R from `_regularized_factor`.

    `levels` holds each level's inverted diagonal blocks and its two
    coupling blocks.  R^T z = x runs up the levels: an eliminated
    column's z needs only what the earlier levels subtracted, and it is
    subtracted from its kept neighbours in turn.  R y = z runs down:
    an eliminated column's y needs only its neighbours', solved at the
    later levels.  Each level is a few batched products.
    """
    plan = _levels(x.shape[1])
    for (inv, left, right), (out, kept) in zip(levels, plan):
        xo, xk = x[:, out], x[:, kept]
        xo[...] = _t(inv) @ xo
        xk -= _t(right) @ xo[:, : right.shape[1]]
        xk[:, : left.shape[1]] -= _t(left) @ xo[:, 1:]
    for (inv, left, right), (out, kept) in zip(levels[::-1], plan[::-1]):
        xo, xk = x[:, out], x[:, kept]
        xo[:, : right.shape[1]] -= right @ xk
        xo[:, 1:] -= left @ xk[:, : left.shape[1]]
        xo[...] = inv @ xo
    return x


def _upper_inverse(u: np.ndarray) -> np.ndarray:
    """Inverses of a stack of invertible upper triangular blocks (..., d, d).

    Back-substitution from the bottom row up, elementwise over the stack
    with no LAPACK call: row i of the inverse X is 1 / u_ii on the
    diagonal and -(sum_k u_ik X_kj) / u_ii right of it.  At d = 2 that
    is [[a, b], [0, c]]^-1 = [[1/a, -b (1/c) / a], [0, 1/c]]; each entry
    lies within a few ulp of LAPACK's.
    """
    d = u.shape[-1]
    out = np.zeros(u.shape)
    for i in range(d - 1, -1, -1):
        out[..., i, i] = 1.0 / u[..., i, i]
        if i < d - 1:
            acc = u[..., i, i + 1, None] * out[..., i + 1, i + 1 :]
            for k in range(i + 2, d):
                acc[..., k - i - 1 :] += u[..., i, k, None] * out[..., k, k:]
            out[..., i, i + 1 :] = -acc / u[..., i, i, None]
    return out


def _gram_factor(sec: _Sections) -> list:
    """`_regularized_factor` at root mu = `_REGULARIZATION` * scale, inverted for `_gram_solve`."""
    levels = _regularized_factor(sec, _REGULARIZATION * sec.scale)
    # the upper triangular diagonal blocks of all levels in one stacked inverse
    inverses = _upper_inverse(np.concatenate([diag for diag, _, _ in levels], axis=1))
    inverses = np.split(inverses, np.cumsum([diag.shape[1] for diag, _, _ in levels])[:-1], axis=1)
    return [(inverse, left, right) for inverse, (_, left, right) in zip(inverses, levels)]


def _ritz_step(sec: _Sections, levels: list, x: np.ndarray):
    """One step of inverse subspace iteration on x (S, w d, p), then Rayleigh-Ritz on M.

    Applies (R^T R)^-1 by the two passes of `_gram_solve` over R's
    odd-even levels (`_gram_factor`), orthonormalizes, and takes the SVD
    of the (w+1)d x p product M Q.  Returns, smallest Ritz value first,
    the left vectors (S, (w+1)d, p), the values (S, p) and the right
    vectors (S, w d, p).  Without mu the null group (~1e-17) would swamp
    the other columns of (M^T M)^-1 Q in rounding.
    """
    w, d, p = sec.width, sec.dim, x.shape[-1]
    y = _gram_solve(levels, np.array(x.reshape(-1, w, d, p)))
    q = np.linalg.qr(y.reshape(-1, w * d, p))[0]
    del y
    u, values, vt = np.linalg.svd(
        sec.matvec(q.reshape(-1, w, d, p)).reshape(-1, (w + 1) * d, p), full_matrices=False
    )
    return u[..., ::-1], values[:, ::-1], q @ _t(vt[:, ::-1])


_STARTS: dict[tuple[int, int], np.ndarray] = {}


def _start(width: int, d: int) -> np.ndarray:
    """The fixed orthonormal start (w d, p) of the inverse iteration, p = min(d + 3, w d).

    The kernel of a section has dimension at most d.  Made once per
    (width, d) and read-only.
    """
    if (width, d) not in _STARTS:
        p = min(d + 3, width * d)
        start = np.linalg.qr(np.random.default_rng(0).standard_normal((width * d, p)))[0]
        start.setflags(write=False)
        _STARTS[width, d] = start
    return _STARTS[width, d]


def section_least_squares(
    steps: np.ndarray, first: np.ndarray, last: np.ndarray, rhs: np.ndarray
) -> np.ndarray:
    """Minimum-norm least-squares solutions s of M s = rhs for S stacked sections.

    M has the block rows of `_Sections`: ``first`` (S, d, d) on block
    column 0, ``steps`` (S, w-1, d, d) with the identity on the next
    column, and ``last`` (S, d, d) on block column w-1; ``rhs`` (S, w+1,
    d) is laid out the same way.  Returns (S, w, d).  The solve uses
    the factor R, R^T R = M^T M + mu I (sqrt(mu) = `_REGULARIZATION` *
    scale), in the corrected seminormal equations (Bjorck, Linear
    Algebra Appl. 88/89, 1987): s = (R^T R)^-1 M^T rhs, then one
    refinement s += (R^T R)^-1 M^T (rhs - M s).  For a singular value
    sigma that keeps the fraction 1 - (mu / (sigma^2 + mu))^2 of the
    minimum-norm solution: all of it far above sqrt(mu).  Below
    sqrt(eps) scale the regularization no longer damps rounding: the
    rounding of M^T rhs along a null vector comes back multiplied by
    1/mu, as a component about 1e3 |rhs| long.  So the Ritz vectors of
    one inverse-iteration step (`_ritz_step`) whose values lie below
    the null cut (1e-8 scale) are projected out; a section without such
    a value keeps its solution bit for bit.  Each sample's rows get the
    bits they would get alone.
    """
    sec = _Sections(steps, first, last)
    levels = _gram_factor(sec)
    b = rhs[..., None]
    s = _gram_solve(levels, sec.rmatvec(b))
    s += _gram_solve(levels, sec.rmatvec(b - sec.matvec(s)))
    start = _start(sec.width, sec.dim)
    x = np.broadcast_to(start, (sec.count,) + start.shape)
    _, values, vectors = _ritz_step(sec, levels, x)
    null = values < _NULL_CUT * sec.scale[:, None]
    flat = s.reshape(sec.count, -1)
    for i in np.flatnonzero(null.any(axis=1)).tolist():
        v = vectors[i][:, null[i]]
        flat[i] -= v @ (v.T @ flat[i])
    return s[..., 0]


def _smallest_values(sec: _Sections, gap_ratio) -> list:
    """Each section's `TruncationSpectrum`, or None where it stays unresolved.

    Inverse subspace iteration (`_ritz_step`) with the regularized
    factor R (root mu = `_REGULARIZATION` * `sec.scale`) on the columns
    of `_start`.  Ritz values bound the true ones from above
    (interlacing).  The kept one s, the first at or above the null cut,
    has residual r = |M^T u - s v| and Kato-Temple error e = r^2 / gap
    (Parlett, The Symmetric Eigenvalue Problem, 1998), gap being its
    distance to the nearest Ritz value farther than r (with none, e =
    r).  A sample stops once its count is decided, s - e clearing
    `_null_space`'s rule at `gap_ratio` and s / 2 (early Ritz values can
    sit far above the true ones), or once e <= `_VALUE_TOL` * scale, the
    only stop when `gap_ratio` is None, which is how
    `TruncationSpectrum.resolved` runs a row.  A sample with a null
    value is never decided at the first step from `_start`: the start's
    components along the null vectors, amplified by about 1/mu against
    the others, swamp the rest of the subspace in its
    orthonormalization, so the Ritz pairs above the null group are
    rounding noise there (a start moved by 1e-15 moved one from 1.30 to
    1.46 on a section whose true value is 0.27).  None after
    `_ITERATION_CAP` steps.
    """
    s, w, d = sec.count, sec.width, sec.dim
    scale = sec.scale
    levels, start = _gram_factor(sec), _start(w, d)
    x = np.broadcast_to(start, (s,) + start.shape)
    p = x.shape[-1]
    found: list = [None] * s
    active = np.arange(s)
    shrunk = True
    for step in range(_ITERATION_CAP):
        if shrunk:
            part = sec.take(active)
            a_levels = [tuple(blocks[active] for blocks in level) for level in levels]
            cut = _NULL_CUT * scale[active]
            tol = _VALUE_TOL * scale[active]
            floor = 1e-15 * scale[active]
            rows = np.arange(len(active))
        u, values, x = _ritz_step(part, a_levels, x)
        # the first Ritz value at or above the cut, its residual and its gap
        k = (values < cut[:, None]).sum(axis=1)
        i = np.minimum(k, p - 1)
        at = values[rows, i]
        left = u[rows, :, i].reshape(-1, w + 1, d, 1)
        residual = part.rmatvec(left).reshape(-1, w * d)
        residual -= x[rows, :, i] * at[:, None]
        r = np.sqrt((residual * residual).sum(axis=1))
        del u, left, residual
        # Ritz values within r of this one count as its cluster; with no
        # value beyond it, the linear bound r is all there is
        distance = np.abs(values - at[:, None])
        gap = np.where(distance > r[:, None], distance, np.inf).min(axis=1)
        err = np.where(np.isfinite(gap), r * r / gap, r)
        resolved = (k < p) & (err <= tol)
        if gap_ratio is not None:
            clear = np.where(k > 0, np.maximum(values[rows, np.maximum(k - 1, 0)], floor), cut)
            # the first step from the start decides no sample with a null value
            # (see the docstring)
            trusted = (k == 0) | (step > 0)
            resolved |= trusted & (k < p) & (at - err >= np.maximum(clear * gap_ratio, 0.5 * at))
        for j in np.flatnonzero(resolved).tolist():
            row = int(active[j])
            found[row] = TruncationSpectrum(
                values[j, : k[j] + 1].copy(), float(scale[row]), float(err[j]),
                section=sec.take([row]),
            )
        if resolved.all():
            break
        shrunk = resolved.any()
        active, x = active[~resolved], x[~resolved]
    return found


def _dense_spectrum(sec: _Sections, i: int) -> TruncationSpectrum:
    """Sample i's spectrum summary from a values-only dense SVD: the fallback."""
    values = np.linalg.svd(sec.dense(i), compute_uv=False)[::-1]
    scale = float(sec.scale[i])
    n_zero = int((values < _NULL_CUT * scale).sum())
    return TruncationSpectrum(values[: n_zero + 1], scale)


def _gram(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """x^T y for blocks laid out matrix axes first, (d, k, ...) and (d, l, ...), elementwise."""
    out = x[0, :, None] * y[0, None, :]
    for k in range(1, x.shape[0]):
        out += x[k, :, None] * y[k, None, :]
    return out


def _cholesky_rows(a: np.ndarray, alive: np.ndarray, pivot_floor: float):
    """Rows r (d, n, ...) of a point Cholesky of the block rows a = [D C], n >= d.

    The matrix axes come first and the stack after them.  r = [R X]
    with R upper triangular, R^T R = D and R^T X = C, row by row with
    the inner products of the Cholesky algorithm, elementwise over the
    stack: no LAPACK call, and a failed block row raises nothing.  A
    row stays `alive` while every pivot exceeds `pivot_floor` and every
    entry of r stays within 2; a failed row's r is zero from its
    failing row of R on.  Returns r and the flags.
    """
    r = np.zeros(a.shape)
    for j in range(a.shape[0]):
        row = a[j, j:]
        for k in range(j):
            row = row - r[k, j] * r[k, j:]
        good = row[0] > pivot_floor
        row = row / np.sqrt(np.where(good, row[0], 1.0))
        alive = alive & good & (np.abs(row) <= 2.0).all(axis=0)
        r[j, j:] = np.where(alive, row, 0.0)
    return r, alive


def _screen(sec: _Sections, gap_ratio: float) -> np.ndarray:
    """Per section, a proved floor on sigma_min(M), or 0 where none is proved.

    One block Cholesky of T = (M^T M - tau^2 I) / scale^2, tau = 2
    gap_ratio `_NULL_CUT` scale: T is block tridiagonal, with diagonal
    blocks S_c^T S_c + I (P-(lo)^T P-(lo) + S_0^T S_0 first and I +
    (I - P+(hi))^T (I - P+(hi)) last) and subdiagonal blocks S_c, for
    the steps S_c = -A_n.  Block cyclic reduction on the odd-even plan
    of `_levels` (alive columns 0, 2, 4, ... at each level) is the
    Cholesky of a symmetric permutation of T: each level factors its
    eliminated columns' block rows [D, T_left, T_right] with
    `_cholesky_rows` and subtracts X^T X from its kept neighbours.  The
    blocks are laid out matrix axes first, so every operation is
    elementwise over long runs of the stack and each row keeps the bits
    it gets alone.

    A Cholesky that runs to completion gives R^T R = T + E with |E| <=
    gamma_m |R^T| |R| (Higham, Accuracy and Stability of Numerical
    Algorithms, 2nd ed., 2002, Thm 10.3), m - 1 the most terms of an
    inner product.  T's diagonal is at most 1 (scale >= sigma_max), so
    every column of R has 2-norm at most 1 (to within E); a block row of
    R holds three blocks and a block column at most 2L + 1 over L
    levels, so m = (2L + 1) d + 1 and |E|_2 <= |R|_1 |R|_inf gamma_m <=
    3 d sqrt(m) gamma_m, with forming T adding less again.  Success, every
    pivot above rho = 6 d m^1.5 eps, thus proves sigma_min^2 >= tau^2 -
    rho scale^2, and rho <= c (w d) eps (3.7e-13 at d = 2, w = 61; 3.1e-12
    at d = 4, w = 201).  The screen stands aside (all 0) where rho
    exceeds tau^2 / 4 in units of scale, which it does for any gap_ratio
    below about 61 on the first window and 175 on the second; else a
    proved floor sqrt(tau^2 - rho scale^2) >= 0.86 tau, at least 1.7
    times the `_null_space` threshold gap_ratio x the cut.
    """
    s, w, d = sec.count, sec.width, sec.dim
    terms = (2 * len(_levels(w)) + 1) * d + 1
    rho = 6.0 * d * terms**1.5 * np.finfo(float).eps
    tau = 2.0 * gap_ratio * _NULL_CUT
    if s == 0 or 4.0 * rho > tau * tau:
        return np.zeros(s)
    inv = 1.0 / sec.scale
    steps = np.moveaxis(sec.steps, (2, 3), (0, 1)) * inv[:, None]
    first = np.moveaxis(sec.first, (1, 2), (0, 1)) * inv
    last = np.moveaxis(sec.last, (1, 2), (0, 1)) * inv
    diag = np.empty((d, d, s, w))
    diag[..., :-1] = _gram(steps, steps)
    diag[..., -1] = _gram(last, last)
    diag[..., 0] += _gram(first, first)
    eye = np.arange(d)
    diag[eye, eye, :, 1:] += (inv * inv)[:, None]
    diag[eye, eye] -= tau * tau
    sub = steps * inv[:, None]
    alive = np.ones(s, dtype=bool)
    while diag.shape[-1]:
        n_out, n_kept = (diag.shape[-1] + 1) // 2, diag.shape[-1] // 2
        rows = np.zeros((d, 3 * d, s, n_out))
        rows[:, :d] = diag[..., 0::2]
        rows[:, d : 2 * d, :, 1:] = sub[..., 1::2]
        rows[:, 2 * d :, :, :n_kept] = np.swapaxes(sub[..., 0::2], 0, 1)
        r, flags = _cholesky_rows(rows, alive[:, None], rho)
        alive = flags.all(axis=1)
        # X on the kept column left of eliminated column i >= 1, and right of i < n_kept
        left, right = r[:, d : 2 * d, :, 1:], r[:, 2 * d :, :, :n_kept]
        kept = diag[..., 1::2] - _gram(right, right)
        kept[..., : n_out - 1] -= _gram(left, left)
        sub = -_gram(right[..., 1:], left[..., : n_kept - 1])
        diag = kept
    return np.where(alive, np.sqrt(tau * tau - rho) * sec.scale, 0.0)


def _deflate(sec: _Sections, rows, column: int, basis: np.ndarray, push: np.ndarray):
    """Turn sections `rows` of `sec` into M' = M + E, rank E <= k, for a kernel of dimension k.

    In place, on sections made for `_screen`.  `basis` (n, w, d, k)
    spans each section's approximate kernel, with orthonormal columns V
    in its block at `column`; `push` (n, d, k) has orthonormal columns
    C.  E = C V^T on the step block at `column`: M' keeps M's block
    layout, and where M's kernel is span(basis) the push sends it where
    no other solution of that block row lands, so M' is invertible.
    Whatever the basis, the (k + 1)-th smallest singular value of M is
    at least sigma_min(M + E) (Weyl: sigma_{i+k}(M) <= sigma_i(M + E)
    counted from the largest), which is at least `_screen`'s floor on
    the formed M' less the returned slack 4 eps (|S'|_F + k), a bound
    on the rounding of the changed block S'.  The scale of M' is M's
    plus |C|_F |V|_F >= |E|_2, so it bounds sigma_max(M') as `_screen`
    needs.  Returns the slack and, ascending, the singular values (n,
    k) of M Q for an orthonormal Q spanning `basis`: each bounds M's
    value of the same rank from above (Courant-Fischer).
    """
    n, w, d, k = basis.shape
    q = np.linalg.qr(basis.reshape(n, w * d, k))[0]
    image = sec.take(rows).matvec(q.reshape(n, w, d, k)).reshape(n, (w + 1) * d, k)
    ritz = np.linalg.svd(image, compute_uv=False)[:, ::-1]
    v = basis[:, column]
    sec.steps[rows, column] += push @ _t(v)
    changed = np.sqrt((sec.steps[rows, column] ** 2).sum(axis=(1, 2)))
    sec.scale[rows] += np.sqrt((push**2).sum(axis=(1, 2)) * (v**2).sum(axis=(1, 2)))
    return 4.0 * np.finfo(float).eps * (changed + k), ritz


def _solve_spectra(
    steps: np.ndarray, first: np.ndarray, last: np.ndarray, gap_ratio, screen=None
) -> list:
    """Spectrum summaries of stacked sections: screened, iterated, or dense where unresolved.

    `screen[i]` is True to screen section i for an empty kernel, a
    (column, basis, push) witness of a kernel of dimension k > 0 from
    `_kernel_witnesses` to screen it after `_deflate`, or None.  Every
    screened section goes to one `_screen` call.  A deflated screen
    decides the count k where the floor holds and every Ritz value on
    the basis lies below half the null cut, far above their rounding.
    Every other section, and every failed screen, goes to
    `_smallest_values`.
    """
    sec = _Sections(steps, first, last)
    scale = sec.scale  # computed once, for every part taken below
    found: list = [None] * sec.count
    rows = [i for i, entry in enumerate(screen or ()) if entry is True or isinstance(entry, tuple)]
    part = sec.take(rows)  # copies, which `_deflate` changes
    ritz, slack = [np.zeros(0)] * len(rows), np.zeros(len(rows))
    groups: dict[int, list[int]] = {}
    for j, i in enumerate(rows):
        if screen[i] is not True:
            groups.setdefault(screen[i][2].shape[-1], []).append(j)
    for members in groups.values():
        column = screen[rows[members[0]]][0]
        basis, push = (np.stack([screen[rows[j]][n] for j in members]) for n in (1, 2))
        slack[members], values = _deflate(part, members, column, basis, push)
        for j, one in zip(members, values):
            ritz[j] = one
    floors = _screen(part, gap_ratio) - slack
    for j, i in enumerate(rows):
        if floors[j] > 0.0 and (ritz[j] <= 0.5 * _NULL_CUT * scale[i]).all():
            found[i] = TruncationSpectrum(
                np.append(ritz[j], floors[j]), float(scale[i]), floor=True, section=sec.take([i])
            )
    rest = [i for i, one in enumerate(found) if one is None]
    if rest:
        part = sec.take(rest)
        for j, one in enumerate(_smallest_values(part, gap_ratio)):
            found[rest[j]] = _dense_spectrum(part, j) if one is None else one
    return found


def _prefix_products(steps: np.ndarray) -> np.ndarray:
    """Products steps[:, j] @ ... @ steps[:, 0] of every prefix of (S, n, r, r) steps.

    Hillis-Steele doubling: after the round of span s each entry holds
    the product of the up to 2s steps ending at it, so ceil(log2 n)
    stacked products replace n sequential ones.
    """
    out, span = np.array(steps), 1
    while span < out.shape[1]:
        out[:, span:] = out[:, span:] @ out[:, :-span]
        span *= 2
    return out


def _kernel_witnesses(steps: np.ndarray, plus, minus, lo: int, hi: int, counts) -> list:
    """Each section's `_solve_spectra` screen entry from its geometric kernel count.

    True for a count of 0.  For a count k > 0 at index <= 0, with time
    0 inside the window, the witness (column, basis, push), column
    being time 0's block column.  The basis starts from the k principal
    vectors of the plus image and the minus kernel at time 0 whose
    cosines are nearest one, the meet `_intersection_dimensions`
    counted, and marches forward through the plus family's image steps
    and backward through the inverses of the minus family's kernel
    steps, each in the direction its family contracts.  The push is an
    orthonormal complement of A_0 times the minus kernel's other
    directions plus the plus image at time 1: a solution from the minus
    kernel at time 0 that the pushed block row 0 sends into the plus
    image at time 1 has no kernel component, so it is 0 (`_deflate`).  None
    elsewhere.  The witness only picks the method: however poor it is,
    a screen it passes proves the count.
    """
    out: list = [None] * len(counts)
    groups: dict[tuple, list[int]] = {}
    for i, k in enumerate(counts):
        if k == 0:
            out[i] = True
        elif k > 0 and plus[i].rank <= minus[i].rank and lo < 0 < hi:
            groups.setdefault((plus[i].rank, minus[i].rank, k), []).append(i)
    for (_, _, k), rows in groups.items():
        at = [(plus[i].index_of(0), minus[i].index_of(0)) for i in rows]
        im = np.stack([plus[i].image_frames[p : p + hi + 1] for i, (p, _) in zip(rows, at)])
        im_steps = np.stack([plus[i].image_steps[p : p + hi] for i, (p, _) in zip(rows, at)])
        ker = np.stack([minus[i].kernel_frames[m + lo : m + 1] for i, (_, m) in zip(rows, at)])
        ker_steps = np.stack([minus[i].kernel_steps[m + lo : m] for i, (_, m) in zip(rows, at)])
        y, _, vh = np.linalg.svd(_t(im[:, 0]) @ ker[:, -1])
        z = _t(vh)
        # a kernel step maps kernel coordinates at n to those at n + 1
        inverse = 1.0 / ker_steps if ker_steps.shape[-1] == 1 else np.linalg.inv(ker_steps)
        forward = _prefix_products(im_steps) @ y[:, None, :, :k]
        backward = _prefix_products(inverse[:, ::-1])[:, ::-1] @ z[:, None, :, :k]
        basis = np.concatenate(
            [ker[:, :-1] @ backward, im[:, :1] @ y[:, None, :, :k], im[:, 1:] @ forward], axis=1
        )
        reached = np.concatenate([steps[rows, -lo] @ ker[:, -1] @ z[..., k:], im[:, 1]], axis=-1)
        push = _complement(reached)[..., :k]
        for j, i in enumerate(rows):
            out[i] = (-lo, basis[j], push[j])
    return out


def truncated_spectra(
    field: DiscreteVectorField, lams, window, plus, minus, gap_ratio, screen=None
) -> list:
    """Spectrum summaries of many samples' boundary-conditioned truncations, in one batch.

    `plus[i]` and `minus[i]` are sample `lams[i]`'s half-line families.
    The truncation on `window` = [lo, hi] has the block rows P-(lo),
    phi(n+1) - A_n phi(n) and I - P+(hi); it stays in blocks, and all
    samples sit on numpy's leading axis (`_Sections.scale`, `_screen`,
    `_smallest_values`), with the blocks of every sample from one
    `assemble_truncated` read.  `screen`, where given, holds each
    sample's geometric kernel count k (families covering the window):
    those samples go to `_screen` first, at k > 0 on the section
    deflated along a kernel basis the families give
    (`_kernel_witnesses`).  Where it succeeds the summary ends in a
    proved floor and the count is k.  The rest, and those whose screen
    fails, go to the inverse iteration, which stops each sample once
    its count under `_null_space` at `gap_ratio` is decided; a sample it
    leaves unresolved falls back to a values-only dense SVD of its own
    matrix, the only dense truncation formed, cut with the same scale.
    Returns each sample's `TruncationSpectrum` (which keeps its own
    blocks, for `resolved()`), or the error reading its blocks raised.
    """
    lo, hi = int(window[0]), int(window[1])
    try:
        steps, outcomes = assemble_truncated(field, lams, (lo, hi))
    except HomindexError as exc:
        return [fresh(exc) for _ in lams]
    rows = [i for i, failed in enumerate(outcomes) if failed is None]
    if rows:
        steps, plus, minus = steps[rows], [plus[i] for i in rows], [minus[i] for i in rows]
        first = _projectors_at(minus, lo)
        last = np.eye(field.dim) - _projectors_at(plus, hi)
        entries = None
        if screen is not None:
            counts = [screen[i] for i in rows]
            entries = _kernel_witnesses(steps, plus, minus, lo, hi, counts)
        for i, spectrum in zip(rows, _solve_spectra(steps, first, last, gap_ratio, entries)):
            outcomes[i] = spectrum
    return outcomes


def _check_pair(field: DiscreteVectorField, lo: int, hi: int, fam_plus, fam_minus) -> None:
    """`kernel_cokernel`'s checks of its window and witnesses, in its order."""
    if hi - lo + 1 < 8:
        raise InputError("index computations need a truncation window of at least 8 times")
    if fam_plus.side != "plus":
        raise InputError(f"first witness must certify the plus side, got '{fam_plus.side}'")
    if fam_minus.side != "minus":
        raise InputError(f"second witness must certify the minus side, got '{fam_minus.side}'")
    if fam_plus.dim != field.dim or fam_minus.dim != field.dim:
        raise InputError("witness families and field disagree on the dimension")
    kappa_hi, kappa_lo = fam_plus.anchor, fam_minus.anchor
    if not (lo <= kappa_lo and kappa_hi <= hi):
        raise InputError(
            f"window [{lo}, {hi}] must contain both anchors {kappa_lo} and {kappa_hi}"
        )
    _require_coverage(fam_plus, min(0, kappa_hi), hi, "plus")
    _require_coverage(fam_minus, lo, max(0, kappa_lo), "minus")


def _index_outcomes(field: DiscreteVectorField, lams, window, pairs, gap_ratio: float) -> list:
    """Each sample's `IndexReport`, or the first error its count meets.

    `pairs[i]` is sample `lams[i]`'s (plus, minus) family pair, or the
    error that stopped it earlier, which comes back unchanged.  The
    samples that pass `_check_pair` share one `_intersection_dimensions` count and then
    one `truncated_spectra` call, which screens every sample against its
    geometric count; `gap_ratio` separates each null group.
    """
    lo, hi = int(window[0]), int(window[1])
    outcomes = []
    for pair in pairs:
        if not isinstance(pair, HomindexError):
            try:
                _check_pair(field, lo, hi, *pair)
            except HomindexError as exc:
                pair = fresh(exc)
        outcomes.append(pair)
    live = [i for i, outcome in enumerate(outcomes) if not isinstance(outcome, HomindexError)]
    frames = [
        (p.image_frames[p.index_of(0)], m.kernel_frames[m.index_of(0)])
        for p, m in (pairs[i] for i in live)
    ]
    for i, dim_ker in zip(live, _intersection_dimensions(frames)):
        fam_plus, fam_minus = pairs[i]
        index = fam_plus.rank - fam_minus.rank
        if isinstance(dim_ker, HomindexError):
            outcomes[i] = dim_ker
        else:
            # frames of ranks r+ and d - r- meet in at least r+ - r- = index
            # dimensions, so the cokernel count is never negative
            ranks = {"rank_plus": fam_plus.rank, "rank_minus": fam_minus.rank}
            outcomes[i] = dict(index=index, dim_ker=dim_ker, dim_coker=dim_ker - index, **ranks)
    live = [i for i, outcome in enumerate(outcomes) if isinstance(outcome, dict)]
    plus, minus = [pairs[i][0] for i in live], [pairs[i][1] for i in live]
    screen = [outcomes[i]["dim_ker"] for i in live]
    spectra = truncated_spectra(
        field, [lams[i] for i in live], (lo, hi), plus, minus, gap_ratio, screen
    )
    for i, spectrum in zip(live, spectra):
        if isinstance(spectrum, HomindexError):
            outcomes[i] = spectrum
            continue
        try:
            null = _null_space(spectrum, gap_ratio)
        except IndeterminateError as exc:
            outcomes[i] = fresh(exc)
            continue
        outcomes[i] = IndexReport(
            **outcomes[i], consistent=outcomes[i]["dim_ker"] == null,
            dim_ker_truncated=null, truncation=spectrum,
        )
    return outcomes


def kernel_cokernel(
    field: DiscreteVectorField,
    lam: int,
    window,
    witnesses: tuple[EDWitness, EDWitness],
) -> IndexReport:
    """Kernel/cokernel dimensions and Fredholm index on a finite window.

    The kernel dimension is counted twice: geometrically, as the meet at
    time zero of the plus image and the minus kernel
    (`_intersection_dimensions`), and algebraically, as the null space
    of the truncation whose boundary rows pin phi(lo) to the
    backward-decaying set and phi(hi) to the forward-decaying one
    (`truncated_spectra`, counted by `_null_space` at `GAP_RATIO`; the
    report's `truncation` holds its values only as precisely as the
    count needed them).  The truncated count tries the screen against
    the geometric count k first, and a success is a proved floor on the
    (k + 1)-th smallest value (`TruncationSpectrum.floor`); a section
    with another number of small values fails it, so a disagreement
    still shows.  The index is the projector rank difference; the report's
    flag records whether the two counts agree.
    No command calls it: the tests take it as the per-sample reference
    for the batch, and `perfbench/tracer.py` rebinds it by name.
    """
    pair = tuple(wit.family for wit in witnesses)
    (outcome,) = _index_outcomes(field, [lam], window, [pair], GAP_RATIO)
    if isinstance(outcome, HomindexError):
        raise fresh(outcome)
    return outcome


def index_from_families(field: DiscreteVectorField, lams, window, plus, minus, **tolerances):
    """`kernel_cokernel` of samples `lams` from their `whole_line_families` outcomes.

    The families may reach beyond `window`.  Their fits and the
    truncation spectra each come from one batch; the `gap_ratio` of the
    family `tolerances` separates the null groups.  Returns each
    sample's `IndexReport` or the first error a single-sample run meets:
    plus family, minus family, plus fit, minus fit, then
    `kernel_cokernel`'s.
    """
    fits = verify_families(list(plus) + list(minus))
    stages = zip(plus, minus, fits[: len(plus)], fits[len(plus) :])
    pairs = [next((o for o in s if isinstance(o, HomindexError)), s[:2]) for s in stages]
    gap_ratio = tolerances.get("gap_ratio", GAP_RATIO)
    return _index_outcomes(field, lams, window, pairs, gap_ratio)


def whole_line_index(field: DiscreteVectorField, lams, window, horizon: int, **tolerances) -> list:
    """`kernel_cokernel` of many samples with half-line families anchored at 0 on `window`.

    `index_from_families` of one `whole_line_families` batch with the
    family `tolerances`.  A repeated sample is counted once.
    """
    unique = list(dict.fromkeys(lams))
    plus, minus = whole_line_families(field, unique, window, horizon, **tolerances)
    outcomes = index_from_families(field, unique, window, plus, minus, **tolerances)
    counted = dict(zip(unique, outcomes))
    return [counted[lam] for lam in lams]


def green_solve(
    pf: ProjectorFamily,
    kappa: int,
    psi: FiniteWindowSequence,
    decay_tol: float = DECAY_TOL,
) -> FiniteWindowSequence:
    """Half-line Green's-function solution phi with L phi = psi, read off `pf` alone.

    On a family window [t0, t1], phi lives on [kappa, t1] on the plus
    side and on [t0, kappa] on the minus side, and psi may force the
    steps of that window, [kappa, t1 - 1] or [t0, kappa - 1]; forcing
    anywhere else is refused.  Both parts march in frame coordinates,
    read off one solve with the frames [U V] at n + 1: the image part
    P(n + 1) psi(n) forward from the window's first time through
    `pf.image_steps`, the kernel part backward from its last time by
    solving with `pf.kernel_steps`, so each part's rounding stays in
    its own subbundle, where the dichotomy contracts it.
    """
    d, r = pf.dim, pf.rank
    if psi.dim != d:
        raise InputError(f"forcing of dimension {psi.dim} for a family of dimension {d}")
    t0, t1 = int(pf.times[0]), int(pf.times[-1])
    lo, hi = (kappa, t1) if pf.side == "plus" else (t0, kappa)
    if not t0 <= lo < hi <= t1:
        raise InputError(
            f"kappa = {kappa} leaves no {pf.side} half-window inside the family "
            f"window [{t0}, {t1}]"
        )
    hot = psi.window[0] + np.flatnonzero(np.abs(psi.values).max(axis=1) > 0.0)
    if hot.size and (hot[0] < lo or hot[-1] > hi - 1):
        raise InputError(
            f"forcing has support on [{hot[0]}, {hot[-1]}], outside the {pf.side} "
            f"window [{lo}, {hi - 1}] the family covers"
        )
    steps = np.arange(lo, hi)
    inside = (steps >= psi.window[0]) & (steps <= psi.window[1])
    forcing = np.zeros((len(steps), d, 1))
    forcing[inside, :, 0] = psi.values[steps[inside] - psi.window[0]]

    # the family's frames at the times lo..hi, its steps, and psi(n) in the frames at n + 1
    at, step = slice(lo - t0, hi - t0 + 1), slice(lo - t0, hi - t0)
    im, ker = pf.image_frames[at], pf.kernel_frames[at]
    coords = np.linalg.solve(np.concatenate([im[1:], ker[1:]], axis=-1), forcing)
    a = np.zeros((len(steps) + 1, r, 1))
    if r > 0:
        im_steps = pf.image_steps[step]
        for i in range(len(steps)):
            a[i + 1] = im_steps[i] @ a[i] + coords[i, :r]
    c = np.zeros((len(steps) + 1, d - r, 1))
    if r < d:
        ker_steps = pf.kernel_steps[step]
        for i in range(len(steps) - 1, -1, -1):
            c[i] = np.linalg.solve(ker_steps[i], c[i + 1] + coords[i, r:])
    return FiniteWindowSequence.tabulate(
        (lo, hi), (im @ a - ker @ c)[..., 0], decay_tol=decay_tol
    )
