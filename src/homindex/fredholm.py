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

The truncated kernel count reads only the singular values of the
boundary-conditioned truncation; no singular vector is formed.

Green solves march in the contracting direction of the relevant
subbundle (images forward, kernels backward), so no propagator is ever
formed over a long window.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field

import numpy as np

from .dichotomy import EDWitness, ProjectorFamily, verify_ed
from .errors import (
    DomainError,
    IndeterminateError,
    InputError,
    WindowTooShortError,
)
from .field import DiscreteVectorField

__all__ = [
    "DECAY_TOL",
    "SOLVE_TOL",
    "SV_GAP_RATIO",
    "FiniteWindowSequence",
    "IndexReport",
    "assemble_truncated",
    "boundary_conditioned",
    "kernel_cokernel",
    "green_solve",
]

#: sup-norm level under which a sequence counts as settled at a window end
DECAY_TOL = 1e-6

#: acceptable size of neglected Green-sum tails
SOLVE_TOL = 1e-8

#: required gap between the zero and nonzero singular-value groups
SV_GAP_RATIO = 1e3

#: relative cutoff separating null from non-null singular values
_NULL_CUT = 1e-8

#: a principal cosine this close to one counts as an intersection
_ANGLE_TOL = 1e-8

#: cosines between the two thresholds are refused as ambiguous
_ANGLE_BAND = 1e-4


def _as_window(window) -> tuple[int, int]:
    lo, hi = int(window[0]), int(window[1])
    return lo, hi


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
        lo, hi = _as_window(window)
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

    def value_at(self, n: int) -> np.ndarray:
        lo, hi = self.window
        if not (lo <= n <= hi):
            raise InputError(f"time {n} outside the sequence window [{lo}, {hi}]")
        return self.values[n - lo]


@dataclass(frozen=True)
class IndexReport:
    """Kernel, cokernel and index of the difference operator on a window.

    `dim_ker` comes from the subspace route (principal angles between
    the forward- and backward-decaying subspaces at time zero);
    `dim_ker_truncated` from the boundary-conditioned truncation's null
    space.  The flag records their agreement; the index always equals
    the half-line projector rank difference, and the cokernel dimension
    is the kernel dimension minus the index.  `singular_values` are
    those of the boundary-conditioned truncation, in descending order,
    from a values-only SVD; the report holds no kernel basis.
    """

    index: int
    dim_ker: int
    dim_coker: int
    rank_plus: int
    rank_minus: int
    consistent: bool
    dim_ker_truncated: int
    singular_values: np.ndarray = dataclass_field(
        default_factory=lambda: np.empty(0), repr=False, compare=False
    )

    def __post_init__(self):
        if self.index != self.dim_ker - self.dim_coker:
            raise InputError("index must equal dim ker - dim coker")
        if self.consistent and self.index != self.rank_plus - self.rank_minus:
            raise InputError(
                "a consistent report must have index equal to the projector rank difference"
            )


def assemble_truncated(field: DiscreteVectorField, lam: int, window) -> np.ndarray:
    """Dense finite section of phi(n+1) - A_n(lam) phi(n) on `window`.

    The (w-1)*d x w*d matrix maps the stacked values (phi(lo), ...,
    phi(hi)) to the stacked residuals for lo <= n < hi, row-major in n;
    each block row holds exactly -A_n and the identity.
    """
    lo, hi = _as_window(window)
    if hi - lo + 1 < 2:
        raise InputError("truncation window needs at least two times")
    d = field.dim
    w = hi - lo + 1
    # block (i, j) of the matrix is blocks[i, :, j, :]
    blocks = np.zeros((w - 1, d, w, d))
    steps = np.arange(w - 1)
    blocks[steps, :, steps, :] = -field.matrices(lam, lo, hi - 1)
    blocks[steps, :, steps + 1, :] = np.eye(d)
    return blocks.reshape((w - 1) * d, w * d)


def _require_coverage(fam: ProjectorFamily, lo: int, hi: int, label: str) -> None:
    have = (int(fam.times[0]), int(fam.times[-1]))
    if have[0] > lo or have[1] < hi:
        raise DomainError(
            f"the {label} witness family covers times {list(have)} but the "
            f"computation needs [{lo}, {hi}]; rebuild it on a longer window"
        )


def _intersection_dimension(f_plus: np.ndarray, f_minus: np.ndarray) -> int:
    """Dimension of the meet of two orthonormal column spans.

    Counts principal cosines within `_ANGLE_TOL` of one and refuses
    cosines inside the ambiguous band below that.
    """
    if f_plus.shape[1] == 0 or f_minus.shape[1] == 0:
        return 0
    cosines = np.clip(np.linalg.svd(f_plus.T @ f_minus, compute_uv=False), 0.0, 1.0)
    gaps = 1.0 - cosines
    ambiguous = (gaps > _ANGLE_TOL) & (gaps <= _ANGLE_BAND)
    if np.any(ambiguous):
        worst = float(gaps[ambiguous].min())
        raise IndeterminateError(
            "a principal angle between the decaying subspaces is ambiguous "
            f"(cosine within {worst:.2e} of one); enlarge the window or refine "
            "the parameter sampling to separate the subspaces"
        )
    return int(np.sum(gaps <= _ANGLE_TOL))


def _null_space(stacked: np.ndarray, gap_ratio: float):
    """Null dimension and singular values, by the grouped singular-value rule."""
    svals = np.linalg.svd(stacked, compute_uv=False)
    cols = stacked.shape[1]
    smax = float(svals[0]) if len(svals) else 0.0
    if smax == 0.0:
        return cols, svals
    implicit = cols - len(svals)  # columns beyond the rank bound are exact zeros
    cut = _NULL_CUT * smax
    zero = svals < cut
    n_zero = int(zero.sum()) + implicit
    if n_zero - implicit > 0:
        largest_zero = float(svals[zero].max())
        smallest_kept = float(svals[~zero].min()) if np.any(~zero) else np.inf
        if smallest_kept < max(largest_zero, smax * 1e-15) * gap_ratio:
            raise IndeterminateError(
                "no clear singular-value gap separates the null group "
                f"({largest_zero:.3e}) from the rest ({smallest_kept:.3e}); "
                "enlarge the truncation window"
            )
    elif len(svals) and float(svals.min()) < cut * gap_ratio and implicit == 0:
        raise IndeterminateError(
            f"the smallest singular value {float(svals.min()):.3e} sits too close "
            f"to the null cutoff {cut:.3e} to certify an empty kernel; enlarge "
            "the truncation window"
        )
    return n_zero, svals


def boundary_conditioned(
    field: DiscreteVectorField,
    lam: int,
    window,
    fam_plus: ProjectorFamily,
    fam_minus: ProjectorFamily,
) -> np.ndarray:
    """The truncation on `window` with rows P-(lo) phi(lo) and (I - P+(hi)) phi(hi) appended."""
    lo, hi = _as_window(window)
    d = field.dim
    w = hi - lo + 1
    stacked = np.zeros(((w - 1) * d + 2 * d, w * d))
    stacked[: (w - 1) * d] = assemble_truncated(field, lam, (lo, hi))
    stacked[(w - 1) * d : w * d, :d] = fam_minus.projector(lo)
    stacked[w * d :, (w - 1) * d :] = np.eye(d) - fam_plus.projector(hi)
    return stacked


def kernel_cokernel(
    field: DiscreteVectorField,
    lam: int,
    window,
    witnesses: tuple[EDWitness, EDWitness],
    gap_ratio: float = SV_GAP_RATIO,
) -> IndexReport:
    """Kernel/cokernel dimensions and Fredholm index on a finite window.

    The kernel dimension is computed twice: geometrically, as the
    dimension of the intersection at time zero of the forward-decaying
    subspace (image of the plus family) with the backward-decaying one
    (kernel of the minus family); and algebraically, as the null space
    of the truncated operator with rows appended that pin phi(n_min) to
    the backward-decaying set and phi(n_max) to the forward-decaying
    one (`boundary_conditioned`), counted from its singular values
    alone.  The index is the projector rank difference; the report's
    flag records whether the two kernel counts agree.
    """
    lo, hi = _as_window(window)
    if hi - lo + 1 < 8:
        raise InputError("index computations need a truncation window of at least 8 times")
    wit_plus, wit_minus = witnesses
    if wit_plus.side not in ("plus", "full"):
        raise InputError(f"first witness must certify the plus side, got '{wit_plus.side}'")
    if wit_minus.side not in ("minus", "full"):
        raise InputError(f"second witness must certify the minus side, got '{wit_minus.side}'")
    fam_plus = wit_plus.family
    fam_minus = wit_minus.family
    d = field.dim
    if fam_plus.dim != d or fam_minus.dim != d:
        raise InputError("witness families and field disagree on the dimension")
    kappa_hi = fam_plus.anchor
    kappa_lo = fam_minus.anchor
    if not (lo <= kappa_lo and kappa_hi <= hi):
        raise InputError(
            f"window [{lo}, {hi}] must contain both anchors {kappa_lo} and {kappa_hi}"
        )
    _require_coverage(fam_plus, min(0, kappa_hi), hi, "plus")
    _require_coverage(fam_minus, lo, max(0, kappa_lo), "minus")

    rank_plus = fam_plus.rank
    rank_minus = fam_minus.rank
    index = rank_plus - rank_minus

    forward_decaying = fam_plus.image_frames[fam_plus.index_of(0)]
    backward_decaying = fam_minus.kernel_frames[fam_minus.index_of(0)]
    dim_ker = _intersection_dimension(forward_decaying, backward_decaying)
    dim_coker = dim_ker - index
    if dim_coker < 0:
        raise IndeterminateError(
            f"the decaying subspaces meet in dimension {dim_ker}, below the "
            f"index {index}; the witnesses and the window are inconsistent"
        )

    dim_ker_truncated, svals = _null_space(
        boundary_conditioned(field, lam, (lo, hi), fam_plus, fam_minus), gap_ratio
    )

    return IndexReport(
        index=index,
        dim_ker=dim_ker,
        dim_coker=dim_coker,
        rank_plus=rank_plus,
        rank_minus=rank_minus,
        consistent=dim_ker == dim_ker_truncated,
        dim_ker_truncated=dim_ker_truncated,
        singular_values=svals,
    )


def _support_range(psi: FiniteWindowSequence):
    """First and last time with a nonzero value, or None for zero input."""
    hot = np.flatnonzero(np.abs(psi.values).max(axis=1) > 0.0)
    if hot.size == 0:
        return None
    lo = psi.window[0]
    return lo + int(hot[0]), lo + int(hot[-1])


def _tail_bound(
    witness: EDWitness, psi: FiniteWindowSequence, covered_hi: int, side: str
) -> float:
    """Worst-case size of the Green-sum tail the window cannot reach."""
    lo = psi.window[0]
    mags = np.abs(psi.values).max(axis=1)
    times = lo + np.arange(len(mags))
    outside = times > covered_hi if side == "plus" else times < covered_hi
    if not np.any(mags[outside] > 0.0):
        return 0.0
    hot = times[outside & (mags > 0.0)]
    gap = (hot.min() - covered_hi) if side == "plus" else (covered_hi - hot.max())
    peak = float(mags[outside].max())
    k, a = witness.k_const, witness.alpha
    return k * a**gap / (1.0 - a) * peak


def green_solve(
    field: DiscreteVectorField,
    lam: int,
    side: str,
    kappa: int,
    psi: FiniteWindowSequence,
    pf: ProjectorFamily,
    solve_tol: float = SOLVE_TOL,
    decay_tol: float = DECAY_TOL,
) -> FiniteWindowSequence:
    """Half-line Green's-function solution phi with L phi = psi.

    The causal part accumulates image components forward from the
    anchor end of the half-line; the anticausal part accumulates kernel
    components backward, dividing by the kernel transition factors, so
    both marches run in their contracting direction.  Forcing the
    family window cannot reach is refused once its certified-decay tail
    estimate exceeds `solve_tol`, with the window extension that would
    fix it reported.
    """
    if side not in ("plus", "minus"):
        raise InputError(f"side must be 'plus' or 'minus', got '{side}'")
    if pf.side not in (side, "full"):
        raise InputError(f"a '{pf.side}' projector family cannot solve the {side} half-line")
    d = field.dim
    if psi.dim != d or pf.dim != d:
        raise InputError("field, forcing and projector family disagree on the dimension")
    t0, t1 = int(pf.times[0]), int(pf.times[-1])
    ok = t0 <= kappa < t1 if side == "plus" else t0 < kappa <= t1
    if not ok:
        raise InputError(
            f"kappa = {kappa} leaves no {side} half-window inside the family "
            f"window [{t0}, {t1}]"
        )

    support = _support_range(psi)
    if side == "plus":
        out_lo, out_hi = kappa, t1
        covered = (kappa, t1 - 1)
    else:
        out_lo, out_hi = t0, kappa
        covered = (t0, kappa - 1)
    if support is not None:
        off_end = support[0] < kappa if side == "plus" else support[1] > kappa - 1
        if off_end:
            raise InputError(
                f"forcing has support at times beyond kappa = {kappa}, off the "
                f"{side} half-line"
            )
        tail_edge = covered[1] if side == "plus" else covered[0]
        needs_tail = support[1] > tail_edge if side == "plus" else support[0] < tail_edge
        if needs_tail:
            witness = verify_ed(field, lam, pf)
            bound = _tail_bound(witness, psi, tail_edge, side)
            if bound > solve_tol:
                extension = 1
                while True:
                    moved = tail_edge + extension if side == "plus" else tail_edge - extension
                    if _tail_bound(witness, psi, moved, side) <= solve_tol:
                        break
                    extension += 1
                raise WindowTooShortError(
                    f"forcing beyond the family window leaves a Green-sum tail of "
                    f"{bound:.3e} > {solve_tol:.1e}; extend the certified family "
                    f"window by {extension} steps",
                    required=extension,
                )

    def psi_at(k: int) -> np.ndarray | None:
        if psi.window[0] <= k <= psi.window[1]:
            row = psi.values[k - psi.window[0]]
            if np.any(row != 0.0):
                return row
        return None

    times = np.arange(out_lo, out_hi + 1)
    r = pf.rank
    causal = np.zeros((len(times), d))
    if r > 0:
        u = np.zeros(d)
        mats = field.matrices(lam, out_lo, out_hi - 1)
        for i, n in enumerate(times[:-1]):
            forced = psi_at(int(n))
            u = mats[i] @ u
            if forced is not None:
                u = u + pf.projector(int(n) + 1) @ forced
            causal[i + 1] = u
    anticausal = np.zeros((len(times), d))
    if r < d:
        c = np.zeros(d - r)
        start = out_hi if support is None else min(out_hi, support[1] + 1)
        for n in range(start - 1, out_lo - 1, -1):
            i_step = pf.index_of(n)
            forced = psi_at(n)
            if forced is not None:
                kernel_part = forced - pf.projector(n + 1) @ forced
                c = c + pf.kernel_frames[i_step + 1].T @ kernel_part
            c = np.linalg.solve(pf.kernel_steps[i_step], c)
            anticausal[n - out_lo] = pf.kernel_frames[i_step] @ c

    return FiniteWindowSequence.tabulate(
        (out_lo, out_hi), causal - anticausal, decay_tol=decay_tol
    )
