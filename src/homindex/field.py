"""Parametrized matrix fields on the integer lattice and sampled frame bundles.

A field assigns to each parameter sample and each lattice time a real
d x d matrix.  Bundles are
stored as orthonormal frames over a closed parameter loop.  The
constructions here (hyperbolic families from a bundle, piecewise
realizations, controlled perturbations) are the raw material for the
dichotomy, index and bifurcation layers.

Every `DiscreteVectorField` owns a lazily filled table of its matrices,
logically of shape (n_params, times, d, d).  Each (sample, time) entry
is evaluated and validated (shape, finiteness) once, on first use;
`matrix` reads one entry and `matrices` a whole time range of one
sample from it.  The table is stored in blocks of `TABLE_BLOCK`
consecutive times, so a probe at a far window edge costs one block and
not the span in between.  A field also carries a memo that the
dichotomy layer fills with one projector family per (sample, side,
anchor, window length, horizon, tolerances); see
`dichotomy.build_projector_families`.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field
from typing import Callable

import numpy as np

from .errors import DomainError, InputError, NumericError, SamplingError

__all__ = [
    "ParameterLoop",
    "DiscreteVectorField",
    "SampledBundle",
    "SmallnessReport",
    "autonomous_field",
    "tabulated_field",
    "construct_hyperbolic_family",
    "realization_field",
    "perturb_field",
    "mobius_bundle",
    "trivial_bundle",
    "direct_sum",
]

#: orthonormality tolerance for bundle frames
FRAME_TOL = 1e-10

#: consecutive fibres may tilt by at most this principal angle
MAX_FIBRE_ANGLE = np.pi / 3

# window used for fields defined by closed-form generators
_WIDE_WINDOW = (-10_000, 10_000)

#: consecutive times stored together in a field's matrix table
TABLE_BLOCK = 64


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a, dtype=float)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class ParameterLoop:
    """Finite cyclic list of parameter samples.

    `samples` has shape (n_samples, n_coords).  `angular` marks the
    builtin loop whose single coordinate is the angle 2*pi*i/n; several
    constructions (Moebius fibres in particular) require it.
    """

    samples: np.ndarray
    angular: bool = False

    def __post_init__(self):
        s = np.asarray(self.samples, dtype=float)
        if s.ndim == 1:
            s = s[:, None]
        if s.ndim != 2 or s.shape[0] < 8:
            raise InputError("a loop needs at least 8 samples of equal coordinate length")
        if not np.all(np.isfinite(s)):
            raise InputError("loop samples must be finite")
        for i in range(s.shape[0] - 1):
            if np.array_equal(s[i], s[i + 1]):
                raise InputError(f"loop samples {i} and {i + 1} coincide")
        object.__setattr__(self, "samples", _readonly(s))

    @classmethod
    def circle(cls, n: int = 64) -> "ParameterLoop":
        """Standard angular loop theta_i = 2*pi*i/n."""
        if n < 8:
            raise InputError("the angular loop needs at least 8 samples")
        return cls(samples=2.0 * np.pi * np.arange(n)[:, None] / n, angular=True)

    def __len__(self) -> int:
        return self.samples.shape[0]

    @property
    def n_samples(self) -> int:
        return self.samples.shape[0]

    def angle(self, i: int) -> float:
        if not self.angular:
            raise InputError("angles are only defined on the standard angular loop")
        return float(self.samples[i % len(self), 0])


class _MatrixTable:
    """Validated matrices of one field, evaluated on first use.

    Blocks of `TABLE_BLOCK` times are allocated on demand, each with a
    mask of filled entries.  An entry whose evaluation fails validation
    keeps its error, so every (sample, time) pair reaches the evaluator
    exactly once.
    """

    def __init__(self, field: "DiscreteVectorField"):
        self._field = field
        self._blocks: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        self._errors: dict[tuple[int, int], Exception] = {}

    def _block(self, b: int) -> tuple[np.ndarray, np.ndarray]:
        if b not in self._blocks:
            f = self._field
            self._blocks[b] = (
                np.empty((f.n_params, TABLE_BLOCK, f.dim, f.dim)),
                np.zeros((f.n_params, TABLE_BLOCK), dtype=bool),
            )
        return self._blocks[b]

    def _fill(self, values: np.ndarray, filled: np.ndarray, lam: int, n: int, i: int) -> None:
        if (lam, n) in self._errors:
            raise self._errors[lam, n].with_traceback(None)
        f = self._field
        a = np.asarray(f.evaluator(lam, n), dtype=float)
        if a.shape != (f.dim, f.dim):
            exc = NumericError(f"evaluator returned shape {a.shape} at (lam={lam}, n={n})")
        elif not np.isfinite(a).all():
            exc = NumericError(f"evaluator returned non-finite entries at (lam={lam}, n={n})")
        else:
            values[lam, i] = a
            filled[lam, i] = True
            return
        self._errors[lam, n] = exc
        raise exc

    def rows(self, lam: int, lo: int, hi: int) -> np.ndarray:
        """Matrices at times lo..hi of sample `lam`, shape (hi - lo + 1, d, d)."""
        parts = []
        for b in range(lo // TABLE_BLOCK, hi // TABLE_BLOCK + 1):
            values, filled = self._block(b)
            start = b * TABLE_BLOCK
            i0, i1 = max(lo, start) - start, min(hi, start + TABLE_BLOCK - 1) - start + 1
            if not filled[lam, i0:i1].all():
                for i in range(i0, i1):
                    if not filled[lam, i]:
                        self._fill(values, filled, lam, start + i, i)
            parts.append(values[lam, i0:i1])
        out = parts[0].copy() if len(parts) == 1 else np.concatenate(parts)
        out.setflags(write=False)
        return out

    def entry(self, lam: int, n: int) -> np.ndarray:
        values, filled = self._block(n // TABLE_BLOCK)
        i = n % TABLE_BLOCK
        if not filled[lam, i]:
            self._fill(values, filled, lam, n, i)
        out = values[lam, i]
        out.setflags(write=False)
        return out


@dataclass(frozen=True)
class DiscreteVectorField:
    """Matrix field (parameter sample, time) -> d x d real matrix.

    The evaluator receives the integer index of a parameter sample (0
    for unparametrized fields) and an integer time inside `window`; it
    is called at most once per (sample, time), because the results are
    validated into the field's table (see the module docstring).
    """

    dim: int
    evaluator: Callable[[int, int], np.ndarray]
    window: tuple[int, int] = _WIDE_WINDOW
    loop: ParameterLoop | None = None
    _table: _MatrixTable = dataclass_field(init=False, repr=False, compare=False)
    #: projector families by (sample, family key); filled by the dichotomy layer
    _families: dict = dataclass_field(
        init=False, repr=False, compare=False, default_factory=dict
    )

    def __post_init__(self):
        if self.dim < 1:
            raise InputError("dimension must be at least 1")
        if self.window[0] >= self.window[1]:
            raise InputError("window must be a nonempty interval of times")
        object.__setattr__(self, "_table", _MatrixTable(self))

    @property
    def n_params(self) -> int:
        return len(self.loop) if self.loop is not None else 1

    def _check_lam(self, lam: int) -> None:
        if not (0 <= lam < self.n_params):
            raise InputError(f"parameter index {lam} outside range({self.n_params})")

    def matrix(self, lam: int, n: int) -> np.ndarray:
        if not (self.window[0] <= n <= self.window[1]):
            raise InputError(f"time {n} outside the evaluable window {self.window}")
        self._check_lam(lam)
        return self._table.entry(int(lam), int(n))

    def matrices(self, lam: int, lo: int, hi: int) -> np.ndarray:
        """Read-only stack of the matrices at times lo..hi, shape (hi - lo + 1, d, d).

        Raises like `matrix`; among several bad entries, the one at the
        lowest time is named.
        """
        if lo > hi:
            raise InputError(f"time range [{lo}, {hi}] is empty")
        for n in (lo, hi):
            if not (self.window[0] <= n <= self.window[1]):
                raise InputError(f"time {n} outside the evaluable window {self.window}")
        self._check_lam(lam)
        return self._table.rows(int(lam), int(lo), int(hi))


@dataclass(frozen=True)
class SampledBundle:
    """Orthonormal frames of a rank-k subbundle over a parameter loop.

    `frames` has shape (n_samples, dim, rank); columns are orthonormal
    and consecutive fibres (wrapping around) must stay within a
    principal angle of pi/3 so that the sampling resolves the loop.
    Rank 0 (empty frames) is legal: it arises as the complement of a
    full-rank bundle, e.g. the unstable bundle of a uniform contraction.
    """

    loop: ParameterLoop
    rank: int
    frames: np.ndarray
    name: str = "bundle"

    def __post_init__(self):
        f = np.asarray(self.frames, dtype=float)
        if f.ndim != 3 or f.shape[0] != len(self.loop):
            raise InputError("frames must have shape (n_samples, dim, rank)")
        if f.shape[2] != self.rank or not (0 <= self.rank <= f.shape[1]):
            raise InputError(f"rank {self.rank} inconsistent with frame shape {f.shape}")
        if self.rank:
            eye = np.eye(self.rank)
            for i in range(f.shape[0]):
                if abs(f[i].T @ f[i] - eye).max() > FRAME_TOL:
                    raise InputError(f"frame {i} is not orthonormal to 1e-10")
            for i in range(f.shape[0]):
                j = (i + 1) % f.shape[0]
                # smallest cosine of a principal angle between consecutive fibres
                smallest = np.linalg.svd(f[i].T @ f[j], compute_uv=False).min()
                if smallest < np.cos(MAX_FIBRE_ANGLE):
                    raise SamplingError(
                        f"fibres {i} and {j} tilt by a principal angle >= pi/3; "
                        "sample the loop more finely"
                    )
        object.__setattr__(self, "frames", _readonly(f))

    @property
    def dim(self) -> int:
        return self.frames.shape[1]

    def fibre(self, i: int) -> np.ndarray:
        return self.frames[i % len(self.loop)]

    def projector(self, i: int) -> np.ndarray:
        f = self.fibre(i)
        return f @ f.T


@dataclass(frozen=True)
class SmallnessReport:
    """Sampled tail bounds for a perturbation against declared budgets."""

    gamma_plus: float
    gamma_minus: float
    observed_plus: float
    observed_minus: float
    kappa_plus: int
    kappa_minus: int

    @property
    def plus_ok(self) -> bool:
        return self.observed_plus <= self.gamma_plus

    @property
    def minus_ok(self) -> bool:
        return self.observed_minus <= self.gamma_minus

    @property
    def small(self) -> bool:
        return self.plus_ok and self.minus_ok


def autonomous_field(matrix, window: tuple[int, int] = _WIDE_WINDOW) -> DiscreteVectorField:
    """Constant-in-time, parameter-independent field from one square matrix."""
    a = np.asarray(matrix, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise InputError("autonomous field needs a square matrix")
    if not np.all(np.isfinite(a)):
        raise InputError("matrix has non-finite entries")
    a = _readonly(a)
    return DiscreteVectorField(
        dim=a.shape[0],
        evaluator=lambda lam, n: a,
        window=window,
    )


def tabulated_field(
    values,
    window: tuple[int, int],
    loop: ParameterLoop | None = None,
) -> DiscreteVectorField:
    """Field from a dense table of matrices.

    `values` has shape (n_params, n_times, d, d) or (n_times, d, d) and
    covers the times window[0] .. window[1] inclusive.
    """
    v = np.asarray(values, dtype=float)
    if v.ndim == 3:
        v = v[None]
    if v.ndim != 4 or v.shape[2] != v.shape[3]:
        raise InputError("tabulated values must have shape (n_params, n_times, d, d)")
    n_times = window[1] - window[0] + 1
    if v.shape[1] != n_times:
        raise InputError(
            f"value table covers {v.shape[1]} times but the window {window} has {n_times}"
        )
    if loop is not None and len(loop) != v.shape[0]:
        raise InputError("value table and loop disagree on the number of parameter samples")
    if not np.all(np.isfinite(v)):
        raise InputError("tabulated values must be finite")
    v = _readonly(v)
    lo = window[0]
    return DiscreteVectorField(
        dim=v.shape[2],
        evaluator=lambda lam, n: v[lam, n - lo],
        window=window,
        loop=loop,
    )


def construct_hyperbolic_family(bundle: SampledBundle, q: float) -> DiscreteVectorField:
    """Autonomous hyperbolic family with stable fibre prescribed by a bundle.

    For each sample the matrix is q * Pi + (1/q) * (I - Pi) with Pi the
    orthogonal projector onto the fibre, so the fibre is exactly the
    stable space (eigenvalue q) and its orthogonal complement the
    unstable one (eigenvalue 1/q).  Requires 0 < q < 1.
    """
    if not (0.0 < q < 1.0):
        raise DomainError(f"contraction factor q must lie in (0, 1), got {q}")
    d = bundle.dim
    eye = np.eye(d)
    mats = np.empty((len(bundle.loop), d, d))
    for i in range(len(bundle.loop)):
        pi = bundle.projector(i)
        mats[i] = q * pi + (1.0 / q) * (eye - pi)
    mats = _readonly(mats)
    return DiscreteVectorField(
        dim=d,
        evaluator=lambda lam, n: mats[lam],
        loop=bundle.loop,
    )


def realization_field(
    stable_ahead: SampledBundle,
    stable_behind: SampledBundle,
    q: float = 0.5,
    kappa_minus: int = -8,
    kappa_plus: int = 8,
    middle: Callable[[int, int], np.ndarray] | None = None,
) -> DiscreteVectorField:
    """Piecewise field realizing a prescribed pair of asymptotic bundles.

    Times below kappa_minus use the hyperbolic family of `stable_behind`,
    times above kappa_plus the hyperbolic family of `stable_ahead`, and
    the middle uses `middle` (identity by default).  The middle samples
    must be invertible.  Requires kappa_minus < 0 < kappa_plus.
    """
    if not (kappa_minus < 0 < kappa_plus):
        raise InputError("need kappa_minus < 0 < kappa_plus")
    if stable_ahead.dim != stable_behind.dim:
        raise InputError("asymptotic bundles live in different ambient dimensions")
    if len(stable_ahead.loop) != len(stable_behind.loop):
        raise InputError("asymptotic bundles are sampled over different loops")
    ahead = construct_hyperbolic_family(stable_ahead, q)
    behind = construct_hyperbolic_family(stable_behind, q)
    d = stable_ahead.dim
    eye = np.eye(d)
    mid = middle if middle is not None else (lambda lam, n: eye)
    n_params = len(stable_ahead.loop)
    for lam in range(n_params):
        for n in range(kappa_minus, kappa_plus + 1):
            t = np.asarray(mid(lam, n), dtype=float)
            if t.shape != (d, d) or not np.all(np.isfinite(t)):
                raise InputError(f"middle evaluator broken at (lam={lam}, n={n})")
            if np.linalg.svd(t, compute_uv=False).min() < 1e-10:
                raise DomainError(f"middle matrix at (lam={lam}, n={n}) is not invertible")

    def evaluate(lam: int, n: int) -> np.ndarray:
        if n < kappa_minus:
            return behind.evaluator(lam, n)
        if n > kappa_plus:
            return ahead.evaluator(lam, n)
        return np.asarray(mid(lam, n), dtype=float)

    return DiscreteVectorField(
        dim=d,
        evaluator=evaluate,
        loop=stable_ahead.loop,
    )


def perturb_field(
    base: DiscreteVectorField,
    perturbation: Callable[[int, int], np.ndarray],
    gamma_plus: float,
    gamma_minus: float,
    kappa_plus: int = 0,
    kappa_minus: int = 0,
    tail_samples: int = 50,
) -> tuple[DiscreteVectorField, SmallnessReport]:
    """Additive perturbation of a field with sampled tail-size bookkeeping.

    Returns the perturbed field together with a report stating whether
    the sampled perturbation norms stay within gamma_plus on times
    >= kappa_plus and within gamma_minus on times <= kappa_minus.  The
    report records the verdict; it does not stop the construction.
    """
    if gamma_plus < 0 or gamma_minus < 0:
        raise InputError("perturbation budgets must be nonnegative")
    d = base.dim
    lo = max(base.window[0], kappa_minus - tail_samples)
    hi = min(base.window[1], kappa_plus + tail_samples)
    obs_plus = 0.0
    obs_minus = 0.0
    for lam in range(base.n_params):
        for n in range(lo, hi + 1):
            e = np.asarray(perturbation(lam, n), dtype=float)
            if e.shape != (d, d) or not np.all(np.isfinite(e)):
                raise InputError(f"perturbation evaluator broken at (lam={lam}, n={n})")
            size = float(np.linalg.norm(e, 2))
            if n >= kappa_plus:
                obs_plus = max(obs_plus, size)
            if n <= kappa_minus:
                obs_minus = max(obs_minus, size)

    def evaluate(lam: int, n: int) -> np.ndarray:
        return base.evaluator(lam, n) + np.asarray(perturbation(lam, n), dtype=float)

    report = SmallnessReport(
        gamma_plus=gamma_plus,
        gamma_minus=gamma_minus,
        observed_plus=obs_plus,
        observed_minus=obs_minus,
        kappa_plus=kappa_plus,
        kappa_minus=kappa_minus,
    )
    out = DiscreteVectorField(
        dim=d,
        evaluator=evaluate,
        window=base.window,
        loop=base.loop,
    )
    return out, report


def mobius_bundle(loop: ParameterLoop) -> SampledBundle:
    """Rank-one Moebius bundle in the plane over the standard angular loop.

    The fibre over theta is spanned by (cos(theta/2), sin(theta/2)); after
    one turn the spanning vector returns with a sign flip, which is what
    makes the bundle nontrivial.
    """
    if not loop.angular:
        raise InputError("the Moebius bundle needs the standard angular loop")
    n = len(loop)
    frames = np.empty((n, 2, 1))
    for i in range(n):
        half = loop.angle(i) / 2.0
        frames[i, :, 0] = (np.cos(half), np.sin(half))
    return SampledBundle(loop=loop, rank=1, frames=frames, name="mobius")


def trivial_bundle(loop: ParameterLoop, dim: int, rank: int) -> SampledBundle:
    """Constant bundle spanned by the first `rank` coordinate directions."""
    if not (1 <= rank <= dim):
        raise InputError(f"rank {rank} must lie in 1..{dim}")
    frame = np.zeros((dim, rank))
    frame[:rank, :rank] = np.eye(rank)
    frames = np.repeat(frame[None], len(loop), axis=0)
    return SampledBundle(loop=loop, rank=rank, frames=frames, name=f"trivial-{rank}")


def direct_sum(a: SampledBundle, b: SampledBundle) -> SampledBundle:
    """Fibrewise direct sum; ambient dimensions add, frames block-stack."""
    if len(a.loop) != len(b.loop):
        raise InputError("direct sum needs bundles over the same loop sampling")
    n = len(a.loop)
    dim = a.dim + b.dim
    rank = a.rank + b.rank
    frames = np.zeros((n, dim, rank))
    for i in range(n):
        frames[i, : a.dim, : a.rank] = a.frames[i]
        frames[i, a.dim :, a.rank :] = b.frames[i]
    return SampledBundle(loop=a.loop, rank=rank, frames=frames, name=f"{a.name}+{b.name}")
