"""Parametrized matrix fields on the integer lattice and sampled frame bundles.

A field assigns to each parameter sample and each lattice time a real
d x d matrix.  Bundles are stored as orthonormal frames over a closed
parameter loop.  The constructions here (hyperbolic families from a
bundle, piecewise realizations) are the raw material for the
dichotomy, index and bifurcation layers.

Fields are evaluated over samples and times at once, never point by
point.  An evaluator `evaluator(lams, times)` takes a 1-D integer
array of S parameter sample indices and a 1-D integer array of T
distinct increasing times, consecutive or not, and returns the (S, T,
d, d) stack of the matrices at those samples and times, the sample on
the leading axis.

A field keeps no matrices: every read (`matrix` for one entry,
`matrices` for a time range, and `stack` for many samples at any
times, in any order and with repeats) evaluates on the spot, with one
evaluator call at the read's distinct times.  Memory grows with the
entries read, not with the span between them, so a probe at a far
window edge costs one entry.  The costly objects are the projector
families, not the matrices: the dichotomy and Fredholm layers cache
nothing on a field, and a caller that needs projector families again
keeps the ones it was handed.

Every stacked read, of a field here or of a nonlinear system in
`bifurcation`, is validated once, by `_validate`, which states the
rules: each failing sample gets its own error, named at its first bad
(lam=..., n=...), and spares the others.  A system composed of other
evaluators calls them raw, so only its outer read validates; a field
it reads is validated by that field's own read.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DomainError, HomindexError, InputError, NumericError, SamplingError, fresh

__all__ = [
    "ParameterLoop",
    "DiscreteVectorField",
    "SampledBundle",
    "autonomous_field",
    "tabulated_field",
    "construct_hyperbolic_family",
    "realization_field",
    "mobius_bundle",
    "trivial_bundle",
    "direct_sum",
]

#: orthonormality tolerance for bundle frames
FRAME_TOL = 1e-10

#: consecutive fibres may tilt by at most this principal angle
MAX_FIBRE_ANGLE = np.pi / 3

#: smallest contraction factor q of a hyperbolic family: below it the
#: rounding of (1/q)(I - Pi), about eps/q, exceeds 1e-4 of the stable
#: eigenvalue q (q**2 < 1e4 * eps)
MIN_CONTRACTION = float(np.sqrt(1e4 * np.finfo(float).eps))

# window used for fields defined by closed-form generators
_WIDE_WINDOW = (-10_000, 10_000)

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
        same = np.flatnonzero((s[:-1] == s[1:]).all(axis=1))
        if same.size:
            i = int(same[0])
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

    def angle(self, i: int) -> float:
        if not self.angular:
            raise InputError("angles are only defined on the standard angular loop")
        return float(self.samples[i % len(self), 0])


@dataclass(frozen=True)
class DiscreteVectorField:
    """Matrix field (parameter sample, time) -> d x d real matrix.

    `evaluator(lams, times)` receives a 1-D integer array of S
    parameter sample indices (all 0 for unparametrized fields) and a
    1-D integer array of T distinct increasing times inside `window`,
    not necessarily consecutive, and returns the (S, T, d, d) stack of
    the matrices at those samples and times.  Every read calls it
    afresh and `_validate` checks the stack once (see the module
    docstring).  A read that meets failed entries raises the error of
    the first one, samples first, then in the order of the requested
    times; `stack` returns each sample's error instead.
    """

    dim: int
    evaluator: Callable[[np.ndarray, np.ndarray], np.ndarray]
    window: tuple[int, int] = _WIDE_WINDOW
    loop: ParameterLoop | None = None

    def __post_init__(self):
        if self.dim < 1:
            raise InputError("dimension must be at least 1")
        if self.window[0] >= self.window[1]:
            raise InputError("window must be a nonempty interval of times")

    @property
    def n_params(self) -> int:
        return len(self.loop) if self.loop is not None else 1

    def stack(self, lams, times) -> tuple[np.ndarray, list]:
        """Matrices of many samples in one read, and each sample's error.

        Returns the read-only (S, T, d, d) stack of samples `lams` (with
        repeats) at the integer `times` (in any order, with repeats) and,
        per sample, None or the error its own read would raise; the rows
        of a failed sample are zero.  Each distinct sample and time is
        evaluated once.  Raises only for times outside the window.
        """
        row_of = {}  # each distinct sample's row, in request order
        back = np.array([row_of.setdefault(int(lam), len(row_of)) for lam in lams], np.int64)
        times = np.asarray(times, dtype=np.int64).reshape(-1)
        distinct, order = np.unique(times, return_inverse=True)
        out, errors = _validate(
            self.evaluator, "evaluator", self, list(row_of), distinct, (self.dim, self.dim),
            order=order,
        )
        out = out[back]
        out.setflags(write=False)
        return out, [errors[s] for s in back]

    def matrix(self, lam: int, n: int) -> np.ndarray:
        return _read_all(self, [lam], [n])[0, 0]

    def matrices(self, lam: int, lo: int, hi: int) -> np.ndarray:
        """Read-only stack of the matrices at times lo..hi, shape (hi - lo + 1, d, d).

        Raises like `matrix`; among several bad entries, the one at the
        lowest time is named.
        """
        if lo > hi:
            raise InputError(f"time range [{lo}, {hi}] is empty")
        return _read_all(self, [lam], np.arange(int(lo), int(hi) + 1))[0]


def _validate(fn, label: str, field, lams, times, shape: tuple, states=None, order=None):
    """The (S, T, *shape) stack of `fn` over rows `lams` at `times`, and each row's error.

    The one validator of every stacked read: `fn(lams, times)` is a
    field's evaluator, `fn(lams, times, states)` a nonlinear system's,
    with an (S, T, dim) stack of `states`; `field` gives the window, the
    sample range and dim.  Times that are not a nonempty 1-D array
    inside the window, and states of the wrong shape, raise an
    `InputError` for the whole read.  Otherwise each row gets None or
    its error:

    - a sample outside the range, an `InputError`;
    - the live rows go through one call, repeated row by row when it
      raises, so a failing row spares the others: a `HomindexError`
      that a row raises alone is kept, and any other exception becomes
      an `InputError` naming the row's first failing (lam, n);
    - a stack of the wrong shape, an `InputError` for each of its rows;
    - a non-finite entry, a `NumericError` naming its (lam, n).

    The returned time axis, and the order in which entries are named,
    is `times[order]` (`times` when `order` is None); a failed row is zero.
    """
    lams, times = np.asarray(lams, dtype=np.int64), np.asarray(times, dtype=np.int64)
    if lams.ndim != 1 or times.ndim != 1:
        raise InputError("samples and times must each form a 1-D array of indices")
    if times.size == 0:
        raise InputError("no times requested")
    for n in (int(times.min()), int(times.max())):
        if not (field.window[0] <= n <= field.window[1]):
            raise InputError(f"time {n} outside the evaluable window {field.window}")
    size = (len(lams), len(times))
    args = () if states is None else (np.asarray(states, dtype=float),)
    if args and args[0].shape != size + (field.dim,):
        expected = size + (field.dim,)
        raise InputError(f"states must form a {expected} stack, got shape {args[0].shape}")
    named = times if order is None else times[order]  # the requested times, in order
    n_params, errors = field.n_params, [None] * len(lams)
    outside = [s for s, lam in enumerate(lams.tolist()) if not 0 <= lam < n_params]
    for s in outside:
        errors[s] = InputError(f"parameter index {lams[s]} outside range({n_params})")

    def call(rows):
        """(rows, stack) pairs of the live `rows`: one call, repeated per row when it raises."""
        try:
            return [(rows, np.asarray(fn(lams[rows], times, *(a[rows] for a in args)), float))]
        except Exception as exc:
            if len(rows) > 1:
                return [pair for k in range(len(rows)) for pair in call(rows[k : k + 1])]
            s = int(rows[0])
            if isinstance(exc, HomindexError):
                errors[s] = fresh(exc)
                return []
            n = named[0]
            for i in dict.fromkeys(range(len(times)) if order is None else order.tolist()):
                try:
                    fn(lams[s : s + 1], times[i : i + 1], *(a[s : s + 1, i : i + 1] for a in args))
                except Exception as entry_exc:  # the row's first failing time
                    n, exc = times[i], entry_exc
                    break
            errors[s] = InputError(f"{label} failure at (lam={lams[s]}, n={n}): {exc}")
            return []

    out = np.zeros(size + shape)
    live = np.flatnonzero([error is None for error in errors]) if outside else np.arange(len(lams))
    for rows, a in call(live) if live.size else ():
        if a.shape == (len(rows), len(times)) + shape:
            out[rows] = a
            continue
        got = a.shape[2:] if a.shape[:2] == (len(rows), len(times)) else a.shape
        for s in rows.tolist():
            errors[s] = InputError(f"{label} returned shape {got} at (lam={lams[s]}, n={named[0]})")
    if order is not None:
        out = out[:, order]
    if not np.isfinite(out).all():  # a cheap pass first: locating bad entries costs more
        bad = ~np.isfinite(out).all(axis=tuple(range(2, out.ndim)))
        for s in np.flatnonzero(bad.any(axis=1)).tolist():
            at = f"(lam={lams[s]}, n={named[int(np.argmax(bad[s]))]})"
            errors[s] = NumericError(f"{label} returned non-finite entries at {at}")
            out[s] = 0.0
    return out, errors


def _raised(out, errors):
    """`out`, or the first of `errors` raised, samples first."""
    failed = next((e for e in errors if e is not None), None)
    if failed is not None:
        raise fresh(failed)
    return out


def _read_all(field: DiscreteVectorField, lams, times) -> np.ndarray:
    """`field.stack`, raising the first sample's error."""
    return _raised(*field.stack(lams, times))


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
            ft = f.swapaxes(1, 2)
            skew = np.abs(ft @ f - np.eye(self.rank)).max(axis=(1, 2))
            bad = np.flatnonzero(skew > FRAME_TOL)
            if bad.size:
                raise InputError(f"frame {bad[0]} is not orthonormal to 1e-10")
            # smallest cosine of a principal angle between consecutive fibres
            smallest = np.linalg.svd(ft @ np.roll(f, -1, axis=0), compute_uv=False).min(axis=1)
            bad = np.flatnonzero(smallest < np.cos(MAX_FIBRE_ANGLE))
            if bad.size:
                i, j = int(bad[0]), (int(bad[0]) + 1) % f.shape[0]
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
        evaluator=lambda lams, times: np.broadcast_to(a, (len(lams), len(times)) + a.shape),
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
        evaluator=lambda lams, times: v[lams[:, None], times - lo],
        window=window,
        loop=loop,
    )


def construct_hyperbolic_family(bundle: SampledBundle, q: float) -> DiscreteVectorField:
    """Autonomous hyperbolic family with stable fibre prescribed by a bundle.

    For each sample the matrix is q * Pi + (1/q) * (I - Pi) with Pi the
    orthogonal projector onto the fibre, so the fibre is exactly the
    stable space (eigenvalue q) and its orthogonal complement the
    unstable one (eigenvalue 1/q).  Requires MIN_CONTRACTION <= q < 1.
    """
    if not (0.0 < q < 1.0):
        raise DomainError(f"contraction factor q must lie in (0, 1), got {q}")
    if q < MIN_CONTRACTION:
        raise DomainError(
            f"contraction factor q = {q} is below {MIN_CONTRACTION:.1e}, where the "
            "rounding of (1/q)(I - Pi) swamps the stable eigenvalue q"
        )
    d = bundle.dim
    eye = np.eye(d)
    mats = np.empty((len(bundle.loop), d, d))
    for i in range(len(bundle.loop)):
        pi = bundle.projector(i)
        mats[i] = q * pi + (1.0 / q) * (eye - pi)
    mats = _readonly(mats)
    return DiscreteVectorField(
        dim=d,
        evaluator=lambda lams, times: np.broadcast_to(
            mats[lams][:, None], (len(lams), len(times), d, d)
        ),
        loop=bundle.loop,
    )


def realization_field(
    stable_ahead: SampledBundle,
    stable_behind: SampledBundle,
    q: float = 0.5,
    kappa_minus: int = -8,
    kappa_plus: int = 8,
) -> DiscreteVectorField:
    """Piecewise field realizing a prescribed pair of asymptotic bundles.

    Times below kappa_minus use the hyperbolic family of `stable_behind`,
    times above kappa_plus the hyperbolic family of `stable_ahead`, and
    the middle, kappa_minus..kappa_plus, the identity.  Requires
    kappa_minus < 0 < kappa_plus.
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

    def evaluate(lams: np.ndarray, times: np.ndarray) -> np.ndarray:
        out = np.broadcast_to(np.eye(d), (len(lams), len(times), d, d)).copy()
        before, after = times < kappa_minus, times > kappa_plus
        out[:, before] = behind.evaluator(lams, times[before])
        out[:, after] = ahead.evaluator(lams, times[after])
        return out

    return DiscreteVectorField(
        dim=d,
        evaluator=evaluate,
        loop=stable_ahead.loop,
    )


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
