"""Desk-scale KO invariants of sampled bundles over parameter loops.

A subbundle of the trivial bundle over a sampled loop is stored as one
orthonormal frame per sample (`SampledBundle`).  Over a loop the
invariants this module tracks are the rank and the first
Stiefel-Whitney bit w1, the orientation: the determinant sign of the
monodromy of a frame transported once around the loop, which is the
parity of the negative determinants of the consecutive fibre
overlaps; formal differences of two bundles are recorded as
`KOClassDesk` values (virtual rank, parity of the two w1 bits).
Higher characteristic classes and base spaces other than loops are out
of scope.

For a parametrized linear field with exponential splittings on both
half-lines, the stable spaces im P+(lam, n) over the loop assemble into
a bundle, as do the unstable spaces ker P-(lam, n); the index class of
the associated difference operator is the formal difference
[im P+] - [im P-], where im P- is the rank-nullity complement of the
unstable bundle inside the trivial bundle.  `index_bundle_pair` (for
`class`) and `certify`'s F2 split the pair (im P+, im P-) off one
batch of families with `anchor_bundles`, and `KOClassDesk.of_pair`
gives its class.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dichotomy import HORIZON, _generic_seed, whole_line_families
from .errors import HomindexError, InputError, SamplingError, fresh
from .field import DiscreteVectorField, ParameterLoop, SampledBundle

__all__ = [
    "PROJECTOR_TOL",
    "KOClassDesk",
    "bundle_from_projectors",
    "first_sw_class",
    "anchor_bundles",
    "index_bundle_pair",
    "bundle_csv_rows",
]

#: idempotency tolerance for projector inputs
PROJECTOR_TOL = 1e-8


@dataclass(frozen=True)
class KOClassDesk:
    """Formal difference of two sampled bundles, reduced to desk scale.

    Over a loop, a virtual bundle [E] - [F] is pinned down by the rank
    difference and by the orientability parity w1(E) + w1(F) mod 2; the
    reduced real K-group of the circle is exactly one bit.  `provenance`
    names the two constituents so reports stay auditable.
    """

    virtual_rank: int
    delta_w1: int
    provenance: tuple[str, str]

    def __post_init__(self):
        if self.delta_w1 not in (0, 1):
            raise InputError(f"delta_w1 must be the bit 0 or 1, got {self.delta_w1}")
        if not isinstance(self.virtual_rank, (int, np.integer)):
            raise InputError(f"virtual_rank must be an integer, got {self.virtual_rank!r}")
        object.__setattr__(self, "virtual_rank", int(self.virtual_rank))
        object.__setattr__(self, "delta_w1", int(self.delta_w1))

    @classmethod
    def of_pair(cls, top: SampledBundle, bottom: SampledBundle) -> "KOClassDesk":
        """Class of [top] - [bottom]; a pair (E, E) gives the zero element."""
        return cls(
            virtual_rank=top.rank - bottom.rank,
            delta_w1=(first_sw_class(top) + first_sw_class(bottom)) % 2,
            provenance=(top.name, bottom.name),
        )


def bundle_from_projectors(
    loop: ParameterLoop, projectors, name: str = "image-part"
) -> SampledBundle:
    """Image subbundle of a sampled family of idempotents.

    Each matrix must be idempotent to 1e-8 but may be oblique; one
    stacked idempotency check and one stacked SVD read off the images,
    and the rank count at cutoff 1/2 is unambiguous because the nonzero
    singular values of an idempotent are at least 1.  The kernel of an
    idempotent P is the image of I - P.  Each check names the first
    projector that fails it.  A rank jump between consecutive samples
    means the family cannot restrict a continuous projector-valued map,
    so there is no bundle at this sampling.
    """
    mats = [np.asarray(p, dtype=float) for p in projectors]
    if len(mats) != len(loop):
        raise InputError(
            f"expected one projector per loop sample ({len(loop)}), got {len(mats)}"
        )
    d = mats[0].shape[0] if mats[0].ndim == 2 else 0
    for i, p in enumerate(mats):
        if p.ndim != 2 or p.shape != (d, d):
            raise InputError(f"projector {i} is not square of matching size: shape {p.shape}")
    stack = np.stack(mats)
    finite = np.isfinite(stack).all(axis=(1, 2))
    if not finite.all():
        raise InputError(f"projector {int(np.argmin(finite))} has non-finite entries")
    idempotent = np.abs(stack @ stack - stack).max(axis=(1, 2)) <= PROJECTOR_TOL
    if not idempotent.all():
        raise InputError(
            f"matrix {int(np.argmin(idempotent))} is not idempotent to {PROJECTOR_TOL:.0e}"
        )
    u, sv, _ = np.linalg.svd(stack)
    ranks = (sv > 0.5).sum(axis=1)
    jumps = np.flatnonzero(ranks[1:] != ranks[:-1])
    if jumps.size:
        i = int(jumps[0])
        raise SamplingError(
            f"projector rank jumps from {ranks[i]} to {ranks[i + 1]} between "
            f"loop samples {i} and {i + 1}: not a bundle at this sampling"
        )
    r = int(ranks[0])
    return SampledBundle(loop=loop, rank=r, frames=_gauged(u[:, :, :r]), name=name)


def _polar(m: np.ndarray) -> np.ndarray:
    """Orthogonal polar factors W V^T of a stack of square matrices W S V^T."""
    w, _, vt = np.linalg.svd(m)
    return w @ vt


def _gauged(frames: np.ndarray) -> np.ndarray:
    """The same fibres with frames that depend on the fibres, not on how an SVD spanned them.

    Sample 0's frame is the one nearest the first columns E of the
    sweep's generic seed, U0 polar(U0^T E), and each later sample's the
    one nearest the frame before it, U_i polar(U_i^T F_{i-1}).  A
    rounding-level change of a fibre then moves its frame at rounding
    level, where an SVD may rotate or flip it.  Since polar(M G) =
    polar(M) G for orthogonal G, the gauges are the overlaps' polar
    factors multiplied up along the loop.
    """
    r = frames.shape[-1]
    if r == 0:
        return frames
    previous = np.concatenate([_generic_seed(frames.shape[1])[None, :, :r], frames[:-1]])
    steps = _polar(frames.swapaxes(-1, -2) @ previous)
    gauges = [steps[0]]
    for step in steps[1:]:
        gauges.append(step @ gauges[-1])
    return frames @ np.stack(gauges)


def first_sw_class(bundle: SampledBundle) -> int:
    """First Stiefel-Whitney bit of a sampled bundle.

    A frame transported once around the loop (projected onto each next
    fibre and re-orthonormalised with positive orientation) returns
    with a monodromy whose determinant sign is the product of the signs
    of det(F_{i+1}^T F_i) over the consecutive fibre overlaps, the last
    one closing the loop; the bundle is orientable exactly when that
    sign is positive, so w1 is the parity of the negative overlap
    determinants.  The parity does not depend on the starting sample or
    on how each fibre's frame is gauged: a gauge change multiplies two
    neighbouring overlaps by the same determinant sign.  `SampledBundle`
    keeps consecutive fibres within a principal angle of pi/3 (its
    constructor bounds every overlap's singular values below by 1/2,
    the loop's closing overlap included), so each determinant has size
    at least 2**-rank and its sign is exact; nothing here is checked
    again.
    """
    if bundle.rank == 0:
        return 0  # the zero bundle is trivially orientable
    frames = bundle.frames
    overlaps = np.roll(frames, -1, axis=0).swapaxes(1, 2) @ frames
    return int(np.count_nonzero(np.linalg.det(overlaps) < 0.0) % 2)


def _with_sample_context(exc: HomindexError, i: int) -> HomindexError:
    """Same error, message prefixed with the loop sample that failed."""
    named = fresh(exc)
    named.args = (f"parameter sample {i}: {exc}",)
    return named


def _anchor_window(anchor_plus: int, anchor_minus: int, reach=(0, 0)) -> tuple[int, int]:
    """Window of the families anchored at 0 that reach both anchors and `reach`, 2 steps a side."""
    if not (anchor_minus <= 0 <= anchor_plus):
        raise InputError(f"anchors {anchor_minus} and {anchor_plus} must straddle 0")
    return min(anchor_minus, reach[0], -2), max(anchor_plus, reach[1], 2)


def anchor_bundles(
    loop: ParameterLoop, plus, minus, anchor_plus: int, anchor_minus: int
) -> tuple[SampledBundle, SampledBundle]:
    """im P+(anchor_plus) and im P-(anchor_minus) over the loop.

    `plus` and `minus` are the outcome lists of `whole_line_families`
    of every loop sample, on a window that holds both anchors.  The
    first failure in loop order (plus before minus within a sample) is
    raised with its sample named.  The bundles are split off orthogonal
    projectors onto im P+ and ker P-, so im P- stands for the orthogonal
    complement of ker P-: a family's own im P- is a free choice made at
    time 0, which need not vary continuously along the loop, and every
    complement has the same w1.
    """
    for i, pair in enumerate(zip(plus, minus)):
        for outcome in pair:
            if isinstance(outcome, HomindexError):
                raise _with_sample_context(outcome, i) from outcome
    # one projector per sample: the frames' ranks may differ between samples
    im = [p.image_frames[p.index_of(anchor_plus)] for p in plus]
    ker = [m.kernel_frames[m.index_of(anchor_minus)] for m in minus]
    top = bundle_from_projectors(loop, [u @ u.T for u in im], f"im P+ at n={anchor_plus}")
    eye = np.eye(ker[0].shape[0])
    bottom = bundle_from_projectors(
        loop, [eye - k @ k.T for k in ker], f"im P- at n={anchor_minus}"
    )
    return top, bottom


def index_bundle_pair(
    field: DiscreteVectorField,
    anchor_plus: int,
    anchor_minus: int,
    horizon: int = HORIZON,
    **tolerances,
) -> tuple[SampledBundle, SampledBundle]:
    """The (im P+, im P-) pair of the index class over the field's loop.

    One `whole_line_families` batch with `tolerances`, anchored at 0 on
    `_anchor_window`, certifies both half-line splittings of every loop
    sample; `anchor_bundles` splits the pair off it.  The index class
    is `KOClassDesk.of_pair` of the pair.
    """
    if field.loop is None:
        raise InputError("stable/unstable bundles need a field with a parameter loop")
    window = _anchor_window(anchor_plus, anchor_minus)
    plus, minus = whole_line_families(field, range(len(field.loop)), window, horizon, **tolerances)
    return anchor_bundles(field.loop, plus, minus, anchor_plus, anchor_minus)


def bundle_csv_rows(bundle: SampledBundle):
    """Header and rows serialising a bundle for external plotting.

    Columns: sample index, the loop's parameter coordinates, then the
    frame entries in row-major order (frame_<row>_<column>).
    """
    coords = bundle.loop.samples.shape[1]
    header = ["sample"] + [f"param_{c}" for c in range(coords)]
    for a in range(bundle.dim):
        for b in range(bundle.rank):
            header.append(f"frame_{a}_{b}")
    rows = []
    for i in range(len(bundle.loop)):
        row = [i]
        row.extend(float(x) for x in bundle.loop.samples[i])
        row.extend(float(x) for x in bundle.fibre(i).ravel())
        rows.append(row)
    return header, rows
