"""Spectral splittings of real matrices relative to the unit circle.

A real square matrix is hyperbolic when no eigenvalue has modulus one.
For hyperbolic input the spectral projector onto the part of the
spectrum inside the unit disc is computed two independent ways: by a
trapezoid-rule resolvent integral over the unit circle, and by an
eigendecomposition.  Both return the same `SpectralSplit`; keeping the
two routes separate lets callers cross-validate them.

No command reaches this module; it is a test oracle.  The tests
cross-check the two routes (`test_matrixcore.py`, acceptance criterion
1), and `helpers.shift_operator_projector` takes its dichotomy
projectors from the contour route.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from homindex.errors import DomainError, IndeterminateError, InputError, NumericError

__all__ = [
    "DEFAULT_MARGIN",
    "PROJECTOR_TOL",
    "IMAG_TOL",
    "SpectralSplit",
    "is_hyperbolic",
    "spectral_projector_contour",
    "spectral_projector_eigen",
]

#: verdict margin on abs(|z| - 1); moduli closer to the circle than this
#: give an indeterminate verdict instead of a possibly false one
DEFAULT_MARGIN = 1e-8

#: idempotency / complementarity tolerance for returned projectors
PROJECTOR_TOL = 1e-8

#: largest tolerated imaginary residue before taking the real part
IMAG_TOL = 1e-9

# trace of a projector must sit this close to an integer
_TRACE_TOL = 1e-2

# eigenvector conditioning beyond this is treated as effectively defective
_EIG_COND_LIMIT = 1e12

_MAX_NODES = 1024
_NODE_CONV_TOL = 1e-10

# complex entries per stacked resolvent solve (8 MB); bounds the node chunk
_SOLVE_CHUNK_ENTRIES = 1 << 19


@dataclass(frozen=True)
class SpectralSplit:
    """Complementary spectral projectors for the unit-circle splitting.

    `stable_projector` projects onto the invariant subspace of the
    eigenvalues inside the open unit disc, `unstable_projector` onto the
    complementary one; they sum to the identity.  `gap` is the smallest
    distance of an eigenvalue modulus from 1.
    """

    stable_projector: np.ndarray
    unstable_projector: np.ndarray
    stable_rank: int
    gap: float

    def __post_init__(self):
        p = self.stable_projector
        q = self.unstable_projector
        if p.shape != q.shape or p.ndim != 2 or p.shape[0] != p.shape[1]:
            raise InputError("projectors must be square matrices of equal shape")
        scale = 1.0 + abs(p).max()
        if abs(p @ p - p).max() > PROJECTOR_TOL * scale:
            raise NumericError("stable projector is not idempotent within tolerance")
        if abs(p + q - np.eye(p.shape[0])).max() > PROJECTOR_TOL * scale:
            raise NumericError("projectors do not sum to the identity")

    @property
    def dim(self) -> int:
        return self.stable_projector.shape[0]

    @property
    def unstable_rank(self) -> int:
        return self.dim - self.stable_rank


def _as_real_square(m) -> np.ndarray:
    a = np.asarray(m, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] < 1:
        raise InputError(f"expected a square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise InputError("matrix has non-finite entries")
    return a


def is_hyperbolic(m, margin: float = DEFAULT_MARGIN) -> dict:
    """Decide whether a real square matrix has spectrum off the unit circle.

    Parameters
    ----------
    m : array_like
        Real square matrix; it need not be invertible.
    margin : float
        Decision margin on ``abs(|z| - 1)``.  Moduli at least `margin`
        away from 1 give a definite verdict.

    Returns
    -------
    dict
        Keys ``decision`` (one of ``"hyperbolic"``, ``"not_hyperbolic"``,
        ``"indeterminate"``), ``gap`` (min distance of a modulus from 1)
        and ``moduli`` (sorted eigenvalue moduli).

    Notes
    -----
    A modulus inside the margin band but clearly off the numerical noise
    floor cannot be distinguished from an actual circle crossing, so the
    verdict is ``indeterminate`` rather than a guess.
    """
    a = _as_real_square(m)
    if margin <= 0:
        raise InputError("margin must be positive")
    w = np.linalg.eigvals(a)
    moduli = np.sort(np.abs(w))
    gap = float(np.min(np.abs(moduli - 1.0)))
    # below this the modulus is indistinguishable from an exact circle point
    noise = 64.0 * np.finfo(float).eps * max(1.0, float(abs(a).max()))
    if gap >= margin:
        decision = "hyperbolic"
    elif gap <= noise:
        decision = "not_hyperbolic"
    else:
        decision = "indeterminate"
    return {"decision": decision, "gap": gap, "moduli": moduli}


def _require_hyperbolic(a: np.ndarray) -> dict:
    verdict = is_hyperbolic(a)
    if verdict["decision"] == "not_hyperbolic":
        raise DomainError(
            "matrix has an eigenvalue on the unit circle "
            f"(smallest modulus gap {verdict['gap']:.3e})"
        )
    if verdict["decision"] == "indeterminate":
        raise IndeterminateError(
            "eigenvalue modulus within the hyperbolicity margin "
            f"(gap {verdict['gap']:.3e} < margin {DEFAULT_MARGIN:.3e})"
        )
    return verdict


def _finalize_split(a: np.ndarray, p: np.ndarray, gap: float) -> SpectralSplit:
    scale = 1.0 + abs(p).max()
    if abs(p @ p - p).max() > PROJECTOR_TOL * scale:
        raise NumericError("computed projector is not idempotent within tolerance")
    comm = abs(a @ p - p @ a).max()
    if comm > PROJECTOR_TOL * (1.0 + abs(a).max()) * scale:
        raise NumericError(f"projector does not commute with the matrix ({comm:.3e})")
    tr = float(np.trace(p))
    rank = int(round(tr))
    if abs(tr - rank) > _TRACE_TOL:
        raise NumericError(f"projector trace {tr:.6f} is not close to an integer")
    if rank < 0 or rank > a.shape[0]:
        raise NumericError(f"projector rank {rank} outside [0, {a.shape[0]}]")
    return SpectralSplit(
        stable_projector=p,
        unstable_projector=np.eye(a.shape[0]) - p,
        stable_rank=rank,
        gap=gap,
    )


def _contour_sum(a: np.ndarray, nodes: int) -> np.ndarray:
    # trapezoid rule for (2*pi*i)^(-1) * integral of (z I - a)^(-1) dz over |z| = 1,
    # with z = exp(i theta):  P ~ (1/N) sum_j z_j (z_j I - a)^(-1)
    # nodes are solved in stacked chunks small enough to bound the memory
    d = a.shape[0]
    eye = np.eye(d, dtype=complex)
    acc = np.zeros((d, d), dtype=complex)
    chunk = max(1, _SOLVE_CHUNK_ENTRIES // (d * d))
    for j0 in range(0, nodes, chunk):
        z = np.exp(2j * np.pi * np.arange(j0, min(j0 + chunk, nodes)) / nodes)
        shifted = z[:, None, None] * eye - a
        try:
            resolvents = np.linalg.solve(shifted, np.broadcast_to(eye, shifted.shape))
        except np.linalg.LinAlgError as exc:  # pragma: no cover - solver failure is rare
            raise NumericError(
                f"resolvent solve failed at nodes {j0}..{j0 + len(z) - 1} of {nodes}"
            ) from exc
        acc += np.einsum("j,jkl->kl", z, resolvents)
    return acc / nodes


def spectral_projector_contour(m, nodes: int = 64) -> SpectralSplit:
    """Spectral projector onto the inside-the-circle part, by resolvent integral.

    Parameters
    ----------
    m : array_like
        Real square hyperbolic matrix (margin `DEFAULT_MARGIN`).
    nodes : int
        Initial number of equispaced quadrature nodes on the unit circle
        (minimum 16).  The node count is doubled until two successive
        approximations agree to 1e-10 in max norm, capped at 1024.

    Returns
    -------
    SpectralSplit

    Notes
    -----
    The trapezoid rule on a circle enclosing no eigenvalue converges
    geometrically, so a handful of doublings suffices away from the
    circle.  The imaginary part of the converged sum must be below
    1e-9 in max norm and is then discarded.
    """
    a = _as_real_square(m)
    if nodes < 16:
        raise InputError("at least 16 quadrature nodes are required")
    verdict = _require_hyperbolic(a)

    approx = _contour_sum(a, nodes)
    n = nodes
    converged = False
    while n < _MAX_NODES:
        n *= 2
        refined = _contour_sum(a, n)
        if abs(refined - approx).max() < _NODE_CONV_TOL:
            approx = refined
            converged = True
            break
        approx = refined
    if not converged:
        # one more comparison at the cap before giving up
        refined = _contour_sum(a, min(2 * n, 2 * _MAX_NODES))
        if abs(refined - approx).max() < _NODE_CONV_TOL:
            approx = refined
        else:
            raise IndeterminateError(
                f"contour quadrature did not converge with {_MAX_NODES} nodes "
                f"(modulus gap {verdict['gap']:.3e})"
            )

    imag = abs(approx.imag).max()
    if imag > IMAG_TOL:
        raise NumericError(f"imaginary residue {imag:.3e} exceeds {IMAG_TOL:.1e}")
    return _finalize_split(a, approx.real.copy(), verdict["gap"])


def spectral_projector_eigen(m) -> SpectralSplit:
    """Spectral projector onto the inside-the-circle part, by eigendecomposition.

    Independent of the contour route; intended for cross-validation.
    Raises NumericError when the eigenvector matrix is so ill conditioned
    that the matrix is numerically defective.
    """
    a = _as_real_square(m)
    verdict = _require_hyperbolic(a)
    w, v = np.linalg.eig(a)
    cond = np.linalg.cond(v)
    if not np.isfinite(cond) or cond > _EIG_COND_LIMIT:
        raise NumericError(
            f"eigenvector conditioning {cond:.3e} exceeds {_EIG_COND_LIMIT:.1e}; "
            "matrix is numerically defective"
        )
    sel = (np.abs(w) < 1.0).astype(complex)
    p = v @ (sel[:, None] * np.linalg.inv(v))
    imag = abs(p.imag).max()
    if imag > IMAG_TOL * max(1.0, cond):
        raise NumericError(f"imaginary residue {imag:.3e} in eigenprojector")
    return _finalize_split(a, p.real.copy(), verdict["gap"])
