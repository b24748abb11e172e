"""Error taxonomy shared by all modules.

The CLI maps these onto exit codes: InputError and DomainError are
caller problems (exit 3), NumericError and IndeterminateError mean the
computation could not decide at the requested tolerances (exit 4), and
CertificationError means a hypothesis or certificate failed (exit 2).
"""

from __future__ import annotations

import copy

__all__ = [
    "HomindexError",
    "InputError",
    "DomainError",
    "NumericError",
    "IndeterminateError",
    "CertificationError",
    "NoDichotomyError",
    "SamplingError",
    "WindowTooShortError",
    "fresh",
]


class HomindexError(Exception):
    """Base class for all library errors."""


class InputError(HomindexError):
    """Malformed or out-of-contract input (shapes, windows, options)."""


class DomainError(HomindexError):
    """Input is well formed but outside the mathematical domain of the operation."""


class NumericError(HomindexError):
    """A numerical step failed or left the requested tolerance unreachable."""


class IndeterminateError(NumericError):
    """The computation cannot decide a verdict at the working tolerances."""


class CertificationError(HomindexError):
    """A certified property failed validation."""


class NoDichotomyError(CertificationError):
    """No exponential splitting was detected where one was required."""


class SamplingError(HomindexError):
    """A sampled loop or bundle is too coarse for the requested operation."""


class WindowTooShortError(HomindexError):
    """The requested window cannot support the computation; carries the needed size."""

    def __init__(self, message: str, required: int | None = None):
        super().__init__(message)
        self.required = required


def fresh(exc: HomindexError) -> HomindexError:
    """A new error of the same class, message and attributes, without a traceback.

    Batches keep the error of each failed sample next to the others'
    results.  Raising the kept object itself, or keeping one that was
    caught, would hang a traceback on it whose frames hold the field
    and the batch, so they would sit in a reference cycle; raise or
    keep a fresh copy.
    """
    return copy.copy(exc)
