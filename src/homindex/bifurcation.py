"""Nonlinear difference systems: hypothesis checks and certified
localization of homoclinic bifurcations from the trivial branch.

A nonlinear system phi(n+1) = f(lam, n, phi(n)) with trivial branch
f(lam, n, 0) = 0 is certified in four stages:

- F0: the trivial branch is exact and the fibre derivative, a required
  part of every system, agrees with central differences of the system;
- F1: sampled boundedness of the fibre derivatives on the state ball
  of radius r0 (equicontinuity stays an analytic obligation and is
  echoed as a warning, never silently assumed);
- F2: the linearization along the trivial branch carries certified
  half-line dichotomies at the anchors for every parameter sample,
  assembling stable/unstable bundles over the loop;
- F3: at some parameter sample the whole-line linearization is
  invertible (Fredholm index zero and trivial kernel).

When all four hold and the index-bundle class of the (im P+, im P-)
pair has delta_w1 = 1, the orientation of the splitting flips along
the loop and a homoclinic bifurcation from the trivial branch is
forced somewhere on it; `localize_bifurcations` then hunts the
nonzero bounded solutions with damped Gauss-Newton runs seeded from
near-kernel directions of the linearization, all runs in one lockstep
batch whose steps come from `fredholm`'s block factor.
"""

from __future__ import annotations

import itertools
import logging
from dataclasses import dataclass, field as dataclass_field
from typing import Callable

import numpy as np

from .bundle import KOClassDesk, _anchor_window, anchor_bundles
from .dichotomy import _projectors_at, whole_line_families
from .errors import (
    CertificationError,
    HomindexError,
    InputError,
    NumericError,
    SamplingError,
    fresh,
)
from .field import _WIDE_WINDOW, DiscreteVectorField, ParameterLoop, _raised, _read_all, _validate
from .fredholm import (
    DECAY_TOL,
    FiniteWindowSequence,
    index_from_families,
    section_least_squares,
    whole_line_index,
)

__all__ = [
    "NonlinearField",
    "PerturbedSystemSpec",
    "linearize_at_zero",
    "F3Check",
    "check_F3",
    "CertifyOptions",
    "BifurcationCertificate",
    "certify_bifurcation",
    "localize_bifurcations",
]

_LOG = logging.getLogger("homindex.bifurcation")

#: sup-norm tolerance for the trivial branch f(lam, n, 0) = 0
TRIVIAL_BRANCH_TOL = 1e-12

#: central finite-difference step of F0's derivative check
FD_STEP = 1e-5

#: analytic-versus-finite-difference derivative agreement required by F0,
#: relative to max(1, sup |analytic|): the difference's rounding, about
#: eps |f| / FD_STEP, grows with the derivative (like 1/q on a
#: hyperbolic family of contraction q)
F0_DERIVATIVE_TOL = 1e-6

#: principal cosine between decaying subspaces that seeds a Newton run
SEED_COSINE = 0.99

#: Gauss-Newton iteration cap per run
NEWTON_MAX_ITER = 50

#: residual sup-norm at which a Gauss-Newton run stops
NEWTON_TOL = 1e-11

#: Armijo sufficient-decrease factor on the squared residual
ARMIJO = 1e-4

#: step shrink factor per backtracking trial
BACKTRACK = 0.5

#: smallest step fraction before a Gauss-Newton run counts as stalled
MIN_STEP = 1e-6

#: seed amplitudes, as fractions of r0, of the Newton runs per near-kernel direction
SEED_SCALES = (1e-3, 1e-2, 1e-1)

#: residual sup-norm a localized solution must reach
ACCEPT_RESIDUAL = 1e-9


def _time_probes(window, extra=()) -> list[int]:
    """Deterministic probe times: the window edges plus a core stretch."""
    lo, hi = int(window[0]), int(window[1])
    probes = {lo, hi}
    probes.update(n for n in range(-8, 9) if lo <= n <= hi)
    probes.update(int(n) for n in extra if lo <= int(n) <= hi)
    return sorted(probes)


@dataclass(frozen=True)
class NonlinearField:
    """Parametrized nonlinear difference system with a trivial branch.

    The system is given in Nemitski form, over samples and time ranges
    at once: `evaluator(lams, times, states)` receives a 1-D integer
    array of S parameter sample indices, a 1-D integer array of T times
    inside `window` and an (S, T, dim) stack of states, and returns the
    (S, T, dim) stack of f(lams[s], times[i], states[s, i]);
    `derivative(lams, times, states)`, which every system must have,
    returns the (S, T, dim, dim) stack of fibre derivatives D_x f;
    `certify` checks it against central differences (F0).  Every
    consumer makes one call per stack: the probes at construction and
    in `certify` stack every sample they need, and Gauss-Newton stacks
    every run of its lockstep batch, each with its own sample (samples
    may repeat).  `value` and the derivative reads validate each
    returned stack once, with `field._validate`, the validator of every
    field read; a read raises the first error, samples first, named at
    the (lam, n) of its first bad entry.  The trivial branch
    f(lam, n, 0) = 0 is validated at construction, for every sample on
    a probe grid, with one `value` call.  `r0` is the radius of the
    state ball on which the model is trusted; `refiner(k)`, when given,
    returns the same system sampled on a k-fold refined parameter loop.
    The system keeps no values, and `linearize_at_zero` builds a new
    linearization on every call.
    """

    dim: int
    evaluator: Callable[[int, np.ndarray, np.ndarray], np.ndarray]
    derivative: Callable[[int, np.ndarray, np.ndarray], np.ndarray]
    window: tuple[int, int] = _WIDE_WINDOW
    r0: float = 1.0
    loop: ParameterLoop | None = None
    refiner: Callable[[int], "NonlinearField"] | None = None

    def __post_init__(self):
        if self.dim < 1:
            raise InputError("dimension must be at least 1")
        if self.window[0] >= self.window[1]:
            raise InputError("window must be a nonempty interval of times")
        if not (self.r0 > 0.0):
            raise InputError("the trust radius r0 must be positive")
        times = np.array(_time_probes(self.window))
        zero = np.zeros((self.n_params, len(times), self.dim))
        worst = float(np.abs(self.value(np.arange(self.n_params), times, zero)).max())
        if worst > TRIVIAL_BRANCH_TOL:
            raise InputError(
                "the zero sequence is not a trivial branch: |f(lam, n, 0)| reaches "
                f"{worst:.3e} > {TRIVIAL_BRANCH_TOL:.0e} on the probe grid"
            )

    @property
    def n_params(self) -> int:
        return len(self.loop) if self.loop is not None else 1

    def value(self, lams, times, states) -> np.ndarray:
        """The (S, T, dim) stack f(lams[s], times[i], states[s, i]), validated once.

        A scalar sample and time with one state vector give that single
        (dim,) value, through the same stacked call.
        """
        if np.ndim(times) == 0:
            one = np.reshape(lams, 1), np.reshape(times, 1), np.reshape(states, (1, 1, -1))
            return self.value(*one)[0, 0]
        stack = _validate(self.evaluator, "evaluator", self, lams, times, (self.dim,), states)
        return _raised(*stack)


def _fd_derivative(f: NonlinearField, lams, times, states) -> np.ndarray:
    """Central-difference fibre derivatives (S, T, dim, dim) of a stack, step `FD_STEP`.

    One `value` call: the T times repeated for each column and sign, in the
    order (column 0 ahead, column 0 behind, column 1 ahead, ...), so a
    sample's first bad entry is the one a read per column and sign meets
    first.
    """
    states = np.asarray(states, dtype=float)
    # (S, column, sign, T, dim)
    shifted = np.stack([np.stack([states + e, states - e], 1) for e in FD_STEP * np.eye(f.dim)], 1)
    n_samples, n_times = states.shape[:2]
    values = f.value(
        lams,
        np.tile(np.asarray(times), 2 * f.dim),
        shifted.reshape(n_samples, 2 * f.dim * n_times, f.dim),
    ).reshape(n_samples, f.dim, 2, n_times, f.dim)
    return ((values[:, :, 0] - values[:, :, 1]) / (2.0 * FD_STEP)).transpose(0, 2, 3, 1)


def _derivatives(f: NonlinearField, lams, times, states):
    """Fibre derivatives (S, T, dim, dim) at (times[i], states[s, i]), validated like `value`."""
    return _raised(*_validate(f.derivative, "derivative", f, lams, times, (f.dim, f.dim), states))


def linearize_at_zero(f: NonlinearField) -> DiscreteVectorField:
    """Linearization of the system along its trivial branch.

    The returned field evaluates the system's fibre derivative at zero,
    exactly.  The full derivative is kept, including any decaying
    nonautonomous part that does not vanish at zero.  Each call returns
    a new field, which evaluates every read afresh like any field.  Its
    evaluator calls the system's derivative raw: the field's own read
    validates the stack, once.  It holds the derivative, not the
    system, so a dropped system is freed by reference counting.
    """
    dim, derivative = f.dim, f.derivative

    def evaluate(lams: np.ndarray, times: np.ndarray) -> np.ndarray:
        return derivative(lams, times, np.zeros((len(lams), len(times), dim)))

    return DiscreteVectorField(
        dim=f.dim,
        evaluator=evaluate,
        window=f.window,
        loop=f.loop,
    )


@dataclass(frozen=True)
class PerturbedSystemSpec:
    """Nonlinear system assembled from a linear part and a small residual.

    Models phi(n+1) = A(lam, n) phi(n) + R(lam, n, phi(n)) with
    `a_field` the linear part, `residual` the remainder R, which must
    vanish on the zero branch, and `residual_derivative` its required
    fibre derivative D_x R.  `residual(lams, times, states)` and
    `residual_derivative(lams, times, states)` take the Nemitski form of
    `NonlinearField.evaluator`: an (S, T, dim) stack of states of S
    samples at T times, returning (S, T, dim) and (S, T, dim, dim)
    stacks.  The spec itself checks nothing: `to_nonlinear` builds a
    `NonlinearField`, whose construction checks `r0` and probes the
    trivial branch for every sample, and A 0 = 0 makes that probe one
    of R.  Nothing asks D_x R(lam, n, 0) to vanish as |n| grows: the
    half-line dichotomies of the linearization stand in for asymptotic
    hyperbolicity.  The system's reads (`value`, its derivatives and
    its linearization's) validate A x + R and A + D_x R once, with
    errors naming (lam, n); A itself is validated by its own read of
    the linear part, all samples of a stack in one read.
    """

    a_field: DiscreteVectorField
    residual: Callable[[int, np.ndarray, np.ndarray], np.ndarray]
    residual_derivative: Callable[[int, np.ndarray, np.ndarray], np.ndarray]
    r0: float = 1.0

    def to_nonlinear(
        self, refiner: Callable[[int], NonlinearField] | None = None
    ) -> NonlinearField:
        """Assemble the full nonlinear field x -> A x + R(., x).

        A is read from the linear part, one read per call for all its
        samples; R and D_x R are called raw, and a remainder whose shape
        differs from A's term is refused rather than broadcast.
        `refiner` becomes the field's refiner hook.  Raises `InputError`
        when `r0` is not positive or R does not vanish on the zero branch.
        """
        a_field, residual, d_residual = self.a_field, self.residual, self.residual_derivative

        def plus(linear: np.ndarray, remainder, name: str) -> np.ndarray:
            # numpy would broadcast a remainder of a smaller shape unseen
            remainder = np.asarray(remainder, dtype=float)
            if remainder.shape != linear.shape:
                raise ValueError(f"{name} returned shape {remainder.shape}, not {linear.shape}")
            return linear + remainder

        def evaluate(lams: np.ndarray, times: np.ndarray, states: np.ndarray) -> np.ndarray:
            linear = (_read_all(a_field, lams, times) @ states[..., None])[..., 0]
            return plus(linear, residual(lams, times, states), "residual")

        def derivative(lams: np.ndarray, times: np.ndarray, states: np.ndarray) -> np.ndarray:
            linear = _read_all(a_field, lams, times)
            return plus(linear, d_residual(lams, times, states), "residual derivative")

        return NonlinearField(
            dim=a_field.dim,
            evaluator=evaluate,
            derivative=derivative,
            window=a_field.window,
            r0=self.r0,
            loop=a_field.loop,
            refiner=refiner,
        )


# ---------------------------------------------------------------------------
# F3: whole-line invertibility of the linearization


@dataclass(frozen=True)
class F3Check:
    """Invertibility verdict for the whole-line linearization at one sample.

    "pass" certifies index zero and a trivial kernel on the window;
    "fail" certifies a kernel or a nonzero index; "indeterminate"
    records that a dichotomy could not be certified, the null group
    could not be separated or the geometric and truncated kernel counts
    disagree - never a silent false pass.  `sigma_min` bounds the
    smallest boundary-conditioned singular value as `sigma_min_bound`
    says: "at most" for a Ritz value of the inverse iteration or of a
    deflated screen's kernel basis, "at least" for the floor the screen
    proved where it left no value below the cut
    (`TruncationSpectrum.floor`).
    """

    verdict: str
    lambda_index: int
    rank_plus: int | None = None
    rank_minus: int | None = None
    kernel_dim: int | None = None
    sigma_min: float = float("nan")
    sigma_min_bound: str = ""
    message: str = ""

    def __post_init__(self):
        if self.verdict not in ("pass", "fail", "indeterminate"):
            raise InputError(f"unknown F3 verdict {self.verdict!r}")

    @property
    def passed(self) -> bool:
        return self.verdict == "pass"


def _f3_verdicts(lams, window, reports) -> list:
    """F3 checks of samples `lams` from their index `reports` (or errors) on `window`.

    A nonzero index fails; otherwise a sample whose geometric and
    truncated kernel counts disagree is "indeterminate", and the counts
    decide the rest.
    """
    lo, hi = int(window[0]), int(window[1])
    if not (lo < 0 < hi):
        raise InputError("the F3 window must straddle time zero")
    checks = []
    for lam, report in zip(lams, reports):
        if isinstance(report, (CertificationError, NumericError)):
            message = f"could not certify the half-line splittings or the kernel count: {report}"
            checks.append(F3Check("indeterminate", int(lam), message=message))
            continue
        if isinstance(report, HomindexError):
            raise fresh(report)
        # smallest singular value of the truncation with decay boundary rows: a
        # Ritz value as precise as the kernel count needed it or, where a
        # screen left no value below the cut, a proved floor
        truncation = report.truncation
        smin = float(truncation.smallest[0])
        bound = "at least" if truncation.floor and len(truncation.smallest) == 1 else "at most"
        if report.index != 0:
            verdict, message = "fail", f"Fredholm index {report.index} != 0 precludes invertibility"
        elif not report.consistent:
            verdict, message = "indeterminate", (
                f"the geometric kernel count {report.dim_ker} and the truncated count "
                f"{report.dim_ker_truncated} on [{lo}, {hi}] disagree"
            )
        elif report.dim_ker == 0:
            verdict, message = "pass", (
                f"no kernel and index 0 on [{lo}, {hi}] (smallest boundary-conditioned "
                f"singular value {bound} {smin:.3e})"
            )
        else:
            verdict, message = "fail", f"kernel of dimension {report.dim_ker} detected"
        checks.append(
            F3Check(
                verdict=verdict,
                lambda_index=int(lam),
                rank_plus=report.rank_plus,
                rank_minus=report.rank_minus,
                kernel_dim=report.dim_ker,
                sigma_min=smin,
                sigma_min_bound=bound,
                message=message,
            )
        )
    return checks


def check_F3(
    field: DiscreteVectorField,
    lam: int,
    window: tuple[int, int] = (-40, 40),
    horizon: int = 60,
) -> F3Check:
    """Decide whether the linearization is invertible on the whole line.

    Invertibility of the difference operator is equivalent to an
    exponential dichotomy on the whole line; it is certified here
    through half-line projector families anchored at zero, a Fredholm
    index of zero and a trivial kernel.  Whenever a dichotomy cannot
    be certified or the kernel count is ambiguous, the verdict is
    "indeterminate" rather than a guess in either direction.  This is
    the F3 scan of `certify_bifurcation` for one sample.  No command
    calls it: the tests take it as the per-sample reference for the
    batch, and `perfbench/tracer.py` rebinds it by name.
    """
    (check,) = _f3_verdicts([lam], window, whole_line_index(field, [lam], window, horizon))
    return check


# ---------------------------------------------------------------------------
# certification


@dataclass(frozen=True)
class CertifyOptions:
    """Settings for the four-stage bifurcation certification."""

    anchor_plus: int = 8
    anchor_minus: int = -8
    horizon: int = 40
    f3_window: tuple[int, int] = (-40, 40)
    manifold_dim: int | None = None


_VERDICTS = ("bifurcation_certified", "obstruction_vanishes", "hypotheses_failed")


@dataclass(frozen=True)
class _Families:
    """One batch of a linearization's families anchored at 0, and what it was built with."""

    source: NonlinearField
    window: tuple[int, int]
    horizon: int
    tolerances: dict
    plus: list
    minus: list


@dataclass(frozen=True)
class BifurcationCertificate:
    """Outcome of the four-stage certification over a parameter loop.

    "bifurcation_certified" asserts all of: validated trivial branch
    and derivatives (F0, F1), half-line dichotomies with equal ranks
    along the whole loop (F2), invertibility at the sample `lambda0`
    (F3), and an index-bundle class with delta_w1 = 1 - the
    orientation flip that forces a bifurcation on the loop.
    "obstruction_vanishes" means every hypothesis was checked but the
    class is orientable (delta_w1 = 0), so this criterion is silent;
    "hypotheses_failed" names the lost stage in `warnings`.  `families`
    is the batch of linearization families F2 and F3 read, for reuse.
    """

    verdict: str
    f0_ok: bool
    f1_ok: bool
    f2_ok: bool
    f3_ok: bool
    lambda0: int | None
    anchor_plus: int
    anchor_minus: int
    rank_plus: int | None
    rank_minus: int | None
    index_class: KOClassDesk | None
    f3_verdicts: tuple[str, ...] = ()
    evidence: tuple[tuple[str, str], ...] = ()
    warnings: tuple[str, ...] = ()
    families: _Families | None = dataclass_field(default=None, compare=False, repr=False)

    def __post_init__(self):
        if self.verdict not in _VERDICTS:
            raise InputError(
                f"unknown verdict {self.verdict!r}; expected one of {_VERDICTS}"
            )
        if self.verdict == "bifurcation_certified":
            ok = (
                self.f0_ok
                and self.f1_ok
                and self.f2_ok
                and self.f3_ok
                and self.lambda0 is not None
                and self.index_class is not None
                and self.rank_plus == self.rank_minus
                and self.index_class.delta_w1 == 1
                and self.anchor_minus < 0 < self.anchor_plus
            )
            if not ok:
                raise InputError(
                    "a certified verdict requires all four hypotheses, a passing "
                    "sample lambda0, equal projector ranks, anchors straddling "
                    "zero and delta_w1 = 1"
                )


def _probe_grid(times, dim: int, r0: float, samples: int) -> tuple[np.ndarray, np.ndarray]:
    """Every (time, state) probe pair, time-major: a stack of times, one of states per sample.

    The states lie inside the trust ball: zero, the axes at 0.5 r0 and
    a mixed point; every one of the `samples` samples gets the same
    (T, dim) states.
    """
    states = np.vstack(
        [
            np.zeros(dim),
            0.5 * r0 * np.eye(dim),
            np.full(dim, -0.35 * r0 / max(1.0, float(np.sqrt(dim)))),
        ]
    )
    return np.repeat(times, len(states)), np.tile(states, (samples, len(times), 1))


def certify_bifurcation(
    f: NonlinearField, options: CertifyOptions | None = None, **tolerances
) -> BifurcationCertificate:
    """Run the four-stage certification of a loop-parametrized system.

    F0 revalidates the trivial branch and checks the system's required
    fibre derivative against central differences of the system on a
    probe grid.  F1 samples the derivative sup-norm on the r0 ball;
    equicontinuity remains an analytic obligation and is echoed as a
    warning.  F2 certifies half-line dichotomies at the anchors for
    every loop sample and assembles the index-bundle class of the
    (im P+, im P-) pair.  F3 scans the loop in sample order; the first
    invertible sample becomes `lambda0`.
    A rank mismatch between the half-line families makes F3 impossible
    and fails the hypotheses outright; a scan with no pass and at
    least one indeterminate sample blocks certification with a
    refinement hint instead of a guess.

    Every evaluation stacks the samples it needs: the F0 and F1 probes
    make one `value` or derivative call per stack, over all samples or
    over the probed ones.  F2 and F3 read one `whole_line_families`
    batch of the linearization on the hull of `f3_window` and the
    anchors, with the family `tolerances` (F3's kernel counts too): F2
    splits the bundles at the anchors off it, and any failed family
    fails F2 with its sample named; F3 counts on `f3_window`
    (`fredholm.index_from_families`).  An anchor beyond `f3_window`
    makes the batch longer than F3's window, and F3 then counts on a
    batch of its own window (`fredholm.whole_line_index`), so its
    verdicts never depend on the anchors.  The certificate carries the
    first batch for localization.
    """
    opts = options if options is not None else CertifyOptions()
    if f.loop is None:
        raise InputError("certification scans a parameter loop; the field has none")
    if not (opts.anchor_minus < 0 < opts.anchor_plus):
        raise InputError("anchors must straddle zero: anchor_minus < 0 < anchor_plus")

    warnings: list[str] = []
    evidence: list[tuple[str, str]] = []
    n = f.n_params

    # F0: trivial branch and derivative trust, every probed sample in one stack
    branch_times = np.array(_time_probes(f.window, extra=(opts.anchor_minus, opts.anchor_plus)))
    zero = np.zeros((n, len(branch_times), f.dim))
    branch_worst = float(np.abs(f.value(np.arange(n), branch_times, zero)).max())
    evidence.append(("f0_trivial_branch_sup", f"{branch_worst:.3e}"))
    f0_ok = branch_worst <= TRIVIAL_BRANCH_TOL

    lam_probes = np.array(sorted({0, n // 3, n // 2, (2 * n) // 3, n - 1}))
    time_probes = _time_probes(f.window, extra=(-9, 2, 10))
    probe_times, probe_states = _probe_grid(time_probes, f.dim, f.r0, len(lam_probes))
    core_times, core_states = _probe_grid(
        [t for t in time_probes if abs(t) <= 10], f.dim, f.r0, len(lam_probes)
    )
    fd = _fd_derivative(f, lam_probes, core_times, core_states)
    analytic = _derivatives(f, lam_probes, core_times, core_states)
    deviation = float(np.abs(analytic - fd).max())
    scale = max(1.0, float(np.abs(analytic).max()))
    f0_ok = f0_ok and deviation <= F0_DERIVATIVE_TOL * scale
    evidence.append(("f0_derivative_deviation", f"{deviation:.3e}"))
    evidence.append(("f0_derivative_scale", f"{scale:.3e}"))

    # F1: sampled derivative bound on the trust ball
    blocks = _derivatives(f, lam_probes, probe_times, probe_states)
    bound = float(np.abs(blocks).max())
    f1_ok = bool(np.isfinite(bound))
    evidence.append(("f1_derivative_sup", f"{bound:.3e}"))
    warnings.append(
        "F1 boundedness was sampled on the r0 ball; equicontinuity of the fibre "
        "derivatives is an analytic obligation that sampling cannot verify"
    )
    warnings.append(
        "delta_w1 = 1 is a sufficient criterion: a vanishing obstruction "
        "(delta_w1 = 0) does not rule out bifurcation"
    )

    # one batch of families anchored at 0 serves F2, localization and, on its own window, F3
    lin = linearize_at_zero(f)
    window = _anchor_window(opts.anchor_plus, opts.anchor_minus, reach=opts.f3_window)
    plus, minus = whole_line_families(lin, range(n), window, opts.horizon, **tolerances)
    families = _Families(f, window, opts.horizon, tolerances, plus, minus)

    def certificate(verdict: str, **stages) -> BifurcationCertificate:
        return BifurcationCertificate(
            verdict=verdict, f0_ok=f0_ok, f1_ok=f1_ok, anchor_plus=opts.anchor_plus,
            anchor_minus=opts.anchor_minus, evidence=tuple(evidence),
            warnings=tuple(warnings), families=families, **stages,
        )

    # F2: half-line dichotomies along the loop and the index-bundle class
    try:
        stable, minus_image = anchor_bundles(
            f.loop, plus, minus, opts.anchor_plus, opts.anchor_minus
        )
    except (CertificationError, NumericError, SamplingError) as exc:
        warnings.append(f"(F2) half-line dichotomies are unavailable: {exc}")
        return certificate(
            "hypotheses_failed", f2_ok=False, f3_ok=False, lambda0=None,
            rank_plus=None, rank_minus=None, index_class=None,
        )
    index_class = KOClassDesk.of_pair(stable, minus_image)
    rank_plus, rank_minus = stable.rank, minus_image.rank
    evidence.append(("f2_ranks", f"plus={rank_plus}, minus={rank_minus}"))
    evidence.append(
        (
            "index_class",
            f"virtual_rank={index_class.virtual_rank}, delta_w1={index_class.delta_w1}",
        )
    )

    if rank_plus != rank_minus:
        warnings.append(
            "(F3) cannot hold at any sample: the Fredholm index is "
            f"{rank_plus - rank_minus}, not zero, so the linearization is never invertible"
        )
        return certificate(
            "hypotheses_failed", f2_ok=True, f3_ok=False, lambda0=None,
            rank_plus=rank_plus, rank_minus=rank_minus, index_class=index_class,
        )

    # F3 scan in loop order; the first passing sample becomes lambda0.
    # One batch fits the families and counts every sample's index and kernel.
    # Fits over families longer than the F3 window loosen their constants,
    # so with an anchor beyond it F3 counts on its own window, as `index` does.
    if window == tuple(opts.f3_window):
        reports = index_from_families(lin, range(n), window, plus, minus, **tolerances)
    else:
        reports = whole_line_index(lin, range(n), opts.f3_window, opts.horizon, **tolerances)
    checks = _f3_verdicts(range(n), opts.f3_window, reports)
    f3_verdicts = tuple(c.verdict for c in checks)
    lambda0 = next((c.lambda_index for c in checks if c.passed), None)
    f3_ok = lambda0 is not None
    evidence.append(("f3_pass_count", f"{sum(c.passed for c in checks)}/{n}"))
    if f3_ok:
        # the one truncation value a report prints, resolved past its count
        sigma_min = reports[lambda0].truncation.resolved().smallest[0]
        evidence.append(("f3_sigma_min_at_lambda0", f"{sigma_min:.3e}"))

    if not f3_ok:
        if "indeterminate" in f3_verdicts:
            warnings.append(
                "(F3) could not be decided at any sample (some checks were "
                "indeterminate); refine the loop sampling or enlarge the window "
                "and horizon before drawing conclusions"
            )
        else:
            warnings.append(
                "(F3) fails at every sample: the linearization has a kernel "
                "along the whole loop"
            )
        verdict = "hypotheses_failed"
    elif not (f0_ok and f1_ok):
        warnings.append("(F0)/(F1) sampled validation failed; see the evidence table")
        verdict = "hypotheses_failed"
    elif index_class.delta_w1 == 1:
        verdict = "bifurcation_certified"
    else:
        verdict = "obstruction_vanishes"

    if (
        verdict == "bifurcation_certified"
        and opts.manifold_dim is not None
        and opts.manifold_dim >= 2
    ):
        evidence.append(
            (
                "branch_covering_dimension",
                f">= {opts.manifold_dim - 1} when the loop extends to a "
                f"{opts.manifold_dim}-parameter family (reported from theory, "
                "not numerically verified)",
            )
        )

    return certificate(
        verdict, f2_ok=True, f3_ok=f3_ok, lambda0=lambda0, rank_plus=rank_plus,
        rank_minus=rank_minus, index_class=index_class, f3_verdicts=f3_verdicts,
    )


# ---------------------------------------------------------------------------
# localization


def _seed_sequences(plus: list, minus: list, image_coords, kernel_coords, window) -> np.ndarray:
    """Near-kernel seeds (seeds, w, d) marched stably in their family frames, sup-normalized.

    Seed i starts from `image_coords[i]` in the image frame at 0 of
    `plus[i]` and from `kernel_coords[i]` in the kernel frame at 0 of
    `minus[i]`; the families come from one batch, so they share their
    times.  The forward-decaying part is transported by the image
    transition factors of the plus family and the backward-decaying part
    by solving the kernel transition factors of the minus family
    backward, so both marches contract their rounding errors.  Every
    seed takes the same loop over times, with one stacked product or
    solve per step, which gives each seed the bits it gets alone.
    """
    lo, hi = window
    first, zero = minus[0].index_of(lo), minus[0].index_of(0)
    vals = np.empty((len(plus), hi - lo + 1, plus[0].dim))
    c = np.asarray(image_coords, dtype=float)[..., None]
    frames = np.stack([fam.image_frames[: hi + 1] for fam in plus])  # the plus family starts at 0
    steps = np.stack([fam.image_steps[:hi] for fam in plus])
    for i in range(hi + 1):
        vals[:, i - lo] = (frames[:, i] @ c)[..., 0]
        if i < hi:
            c = steps[:, i] @ c
    k = np.asarray(kernel_coords, dtype=float)[..., None]
    frames = np.stack([fam.kernel_frames[first:zero] for fam in minus])
    steps = np.stack([fam.kernel_steps[first:zero] for fam in minus])
    for i in range(zero - first - 1, -1, -1):
        k = np.linalg.solve(steps[:, i], k)
        vals[:, i] = (frames[:, i] @ k)[..., 0]
    top = np.abs(vals).max(axis=(1, 2))
    return vals / np.where(top > 0.0, top, 1.0)[:, None, None]


#: errors that end one Gauss-Newton run quietly
_RUN_ERRORS = (NumericError, InputError, np.linalg.LinAlgError, FloatingPointError)


def _by_run(fn, runs: np.ndarray, shape: tuple, *rows):
    """`fn(runs, *rows)` for a lockstep batch of runs, and the mask of runs it failed.

    `rows` are arrays aligned with `runs`.  When the batch call raises
    one of `_RUN_ERRORS`, every run is called alone, so an error ends
    only the runs whose own call raises; their output rows, of `shape`
    each, are NaN.
    """
    try:
        return fn(runs, *rows), np.zeros(len(runs), dtype=bool)
    except _RUN_ERRORS:
        pass
    out = np.full((len(runs),) + shape, np.nan)
    failed = np.zeros(len(runs), dtype=bool)
    for i in range(len(runs)):
        try:
            out[i] = fn(runs[i : i + 1], *(a[i : i + 1] for a in rows))[0]
        except _RUN_ERRORS as exc:
            _LOG.debug("Gauss-Newton run %d aborted (%s)", int(runs[i]), exc)
            failed[i] = True
    return out, failed


def _gauss_newton(f, lams, x0, window, p_lo, q_hi) -> list:
    """Damped Gauss-Newton runs in lockstep; each run's solution values or None.

    Run i starts from x0[i] (w, d) at parameter sample lams[i].  Its
    residual stacks, in the row order of
    `fredholm.section_least_squares`, the decay boundary row P-(lo)
    phi(lo) (p_lo[i]), the recursion defects phi(n+1) - f(lam, n,
    phi(n)) and (I - P+(hi)) phi(hi) (q_hi[i]), with the projectors
    taken from the frozen linearization families.  Each step is that
    solver's least-squares direction from the block factor of the
    Jacobian: the minimum-norm step, tapered below 1e-10 times the
    Jacobian's scale and with the directions below 1e-8 times it
    removed, so at a bifurcation no step slides along the kernel.
    Each iteration evaluates the derivatives of every active run in one
    stacked call, each run's sample on the leading axis, and factors
    them all at once; every backtracking round evaluates the residuals
    of the runs still searching in one call.  A run keeps its own
    Armijo step fraction on the squared norm, trust check and stall rule,
    so it takes the steps it would take alone.  Stalls, blowups and
    evaluations that raise or go non-finite end a run quietly and alone.
    """
    lo, hi = window
    w, d = hi - lo + 1, f.dim
    times = np.arange(lo, hi)
    lams = np.asarray(lams)

    def residual(runs, x):
        rows = np.empty((len(runs), w + 1, d))
        rows[:, 0] = (p_lo[runs] @ x[:, 0, :, None])[..., 0]
        rows[:, 1:w] = x[:, 1:] - f.value(lams[runs], times, x[:, :-1])
        rows[:, w] = (q_hi[runs] @ x[:, -1, :, None])[..., 0]
        return rows

    def direction(runs, x, r):
        jac = _derivatives(f, lams[runs], times, x[:, :-1])
        return section_least_squares(-jac, p_lo[runs], q_hi[runs], -r)

    def sup(a):
        return np.abs(a).max(axis=(1, 2))

    def squares(a):
        flat = a.reshape(len(a), -1)
        return (flat * flat).sum(axis=1)

    x = np.array(x0, dtype=float)
    with np.errstate(all="ignore"):
        r, dead = _by_run(residual, np.arange(len(x)), (w + 1, d), x)
        for _ in range(NEWTON_MAX_ITER):
            runs = np.flatnonzero(~dead & (sup(r) > NEWTON_TOL))
            if not runs.size:
                break
            step, failed = _by_run(direction, runs, (w, d), x[runs], r[runs])
            dead[runs[failed]] = True
            runs, step = runs[~failed], step[~failed]
            base_sq = squares(r[runs])
            t = np.ones(len(runs))
            while runs.size:
                cand = x[runs] + t[:, None, None] * step
                searching = np.ones(len(runs), dtype=bool)
                inside = np.flatnonzero(sup(cand) <= 100.0 * f.r0)
                if inside.size:
                    r_cand, failed = _by_run(residual, runs[inside], (w + 1, d), cand[inside])
                    dead[runs[inside[failed]]] = True
                    armijo = (1.0 - ARMIJO * t[inside]) * base_sq[inside]
                    ok = ~failed & (squares(r_cand) <= armijo)
                    done = inside[ok]
                    x[runs[done]], r[runs[done]] = cand[done], r_cand[ok]
                    searching[inside[failed | ok]] = False
                t *= BACKTRACK
                stalled = searching & (t < MIN_STEP)
                for run in runs[stalled].tolist():
                    _LOG.debug("parameter sample %d: Gauss-Newton stalled", lams[run])
                dead[runs[stalled]] = True
                keep = searching & ~stalled
                runs, step, t, base_sq = runs[keep], step[keep], t[keep], base_sq[keep]
    accepted = ~dead & (sup(r) <= ACCEPT_RESIDUAL)
    return [x[i] if ok else None for i, ok in enumerate(accepted.tolist())]


def localize_bifurcations(
    f: NonlinearField,
    certificate: BifurcationCertificate,
    window: tuple[int, int] = (-30, 30),
    horizon: int = 40,
    decay_tol: float = DECAY_TOL,
    warnings: list | None = None,
    **tolerances,
) -> list[tuple[int, FiniteWindowSequence]]:
    """Hunt nonzero bounded solutions near the linearization's near-kernels.

    For every parameter sample the half-line projector families of the
    linearization are anchored at zero; samples whose forward- and
    backward-decaying subspaces meet at a principal cosine of at least
    `SEED_COSINE` produce near-kernel seed sequences, which are scaled
    by `SEED_SCALES * r0`.  Every (sample, cosine, scale) seed is then
    polished by damped Gauss-Newton on the boundary-conditioned
    residual (the `NEWTON_*`, `ARMIJO`, `BACKTRACK` and `MIN_STEP`
    constants), all runs in one lockstep batch (`_gauss_newton`).  Per
    sample, in (cosine, scale) order, a candidate is kept when its
    residual sup-norm is at most `ACCEPT_RESIDUAL`, its sup-norm lies
    strictly between 10 * decay_tol (nontriviality) and r0 (the trust
    ball), and it differs by more than 1e-8 from every candidate kept
    before it.  Failing families and divergent Newton runs are logged
    and skipped; localization never raises for them.

    Returns (parameter index, solution sequence) pairs ordered by
    parameter index and solution size.  `f` may be the certified
    system on a refined loop (its `refiner` hook), and the returned
    indices refer to its loop.  The families of all samples are the
    certificate's when they were built for `f` and reach `window` with
    this horizon and `tolerances`, else one batch of both sides.  A
    localization that keeps nothing appends to `warnings`, when given,
    a line naming the window, the Gauss-Newton runs and their fates.
    """
    if not isinstance(certificate, BifurcationCertificate):
        raise InputError(
            "localization requires the certificate produced by certify_bifurcation"
        )
    lo, hi = int(window[0]), int(window[1])
    if not (lo < 0 < hi):
        raise InputError("the localization window must straddle time zero")
    if f.loop is None:
        raise InputError("localization scans a parameter loop; the field has none")
    lams = range(f.n_params)
    kept = certificate.families
    if (
        kept is not None
        and kept.source is f
        and (len(kept.plus), kept.horizon, kept.tolerances) == (f.n_params, horizon, tolerances)
        and kept.window[0] <= lo < hi <= kept.window[1]
    ):
        plus, minus = kept.plus, kept.minus
    else:
        lin = linearize_at_zero(f)
        plus, minus = whole_line_families(lin, lams, (lo, hi), horizon, **tolerances)
    good = []
    for lam, fam_plus, fam_minus in zip(lams, plus, minus):
        failure = next((o for o in (fam_plus, fam_minus) if isinstance(o, HomindexError)), None)
        if failure is None:
            good.append(lam)
        elif isinstance(failure, (CertificationError, NumericError)):
            _LOG.info("parameter sample %d skipped: %s", lam, failure)
        else:
            raise fresh(failure)
    runs = []  # (sample, start, P-(lo), I - P+(hi)) in (sample, cosine, scale) order
    if good:
        good_plus, good_minus = [plus[lam] for lam in good], [minus[lam] for lam in good]
        p_lo = _projectors_at(good_minus, lo)
        q_hi = np.eye(f.dim) - _projectors_at(good_plus, hi)
        for lam, p, q, bases in zip(good, p_lo, q_hi, _seeds(good_plus, good_minus, (lo, hi))):
            for base in bases:
                runs += [(lam, base * (scale * f.r0), p, q) for scale in SEED_SCALES]
    solutions = []
    if runs:
        samples, starts, p_lo, q_hi = (np.array(column) for column in zip(*runs))
        solutions = _gauss_newton(f, samples, starts, (lo, hi), p_lo, q_hi)
    found: list[tuple[int, FiniteWindowSequence]] = []
    trivial = outside = 0
    for lam, group in itertools.groupby(zip([r[0] for r in runs], solutions), key=lambda r: r[0]):
        accepted: list[np.ndarray] = []
        for _, candidate in group:
            if candidate is None:
                continue
            size = float(np.abs(candidate).max())
            if not (10.0 * decay_tol < size < f.r0):
                _LOG.debug("parameter sample %d: candidate rejected (sup %.3e)", lam, size)
                outside += int(size >= f.r0)
                trivial += int(size < f.r0)
                continue
            if any(float(np.abs(candidate - prev).max()) <= 1e-8 for prev in accepted):
                continue
            accepted.append(candidate)
        accepted.sort(key=lambda a: float(np.abs(a).max()))
        found += [
            (lam, FiniteWindowSequence.tabulate((lo, hi), a, decay_tol=decay_tol))
            for a in accepted
        ]
    if not found and warnings is not None:
        lost = sum(candidate is None for candidate in solutions)
        warnings.append(
            f"localization on [{lo}, {hi}] kept no candidate: of {len(runs)} Gauss-Newton "
            f"runs, {lost} diverged or stalled, {trivial} converged to a sequence of "
            f"sup-norm at most {10.0 * decay_tol:.1e} (trivial) and {outside} to one of "
            f"sup-norm at least r0 = {f.r0:g} (outside the trust ball)"
        )
    return found


def _seeds(plus: list, minus: list, window) -> list:
    """Each sample's near-kernel seed sequences, one per principal cosine >= `SEED_COSINE`.

    `plus[i]` and `minus[i]` are sample i's families, from one batch.
    The overlaps of the image and kernel frames at 0 take one stacked
    SVD per pair of ranks, and the seeds of all samples of those ranks
    one march (`_seed_sequences`).
    """
    out: list = [[] for _ in plus]
    groups: dict[tuple, list[int]] = {}
    for i, (fam_plus, fam_minus) in enumerate(zip(plus, minus)):
        groups.setdefault((fam_plus.rank, fam_minus.rank), []).append(i)
    for members in groups.values():
        overlaps = np.stack(
            [plus[i].image_frames[0].T @ minus[i].kernel_frames[minus[i].index_of(0)] for i in members]
        )
        if overlaps.size == 0:
            continue
        u, cosines, vt = np.linalg.svd(overlaps)
        rows, cols = np.nonzero(cosines >= SEED_COSINE)
        if rows.size:
            seeded = [members[j] for j in rows.tolist()]
            bases = _seed_sequences(
                [plus[i] for i in seeded], [minus[i] for i in seeded],
                u[rows, :, cols], vt[rows, cols], window,
            )
            for i, base in zip(seeded, bases):
                out[i].append(base)
    return out
