"""Spans around homindex's public functions, recorded from outside.

`Tracer.install` rebinds each traced function in every homindex module
that holds it (``build_projector_family`` lives in ``dichotomy`` and is
imported by ``cli``, ``bundle`` and ``bifurcation``), and wraps the
``numpy.linalg`` entry points so that each call is counted on the
innermost open span.  Spans stay in memory; `uninstall` restores every
original binding.  Nothing under ``src/`` is edited.

`layer_metrics` turns the spans of one pass into the per-layer figures.
A span's self time is its duration minus the time its child spans
cover; every per-layer ``_s`` figure is a self time.
"""

from __future__ import annotations

import gzip
import importlib
import inspect
import sys
import time
from collections import Counter

import numpy.linalg

LAYERS = ("cli", "scenario", "field", "dichotomy", "fredholm", "bundle", "bifurcation")
LINALG = ("qr", "svd", "lstsq", "solve", "inv", "det", "eig", "eigvals", "norm", "cond")

#: ``numpy.linalg.svd`` calls with at least this many columns count as dense
DENSE_SVD_COLUMNS = 64


def traced_functions():
    """(span name, owner, attribute) for every function the trace wraps.

    Methods are wrapped on their class, module functions on their module
    and on every module that imported them.
    """
    hx = {name: importlib.import_module(f"homindex.{name}") for name in LAYERS}
    sc, bif = hx["scenario"].Scenario, hx["bifurcation"]
    return [
        ("cli.run", hx["cli"], "run"),
        ("scenario.load", sc, "load"),
        ("scenario.from_dict", sc, "from_dict"),
        ("scenario.build_field", sc, "build_field"),
        ("scenario.build_nonlinear", sc, "build_nonlinear"),
        ("field.matrix", hx["field"].DiscreteVectorField, "matrix"),
        ("field.value", bif.NonlinearField, "value"),
        ("dichotomy.build_projector_family", hx["dichotomy"], "build_projector_family"),
        ("dichotomy.verify_ed", hx["dichotomy"], "verify_ed"),
        ("dichotomy.dichotomy_spectrum", hx["dichotomy"], "dichotomy_spectrum"),
        ("fredholm.kernel_cokernel", hx["fredholm"], "kernel_cokernel"),
        ("fredholm.green_solve", hx["fredholm"], "green_solve"),
        ("fredholm.assemble_truncated", hx["fredholm"], "assemble_truncated"),
        ("bundle.bundle_from_projectors", hx["bundle"], "bundle_from_projectors"),
        ("bundle.first_sw_class", hx["bundle"], "first_sw_class"),
        ("bifurcation.certify_bifurcation", bif, "certify_bifurcation"),
        ("bifurcation.linearize_at_zero", bif, "linearize_at_zero"),
        ("bifurcation.check_F3", bif, "check_F3"),
        ("bifurcation.localize_bifurcations", bif, "localize_bifurcations"),
    ]


class Span:
    __slots__ = ("name", "start", "end", "parent", "invocation", "calls", "note")

    def __init__(self, name, start, end, parent, invocation, calls=None, note=None):
        self.name = name
        self.start = start
        self.end = end
        self.parent = parent  # index of the enclosing span, -1 at the root
        self.invocation = invocation  # command-invocation id
        self.calls = calls  # Counter of numpy.linalg calls made directly under this span
        self.note = note  # facts read from arguments or results


def _family_note(signature):
    def note(args, kwargs, result):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        a = bound.arguments
        key = (a["lam"], a["side"], a["anchor"], a["length"], a["horizon"])
        key += tuple(a[k] for k in ("tau_proj", "tau_inv", "sigma_reg", "zero_margin", "gap_ratio"))
        return {"key": key}

    return note


_NOTES = {
    "dichotomy.dichotomy_spectrum": lambda a, k, r: {"probes": 0 if r is None else r.n_probes},
    "bifurcation.check_F3": lambda a, k, r: {"verdict": "raised" if r is None else r.verdict},
    "bifurcation.localize_bifurcations": lambda a, k, r: {"candidates": 0 if r is None else len(r)},
}


def svd_flop(shape, compute_uv: bool, full_matrices: bool) -> float:
    """Golub-Reinsch SVD flop count for a (batch of) m x n matrices.

    From Golub & Van Loan, Matrix Computations, 4th ed., Fig. 8.6.1,
    with m >= n after transposition: 4mn^2 - 4n^3/3 for values only,
    14mn^2 + 8n^3 with thin U and V, 4m^2n + 8mn^2 + 9n^3 with full U.
    """
    m, n = max(shape[-2:]), min(shape[-2:])
    batch = 1
    for s in shape[:-2]:
        batch *= s
    if not compute_uv:
        flop = 4 * m * n * n - 4 * n**3 / 3
    elif full_matrices:
        flop = 4 * m * m * n + 8 * m * n * n + 9 * n**3
    else:
        flop = 14 * m * n * n + 8 * n**3
    return float(batch * flop)


class Tracer:
    """In-memory span recorder wired into homindex by rebinding names."""

    def __init__(self):
        self.spans: list[Span] = []
        self.invocation = -1
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def wrap(self, name, fn, note=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            span = Span(name, 0.0, 0.0, stack[-1] if stack else -1, self.invocation)
            stack.append(len(spans))
            spans.append(span)
            result = None
            span.start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                span.end = clock()
                stack.pop()
                if note is not None:
                    span.note = note(args, kwargs, result)

        traced.__wrapped__ = fn
        return traced

    def count(self, name, fn):
        spans, stack = self.spans, self._stack

        def counted(*args, **kwargs):
            if stack:
                span = spans[stack[-1]]
                if span.calls is None:
                    span.calls = Counter()
                span.calls[name] += 1
                if name == "svd":
                    shape = getattr(args[0], "shape", ())
                    if len(shape) >= 2 and shape[-1] >= DENSE_SVD_COLUMNS:
                        span.calls["svd_dense"] += 1
                        span.calls["svd_dense_flop"] += svd_flop(
                            shape,
                            kwargs.get("compute_uv", True),
                            kwargs.get("full_matrices", True),
                        )
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    # -- wiring ------------------------------------------------------------

    def _set(self, owner, attr, value):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Rebind the traced functions in every homindex module and wrap numpy.linalg."""
        functions = traced_functions()
        modules = [m for k, m in sorted(sys.modules.items()) if k.startswith("homindex")]
        for name, owner, attr in functions:
            original = owner.__dict__[attr]
            is_classmethod = isinstance(original, classmethod)
            fn = original.__func__ if is_classmethod else original
            note = _NOTES.get(name)
            if name == "dichotomy.build_projector_family":
                note = _family_note(inspect.signature(fn))
            wrapped = self.wrap(name, fn, note)
            self._set(owner, attr, classmethod(wrapped) if is_classmethod else wrapped)
            if isinstance(owner, type):
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original and (mod, key) != (owner, attr):
                        self._set(mod, key, wrapped)
        for name in LINALG:
            self._set(numpy.linalg, name, self.count(name, getattr(numpy.linalg, name)))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def write(self, path) -> None:
        """Spans as tab-separated lines: name, start, end, parent, invocation, calls."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("name\tstart\tend\tparent\tinvocation\tlinalg_calls\n")
            for s in self.spans:
                calls = ",".join(f"{k}={v:g}" for k, v in sorted((s.calls or {}).items()))
                fh.write(f"{s.name}\t{s.start!r}\t{s.end!r}\t{s.parent}\t{s.invocation}\t{calls}\n")


# ---------------------------------------------------------------------------
# span arithmetic


def self_times(spans, first: int = 0, last: int | None = None) -> list[float]:
    """Self time of spans[first:last]: duration minus what child spans cover.

    Children of one span never overlap (a single thread records them),
    so the covered time is the sum of the children's durations.
    """
    last = len(spans) if last is None else last
    out = [s.end - s.start for s in spans[first:last]]
    for s in spans[first:last]:
        if s.parent >= first:
            out[s.parent - first] -= s.end - s.start
    return out


def _under(spans, i: int, name: str, first: int) -> bool:
    while i >= first:
        if spans[i].name == name:
            return True
        i = spans[i].parent
    return False


def layer_metrics(spans, first: int, last: int) -> dict[str, float]:
    """Per-layer figures of the spans recorded for one pass."""
    self_s = self_times(spans, first, last)
    count, seconds = Counter(), Counter()
    qr_in_dichotomy = newton_steps = dense_svd = dense_flop = 0
    probes = candidates = f3_indeterminate = 0
    family_keys = set()
    for offset, s in enumerate(spans[first:last]):
        i = first + offset
        count[s.name] += 1
        seconds[s.name] += self_s[offset]
        calls = s.calls or {}
        if s.name.startswith("dichotomy."):
            qr_in_dichotomy += calls.get("qr", 0)
        if calls.get("lstsq") and _under(spans, i, "bifurcation.localize_bifurcations", first):
            newton_steps += calls["lstsq"]
        dense_svd += calls.get("svd_dense", 0)
        dense_flop += calls.get("svd_dense_flop", 0.0)
        note = s.note or {}
        if s.name == "dichotomy.build_projector_family":
            family_keys.add((s.invocation, note.get("key")))
        probes += note.get("probes", 0)
        candidates += note.get("candidates", 0)
        f3_indeterminate += note.get("verdict") in ("indeterminate", "raised")
    builds = count["dichotomy.build_projector_family"]
    return {
        "cli.self_s": seconds["cli.run"],
        "scenario.load_s": seconds["scenario.load"] + seconds["scenario.from_dict"],
        "scenario.build_s": seconds["scenario.build_field"] + seconds["scenario.build_nonlinear"],
        "field.matrix_calls": count["field.matrix"],
        "field.matrix_s": seconds["field.matrix"],
        "field.value_calls": count["field.value"],
        "field.value_s": seconds["field.value"],
        "dichotomy.family_builds": builds,
        "dichotomy.family_distinct": len(family_keys),
        "dichotomy.family_reuse_ratio": len(family_keys) / builds if builds else 0.0,
        "dichotomy.family_s": seconds["dichotomy.build_projector_family"],
        "dichotomy.qr_calls": qr_in_dichotomy,
        "dichotomy.verify_ed_calls": count["dichotomy.verify_ed"],
        "dichotomy.verify_ed_s": seconds["dichotomy.verify_ed"],
        "dichotomy.spectrum_s": seconds["dichotomy.dichotomy_spectrum"],
        "dichotomy.spectrum_probes": probes,
        "fredholm.kernel_cokernel_calls": count["fredholm.kernel_cokernel"],
        "fredholm.kernel_cokernel_s": seconds["fredholm.kernel_cokernel"],
        "fredholm.assemble_truncated_s": seconds["fredholm.assemble_truncated"],
        "fredholm.dense_svd_calls": dense_svd,
        "fredholm.dense_svd_gflop": dense_flop / 1e9,
        "fredholm.green_solve_calls": count["fredholm.green_solve"],
        "fredholm.green_solve_s": seconds["fredholm.green_solve"],
        "bundle.from_projectors_s": seconds["bundle.bundle_from_projectors"],
        "bundle.w1_s": seconds["bundle.first_sw_class"],
        "bifurcation.hypotheses_s": seconds["bifurcation.certify_bifurcation"],
        "bifurcation.linearize_s": seconds["bifurcation.linearize_at_zero"],
        "bifurcation.f3_checks": count["bifurcation.check_F3"],
        "bifurcation.f3_s": seconds["bifurcation.check_F3"],
        "bifurcation.f3_indeterminate": f3_indeterminate,
        "bifurcation.localize_s": seconds["bifurcation.localize_bifurcations"],
        "bifurcation.newton_steps": newton_steps,
        "bifurcation.candidates": candidates,
        "bifurcation.candidates_per_newton_step": (
            candidates / newton_steps if newton_steps else 0.0
        ),
    }
