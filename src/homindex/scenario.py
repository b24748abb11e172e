"""Scenario documents: self-contained descriptions of an analysis run.

A scenario is a JSON object with an explicit ``schema_version`` that
declares the field (a builtin construction, a dense matrix table or a
nonlinear system with a residual choice), the parameter loop, the
analysis windows, horizons and tolerances, and per-command options.
Loading materializes every default, so the scenario echoed into a
report is complete and reruns byte-identically.  A small catalog of
builtin scenarios is addressable by name.

Each command reads only some of the tolerances.  ``spectrum`` reads
``zero_margin`` and ``gap_ratio``.  ``projectors``, ``index`` and
``class`` read the four family tolerances ``tau_inv``, ``sigma_reg``,
``zero_margin`` and ``gap_ratio`` (``index`` also separates its
singular-value groups with ``gap_ratio``).  ``certify`` reads the
four for its F2, F3 and localization families (and ``gap_ratio`` for
its F3 kernel counts) and ``decay_tol``, and ``solve`` reads the four
and ``decay_tol``, and refuses (exit 4) a solution whose defect sup
|L phi - psi| exceeds ``solve_tol``.  ``realize`` only echoes them.
"""

from __future__ import annotations

import copy
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .bifurcation import NonlinearField, PerturbedSystemSpec, linearize_at_zero
from .bundle import _anchor_window
from .dichotomy import (
    GAP_RATIO,
    MIN_FIT_STEPS,
    SIGMA_REG,
    TAU_INV,
    ZERO_MARGIN,
    family_run,
)
from .errors import InputError
from .field import (
    _WIDE_WINDOW,
    MIN_CONTRACTION,
    DiscreteVectorField,
    ParameterLoop,
    SampledBundle,
    autonomous_field,
    direct_sum,
    mobius_bundle,
    realization_field,
    tabulated_field,
    trivial_bundle,
)
from .fredholm import DECAY_TOL, SOLVE_TOL

__all__ = [
    "SCHEMA_VERSION",
    "Scenario",
    "builtin_names",
    "builtin_document",
]

SCHEMA_VERSION = 1

_TOP_DEFAULTS = {
    "name": "unnamed",
    "seed": 0,
    "loop": None,
    "window": [-100, 100],
    "horizon": 40,
}

_TOLERANCE_DEFAULTS = {
    "tau_inv": TAU_INV,
    "sigma_reg": SIGMA_REG,
    "zero_margin": ZERO_MARGIN,
    "gap_ratio": GAP_RATIO,
    "decay_tol": DECAY_TOL,
    "solve_tol": SOLVE_TOL,
}

_OPTION_DEFAULTS = {
    "lambdas": None,
    "gamma_min": 0.05,
    "gamma_max": 20.0,
    "grid": 64,
    "side": "plus",
    "anchor": 0,
    "length": 20,
    "index_window": [-30, 30],
    "anchor_plus": 8,
    "anchor_minus": -8,
    "f3_window": [-30, 30],
    "manifold_dim": None,
    "localize": False,
    "localize_window": [-30, 30],
    "grid_refinement": 1,
    "solve": {
        "lambda": 0,
        "side": "plus",
        "anchor": 0,
        "length": 30,
        "rhs": {"kind": "seeded_random", "count": 3},
    },
}

_FIELD_KINDS = ("autonomous", "tabulated", "realization", "system2")
_BUNDLE_KINDS = ("mobius", "trivial", "mobius_sum")
_RESIDUAL_KINDS = ("none", "quadratic_decaying")


def _fail(path: str, message: str):
    raise InputError(f"scenario field '{path}': {message}")


def _expect_int(value, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        _fail(path, f"expected an integer, got {value!r}")
    return int(value)


def _is_number(value) -> bool:
    """A finite real number: an int or a float, not a bool or a string."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an integer beyond the float range
        return False


def _expect_number(value, path: str) -> float:
    if not _is_number(value):
        _fail(path, f"expected a finite number, got {value!r}")
    return float(value)


def _expect_window(value, path: str) -> list:
    if (
        not isinstance(value, (list, tuple))
        or len(value) != 2
        or any(isinstance(v, bool) or not isinstance(v, int) for v in value)
    ):
        _fail(path, f"expected a pair of integers [lo, hi], got {value!r}")
    if value[0] >= value[1]:
        _fail(path, f"window [{value[0]}, {value[1]}] is empty")
    return [int(value[0]), int(value[1])]


#: object-valued defaults whose field also takes another form, validated later
_OBJECT_OR_OTHER = ("options.solve.rhs",)


def _merge_defaults(given: dict, defaults: dict, path: str) -> dict:
    """`given` over a deep copy of `defaults`, recursing into object-valued defaults.

    A field whose default is an object must be an object, unless it is
    one of `_OBJECT_OR_OTHER`.
    """
    out = copy.deepcopy(defaults)
    for key, value in given.items():
        where = f"{path}.{key}" if path else key
        if key not in defaults:
            _fail(where, "unknown field")
        if isinstance(defaults[key], dict) and isinstance(value, dict):
            out[key] = _merge_defaults(value, defaults[key], where)
        elif isinstance(defaults[key], dict) and where not in _OBJECT_OR_OTHER:
            _fail(where, "expected an object")
        else:
            out[key] = copy.deepcopy(value)
    return out


def _validate_bundle_spec(spec, dimension: int, path: str) -> dict:
    if not isinstance(spec, dict) or "kind" not in spec:
        _fail(path, "expected an object with a 'kind'")
    kind = spec["kind"]
    if kind not in _BUNDLE_KINDS:
        _fail(f"{path}.kind", f"unknown bundle kind {kind!r}; expected one of {_BUNDLE_KINDS}")
    out = {"kind": kind}
    if kind == "mobius":
        if dimension != 2:
            _fail(path, "the Moebius bundle lives in dimension 2")
    elif kind == "trivial":
        rank = _expect_int(spec.get("rank", 1), f"{path}.rank")
        if not (1 <= rank <= dimension):
            _fail(f"{path}.rank", f"rank {rank} must lie in 1..{dimension}")
        out["rank"] = rank
    else:  # mobius_sum
        copies = _expect_int(spec.get("copies", 2), f"{path}.copies")
        if copies < 1:
            _fail(f"{path}.copies", "needs at least one copy")
        if dimension != 2 * copies:
            _fail(path, f"{copies} Moebius copies live in dimension {2 * copies}, not {dimension}")
        out["copies"] = copies
    extra = set(spec) - set(out)
    if extra:
        _fail(f"{path}.{sorted(extra)[0]}", "unknown field")
    return out


def _validate_field_spec(spec, dimension: int, loop_spec, path: str = "field") -> dict:
    if not isinstance(spec, dict) or "kind" not in spec:
        _fail(path, "expected an object with a 'kind'")
    kind = spec["kind"]
    if kind not in _FIELD_KINDS:
        _fail(f"{path}.kind", f"unknown builtin {kind!r}; expected one of {_FIELD_KINDS}")
    out = {"kind": kind}
    if kind == "autonomous":
        matrix = spec.get("matrix")
        if not isinstance(matrix, (list, tuple)) or len(matrix) != dimension:
            _fail(f"{path}.matrix", f"expected a finite {dimension}x{dimension} matrix")
        for i, row in enumerate(matrix):
            if not isinstance(row, (list, tuple)) or len(row) != dimension:
                _fail(f"{path}.matrix[{i}]", f"expected a row of {dimension} finite numbers")
        out["matrix"] = [
            [_expect_number(x, f"{path}.matrix[{i}][{j}]") for j, x in enumerate(row)]
            for i, row in enumerate(matrix)
        ]
    elif kind == "tabulated":
        window = _expect_window(spec.get("window"), f"{path}.window")
        shape = spec.get("shape")
        if not isinstance(shape, (list, tuple)) or len(shape) != 3:
            _fail(f"{path}.shape", "expected [n_params, n_times, dim]")
        n_params, n_times, d = (_expect_int(s, f"{path}.shape") for s in shape)
        if d != dimension:
            _fail(f"{path}.shape", f"declared dim {d} != scenario dimension {dimension}")
        if n_times != window[1] - window[0] + 1:
            _fail(f"{path}.shape", f"{n_times} times do not tile the window {window}")
        loop_n = loop_spec["n"] if loop_spec is not None else 1
        if n_params != loop_n:
            _fail(f"{path}.shape", f"{n_params} parameter slices but the loop has {loop_n} samples")
        values = spec.get("values")
        if not isinstance(values, list) or len(values) != n_params * n_times * d * d:
            _fail(
                f"{path}.values",
                f"expected a flat row-major list of {n_params * n_times * d * d} numbers",
            )
        values = [_expect_number(x, f"{path}.values[{k}]") for k, x in enumerate(values)]
        out.update(window=window, shape=[n_params, n_times, d], values=values)
    else:  # realization or system2
        if loop_spec is None:
            _fail(path, f"a {kind!r} field needs a parameter loop")
        out["stable_ahead"] = _validate_bundle_spec(
            spec.get("stable_ahead"), dimension, f"{path}.stable_ahead"
        )
        out["stable_behind"] = _validate_bundle_spec(
            spec.get("stable_behind"), dimension, f"{path}.stable_behind"
        )
        q = spec.get("q", 0.5)
        out["q"] = _expect_number(q, f"{path}.q")
        if not 0.0 < out["q"] < 1.0:
            _fail(f"{path}.q", f"contraction factor must lie in (0, 1), got {q!r}")
        if out["q"] < MIN_CONTRACTION:
            _fail(
                f"{path}.q",
                f"contraction factor {q!r} is below {MIN_CONTRACTION:.1e}, where the "
                "rounding of (1/q)(I - Pi) swamps the stable eigenvalue q",
            )
        out["kappa_plus"] = _expect_int(spec.get("kappa_plus", 8), f"{path}.kappa_plus")
        out["kappa_minus"] = _expect_int(spec.get("kappa_minus", -8), f"{path}.kappa_minus")
        if not (out["kappa_minus"] < 0 < out["kappa_plus"]):
            _fail(path, "need kappa_minus < 0 < kappa_plus")
        if kind == "system2":
            residual = spec.get("residual", {"kind": "none"})
            if not isinstance(residual, dict) or residual.get("kind") not in _RESIDUAL_KINDS:
                _fail(
                    f"{path}.residual.kind",
                    f"unknown residual; expected one of {_RESIDUAL_KINDS}",
                )
            res_out = {"kind": residual["kind"]}
            if residual["kind"] == "quadratic_decaying":
                if dimension != 2:
                    _fail(f"{path}.residual", "the quadratic decaying residual needs dimension 2")
                res_out["amplitude"] = _expect_number(
                    residual.get("amplitude", 1.0), f"{path}.residual.amplitude"
                )
            out["residual"] = res_out
            r0 = spec.get("r0", 1.0)
            out["r0"] = _expect_number(r0, f"{path}.r0")
            if not out["r0"] > 0.0:
                _fail(f"{path}.r0", f"trust radius must be positive, got {r0!r}")
    extra = set(spec) - set(out)
    if extra:
        _fail(f"{path}.{sorted(extra)[0]}", "unknown field")
    return out


def _forcing_window(solve: dict) -> tuple[int, int]:
    """Times the half-line Green solve can be forced at."""
    anchor, length = solve["anchor"], solve["length"]
    if solve["side"] == "plus":
        return anchor, anchor + length - 1
    return anchor - length, anchor - 1


def _validate_rhs(solve: dict, dimension: int) -> None:
    path = "options.solve.rhs"
    spec = solve["rhs"]
    if isinstance(spec, dict) and spec.get("kind") == "seeded_random":
        if _expect_int(spec["count"], f"{path}.count") < 1:
            _fail(f"{path}.count", "needs at least 1")
        return
    if not isinstance(spec, list):
        _fail(path, "expected a list of impulses or {'kind': 'seeded_random', 'count': k}")
    lo, hi = _forcing_window(solve)
    for k, entry in enumerate(spec):
        where = f"{path}[{k}]"
        if not isinstance(entry, dict) or "at" not in entry or "value" not in entry:
            _fail(where, "expected {'at': time, 'value': vector}")
        extra = set(entry) - {"at", "value"}
        if extra:
            _fail(f"{where}.{sorted(extra)[0]}", "unknown field")
        at = _expect_int(entry["at"], f"{where}.at")
        if not (lo <= at <= hi):
            _fail(f"{where}.at", f"time {at} outside the forcing window [{lo}, {hi}]")
        value = entry["value"]
        numbers = isinstance(value, list) and all(map(_is_number, value))
        if not numbers or len(value) != dimension:
            _fail(f"{where}.value", f"expected a vector of {dimension} finite numbers")


def _materialize(raw) -> dict:
    if not isinstance(raw, dict):
        raise InputError("a scenario must be a JSON object")
    version = raw.get("schema_version")
    if version != SCHEMA_VERSION:
        _fail("schema_version", f"expected {SCHEMA_VERSION}, got {version!r}")
    known = {"schema_version", "dimension", "field", "tolerances", "options", *_TOP_DEFAULTS}
    for key in raw:
        if key not in known:
            _fail(key, "unknown field")
    out = {"schema_version": SCHEMA_VERSION}
    for key, default in _TOP_DEFAULTS.items():
        out[key] = copy.deepcopy(raw.get(key, default))
    if not isinstance(out["name"], str):
        _fail("name", f"expected a string, got {out['name']!r}")
    out["seed"] = _expect_int(out["seed"], "seed")
    if out["seed"] < 0:
        _fail("seed", "must be nonnegative")
    out["window"] = _expect_window(out["window"], "window")
    out["horizon"] = _expect_int(out["horizon"], "horizon")
    if out["horizon"] < 8:
        _fail("horizon", "rate estimation needs a horizon of at least 8 steps")

    loop_spec = out["loop"]
    if loop_spec is not None:
        if not isinstance(loop_spec, dict) or loop_spec.get("kind") != "circle":
            _fail("loop.kind", "the only supported loop kind is 'circle'")
        n = _expect_int(loop_spec.get("n", 16), "loop.n")
        if n < 8:
            _fail("loop.n", "the angular loop needs at least 8 samples")
        out["loop"] = {"kind": "circle", "n": n}

    if "dimension" not in raw:
        _fail("dimension", "required")
    dimension = _expect_int(raw["dimension"], "dimension")
    if dimension < 1:
        _fail("dimension", "must be at least 1")
    out["dimension"] = dimension

    out["field"] = _validate_field_spec(raw.get("field"), dimension, out["loop"])
    tolerances = raw.get("tolerances", {})
    if not isinstance(tolerances, dict):
        _fail("tolerances", "expected an object")
    out["tolerances"] = _merge_defaults(tolerances, _TOLERANCE_DEFAULTS, "tolerances")
    for key, value in out["tolerances"].items():
        value = out["tolerances"][key] = _expect_number(value, f"tolerances.{key}")
        # log(gap_ratio) is the rate-gap and singular-value-gap threshold;
        # every other tolerance is a small relative or absolute level
        if key == "gap_ratio" and not value > 1.0:
            _fail("tolerances.gap_ratio", f"must exceed 1, got {value!r}")
        if key != "gap_ratio" and not 0.0 < value < 1.0:
            _fail(f"tolerances.{key}", f"must lie in (0, 1), got {value!r}")
    options = raw.get("options", {})
    if not isinstance(options, dict):
        _fail("options", "expected an object")
    out["options"] = _merge_defaults(options, _OPTION_DEFAULTS, "options")

    n_params = out["loop"]["n"] if out["loop"] is not None else 1
    opts = out["options"]
    lambdas = opts["lambdas"]
    if lambdas is None:
        lambdas = list(range(n_params))
    if not isinstance(lambdas, list) or any(
        isinstance(v, bool) or not isinstance(v, int) for v in lambdas
    ):
        _fail("options.lambdas", "expected a list of parameter indices")
    if not lambdas:
        _fail("options.lambdas", "needs at least one parameter index")
    for v in lambdas:
        if not (0 <= v < n_params):
            _fail("options.lambdas", f"index {v} outside range({n_params})")
    opts["lambdas"] = [int(v) for v in lambdas]
    for key in ("index_window", "f3_window", "localize_window"):
        lo, hi = opts[key] = _expect_window(opts[key], f"options.{key}")
        if not lo < 0 < hi:
            _fail(f"options.{key}", f"window [{lo}, {hi}] must straddle time zero")
        if key != "localize_window" and min(-lo, hi) < MIN_FIT_STEPS:
            need = f"each half-line needs {MIN_FIT_STEPS} steps to fit dichotomy constants"
            _fail(f"options.{key}", f"window [{lo}, {hi}] is too short: {need}")
    for key in ("grid", "anchor", "length", "anchor_plus", "anchor_minus", "grid_refinement"):
        opts[key] = _expect_int(opts[key], f"options.{key}")
    if opts["anchor_minus"] >= 0:
        _fail("options.anchor_minus", f"must be negative, got {opts['anchor_minus']}")
    if opts["anchor_plus"] <= 0:
        _fail("options.anchor_plus", f"must be positive, got {opts['anchor_plus']}")
    for key in ("gamma_min", "gamma_max"):
        opts[key] = _expect_number(opts[key], f"options.{key}")
    if not (0.0 < opts["gamma_min"] < opts["gamma_max"]):
        _fail("options.gamma_min", "need 0 < gamma_min < gamma_max")
    if opts["grid"] < 16:
        _fail("options.grid", "the spectrum scan needs at least 16 gridpoints")
    if opts["side"] not in ("plus", "minus"):
        _fail("options.side", f"expected 'plus' or 'minus', got {opts['side']!r}")
    if opts["length"] < 2:
        _fail("options.length", "a projector family needs at least 2 steps")
    if opts["grid_refinement"] < 1:
        _fail("options.grid_refinement", "must be at least 1")
    if not isinstance(opts["localize"], bool):
        _fail("options.localize", f"expected true or false, got {opts['localize']!r}")
    if opts["manifold_dim"] is not None:
        opts["manifold_dim"] = _expect_int(opts["manifold_dim"], "options.manifold_dim")
    solve = opts["solve"]
    solve["lambda"] = _expect_int(solve["lambda"], "options.solve.lambda")
    if not (0 <= solve["lambda"] < n_params):
        _fail("options.solve.lambda", f"index {solve['lambda']} outside range({n_params})")
    solve["anchor"] = _expect_int(solve["anchor"], "options.solve.anchor")
    solve["length"] = _expect_int(solve["length"], "options.solve.length")
    if solve["length"] < 2:
        _fail("options.solve.length", "needs at least 2 steps")
    if solve["side"] not in ("plus", "minus"):
        _fail("options.solve.side", f"expected 'plus' or 'minus', got {solve['side']!r}")
    _validate_rhs(solve, dimension)
    return out


def _build_bundle(spec: dict, loop: ParameterLoop, dimension: int) -> SampledBundle:
    if spec["kind"] == "mobius":
        return mobius_bundle(loop)
    if spec["kind"] == "trivial":
        return trivial_bundle(loop, dimension, spec["rank"])
    out = mobius_bundle(loop)
    for _ in range(spec["copies"] - 1):
        out = direct_sum(out, mobius_bundle(loop))
    return out


def _quadratic_decaying(amplitude: float):
    """R(n, x) = amplitude e^{-|n|} (x0^2, x0 x1) and its fibre derivative.

    Both take (S, T, 2) stacks of states, for S samples at T times.
    """

    def residual(lams, times, x):
        w = amplitude * np.exp(-np.abs(times))
        return w[:, None] * np.stack([x[..., 0] ** 2, x[..., 0] * x[..., 1]], axis=-1)

    def derivative(lams, times, x):
        w = amplitude * np.exp(-np.abs(times))
        zero = np.zeros(x.shape[:-1])
        rows = [[2.0 * x[..., 0], zero], [x[..., 1], x[..., 0]]]
        return w[:, None, None] * np.moveaxis(np.array(rows), (0, 1), (-2, -1))

    return residual, derivative


@dataclass(frozen=True)
class Scenario:
    """A materialized scenario document with typed builders.

    `data` is the fully defaulted dict; `echo()` returns a deep copy
    for embedding into reports.  `build_field()` yields the linear
    field every linear command works on (for nonlinear systems this is
    the linearization along the trivial branch), `build_nonlinear()`
    the nonlinear system required by certification commands.
    """

    data: dict

    @classmethod
    def from_dict(cls, raw) -> "Scenario":
        return cls(data=_materialize(raw))

    @classmethod
    def load(cls, path) -> "Scenario":
        text = Path(path).read_text(encoding="utf-8")
        try:
            raw = json.loads(text)
        except json.JSONDecodeError as exc:
            raise InputError(
                f"malformed scenario {path}: {exc.msg} (line {exc.lineno}, column {exc.colno})"
            ) from exc
        return cls.from_dict(raw)

    @classmethod
    def builtin(cls, name: str) -> "Scenario":
        return cls.from_dict(builtin_document(name))

    def echo(self) -> dict:
        return copy.deepcopy(self.data)

    @property
    def name(self) -> str:
        return self.data["name"]

    @property
    def seed(self) -> int:
        return self.data["seed"]

    @property
    def dimension(self) -> int:
        return self.data["dimension"]

    @property
    def window(self) -> tuple[int, int]:
        return tuple(self.data["window"])

    @property
    def horizon(self) -> int:
        return self.data["horizon"]

    @property
    def options(self) -> dict:
        return self.data["options"]

    @property
    def tolerances(self) -> dict:
        return self.data["tolerances"]

    @property
    def forcing_window(self) -> tuple[int, int]:
        """Times `options.solve.rhs` may force: the solve's half-line window."""
        return _forcing_window(self.options["solve"])

    @property
    def field_kind(self) -> str:
        return self.data["field"]["kind"]

    def check_times(self, command: str) -> None:
        """Refuse, naming a scenario field, a command whose run leaves the field window.

        Each command reads the field at times that its options, the
        horizon and its windows decide, so a document stays valid for
        the commands whose times fit the field window.  The field named
        is the one with the largest part in the offending run's reach.
        """
        opts, horizon = self.options, self.horizon
        runs = []  # ((path, size) pairs that set a run, its first and last time)

        def family(side, anchor, length, anchor_path, length_path):
            sizes = ((anchor_path, abs(anchor)), (length_path, length), ("horizon", horizon))
            runs.append((sizes, family_run(side, anchor, length, horizon)))

        def whole_line(window, path, lo_path=None):
            family("plus", 0, window[1], path, path)
            family("minus", 0, -window[0], lo_path or path, lo_path or path)

        if command == "spectrum":
            whole_line((-horizon, horizon), "horizon")
        elif command == "projectors":
            family(opts["side"], opts["anchor"], opts["length"], "options.anchor", "options.length")
        elif command == "index":
            whole_line(opts["index_window"], "options.index_window")
        elif command in ("class", "certify"):
            # one batch anchored at 0 reaches both anchors, and certify's F3 window
            reach = tuple(opts["f3_window"]) if command == "certify" else (0, 0)
            lo, hi = _anchor_window(opts["anchor_plus"], opts["anchor_minus"], reach)
            lo_path = "options.f3_window" if lo == reach[0] else "options.anchor_minus"
            hi_path = "options.f3_window" if hi == reach[1] else "options.anchor_plus"
            whole_line((lo, hi), hi_path, lo_path)
            if command == "certify" and opts["localize"]:
                whole_line(opts["localize_window"], "options.localize_window")
        elif command == "solve":
            sol = opts["solve"]
            family(
                sol["side"], sol["anchor"], sol["length"],
                "options.solve.anchor", "options.solve.length",
            )
        elif command == "realize":
            runs.append(((("window", 0),), self.window))
        # a tabulated field's own window, else the closed-form fields' window
        f_lo, f_hi = self.data["field"].get("window", _WIDE_WINDOW)
        for sizes, (lo, hi) in runs:
            if lo < f_lo or hi > f_hi:
                path = max(sizes, key=lambda item: item[1])[0]
                _fail(
                    path,
                    f"the {command} run reads times [{lo}, {hi}], outside the field "
                    f"window [{f_lo}, {f_hi}]",
                )

    def with_seed(self, seed: int) -> "Scenario":
        data = self.echo()
        data["seed"] = _expect_int(seed, "seed")
        return Scenario(data=data)

    def build_loop(self) -> ParameterLoop | None:
        spec = self.data["loop"]
        if spec is None:
            return None
        return ParameterLoop.circle(spec["n"])

    def build_field(self) -> DiscreteVectorField:
        """The linear field the linear commands analyse."""
        spec = self.data["field"]
        loop = self.build_loop()
        if spec["kind"] == "autonomous":
            field = autonomous_field(np.asarray(spec["matrix"], dtype=float))
        elif spec["kind"] == "tabulated":
            n_params, n_times, d = spec["shape"]
            values = np.asarray(spec["values"], dtype=float).reshape(n_params, n_times, d, d)
            field = tabulated_field(values, tuple(spec["window"]), loop=loop)
        elif spec["kind"] == "realization":
            field = self._build_realization(spec, loop)
        else:  # system2: analyse the linearization along the trivial branch
            field = linearize_at_zero(self.build_nonlinear())
        if field.dim != self.dimension:
            raise InputError(
                f"scenario field 'dimension': declared {self.dimension} but the field "
                f"lives in dimension {field.dim}"
            )
        return field

    def _build_realization(self, spec: dict, loop: ParameterLoop) -> DiscreteVectorField:
        ahead = _build_bundle(spec["stable_ahead"], loop, self.dimension)
        behind = _build_bundle(spec["stable_behind"], loop, self.dimension)
        return realization_field(
            ahead,
            behind,
            q=spec["q"],
            kappa_minus=spec["kappa_minus"],
            kappa_plus=spec["kappa_plus"],
        )

    def build_nonlinear(self) -> NonlinearField:
        """The nonlinear system for certify/localize commands."""
        spec = self.data["field"]
        if spec["kind"] != "system2":
            raise InputError(
                f"the '{spec['kind']}' field is linear; certification commands need "
                "a 'system2' field"
            )
        return self._nonlinear(spec, self.data["loop"]["n"])

    def _nonlinear(self, spec: dict, n_samples: int) -> NonlinearField:
        """The system2 field on an n-sample loop; its refiner builds the refined loops."""
        a_field = self._build_realization(spec, ParameterLoop.circle(n_samples))
        residual_spec = spec["residual"]
        if residual_spec["kind"] == "none":
            dim = self.dimension
            res = lambda lams, times, x: np.zeros(x.shape)  # noqa: E731
            dres = lambda lams, times, x: np.zeros(x.shape + (dim,))  # noqa: E731
        else:
            res, dres = _quadratic_decaying(residual_spec["amplitude"])
        system = PerturbedSystemSpec(
            a_field=a_field,
            residual=res,
            residual_derivative=dres,
            r0=spec["r0"],
        )
        return system.to_nonlinear(refiner=lambda k: self._nonlinear(spec, n_samples * k))


_BUILTIN_DOCUMENTS = {
    "autonomous-saddle": {
        "schema_version": 1,
        "name": "autonomous-saddle",
        "dimension": 2,
        "loop": None,
        "field": {"kind": "autonomous", "matrix": [[0.5, 0.0], [0.0, 2.0]]},
        "horizon": 40,
    },
    "realization-mobius": {
        "schema_version": 1,
        "name": "realization-mobius",
        "dimension": 2,
        "loop": {"kind": "circle", "n": 16},
        "field": {
            "kind": "realization",
            "stable_ahead": {"kind": "mobius"},
            "stable_behind": {"kind": "trivial", "rank": 1},
            "q": 0.5,
        },
        "horizon": 40,
    },
    "realization-trivial": {
        "schema_version": 1,
        "name": "realization-trivial",
        "dimension": 2,
        "loop": {"kind": "circle", "n": 16},
        "field": {
            "kind": "realization",
            "stable_ahead": {"kind": "trivial", "rank": 1},
            "stable_behind": {"kind": "trivial", "rank": 1},
            "q": 0.5,
        },
        "horizon": 40,
    },
    "mobius-double": {
        "schema_version": 1,
        "name": "mobius-double",
        "dimension": 4,
        "loop": {"kind": "circle", "n": 16},
        "field": {
            "kind": "realization",
            "stable_ahead": {"kind": "mobius_sum", "copies": 2},
            "stable_behind": {"kind": "trivial", "rank": 2},
            "q": 0.5,
        },
        "horizon": 40,
    },
    "system2-mobius": {
        "schema_version": 1,
        "name": "system2-mobius",
        "dimension": 2,
        "loop": {"kind": "circle", "n": 16},
        "field": {
            "kind": "system2",
            "stable_ahead": {"kind": "mobius"},
            "stable_behind": {"kind": "trivial", "rank": 1},
            "q": 0.5,
            "residual": {"kind": "quadratic_decaying", "amplitude": 1.0},
            "r0": 1.0,
        },
        "horizon": 40,
        "options": {"localize": True},
    },
}


def builtin_names() -> tuple[str, ...]:
    return tuple(sorted(_BUILTIN_DOCUMENTS))


def builtin_document(name: str) -> dict:
    if name not in _BUILTIN_DOCUMENTS:
        raise InputError(
            f"unknown builtin scenario {name!r}; available: {', '.join(builtin_names())}"
        )
    return copy.deepcopy(_BUILTIN_DOCUMENTS[name])
