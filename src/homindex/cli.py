"""Command line: scenario ingestion, dispatch, deterministic artifacts.

Every run reads one scenario (a file path or a builtin name), executes
one subcommand and writes a single structured ``report.json`` into the
output directory; ``--format csv`` additionally emits CSV artifacts.
Reports embed the fully materialized scenario, so a report is enough
to rerun the analysis, and their bytes depend only on the scenario and
the seed - not on ``--threads`` or the output location.

Subcommands: spectrum, projectors, index, class, certify, solve,
realize.  Exit codes: 0 success, 2 certification/hypothesis failure,
3 input error, 4 numeric indeterminacy.

CSV layouts (column order is a bit-exact contract for plotting):

- ``spectrum_lamNNN.csv``: gamma, verdict
- ``projectors_lamNNN.csv``: n, p_0_0 ... p_{d-1}_{d-1} (row-major)
- ``index.csv``: lambda, index, dim_ker, dim_coker, rank_plus,
  rank_minus, consistent
- ``bundle_plus.csv`` / ``bundle_minus.csv``: sample, param_*,
  frame_<row>_<column> (row-major)
- ``solution_NNN.csv``: param_* (omitted without a loop), n,
  phi_0 ... phi_{d-1}
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import sys
from dataclasses import dataclass, field as dataclass_field
from pathlib import Path

import numpy as np

from . import __version__
from .bifurcation import CertifyOptions, certify_bifurcation, localize_bifurcations
from .bundle import KOClassDesk, bundle_csv_rows, index_bundle_pair
from .dichotomy import _projectors, build_projector_families, dichotomy_spectra, verify_families
from .errors import (
    CertificationError,
    HomindexError,
    InputError,
    NumericError,
    SamplingError,
    fresh,
)
from .field import _read_all
from .fredholm import FiniteWindowSequence, green_solve, whole_line_index
from .scenario import Scenario, builtin_names

__all__ = ["run", "main"]

REPORT_NAME = "report.json"


def _num(x) -> float | None:
    """Floats for the report; non-finite values become null."""
    x = float(x)
    return x if math.isfinite(x) else None


def _cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def _render_json(data: dict) -> bytes:
    return (json.dumps(data, indent=2, sort_keys=True, allow_nan=False) + "\n").encode()


@dataclass
class CommandOutcome:
    """What one subcommand produced, before any file is written."""

    results: dict
    warnings: list = dataclass_field(default_factory=list)
    exit_code: int = 0
    csv_files: list = dataclass_field(default_factory=list)  # (name, header, rows)
    extra_files: list = dataclass_field(default_factory=list)  # (name, bytes)


def _sequence_dump(phi: FiniteWindowSequence) -> dict:
    return {
        "window": [int(phi.window[0]), int(phi.window[1])],
        "sup": _num(phi.norm_inf),
        "decays_left": bool(phi.decays_left),
        "decays_right": bool(phi.decays_right),
        "values": [[_num(x) for x in row] for row in np.asarray(phi.values)],
    }


def _solution_csv(name: str, loop, lam: int, phi: FiniteWindowSequence):
    coords = [float(x) for x in loop.samples[lam]] if loop is not None else []
    header = [f"param_{c}" for c in range(len(coords))] + ["n"] + [
        f"phi_{j}" for j in range(phi.dim)
    ]
    rows = []
    lo = phi.window[0]
    for i, row in enumerate(np.asarray(phi.values)):
        rows.append(coords + [lo + i] + [float(x) for x in row])
    return (name, header, rows)


# ---------------------------------------------------------------------------
# subcommands


def _cmd_spectrum(scenario: Scenario) -> CommandOutcome:
    scenario.check_times("spectrum")
    field = scenario.build_field()
    opts, tol = scenario.options, scenario.tolerances
    per, warnings, csvs = [], [], []
    # one sweep for every requested sample; the first failing sample decides the error
    spectra = dichotomy_spectra(
        field,
        opts["lambdas"],
        gamma_min=opts["gamma_min"],
        gamma_max=opts["gamma_max"],
        grid=opts["grid"],
        horizon=scenario.horizon,
        zero_margin=tol["zero_margin"],
        gap_ratio=tol["gap_ratio"],
    )
    for lam, res in zip(opts["lambdas"], spectra):
        if isinstance(res, HomindexError):
            raise fresh(res)
        per.append(
            {
                "lambda": lam,
                "intervals": [[_num(a), _num(b)] for a, b in res.intervals],
                "admits_ed": bool(res.admits_ed),
                "n_probes": int(res.n_probes),
                "grid": [_num(g) for g in res.grid],
                "verdicts": list(res.verdicts),
            }
        )
        if "indeterminate" in res.verdicts:
            warnings.append(
                f"lambda {lam}: some spectrum gridpoints were numerically indeterminate"
            )
        if res.at_one == "indeterminate":
            warnings.append(
                f"lambda {lam}: the verdict at gamma = 1 is indeterminate, so admits_ed "
                "is undecided"
            )
        lo, hi = float(res.grid[0]), float(res.grid[-1])
        off_grid = [
            f"{side} side {', '.join(f'{g:.6g}' for g in outside)}"
            for side, factors in zip(("plus", "minus"), res.rates)
            if (outside := [g for g in factors if not lo <= g <= hi])
        ]
        if off_grid:
            warnings.append(
                f"lambda {lam}: growth rates outside the gamma grid [{lo:.6g}, {hi:.6g}] "
                f"are spectral points the grid does not scan: {'; '.join(off_grid)}"
            )
        csvs.append(
            (
                f"spectrum_lam{lam:03d}.csv",
                ["gamma", "verdict"],
                [[float(g), v] for g, v in zip(res.grid, res.verdicts)],
            )
        )
    return CommandOutcome(results={"per_lambda": per}, warnings=warnings, csv_files=csvs)


def _tolerances(scenario: Scenario) -> dict:
    """The scenario's four family tolerances, as the family builds take them."""
    keys = ("tau_inv", "sigma_reg", "zero_margin", "gap_ratio")
    return {key: scenario.tolerances[key] for key in keys}


def _family_kwargs(scenario: Scenario) -> dict:
    return {"horizon": scenario.horizon, **_tolerances(scenario)}


def _cmd_projectors(scenario: Scenario) -> CommandOutcome:
    scenario.check_times("projectors")
    field = scenario.build_field()
    opts = scenario.options
    per, csvs = [], []
    # one batch of families and one of fits for every requested sample; a
    # failed build comes back in place of its fit, and the first failing
    # sample decides the error
    fams = build_projector_families(
        field,
        opts["lambdas"],
        opts["side"],
        opts["anchor"],
        length=opts["length"],
        **_family_kwargs(scenario),
    )
    for lam, fam, wit in zip(opts["lambdas"], fams, verify_families(fams)):
        if isinstance(wit, HomindexError):
            raise fresh(wit)
        d = field.dim
        projectors = _projectors(fam.image_frames, fam.kernel_frames)
        per.append(
            {
                "lambda": lam,
                "side": fam.side,
                "anchor": int(fam.anchor),
                "rank": int(fam.rank),
                "k_const": _num(wit.k_const),
                "alpha": _num(wit.alpha),
                "checked_pairs": int(wit.checked_pairs),
                "green_bound": _num(wit.green_bound()),
                "times": [int(t) for t in fam.times],
                "projectors": [[_num(x) for x in p.ravel()] for p in projectors],
            }
        )
        header = ["n"] + [f"p_{a}_{b}" for a in range(d) for b in range(d)]
        rows = [
            [int(t)] + [float(x) for x in p.ravel()]
            for t, p in zip(fam.times, projectors)
        ]
        csvs.append((f"projectors_lam{lam:03d}.csv", header, rows))
    return CommandOutcome(results={"per_lambda": per}, csv_files=csvs)


def _cmd_index(scenario: Scenario) -> CommandOutcome:
    scenario.check_times("index")
    field = scenario.build_field()
    opts = scenario.options
    # one batch of both sides, fits and truncation spectra for every
    # requested sample; the first failing sample decides the error
    reports = whole_line_index(
        field, opts["lambdas"], opts["index_window"], **_family_kwargs(scenario)
    )
    per = []
    for lam, rep in zip(opts["lambdas"], reports):
        if isinstance(rep, HomindexError):
            raise fresh(rep)
        per.append(
            {
                "lambda": lam,
                "index": int(rep.index),
                "dim_ker": int(rep.dim_ker),
                "dim_coker": int(rep.dim_coker),
                "rank_plus": int(rep.rank_plus),
                "rank_minus": int(rep.rank_minus),
                "consistent": bool(rep.consistent),
                "dim_ker_truncated": int(rep.dim_ker_truncated),
            }
        )
    header = ["lambda", "index", "dim_ker", "dim_coker", "rank_plus", "rank_minus", "consistent"]
    csvs = [("index.csv", header, [[p[key] for key in header] for p in per])]
    warnings = [
        f"lambda {p['lambda']}: geometric and truncated kernel counts disagree"
        for p in per
        if not p["consistent"]
    ]
    return CommandOutcome(results={"per_lambda": per}, warnings=warnings, csv_files=csvs)


def _class_dump(cls: KOClassDesk) -> dict:
    return {
        "virtual_rank": int(cls.virtual_rank),
        "delta_w1": int(cls.delta_w1),
        "provenance": list(cls.provenance),
    }


def _cmd_class(scenario: Scenario) -> CommandOutcome:
    scenario.check_times("class")
    field = scenario.build_field()
    opts = scenario.options
    top, bottom = index_bundle_pair(
        field, opts["anchor_plus"], opts["anchor_minus"], **_family_kwargs(scenario)
    )
    cls = KOClassDesk.of_pair(top, bottom)
    results = {
        "index_class": _class_dump(cls),
        "rank_plus": int(top.rank),
        "rank_minus": int(bottom.rank),
        "anchor_plus": opts["anchor_plus"],
        "anchor_minus": opts["anchor_minus"],
    }
    csvs = []
    for name, bundle in (("bundle_plus.csv", top), ("bundle_minus.csv", bottom)):
        header, rows = bundle_csv_rows(bundle)
        csvs.append((name, header, rows))
    return CommandOutcome(results=results, csv_files=csvs)


def _cmd_certify(scenario: Scenario) -> CommandOutcome:
    scenario.check_times("certify")
    f = scenario.build_nonlinear()
    opts = scenario.options
    cert = certify_bifurcation(
        f,
        CertifyOptions(
            anchor_plus=opts["anchor_plus"],
            anchor_minus=opts["anchor_minus"],
            horizon=scenario.horizon,
            f3_window=tuple(opts["f3_window"]),
            manifold_dim=opts["manifold_dim"],
        ),
        **_tolerances(scenario),
    )
    results = {
        "verdict": cert.verdict,
        "f0_ok": cert.f0_ok,
        "f1_ok": cert.f1_ok,
        "f2_ok": cert.f2_ok,
        "f3_ok": cert.f3_ok,
        "lambda0": cert.lambda0,
        "anchor_plus": cert.anchor_plus,
        "anchor_minus": cert.anchor_minus,
        "rank_plus": cert.rank_plus,
        "rank_minus": cert.rank_minus,
        "index_class": _class_dump(cert.index_class) if cert.index_class else None,
        "f3_verdicts": list(cert.f3_verdicts),
        "evidence": [[k, v] for k, v in cert.evidence],
    }
    warnings = list(cert.warnings)
    csvs = []
    if opts["localize"]:
        if cert.verdict == "bifurcation_certified":
            refined = f.refiner(opts["grid_refinement"]) if opts["grid_refinement"] > 1 else f
            found = localize_bifurcations(
                refined,
                cert,
                window=tuple(opts["localize_window"]),
                horizon=scenario.horizon,
                decay_tol=scenario.tolerances["decay_tol"],
                warnings=warnings,
                **_tolerances(scenario),
            )
            results["candidates"] = [
                {"lambda": lam, **_sequence_dump(phi)} for lam, phi in found
            ]
            for i, (lam, phi) in enumerate(found):
                csvs.append(_solution_csv(f"solution_{i:03d}.csv", refined.loop, lam, phi))
        else:
            results["candidates"] = []
            warnings.append(f"localization skipped: verdict is {cert.verdict}")
    exit_code = 0 if cert.verdict in ("bifurcation_certified", "obstruction_vanishes") else 2
    return CommandOutcome(
        results=results, warnings=warnings, exit_code=exit_code, csv_files=csvs
    )


def _solve_forcings(scenario: Scenario, dim: int):
    """Forcing sequences named in the scenario: explicit rows or seeded noise.

    The scenario validated them against its forcing window.
    """
    spec = scenario.options["solve"]["rhs"]
    window = scenario.forcing_window
    lo, hi = window
    width = hi - lo + 1
    out = []
    if isinstance(spec, list):
        for entry in spec:
            at = entry["at"]
            vals = np.zeros((width, dim))
            vals[at - lo] = entry["value"]
            out.append((f"impulse_at_{at}", FiniteWindowSequence.tabulate(window, vals)))
    else:
        rng = np.random.default_rng(scenario.seed)
        for k in range(spec["count"]):
            vals = rng.standard_normal((width, dim))
            out.append((f"seeded_{k:03d}", FiniteWindowSequence.tabulate(window, vals)))
    return out


def _cmd_solve(scenario: Scenario) -> CommandOutcome:
    scenario.check_times("solve")
    field = scenario.build_field()
    tol = scenario.tolerances
    sopts = scenario.options["solve"]
    side, anchor, length = sopts["side"], sopts["anchor"], sopts["length"]
    lam = sopts["lambda"]
    (fam,) = build_projector_families(
        field, [lam], side, anchor, length=length, **_family_kwargs(scenario)
    )
    if isinstance(fam, HomindexError):
        raise fresh(fam)
    lo, hi = scenario.forcing_window
    mats = field.matrices(lam, lo, hi)
    solutions, csvs = [], []
    for i, (label, psi) in enumerate(_solve_forcings(scenario, field.dim)):
        phi = green_solve(fam, anchor, psi, decay_tol=tol["decay_tol"])
        steps = phi.values[1:] - (mats @ phi.values[:-1, :, None])[..., 0]
        defect = float(np.abs(steps - psi.values).max())
        if defect > tol["solve_tol"]:
            raise NumericError(
                f"solution {label}: defect {defect:.3e} of L phi - psi exceeds "
                f"tolerances.solve_tol = {tol['solve_tol']:.1e}"
            )
        solutions.append({"label": label, "defect_sup": _num(defect), **_sequence_dump(phi)})
        csvs.append(_solution_csv(f"solution_{i:03d}.csv", field.loop, lam, phi))
    results = {
        "lambda": lam,
        "side": side,
        "anchor": anchor,
        "rank": int(fam.rank),
        "solutions": solutions,
    }
    return CommandOutcome(results=results, csv_files=csvs)


def _cmd_realize(scenario: Scenario) -> CommandOutcome:
    if scenario.field_kind != "realization":
        raise InputError(
            f"realize materializes 'realization' fields; this scenario has "
            f"'{scenario.field_kind}'"
        )
    scenario.check_times("realize")
    field = scenario.build_field()
    lo, hi = scenario.window
    n_params = field.n_params
    width = hi - lo + 1
    d = field.dim
    table = _read_all(field, range(n_params), np.arange(lo, hi + 1))
    doc = scenario.echo()
    doc["name"] = f"{scenario.name}-realized"
    doc["field"] = {
        "kind": "tabulated",
        "window": [lo, hi],
        "shape": [n_params, width, d],
        "values": [float(x) for x in table.ravel()],
    }
    Scenario.from_dict(doc)  # validates the round trip before writing
    results = {
        "artifact": "realized.json",
        "shape": [n_params, width, d],
        "window": [lo, hi],
        "bound": _num(np.abs(table).max()),
    }
    return CommandOutcome(
        results=results, extra_files=[("realized.json", _render_json(doc))]
    )


_COMMANDS = {
    "spectrum": (_cmd_spectrum, "dichotomy spectrum scan per parameter sample"),
    "projectors": (_cmd_projectors, "certified projector family dumps per parameter sample"),
    "index": (_cmd_index, "Fredholm index, kernel and cokernel per parameter sample"),
    "class": (_cmd_class, "index-bundle class (virtual rank, delta_w1) over the loop"),
    "certify": (_cmd_certify, "four-stage bifurcation certification (optional localization)"),
    "solve": (_cmd_solve, "half-line Green solves for the scenario's forcings"),
    "realize": (_cmd_realize, "materialize a realization field to a tabulated scenario"),
}


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="homindex",
        description=(
            "Dichotomies, dichotomy spectra, Fredholm indices, index-bundle "
            "classes and homoclinic-bifurcation certification for discrete "
            "systems on the integer lattice."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text) in _COMMANDS.items():
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument(
            "--scenario",
            required=True,
            help=f"scenario file path or builtin name ({', '.join(builtin_names())})",
        )
        cmd.add_argument("--out", default=".", help="output directory (default: .)")
        cmd.add_argument("--format", choices=("json", "csv"), default="json")
        cmd.add_argument("--seed", type=int, default=None, help="override the scenario seed")
        cmd.add_argument(
            "--threads",
            type=int,
            default=1,
            help="accepted for compatibility; must be at least 1 and never changes results",
        )
    return parser


def _load_scenario(ref: str) -> Scenario:
    path = Path(ref)
    if path.exists():
        return Scenario.load(path)
    if ref in builtin_names():
        return Scenario.builtin(ref)
    raise InputError(
        f"scenario '{ref}' is neither a readable file nor a builtin name; "
        f"builtins: {', '.join(builtin_names())}"
    )


def _exit_code_for(exc: HomindexError) -> int:
    if isinstance(exc, NumericError):
        return 4
    if isinstance(exc, (CertificationError, SamplingError)):
        return 2
    return 3


def run(argv=None) -> int:
    """Parse arguments, dispatch one subcommand, write artifacts.

    Returns the exit code instead of raising: 0 success, 2 on
    certification or hypothesis failure, 3 on input errors (including
    malformed scenarios and unknown builtins), 4 on numeric
    indeterminacy.
    """
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 3

    try:
        if args.threads < 1:
            raise InputError(f"--threads must be at least 1, got {args.threads}")
        scenario = _load_scenario(args.scenario)
        if args.seed is not None:
            if args.seed < 0:
                raise InputError(f"--seed must be nonnegative, got {args.seed}")
            scenario = scenario.with_seed(args.seed)
        handler = _COMMANDS[args.command][0]
        outcome = handler(scenario)
        report = {
            "homindex_version": __version__,
            "schema_version": scenario.data["schema_version"],
            "command": args.command,
            "seed": scenario.seed,
            "scenario": scenario.echo(),
            "results": outcome.results,
            "warnings": list(outcome.warnings),
        }
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / REPORT_NAME).write_bytes(_render_json(report))
        for name, payload in outcome.extra_files:
            (out_dir / name).write_bytes(payload)
        if args.format == "csv":
            for name, header, rows in outcome.csv_files:
                with open(out_dir / name, "w", encoding="utf-8", newline="") as fh:
                    writer = csv.writer(fh, lineterminator="\n")
                    writer.writerow(header)
                    for row in rows:
                        writer.writerow([_cell(v) for v in row])
        for line in outcome.warnings:
            print(f"warning: {line}", file=sys.stderr)
        return outcome.exit_code
    except HomindexError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _exit_code_for(exc)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


def main() -> None:
    sys.exit(run(sys.argv[1:]))
