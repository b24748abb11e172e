"""Workload generator and output oracle for the homindex benchmark.

A workload is a list of CLI invocations over scenario documents that
this module generates from a seed.  Every expected answer is derived
from the bundles the generator chose, never from program output:

- ``class``: virtual rank = rank(ahead) - rank(behind) and
  ``delta_w1`` = w1(ahead) XOR w1(behind);
- ``index``: index = rank(ahead) - rank(behind), ``consistent`` true,
  and ``dim_ker`` = dim(ahead fibre meet the complement of the behind
  fibre), in closed form;
- ``certify``: ``bifurcation_certified`` with at least one candidate
  when the w1 bits differ, ``obstruction_vanishes`` otherwise;
- ``spectrum``: the field admits a dichotomy exactly where the meet
  above is trivial (the Moebius fibre meets the behind complement at
  theta = pi, where the operator has a kernel), and the spectral
  intervals contain q and 1/q;
- ``projectors``: the rank is rank(ahead);
- ``solve``: every ``defect_sup`` is at most ``solve_tol``;
- ``realize``: ``bound`` = 1/q.

The generator varies only inputs inside the scenario contract: q in
[0.35, 0.65], the stable-ahead bundle (Moebius or Moebius sum versus
trivial), the parameter samples ``index`` analyses and the scenario
seed that draws the ``solve`` forcings.  This module imports neither
numpy nor homindex.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

WORKLOADS = ("certify-loop", "loop-sweep", "index-wide")

Q_RANGE = (0.35, 0.65)
SOLVE_TOL = 1e-8  # the scenario default; the generator never overrides it
REALIZED = "realized.json"


@dataclass(frozen=True)
class Bundle:
    """A bundle the generator chose: kind, rank and ambient dimension."""

    kind: str  # "mobius", "mobius_sum" or "trivial"
    rank: int
    dim: int

    @property
    def w1(self) -> int:
        # a sum of c Moebius lines has w1 = c mod 2; trivial bundles are orientable
        if self.kind == "mobius":
            return 1
        if self.kind == "mobius_sum":
            return self.rank % 2
        return 0

    def spec(self) -> dict:
        if self.kind == "mobius":
            return {"kind": "mobius"}
        if self.kind == "mobius_sum":
            return {"kind": "mobius_sum", "copies": self.rank}
        return {"kind": "trivial", "rank": self.rank}


def mobius(dim: int) -> Bundle:
    """The Moebius line in the plane, or a sum of dim/2 copies."""
    if dim == 2:
        return Bundle("mobius", 1, 2)
    return Bundle("mobius_sum", dim // 2, dim)


def trivial(dim: int, rank: int) -> Bundle:
    return Bundle("trivial", rank, dim)


def meet_with_complement(ahead: Bundle, behind: Bundle, lam: int, n: int) -> int:
    """dim(E_ahead(theta) meet E_behind(theta)^perp) at theta = 2 pi lam / n.

    The behind bundle is trivial, spanned by e_1..e_m, so its complement
    is spanned by the remaining coordinates.  A trivial ahead bundle
    spans e_1..e_k.  Copy j of a Moebius sum spans
    cos(theta/2) e_{2j} + sin(theta/2) e_{2j+1}; it lies in the
    complement when both of its coordinates do, or when only e_{2j} is
    excluded and cos(theta/2) = 0, which is theta = pi.
    """
    if behind.kind != "trivial":
        raise ValueError("the closed form covers a trivial behind bundle only")
    m = behind.rank
    if ahead.kind == "trivial":
        return max(0, ahead.rank - m)
    flip = 2 * lam == n
    return sum(1 for j in range(ahead.rank) if 2 * j >= m or (2 * j + 1 == m and flip))


@dataclass(frozen=True)
class Invocation:
    """One CLI call and the facts its report must show."""

    command: str
    scenario: str  # a generated document name, or REALIZED
    args: tuple
    expect: dict
    samples: int  # loop samples the call analyses


@dataclass(frozen=True)
class Workload:
    name: str
    seed: int
    documents: dict  # file name -> scenario document
    builds: tuple  # (document name, "field" | "nonlinear") built during set-up
    invocations: tuple

    @property
    def samples_per_pass(self) -> int:
        return sum(inv.samples for inv in self.invocations)


def _draw_q(rng: random.Random) -> float:
    return round(rng.uniform(*Q_RANGE), 6)


def _system2(name: str, ahead: Bundle, behind: Bundle, q: float, n: int, window: int) -> dict:
    return {
        "schema_version": 1,
        "name": name,
        "dimension": ahead.dim,
        "loop": {"kind": "circle", "n": n},
        "field": {
            "kind": "system2",
            "stable_ahead": ahead.spec(),
            "stable_behind": behind.spec(),
            "q": q,
            "residual": {"kind": "quadratic_decaying", "amplitude": 1.0},
            "r0": 1.0,
        },
        "horizon": 40,
        "options": {
            "localize": True,
            "f3_window": [-window, window],
            "localize_window": [-window, window],
        },
    }


def _realization(
    name: str, ahead: Bundle, behind: Bundle, q: float, n: int, seed: int, options: dict
) -> dict:
    return {
        "schema_version": 1,
        "name": name,
        "seed": seed,
        "dimension": ahead.dim,
        "loop": {"kind": "circle", "n": n},
        "field": {
            "kind": "realization",
            "stable_ahead": ahead.spec(),
            "stable_behind": behind.spec(),
            "q": q,
        },
        "window": [-100, 100],
        "horizon": 40,
        "options": options,
    }


def _certify_loop(seed: int, rng: random.Random) -> Workload:
    n, window = 32, 30
    behind = trivial(2, 1)
    documents, invocations = {}, []
    for label, ahead in (("mobius", mobius(2)), ("trivial", trivial(2, 1))):
        name = f"certify-{label}.json"
        documents[name] = _system2(f"certify-{label}", ahead, behind, _draw_q(rng), n, window)
        flips = ahead.w1 ^ behind.w1
        expect = {
            "verdict": "bifurcation_certified" if flips else "obstruction_vanishes",
            "virtual_rank": ahead.rank - behind.rank,
            "delta_w1": flips,
            "candidates": flips == 1,
        }
        invocations.append(Invocation("certify", name, (), expect, n))
    return Workload(
        "certify-loop",
        seed,
        documents,
        tuple((name, "nonlinear") for name in documents),
        tuple(invocations),
    )


def _loop_sweep(seed: int, rng: random.Random) -> Workload:
    n, d = 128, 2
    ahead = rng.choice((mobius(d), trivial(d, 1)))
    behind = trivial(d, 1)
    q = _draw_q(rng)
    options = {
        "solve": {
            "lambda": 0,
            "side": "plus",
            "anchor": 0,
            "length": 60,
            "rhs": {"kind": "seeded_random", "count": 32},
        }
    }
    doc = _realization("loop-sweep", ahead, behind, q, n, rng.randrange(2**31), options)
    csv = ("--format", "csv")
    invocations = (
        Invocation("realize", "loop-sweep.json", (), {"q": q, "shape": [n, 201, d]}, n),
        Invocation(
            "class",
            REALIZED,
            csv,
            {
                "virtual_rank": ahead.rank - behind.rank,
                "delta_w1": ahead.w1 ^ behind.w1,
                "rank_plus": ahead.rank,
                "rank_minus": behind.rank,
            },
            n,
        ),
        Invocation(
            "spectrum",
            REALIZED,
            csv,
            {
                "q": q,
                "lambdas": list(range(n)),
                "admits_ed": [meet_with_complement(ahead, behind, lam, n) == 0 for lam in range(n)],
            },
            n,
        ),
        Invocation("projectors", REALIZED, csv, {"rank": ahead.rank, "lambdas": list(range(n))}, n),
        Invocation("solve", REALIZED, csv, {"count": 32, "solve_tol": SOLVE_TOL}, 0),
    )
    return Workload(
        "loop-sweep", seed, {"loop-sweep.json": doc}, (("loop-sweep.json", "field"),), invocations
    )


def _index_wide(seed: int, rng: random.Random) -> Workload:
    n, d = 16, 4
    ahead = rng.choice((mobius(d), trivial(d, 2)))
    behind = trivial(d, 2)
    lambdas = sorted(rng.sample(range(n), 6))
    options = {"lambdas": lambdas, "index_window": [-100, 100]}
    doc = _realization("index-wide", ahead, behind, _draw_q(rng), n, 0, options)
    expect = {
        "per_lambda": [
            {
                "lambda": lam,
                "index": ahead.rank - behind.rank,
                "dim_ker": meet_with_complement(ahead, behind, lam, n),
            }
            for lam in lambdas
        ]
    }
    invocation = Invocation("index", "index-wide.json", (), expect, len(lambdas))
    return Workload(
        "index-wide", seed, {"index-wide.json": doc}, (("index-wide.json", "field"),), (invocation,)
    )


_MAKERS = {"certify-loop": _certify_loop, "loop-sweep": _loop_sweep, "index-wide": _index_wide}


def make_workload(name: str, seed: int) -> Workload:
    """The workload's documents and invocations; the same seed gives the same inputs."""
    if name not in _MAKERS:
        raise ValueError(f"unknown workload {name!r}; expected one of {WORKLOADS}")
    return _MAKERS[name](seed, random.Random(f"{name}:{seed}"))


# ---------------------------------------------------------------------------
# oracle


def _inside(intervals, x: float) -> bool:
    return any(lo is not None and hi is not None and lo <= x <= hi for lo, hi in intervals)


def check_report(inv: Invocation, exit_code: int, report: dict | None) -> list[str]:
    """Every way the invocation's outcome differs from the expected answer."""
    if exit_code != 0:
        return [f"exit code {exit_code}, expected 0"]
    if report is None:
        return ["no report.json was written"]
    res, exp, bad = report["results"], inv.expect, []
    if inv.command == "certify":
        cls = res.get("index_class") or {}
        if res["verdict"] != exp["verdict"]:
            bad.append(f"verdict {res['verdict']!r}, expected {exp['verdict']!r}")
        if (cls.get("virtual_rank"), cls.get("delta_w1")) != (exp["virtual_rank"], exp["delta_w1"]):
            bad.append(f"index class {cls}, expected ({exp['virtual_rank']}, {exp['delta_w1']})")
        found = len(res.get("candidates", []))
        if exp["candidates"] and found == 0:
            bad.append("no bifurcating candidate was localized")
        if not exp["candidates"] and found:
            bad.append(f"{found} candidates localized where the obstruction vanishes")
    elif inv.command == "class":
        cls = res["index_class"]
        for key in ("virtual_rank", "delta_w1"):
            if cls[key] != exp[key]:
                bad.append(f"{key} {cls[key]}, expected {exp[key]}")
        for key in ("rank_plus", "rank_minus"):
            if res[key] != exp[key]:
                bad.append(f"{key} {res[key]}, expected {exp[key]}")
    elif inv.command == "index":
        got = res["per_lambda"]
        if [p["lambda"] for p in got] != [p["lambda"] for p in exp["per_lambda"]]:
            bad.append("the analysed parameter samples differ from the requested ones")
        for p, e in zip(got, exp["per_lambda"]):
            for key in ("index", "dim_ker"):
                if p[key] != e[key]:
                    bad.append(f"lambda {e['lambda']}: {key} {p[key]}, expected {e[key]}")
            if p["consistent"] is not True:
                bad.append(f"lambda {e['lambda']}: kernel counts are inconsistent")
    elif inv.command == "spectrum":
        got = res["per_lambda"]
        if [p["lambda"] for p in got] != exp["lambdas"]:
            bad.append("the analysed parameter samples differ from the loop")
        q = exp["q"]
        for p, admits in zip(got, exp["admits_ed"]):
            if p["admits_ed"] != admits:
                bad.append(f"lambda {p['lambda']}: admits_ed {p['admits_ed']}, expected {admits}")
            for x in (q, 1.0 / q):
                if not _inside(p["intervals"], x):
                    bad.append(f"lambda {p['lambda']}: spectrum misses {x!r}")
    elif inv.command == "projectors":
        got = res["per_lambda"]
        if [p["lambda"] for p in got] != exp["lambdas"]:
            bad.append("the analysed parameter samples differ from the loop")
        for p in got:
            if p["rank"] != exp["rank"]:
                bad.append(f"lambda {p['lambda']}: rank {p['rank']}, expected {exp['rank']}")
    elif inv.command == "solve":
        sols = res["solutions"]
        if len(sols) != exp["count"]:
            bad.append(f"{len(sols)} solutions, expected {exp['count']}")
        for s in sols:
            defect = s["defect_sup"]
            if defect is None or defect > exp["solve_tol"]:
                bad.append(f"{s['label']}: defect {defect} above {exp['solve_tol']}")
    elif inv.command == "realize":
        if res["bound"] is None or not math.isclose(res["bound"], 1.0 / exp["q"], rel_tol=1e-12):
            bad.append(f"bound {res['bound']!r}, expected 1/q = {1.0 / exp['q']!r}")
        if res["shape"] != exp["shape"]:
            bad.append(f"shape {res['shape']}, expected {exp['shape']}")
    else:
        bad.append(f"no oracle for command {inv.command!r}")
    return bad
