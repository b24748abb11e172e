"""Benchmark of the homindex command line, end to end and layer by layer.

Usage (from the repository root):

    python3 perfbench/run.py --workload certify-loop --seed 1 --seconds 30 --trace 0

The workload's scenario documents are generated from ``--seed``.  Every
invocation goes through ``homindex.cli.run`` in this process, with
``--threads 1`` and BLAS pinned to one thread, in a closed loop: one
caller runs the workload's command list (a pass) back to back for
``--seconds`` seconds after one warm-up pass.  Every report is checked
against the answers the generator knows, and its bytes against the
warm-up pass.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs untraced
passes for half the time and traced passes for the other half, and
reports the per-layer metrics, the per-command times and the tracing
overhead.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the exit
code is 1 when any check failed.  See perfbench/README.md.
"""

import os

BLAS_PIN = {
    name: "1"
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
}
os.environ.update(BLAS_PIN)  # before numpy is first imported, here and in children

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import importlib.metadata  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from tracer import Tracer, layer_metrics  # noqa: E402
from workloads import REALIZED, WORKLOADS, check_report, make_workload  # noqa: E402

SETUP_REPEATS = 5
COMMANDS = ("certify", "index", "class", "spectrum", "projectors", "solve", "realize")
SPANS_DIR = ".perfbench-out"
MAX_PROBLEMS_SHOWN = 12

END_TO_END_UNITS = {"setup_s": "s", "samples_per_s": "1/s", "peak_rss_mb": "MB"}


def unit_of(name: str) -> str:
    if name in END_TO_END_UNITS:
        return END_TO_END_UNITS[name]
    if name.endswith("_s"):
        return "s"
    if name.endswith("_gflop"):
        return "GFLOP"
    if name.endswith("bytes_written"):
        return "bytes"
    if name.endswith(("_ratio", "_rate", "_per_newton_step")):
        return "ratio"
    return "count"


class Runner:
    """Runs a workload's passes through ``cli.run`` and checks every report."""

    def __init__(self, cli, workload, work: Path):
        self.cli = cli
        self.workload = workload
        invs = workload.invocations
        self.outs = [work / f"out-{i}-{inv.command}" for i, inv in enumerate(invs)]
        realize = [out for out, inv in zip(self.outs, invs) if inv.command == "realize"]
        self.argvs = []
        for out, inv in zip(self.outs, invs):
            scenario = realize[0] / REALIZED if inv.scenario == REALIZED else work / inv.scenario
            argv = [inv.command, "--scenario", str(scenario), "--out", str(out), "--threads", "1"]
            self.argvs.append(argv + list(inv.args))
        self.reference: dict[int, str] = {}
        self.attempted = 0
        self.failures: list[tuple[str, list[str]]] = []

    def _outputs(self, out: Path):
        """Digest and size of every file the invocation wrote, and the report bytes."""
        digest, size, report = hashlib.sha256(), 0, None
        for path in sorted(out.iterdir()) if out.is_dir() else ():
            data = path.read_bytes()
            digest.update(path.name.encode() + b"\0" + data + b"\0")
            size += len(data)
            if path.name == "report.json":
                report = data
        return digest.hexdigest(), size, report

    def one_pass(self, tracer: Tracer | None = None) -> dict:
        seconds, per_command, written = 0.0, Counter(), 0
        for i, (inv, out, argv) in enumerate(zip(self.workload.invocations, self.outs, self.argvs)):
            for stale in out.iterdir() if out.is_dir() else ():
                stale.unlink()
            if tracer is not None:
                tracer.invocation = self.attempted
            problems = []
            with contextlib.redirect_stderr(io.StringIO()):
                start = time.perf_counter()
                try:
                    code = self.cli.run(argv)
                except Exception as exc:  # a traceback is a failed invocation, not a crash
                    code, problems = None, [f"raised {type(exc).__name__}: {exc}"]
                elapsed = time.perf_counter() - start
            self.attempted += 1
            seconds += elapsed
            per_command[inv.command] += elapsed
            if code is not None:
                digest, size, report = self._outputs(out)
                written += size
                try:
                    problems = check_report(inv, code, None if report is None else json.loads(report))
                except (ValueError, KeyError, TypeError, IndexError) as exc:
                    problems = [f"report is malformed or incomplete: {exc!r}"]
                if self.reference.setdefault(i, digest) != digest:
                    problems.append("output bytes differ from the warm-up pass")
            if problems:
                self.failures.append((inv.command, problems))
        return {"seconds": seconds, "per_command": per_command, "bytes": written}


def closed_loop(runner: Runner, seconds: float, tracer: Tracer | None = None):
    """Passes back to back until `seconds` have elapsed (at least one)."""
    passes, layers = [], []
    deadline = time.perf_counter() + seconds
    while not passes or time.perf_counter() < deadline:
        first = len(tracer.spans) if tracer else 0
        passes.append(runner.one_pass(tracer))
        if tracer is not None:
            layers.append(layer_metrics(tracer.spans, first, len(tracer.spans)))
    return passes, layers


def setup_seconds(workload, work: Path) -> list[float]:
    """Fresh-interpreter set-up times: import homindex.cli, load and build."""
    argv = [sys.executable, str(HERE / "setup_probe.py"), str(ROOT)]
    argv += [f"{work / doc}:{kind}" for doc, kind in workload.builds]
    out = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(argv, capture_output=True, text=True, timeout=120, check=True)
        out.append(json.loads(done.stdout.strip().splitlines()[-1])["seconds"])
    return out


def median_of(passes, key):
    return statistics.median(key(p) for p in passes)


def _version(package: str) -> str | None:
    try:
        return importlib.metadata.version(package)
    except importlib.metadata.PackageNotFoundError:
        return None


def environment(seed: int) -> dict:
    return {
        "seed": seed,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "blas_thread_pin": BLAS_PIN,
        "cli_threads": 1,
    }


def measure_end_to_end(runner: Runner, workload, seconds: float, work: Path):
    setups = setup_seconds(workload, work)
    runner.one_pass()  # warm-up: lazy state, caches and the byte reference
    passes, _ = closed_loop(runner, seconds)
    pass_s = median_of(passes, lambda p: p["seconds"])
    metrics = {
        "setup_s": statistics.median(setups),
        "samples_per_s": workload.samples_per_pass / pass_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
    }
    return metrics, {"setup_runs": len(setups), "passes": len(passes), "pass_s": pass_s}


def measure_layers(runner: Runner, seconds: float, spans_path: Path):
    """Untraced passes for half the time, traced passes for the other half."""
    runner.one_pass()
    plain, _ = closed_loop(runner, seconds / 2.0)
    tracer = Tracer()
    tracer.install()
    try:
        traced, layers = closed_loop(runner, seconds / 2.0, tracer)
    finally:
        tracer.uninstall()
    spans_path.parent.mkdir(exist_ok=True)
    tracer.write(spans_path)
    metrics = {f"{c}_s": median_of(plain, lambda p: p["per_command"].get(c, 0.0)) for c in COMMANDS}
    metrics["error_rate"] = len(runner.failures) / runner.attempted
    metrics["cli.bytes_written"] = median_of(plain, lambda p: p["bytes"])
    for name in layers[0]:
        metrics[name] = statistics.median(layer[name] for layer in layers)
    metrics["trace.overhead_s"] = median_of(traced, lambda p: p["seconds"]) - median_of(
        plain, lambda p: p["seconds"]
    )
    info = {
        "untraced_passes": len(plain),
        "traced_passes": len(traced),
        "spans": len(tracer.spans),
        "spans_file": str(spans_path.relative_to(ROOT)),
    }
    return metrics, info


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    try:
        import homindex.cli as cli
    except ImportError as exc:
        print(f"error: cannot import homindex from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2

    workload = make_workload(args.workload, args.seed)
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".perfbench-work-") as tmp:
        work = Path(tmp)
        for name, doc in workload.documents.items():
            (work / name).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
        runner = Runner(cli, workload, work)
        if args.trace:
            spans_path = ROOT / SPANS_DIR / f"spans-{args.workload}-seed{args.seed}.tsv.gz"
            metrics, info = measure_layers(runner, args.seconds, spans_path)
        else:
            metrics, info = measure_end_to_end(runner, workload, args.seconds, work)
    info["samples_per_pass"] = workload.samples_per_pass

    print("environment: " + json.dumps(environment(args.seed), sort_keys=True))
    print("run: " + json.dumps(info, sort_keys=True))
    problems = Counter((c, p) for c, found in runner.failures for p in found)
    for (command, problem), times in list(problems.items())[:MAX_PROBLEMS_SHOWN]:
        print(f"check failed ({times}x): {command}: {problem}")
    if len(problems) > MAX_PROBLEMS_SHOWN:
        print(f"... and {len(problems) - MAX_PROBLEMS_SHOWN} more distinct check failures")
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {unit_of(name)}")
    failed = len(runner.failures)
    result = {
        "correct": failed == 0,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit_of(name)} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
