"""The repository benchmark: one command, three workloads.

Usage (from the repository root)::

    python3 perfbench/run.py --workload {fig01,fig02,serve_mix} \\
        --seed N --seconds S --trace {0,1}

``fig01`` and ``fig02`` run ``tcast-experiments run <fig> --jobs 2
--no-cache`` once per launched process until ``--seconds`` have passed;
``serve_mix`` runs ``tcast-serve run`` in its own process and drives it
with a closed-loop load generator (see ``README.md`` in this directory).
Every output is checked.  Human-readable results come first; the last
line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics of
``BENCHMARK.json`` with ``--trace 0``, its per-layer metrics with
``--trace 1``.  The exit code is 0 only when every check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import resource
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from stats import fail_frac

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: Worker processes for sweeps and connections of the load generator.
JOBS = 2

#: Seconds any one child process may take before it is killed.
CHILD_TIMEOUT = 150.0

#: CLOCK_MONOTONIC, the clock every process of a run stamps with.
monotonic_now = time.monotonic


class BenchError(RuntimeError):
    """The benchmark could not run (a child failed to start or finish)."""


@dataclass
class Report:
    """What one workload run measured and checked."""

    metrics: Dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    #: ``(ok, description)`` of every output check and reconciliation.
    checks: List[Tuple[bool, str]] = field(default_factory=list)
    #: Free-form lines printed before the result.
    lines: List[str] = field(default_factory=list)

    def check(self, ok: bool, description: str, *, counts: bool = True) -> bool:
        """Record one check; with ``counts`` it is also an attempt."""
        self.checks.append((ok, description))
        if counts:
            self.attempted += 1
            self.failed += 0 if ok else 1
        return ok

    @property
    def correct(self) -> bool:
        return self.failed == 0 and all(ok for ok, _ in self.checks)


class Context:
    """Run parameters plus the child processes started for them."""

    def __init__(self, args: argparse.Namespace, workdir: pathlib.Path) -> None:
        self.workload: str = args.workload
        self.seed: int = args.seed
        self.seconds: float = float(args.seconds)
        self.trace: bool = bool(args.trace)
        self.workdir = workdir
        self._procs: List[subprocess.Popen] = []
        self._errs: Dict[int, pathlib.Path] = {}
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH") else [])
        )
        self.env["TMPDIR"] = str(workdir)

    def scratch(self, prefix: str) -> pathlib.Path:
        """A fresh directory inside this run's working directory."""
        return pathlib.Path(tempfile.mkdtemp(prefix=prefix, dir=self.workdir))

    def start(self, script: str, args: Sequence[str], cwd: pathlib.Path, **popen: Any) -> subprocess.Popen:
        """Start ``perfbench/<script>`` with this run's environment."""
        err_path = cwd / f"{script}.err"
        with open(err_path, "ab") as err:
            proc = subprocess.Popen(
                [sys.executable, str(HERE / script), *args],
                cwd=cwd,
                env=self.env,
                stdin=subprocess.DEVNULL,
                stderr=err,
                **popen,
            )
        self._procs.append(proc)
        self._errs[proc.pid] = err_path
        return proc

    def wait(self, proc: subprocess.Popen, what: str) -> None:
        """Wait for ``proc``; a timeout or a non-zero exit is a BenchError."""
        try:
            rc = proc.wait(timeout=CHILD_TIMEOUT)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            raise BenchError(f"{what} did not finish within {CHILD_TIMEOUT:.0f} s") from None
        if rc != 0:
            tail = self._errs[proc.pid].read_text(errors="replace").splitlines()[-20:]
            raise BenchError(f"{what} exited with code {rc}:\n" + "\n".join(tail))

    def stop_all(self) -> None:
        """Kill and reap every child still running."""
        for proc in self._procs:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
            if proc.stdout is not None:
                proc.stdout.close()


def peak_rss_mb() -> float:
    """Largest resident set of any reaped descendant, in MB."""
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


def host_line() -> str:
    """nproc, Python and numpy versions, recorded with every run."""
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = "missing"
    return (
        f"host: nproc={os.cpu_count()} python={platform.python_version()} "
        f"numpy={numpy_version}"
    )


def cpu_ticks() -> Optional[Tuple[int, int]]:
    """``(steal, total)`` CPU ticks of the host so far, or ``None`` where
    ``/proc/stat`` is missing.  Steal is time the hypervisor gave to other
    guests: a run with high steal reads slow for reasons outside the
    program."""
    try:
        with open("/proc/stat", encoding="ascii") as stat:
            ticks = [int(v) for v in stat.readline().split()[1:9]]
    except (OSError, ValueError):
        return None
    return (ticks[7] if len(ticks) == 8 else 0), sum(ticks)


def steal_line(before: Optional[Tuple[int, int]]) -> str:
    after = cpu_ticks()
    if before is None or after is None or after[1] == before[1]:
        return "host: CPU steal not measured"
    share = (after[0] - before[0]) / (after[1] - before[1])
    return f"host: CPU steal {share:.1%} of CPU time during the run"


def load_spec() -> Dict[str, Any]:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def zero_unused(report: Report, prefixes: Tuple[str, ...]) -> None:
    """Report 0 for the per-layer metrics of layers a workload never runs."""
    for metric in load_spec()["per_layer"]:
        if metric["name"].startswith(prefixes):
            report.metrics.setdefault(metric["name"], 0)


def emit(report: Report, spec: Dict[str, Any], trace: bool) -> Dict[str, Any]:
    """Print the human-readable report; return the result object."""
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in report.metrics]
    if missing:
        raise BenchError(f"workload did not produce metrics {missing}")
    for line in report.lines:
        print(line)
    print("checks:")
    for ok, description in report.checks:
        print(f"  {'ok  ' if ok else 'FAIL'} {description}")
    frac = fail_frac(report.failed, report.attempted)
    print(f"  fail_frac {frac:.6g} ratio ({report.failed} of {report.attempted} failed)")
    title = "per-layer metrics (traced run)" if trace else "end-to-end metrics (tracing off)"
    print(f"{title}{'' if report.correct else ' -- INVALID: a check failed'}:")
    for m in wanted:
        print(f"  {m['name']:<40} {report.metrics[m['name']]:>14.6g} {m['unit']}")
    return {
        "correct": report.correct,
        "attempted": report.attempted,
        "failed": report.failed,
        "metrics": {
            m["name"]: {"value": report.metrics[m["name"]], "unit": m["unit"]}
            for m in wanted
        },
    }


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("fig01", "fig02", "serve_mix"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program to measure: {SRC / 'repro'} is missing", file=sys.stderr)
        return 2
    if (os.cpu_count() or 1) < JOBS:
        print(f"perfbench: needs at least {JOBS} CPUs", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    spec = load_spec()
    base = ROOT / ".perfbench_work"
    base.mkdir(exist_ok=True)
    workdir = pathlib.Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=base))
    ctx = Context(args, workdir)
    started = time.monotonic()
    ticks = cpu_ticks()
    try:
        if args.workload == "serve_mix":
            import serving

            report = serving.run(ctx)
        else:
            import sweeps

            report = sweeps.run(ctx)
        report.lines.insert(0, steal_line(ticks))
        report.lines.insert(0, host_line())
        report.lines.insert(0, f"perfbench {args.workload} seed={args.seed} "
                               f"seconds={args.seconds:g} trace={args.trace}")
        ctx.stop_all()
        report.metrics.setdefault("peak_rss_mb", peak_rss_mb())
        result = emit(report, spec, bool(args.trace))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        ctx.stop_all()
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            base.rmdir()
        except OSError:  # another run still uses it
            pass
    print(f"[benchmark wall time {time.monotonic() - started:.1f} s]")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    # Run as the importable module ``run``, so the workload modules (which
    # import it) share its classes -- one ``BenchError`` -- with ``main``.
    import run

    sys.exit(run.main())
