"""Sweep launcher: one ``tcast-experiments run <fig>`` in a fresh process.

Started by ``run.py`` with ``src`` on ``PYTHONPATH`` and a scratch
working directory, so the CLI's default run journal lands there.  It
imports the program, installs the shard stamps (and, with ``--trace 1``,
the layer wrappers), starts the supervised worker pool, records the
moment it is ready, then calls the shipped entry point
``repro.experiments.cli.main`` with::

    run FIG --jobs JOBS --no-cache --runs R --seed S [--metrics metrics.json]

with ``JOBS`` from ``run.py``.

``--seed`` omitted means set-up only.  The results (ready time, the
sweep's wall interval and full-precision series, the shard stamps, and
any spans) are written as JSON to ``--out`` when the run ends.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import pathlib
import sys

import spans
from run import JOBS


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--fig", required=True)
    parser.add_argument("--runs", type=int, required=True)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=pathlib.Path, required=True)
    args = parser.parse_args()

    tracer = spans.Tracer(enabled=bool(args.trace))
    from repro.experiments import cli, resilience
    from repro.experiments.common import shutdown_executors

    if args.trace:
        spans.install_sweep(tracer)
    spans.install_shard_stamps(tracer)
    # Start the supervised pool the CLI will reuse, so worker start-up
    # belongs to set-up and not to the sweep.
    pool = resilience._get_pool(JOBS)
    for future in [pool.submit(os.getpid) for _ in range(2 * JOBS)]:
        future.result()
    shards = spans.stamp_pool_submissions(tracer)
    out = {"ready": spans.monotonic(), "parent_pid": os.getpid(), "shards": shards}
    if args.seed is not None:
        captured = []
        run_experiment = cli.run_experiment

        def capture(exp_id, **kwargs):
            result, from_cache = run_experiment(exp_id, **kwargs)
            captured.append(result)
            return result, from_cache

        cli.run_experiment = capture
        argv = ["run", args.fig, "--jobs", str(JOBS), "--no-cache",
                "--runs", str(args.runs), "--seed", str(args.seed)]
        metrics_path = pathlib.Path("metrics.json")
        if args.trace:
            argv += ["--metrics", str(metrics_path)]
        out["error"] = None
        with open("cli.log", "a", encoding="utf-8") as log, contextlib.redirect_stdout(
            log
        ), tracer.span("experiments", "sweep"):
            out["start"] = spans.monotonic()
            try:
                out["rc"] = cli.main(argv)
            except Exception as exc:  # reported as a failed sweep
                out["rc"], out["error"] = None, repr(exc)
            out["end"] = spans.monotonic()
        if captured:
            out["series"] = [
                {"label": s.label, "xs": list(s.xs), "ys": list(s.ys)}
                for s in captured[-1].series
            ]
            out["notes"] = list(captured[-1].notes)
        if args.trace and metrics_path.exists():
            out["metrics"] = json.loads(metrics_path.read_text())
    shutdown_executors()
    if args.trace:
        out["spans"] = tracer.spans
        out["counts"] = tracer.counts()
    args.out.write_text(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
