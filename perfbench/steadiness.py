"""Run the benchmark once per seed and report how steady each metric is.

Usage (from the repository root)::

    python3 perfbench/steadiness.py --workload fig01 --runs 10 [--first-seed 1]

Runs ``run.py --trace 0`` with seeds ``first-seed .. first-seed+runs-1``
at ``BENCHMARK.json``'s ``run_seconds`` and prints each run's metrics
with the host's CPU steal during it, then prints, for every
end-to-end metric, its median, its quartile spread as a share of the
median (``statistics.quantiles(values, n=4)``), and the metric's bound.
A metric whose spread exceeds its bound is marked, and so is one whose
spread exceeds a third of it (the steadiness target).  The raw results
are written as JSON to ``--out`` if given.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import subprocess
import sys

import stats

HERE = pathlib.Path(__file__).resolve().parent


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--out", type=pathlib.Path, default=None)
    args = parser.parse_args()
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    results = []
    for seed in range(args.first_seed, args.first_seed + args.runs):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(spec["run_seconds"]), "--trace", "0"],
            capture_output=True, text=True, timeout=600,
        )
        if proc.returncode != 0:
            print(proc.stdout[-3000:] + proc.stderr[-3000:], file=sys.stderr)
            return 1
        results.append(json.loads(proc.stdout.strip().splitlines()[-1]))
        steal = next((line.split("steal ", 1)[1].split()[0] for line in proc.stdout.splitlines()
                      if line.startswith("host: CPU steal ")), "?")
        print(f"seed {seed}: steal {steal}, " + ", ".join(
            f"{k}={v['value']:.5g}" for k, v in results[-1]["metrics"].items()), flush=True)
    if args.out is not None:
        args.out.write_text(json.dumps(results))
    all_ok = True
    print(f"{args.workload}: {len(results)} runs")
    for metric in spec["end_to_end"]:
        values = [r["metrics"][metric["name"]]["value"] for r in results]
        spread = stats.spread(values)
        ok = spread <= metric["bound"]
        all_ok &= ok
        note = ("SPREAD OVER BOUND" if not ok
                else "over a third of the bound" if spread > metric["bound"] / 3 else "")
        print(f"  {metric['name']:<18} median {stats.median(values):12.5g} {metric['unit']:<5} "
              f"spread {spread:7.2%}  bound {metric['bound']:.0%}  {note}")
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
