"""The ``serve_mix`` workload: ``tcast-serve run`` under a closed loop.

The service runs in its own process (``serve_child.py``) with its
default configuration (2 executor lanes).  One load-generator process
(``loadgen.py``) drives it over 2 connections from one event loop.
After a warm-up, the run alternates measurement cycles: phase
``unloaded`` keeps 1 request in flight per connection (no queue forms,
nothing coalesces) for 1000 requests, then phase ``loaded`` keeps 32 in
flight per connection (a queue builds and groups coalesce) for 2000.
Every latency and throughput is measured per cycle and reported as the
median over cycles, so a slow stretch of the host moves one cycle, not
the result.  A closed loop, because the shipped clients wait for each
reply.
"""

from __future__ import annotations

import json
import os
import random
import select
import signal
import socket
import subprocess
from typing import Any, Dict, List, Optional, Tuple

import stats
from run import BenchError, Context, Report, monotonic_now, zero_unused
from sweeps import SWEEP_LAYERS

#: Phases ``(name, in-flight requests per connection, requests)``: the
#: warm-up, then one measurement cycle.  1000 requests leave 10 beyond
#: each cycle's p99.
WARMUP = ("warmup", 32, 400)
CYCLE = (("unloaded", 1, 1000), ("loaded", 32, 2000))
MEASURED = tuple(name for name, _depth, _count in CYCLE)

#: About how long one cycle takes on a 2-CPU host; a run holds
#: ``round(--seconds / CYCLE_SECONDS)`` cycles, at least one.
CYCLE_SECONDS = 8.0

#: Extra server launches per run that measure set-up only.
SETUP_PROBES = 8

#: Requests per phase re-derived on the scalar oracle.
ORACLE_REQUESTS = 16

#: Ledger layers of a served request, in pipeline order.
SERVE_LAYERS = ("serve.request", "serve.admission", "serve.scheduler", "serve.executor",
                "group_testing.vectorized", "sim.fastseed", "sim.rng", "core")


class Server:
    """One ``serve_child.py`` process, ready once its first ping answers."""

    def __init__(self, ctx: Context, trace: bool) -> None:
        self.ctx = ctx
        self.cwd = ctx.scratch("serve-")
        launched = monotonic_now()
        self.proc = ctx.start("serve_child.py", ["--trace", str(int(trace)), "--out", "out.json"],
                              self.cwd, stdout=subprocess.PIPE)
        ready, _, _ = select.select([self.proc.stdout], [], [], 60.0)
        line = self.proc.stdout.readline().decode() if ready else ""
        if "listening on" not in line:
            self.stop()
            raise BenchError(f"tcast-serve did not start (first line {line!r})")
        self.port = int(line.rsplit(":", 1)[1])
        with socket.create_connection(("127.0.0.1", self.port), timeout=30.0) as sock:
            sock.sendall(b'{"op": "ping", "id": "ping"}\n')
            reply = json.loads(sock.makefile("rb").readline())
        if not reply.get("ok"):
            raise BenchError(f"ping failed: {reply}")
        self.setup_s = monotonic_now() - launched

    def stop(self) -> Dict[str, Any]:
        """SIGTERM (graceful drain); returns the launcher's output."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        self.ctx.wait(self.proc, "tcast-serve")
        path = self.cwd / "out.json"
        return json.loads(path.read_text()) if path.exists() else {}


def drive(ctx: Context, port: int, plan: List[Tuple[str, int, int]]) -> Dict[str, Any]:
    cwd = ctx.scratch("loadgen-")
    proc = ctx.start("loadgen.py", ["--port", str(port), "--seed", str(ctx.seed),
                                    "--plan", json.dumps(plan), "--out", "out.json"], cwd)
    ctx.wait(proc, "load generator")
    return json.loads((cwd / "out.json").read_text())


def cycles(gen: Dict[str, Any], name: str) -> List[Tuple[Dict[str, Any], List[list]]]:
    """Each measured phase called ``name``, with its answered records."""
    return [(phase, [r for r in gen["records"] if r[8] == i and r[3] is not None])
            for i, phase in enumerate(gen["phases"]) if phase["name"] == name]


def check_outputs(ctx: Context, report: Report, gen: Dict[str, Any]) -> None:
    """Every reply ok, and a seeded sample re-derived on the scalar oracle."""
    from repro.serve.executor import execute_group
    from repro.serve.request import QueryRequest

    for record in gen["records"]:
        report.attempted += 1
        report.failed += 0 if record[4] else 1
    report.check(gen["threads"] == 1 and gen["connections"] <= (os.cpu_count() or 1),
                 f"load generator: one event loop, {gen['threads']} thread(s), "
                 f"{gen['connections']} connection(s) opened, nproc {os.cpu_count()}",
                 counts=False)
    bad = [r for r in gen["records"] if not r[4]]
    report.check(not bad, f"{len(gen['records'])} replies ok ({len(bad)} error frames or "
                          f"transport errors)", counts=False)
    rng = random.Random(f"perfbench-oracle/{ctx.seed}")
    for phase in MEASURED:
        answered = [r for r in gen["records"] if r[1] == phase and r[4]]
        sample = rng.sample(answered, min(ORACLE_REQUESTS, len(answered)))
        wrong = []
        for record in sample:
            request = QueryRequest.from_wire(gen["requests"][record[0]])
            (expect,) = execute_group([request], vectorize=False)
            if list(expect.decisions) != record[6] or list(expect.queries) != record[7]:
                wrong.append(request.id)
        report.attempted += len(sample)
        report.failed += len(wrong)
        report.check(not wrong, f"{phase}: {len(sample)} sampled replies match "
                                f"execute_group(vectorize=False)" + (f"; wrong {wrong}" if wrong else ""),
                     counts=False)


def end_to_end(report: Report, gen: Dict[str, Any], setups: List[float]) -> None:
    """Per-cycle latencies and throughput; each metric is their median."""
    per_cycle: Dict[str, List[float]] = {}
    for name in MEASURED:
        for i, (phase, records) in enumerate(cycles(gen, name), 1):
            lat = [(r[3] - r[2]) * 1e3 for r in records]
            wall = phase["end"] - phase["start"]
            values = {f"{name}_p50_ms": stats.percentile(lat, 0.5),
                      f"{name}_p99_ms": stats.percentile(lat, 0.99)}
            if name == "loaded":
                answered = [r for r in records if r[4]]
                values["loaded_qps"] = len(answered) / wall
                values["trials_per_s"] = sum(len(r[6]) for r in answered) / wall
            for metric, value in values.items():
                per_cycle.setdefault(metric, []).append(value)
            report.lines.append(
                f"cycle {i} {name}: depth {phase['depth']} x {gen['connections']} connections, "
                f"{wall:.2f} s, {len(lat)} replies, {stats.samples_beyond(len(lat), 0.99)} "
                f"beyond p99" + stats.support_note(len(lat), 0.99) + ", "
                + ", ".join(f"{k} {v:.5g}" for k, v in values.items()))
    for metric, values in per_cycle.items():
        report.metrics[metric] = stats.median(values)
    report.metrics["setup_s"] = stats.median(setups)
    lags = sorted(gen["lags"])
    report.lines += [
        f"latency and throughput: median over {len(per_cycle['loaded_qps'])} cycles",
        f"set-up: median of {len(setups)} server launches (launch to first ping reply)",
        f"load generator: 1 process, {gen['connections']} connections, {gen['threads']} "
        f"thread(s), {gen['cpu_s']:.2f} s CPU, reply-to-send lag p99 "
        f"{stats.percentile(lags, 0.99) * 1e3:.3f} ms",
    ]


def traced(report: Report, plain: Dict[str, Any], gen: Dict[str, Any], server: Dict[str, Any]) -> None:
    """Per-layer metrics, path partition, reconciliations and the ledger."""
    m = report.metrics
    spans = server["spans"]
    own = stats.self_times(spans)
    children = stats.children(spans)
    measured = {f"q{r[0]}": r for r in gen["records"] if r[1] in MEASURED and r[3] is not None}
    loaded_ids = {rid for rid, r in measured.items() if r[1] == "loaded"}
    loaded = [(p["start"], p["end"]) for p in gen["phases"] if p["name"] == "loaded"]
    per_rid: Dict[str, Dict[str, float]] = {rid: {} for rid in measured}
    groups = [s for s in spans if s[2] == "serve.executor"]
    for group in groups:
        breakdown: Dict[str, float] = {}
        stack = [group]
        while stack:
            span = stack.pop()
            breakdown[span[2]] = breakdown.get(span[2], 0.0) + own[span[0]]
            stack.extend(children.get(span[0], ()))
        for rid in group[6]["rids"]:
            if rid in per_rid:
                for layer, seconds in breakdown.items():
                    per_rid[rid][layer] = per_rid[rid].get(layer, 0.0) + seconds
    for span in spans:
        if span[2] in ("serve.request", "serve.admission", "serve.scheduler"):
            for rid in span[6].get("rids", [span[6].get("rid")]):
                if rid in per_rid:
                    per_rid[rid][span[2]] = per_rid[rid].get(span[2], 0.0) + span[5] - span[4]
    total = 0.0
    layer_totals = {layer: 0.0 for layer in SERVE_LAYERS}
    other_ms: List[float] = []
    for rid, record in measured.items():
        latency = record[3] - record[2]
        total += latency
        covered = 0.0
        for layer, seconds in per_rid[rid].items():
            layer_totals[layer] = layer_totals.get(layer, 0.0) + seconds
            covered += seconds
        if record[1] == "unloaded":
            other_ms.append((latency - covered) * 1e3)
    lines, ledger_ok = stats.ledger(layer_totals, total)

    def durs(layer: str, name: str, ids: Optional[set] = None) -> List[float]:
        return [s[5] - s[4] for s in spans if s[2] == layer and s[3] == name
                and (ids is None or s[6].get("rid") in ids)]

    def group_path(group: list) -> str:
        if group[6].get("batched"):
            return "kernel"
        fell_back = any(c[2] == "group_testing.vectorized" and c[6].get("error") == "UnsupportedBatch"
                        for c in children.get(group[0], ()))
        return "fallback" if fell_back else "scalar"

    m["serve.request.parse_us"] = stats.median(durs("serve.request", "parse")) * 1e6
    admits = [s for s in spans if s[2] == "serve.admission"]
    m["serve.admission.admit_us"] = stats.median(s[5] - s[4] for s in admits) * 1e6
    m["serve.admission.rejected"] = sum(bool(s[6].get("rejected")) for s in admits)
    waits = [d * 1e3 for d in durs("serve.scheduler", "queue_wait", loaded_ids)]
    m["serve.scheduler.queue_wait_ms.p50"] = stats.percentile(waits, 0.5)
    m["serve.scheduler.queue_wait_ms.p99"] = stats.percentile(waits, 0.99)
    loaded_groups = [g for g in groups if g[6]["rids"][0] in loaded_ids]
    m["serve.scheduler.group_requests"] = stats.median(len(g[6]["rids"]) for g in loaded_groups)
    m["serve.scheduler.group_runs"] = stats.median(g[6]["runs"] for g in loaded_groups)
    measured_groups = [g for g in groups if g[6]["rids"][0] in measured]
    exec_ms = [(g[5] - g[4]) * 1e3 for g in measured_groups]
    m["serve.executor.exec_ms.p50"] = stats.percentile(exec_ms, 0.5)
    m["serve.executor.exec_ms.p99"] = stats.percentile(exec_ms, 0.99)
    busy = sum(stats.covered([(g[4], g[5])], lo, hi) for g in groups for lo, hi in loaded)
    m["serve.executor.busy_frac"] = busy / (server["lanes"] * sum(hi - lo for lo, hi in loaded))
    paths = [group_path(g) for g in groups]
    counters = gen["counters"]
    counts, partition_ok = stats.partition(paths, ("kernel", "scalar", "fallback"),
                                           int(counters.get("serve.batches", 0)))
    m["serve.executor.kernel_groups"] = counts["kernel"]
    m["serve.executor.scalar_groups"] = counts["scalar"]
    m["serve.executor.fallbacks"] = counts["fallback"]
    m["serve.server.other_ms"] = stats.percentile(other_ms, 0.5)
    m["client.cpu_s"] = plain["cpu_s"]
    m["client.lag_ms"] = stats.percentile(plain["lags"], 0.99) * 1e3

    layers = stats.compute_layers(spans)
    kernel_queries = layers.pop("kernel_queries")
    m.update(layers)
    scalar_queries = server["counts"].get("model.queries", 0)
    m["model.queries"] = scalar_queries
    zero_unused(report, ("experiments.", "resilience."))
    for layer in SWEEP_LAYERS + SERVE_LAYERS + ("other",):
        m[f"self_s.{layer}"] = lines.get(layer, 0.0)
    overhead = sum(
        (traced_phase["end"] - traced_phase["start"]) - (phase["end"] - phase["start"])
        for traced_phase, phase in zip(gen["phases"], plain["phases"])
        if phase["name"] in MEASURED)
    m["trace.overhead_s"] = overhead

    sent = sum(phase["sent"] for phase in gen["phases"])
    parsed = len(durs("serve.request", "parse"))
    report.check(parsed == sent, f"server parsed {parsed} requests == {sent} sent")
    report.check(partition_ok, f"group path partition {counts} sums to the program's "
                               f"serve.batches={counters.get('serve.batches', 0)}")
    report.check(counts["fallback"] == counters.get("serve.scalar_fallbacks", 0),
                 f"fallback groups {counts['fallback']} == program serve.scalar_fallbacks="
                 f"{counters.get('serve.scalar_fallbacks', 0)}")
    kernel_requests = sum(len(g[6]["rids"]) for g, p in zip(groups, paths) if p == "kernel")
    report.check(kernel_requests == counters.get("serve.batched_requests", 0),
                 f"requests in kernel groups {kernel_requests} == program "
                 f"serve.batched_requests={counters.get('serve.batched_requests', 0)}")
    report.check(scalar_queries + kernel_queries == counters.get("model.queries", 0),
                 f"model queries scalar {scalar_queries} + kernel {kernel_queries} == "
                 f"program model.queries={counters.get('model.queries', 0)}")
    report.check(ledger_ok, f"ledger reconciles: layers + other == summed reply latency "
                            f"{total:.3f} s, other >= -{stats.LEDGER_TOLERANCE:.0%}")
    answers = {r[0]: (r[6], r[7]) for r in plain["records"]}
    report.check(answers == {r[0]: (r[6], r[7]) for r in gen["records"]},
                 "traced replies equal the untraced replies, request for request")
    report.lines.append(f"ledger over {len(measured)} measured requests, total {total:.3f} s "
                        f"= summed reply latency:")
    for layer, seconds in lines.items():
        report.lines.append(f"  {layer:<28} {seconds:10.4f} s  {seconds / total:7.2%}")
    report.lines.append(f"tracing overhead: traced minus untraced phase wall time "
                        f"{overhead:+.3f} s")


def run(ctx: Context) -> Report:
    report = Report()
    Server(ctx, False).stop()  # warms file and bytecode caches; not measured
    setups = []
    for _ in range(SETUP_PROBES):
        probe = Server(ctx, False)
        setups.append(probe.setup_s)
        probe.stop()
    server = Server(ctx, False)
    setups.append(server.setup_s)
    plan = [WARMUP] + list(CYCLE) * max(1, round(ctx.seconds / CYCLE_SECONDS))
    gen = drive(ctx, server.port, plan)
    server.stop()
    check_outputs(ctx, report, gen)
    end_to_end(report, gen, setups)
    if ctx.trace:
        server = Server(ctx, True)
        traced_gen = drive(ctx, server.port, plan)
        traced(report, gen, traced_gen, server.stop())
    return report
