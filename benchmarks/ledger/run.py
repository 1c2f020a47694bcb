"""The repository benchmark: four workloads, end-to-end and per layer.

Run one workload (the last stdout line is the JSON result)::

    python3 benchmarks/ledger/run.py --workload example1 --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` runs traced
and reports the per-layer metrics.  Without ``--workload`` every workload
runs in turn.  ``--out DIR`` appends each result, with its details, to
``DIR/results.jsonl``; two such directories compare with::

    python3 benchmarks/ledger/run.py compare BASE_DIR NEW_DIR

Workloads, metrics and bounds are defined in ``BENCHMARK.json`` at the
repository root; ``README.md`` next to this file explains each one.  The
benchmark builds nothing: it runs the package from ``src/`` of the
checkout it sits in, with the program's defaults.  CPU-bound timings are
reported at a nominal machine speed, measured by each process on the
reference loop of ``speed.py``.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

import speed  # noqa: E402
from layers import (  # noqa: E402
    DECISION_KINDS,
    LAYERS,
    nearest_rank,
    server_times_by_rid,
    span_digest,
    tick_durations,
)

#: Default location of run records and scratch files, inside the checkout.
DEFAULT_OUT = os.path.join(HERE, "out")
#: Set-up samples per run (fresh processes, median reported).
SETUP_SAMPLES = 3
#: Seconds one serve pass lasts: the schedule is time-compressed to fit.
#: The server stays under ~15% busy at rest, so a machine running at half
#: speed still leaves most requests clear of the control ticks.
PASS_SECONDS = {"serve-vcr": 8.0, "serve-churn": 6.0}
#: Figure-8 table digest and Example-1 tolerances live here.
EXPECTED_PATH = os.path.join(HERE, "expected.json")


def load_benchmark() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def median(values) -> float:
    return statistics.median(values)


# ----------------------------------------------------------------------
# Set-up: fresh processes, launch to ready.
# ----------------------------------------------------------------------
def _worker_cmd(workload: str, seed: int, seconds: float, traced: bool, result: str) -> list[str]:
    return [
        sys.executable,
        os.path.join(HERE, "worker.py"), workload, str(seed), repr(seconds),
        "1" if traced else "0", result,
    ]


def _wait_ready(process: subprocess.Popen, marker: str) -> tuple[float, str]:
    """Block until the child prints a line starting with ``marker``."""
    line = process.stdout.readline()
    if not line.startswith(marker):
        process.kill()
        process.wait()
        raise RuntimeError(f"child exited before ready: {line!r}")
    return time.perf_counter(), line


def _finish(process: subprocess.Popen, timeout: float) -> None:
    """Wait for a child; kill it if it outlives ``timeout`` seconds."""
    try:
        process.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        process.kill()
        process.communicate()
        raise


def worker_setup_probe(workload: str) -> float:
    """Launch to ready, at the nominal speed the probe itself measured."""
    started = time.perf_counter()
    process = subprocess.Popen(
        _worker_cmd(workload, 0, 0.0, False, "-"), stdout=subprocess.PIPE, text=True
    )
    ready, _ = _wait_ready(process, "ready")
    sampled = json.loads(process.stdout.readline())
    _finish(process, 60)
    return _scaled(ready - started, sampled)


def _scaled(measured: float, sampled: dict) -> float:
    """A process's time without its reference slices, at the nominal speed."""
    return (measured - sampled["wall_s"]) * speed.factor(sampled["timings"])


# ----------------------------------------------------------------------
# Offline workloads (example1, replay-vcr): one worker process.
# ----------------------------------------------------------------------
def phase_medians(ops: list[dict], key: str) -> dict:
    """Per phase, the median of ``key`` over the phase's operations."""
    phases: dict[str, list[float]] = {}
    for op in ops:
        phases.setdefault(op["phase"], []).append(op[key])
    return {phase: median(values) for phase, values in phases.items()}


def run_offline(workload: str, seed: int, seconds: float, traced: bool, out: str) -> dict:
    begun = time.perf_counter()
    setups = [worker_setup_probe(workload) for _ in range(SETUP_SAMPLES)]
    result_path = os.path.join(out, f"{workload}-worker.json")
    # The worker measures for what is left of the run once the probes ran.
    budget = max(0.001, seconds - (time.perf_counter() - begun))
    process = subprocess.Popen(
        _worker_cmd(workload, seed, budget, traced, result_path),
        stdout=subprocess.PIPE,
        text=True,
    )
    _wait_ready(process, "ready")
    _finish(process, 170)
    if process.returncode != 0:
        raise RuntimeError(f"worker exited with {process.returncode}")
    with open(result_path) as handle:
        result = json.load(handle)
    ops = result["ops"]
    for op in ops:
        # Every timing at the nominal speed measured during its operation.
        op["speed"] = speed.factor(op["slices"])
        op["cpu_s"] *= op["speed"]
        op["wall_s"] *= op["speed"]
        if "latency_ms" in op:
            op["latency_ms"] = [ms * op["speed"] for ms in op["latency_ms"]]
    plain = [op for op in ops if not op["traced"]]
    # One round's cost: every phase at its median, so a stalled operation
    # moves only its own phase's median, and only if most samples stalled.
    cpu = phase_medians(plain, "cpu_s")
    wall = phase_medians(plain, "wall_s")
    record = {
        "speed_factor": median([op["speed"] for op in ops]),
        "setup_s": median(setups),
        "peak_rss_mb": result["maxrss_kb"] / 1024.0,
        "cpu_s": sum(cpu.values()),
        "rounds": min(sum(op["phase"] == phase for op in plain) for phase in cpu),
        "attempted": sum(op["ops"] for op in ops),
        "failed": sum(op["errors"] for op in ops),
    }
    if workload == "example1":
        # The planner's operations are its three phases; each phase's
        # latency is its median over the run.
        for phase, value in wall.items():
            record[f"{phase}_s"] = value
        phase_ms = [value * 1e3 for value in wall.values()]
        record["latency_samples"] = len(plain)
        record["p50_ms"] = nearest_rank(phase_ms, 0.50)
        record["p99_ms"] = nearest_rank(phase_ms, 0.99)
        record["checks"] = check_example1(ops)
    else:
        latencies = [ms for op in plain for ms in op["latency_ms"]]
        record["latency_samples"] = len(latencies)
        record["p50_ms"] = nearest_rank(latencies, 0.50)
        record["p99_ms"] = nearest_rank(latencies, 0.99)
        record["replay_s"] = wall["replay"]
        record["checks"] = check_replay(ops)
    if traced:
        record["layers"] = offline_layers(workload, result)
    return record


def check_example1(ops: list[dict]) -> dict:
    from repro.experiments.example1 import (
        PAPER_EXAMPLE1_ANSWER,
        PAPER_TOTAL_BUFFER,
        PAPER_TOTAL_STREAMS,
    )
    from repro.obs.summarize import wilson_interval

    with open(EXPECTED_PATH) as handle:
        expected = json.load(handle)["example1"]
    checks = {}
    tolerance = expected["total_tolerance"]
    for index, op in enumerate(ops):
        tag = f"op{index}.{op['phase']}"
        if op["phase"] == "plan":
            for name, (streams, _, _) in op["allocation"].items():
                paper = PAPER_EXAMPLE1_ANSWER[name][1]
                checks[f"{tag}.{name}.n_star"] = (
                    abs(streams - paper) <= expected["n_star_tolerance"] * paper
                )
            checks[f"{tag}.total_streams"] = (
                abs(op["total_streams"] - PAPER_TOTAL_STREAMS) <= tolerance * PAPER_TOTAL_STREAMS
            )
            checks[f"{tag}.total_buffer"] = (
                abs(op["total_buffer"] - PAPER_TOTAL_BUFFER) <= tolerance * PAPER_TOTAL_BUFFER
            )
        elif op["phase"] == "sweep":
            checks[f"{tag}.figure8_digest"] = op["figure8_digest"] == expected["figure8_digest"]
        else:
            # One viewer's resumes share its stream and partition, so they
            # are not independent: the interval counts viewers, not resumes.
            # Run on every validation of every run, a 95% interval failed
            # valid runs by chance.
            resumes = op["resume_hits"] + op["resume_misses"]
            observed = op["resume_hits"] / resumes
            low, high = wilson_interval(
                observed * op["viewers"], op["viewers"], expected["wilson_confidence"]
            )
            planned = op["planned_hits"]
            checks[f"{tag}.hit_rate"] = low <= planned[-1] and planned[0] <= high
    return checks


def check_replay(ops: list[dict]) -> dict:
    checks = {}
    digests = {op["log_digest"] for op in ops}
    checks["replays"] = len(ops) >= 2
    checks["decision_logs_identical"] = len(digests) == 1
    checks["no_errors"] = all(op["errors"] == 0 for op in ops)
    checks["books_balanced"] = all(op["balanced"] for op in ops)
    return checks


# ----------------------------------------------------------------------
# Serve workloads: the unmodified server in its own process.
# ----------------------------------------------------------------------
def _launch(out: str, tag: str, speedup: float, traced: bool):
    stats = os.path.join(out, f"server-{tag}-stats.json")
    spans = os.path.join(out, f"server-{tag}-spans.json") if traced else "-"
    command = [
        sys.executable,
        os.path.join(HERE, "serve_launcher.py"), stats, spans, "--",
        "--port", "0", "--capacity", "250", "--speedup", repr(speedup),
    ]
    log = open(os.path.join(out, f"server-{tag}.log"), "w")
    started = time.perf_counter()
    process = subprocess.Popen(command, stdout=subprocess.PIPE, stderr=log, text=True)
    try:
        ready, line = _wait_ready(process, "listening on ")
    finally:
        log.close()
    port = int(line.strip().rsplit(":", 1)[1])
    return process, port, ready - started, stats, spans


def _stop(process: subprocess.Popen) -> None:
    process.terminate()
    _finish(process, 60)


def _scrape_decisions(port: int) -> dict:
    from client import admin
    from repro.obs.scrape import parse_exposition

    response = asyncio.run(admin("127.0.0.1", port, "metrics", format="prometheus"))
    exposition = parse_exposition(response["body"])
    counts = {}
    for decision in DECISION_KINDS + ("error", "backpressure"):
        value = exposition.value("repro_service_decisions_total", decision=decision)
        if value:
            counts[decision] = int(value)
    return counts


def serve_pass(out: str, tag: str, steps, speedup: float, traced: bool) -> dict:
    from client import replay

    process, port, setup, stats_path, spans_path = _launch(out, tag, speedup, traced)
    try:
        result = asyncio.run(replay("127.0.0.1", port, steps, speedup))
        scraped = _scrape_decisions(port)
    finally:
        _stop(process)
    with open(stats_path) as handle:
        stats = json.load(handle)
    client = {k: v for k, v in result.decisions.items() if v}
    # The server's own times at the nominal speed it measured meanwhile.
    factor = speed.factor(stats["serve_slices"]["timings"])
    return {
        "speed": factor,
        "setup_s": _scaled(setup, stats["setup_slices"]),
        "cpu_s": stats["serve_cpu_s"] * factor,
        "result": result,
        "stats": stats,
        "spans_path": spans_path,
        "checks": {
            "one_response_per_request": result.answered == result.attempted and not result.severed,
            "no_failures": result.failed == 0,
            "scrape_matches_client": scraped == client,
            "books_balanced": (
                stats["books"]["open_sessions"] == 0
                and stats["books"]["in_use"] == stats["books"]["playback_block"]
            ),
            "sessions_ordered": result.sessions_ordered,
            "server_exit_clean": stats["exit_code"] == 0,
        },
    }


def serve_setup_probe(out: str) -> float:
    from client import admin

    process, port, setup, stats_path, _ = _launch(out, "probe", 60.0, False)
    try:
        # ``serve`` prints ``listening`` before it installs its SIGTERM
        # handler; once a request is answered, the handler is in place and
        # the server drains and writes its stats instead of dying.
        asyncio.run(admin("127.0.0.1", port, "health"))
    finally:
        _stop(process)
    with open(stats_path) as handle:
        return _scaled(setup, json.load(handle)["setup_slices"])


def run_serve(workload: str, seed: int, seconds: float, traced: bool, out: str) -> dict:
    import schedule

    catalog = schedule.deployment()[0]
    steps = schedule.workload_schedule(catalog, with_vcr=workload == "serve-vcr", seed=seed)
    span = steps[-1].at - steps[0].at
    speedup = span * 60.0 / PASS_SECONDS[workload]
    passes = []
    begun = time.perf_counter()
    while True:
        trace_this = traced and len(passes) % 2 == 1
        passes.append(serve_pass(out, str(len(passes)), steps, speedup, trace_this))
        passes[-1]["traced"] = trace_this
        elapsed = time.perf_counter() - begun
        enough = len(passes) >= (2 if traced else 1)
        if enough and elapsed * (len(passes) + 1) / len(passes) > seconds:
            break
    setups = [p["setup_s"] for p in passes]
    while len(setups) < SETUP_SAMPLES:
        setups.append(serve_setup_probe(out))
    plain = [p for p in passes if not p["traced"]]
    # Latencies stay as measured: a round trip is mostly waiting on the
    # other process and the kernel, and scaling it by either process's
    # speed over-corrects it.
    latencies = [ms for p in plain for _, ms, _ in p["result"].latencies]
    record = {
        "speed_factor": median([p["speed"] for p in passes]),
        "setup_s": median(setups),
        "peak_rss_mb": median([p["stats"]["maxrss_kb"] for p in plain]) / 1024.0,
        "cpu_s": median([p["cpu_s"] for p in plain]),
        "p50_ms": nearest_rank(latencies, 0.50),
        "p99_ms": nearest_rank(latencies, 0.99),
        "latency_samples": len(latencies),
        "passes": len(passes),
        "rate_per_s": len(steps) / PASS_SECONDS[workload],
        "attempted": sum(p["result"].attempted for p in passes),
        "failed": sum(p["result"].failed for p in passes),
        "lag_ms_p99": max(nearest_rank(p["result"].lag_ms, 0.99) for p in passes),
        "backlog_s": max(p["result"].backlog_s for p in passes),
        "checks": {
            f"pass{i}.{name}": ok
            for i, p in enumerate(passes)
            for name, ok in p["checks"].items()
        },
    }
    if traced:
        record["layers"] = serve_layers(passes)
    return record


# ----------------------------------------------------------------------
# Per-layer metrics from the traced rounds and passes.
# ----------------------------------------------------------------------
def _layer_metrics(digest: dict, counts: dict, extra: dict) -> dict:
    wall = digest["wall_s"]
    metrics = {
        "trace.coverage_pct": 100.0 * (1.0 - digest["root_self_s"] / wall),
    }
    for layer in LAYERS:
        metrics[f"{layer}.self_pct"] = 100.0 * digest["self_s"].get(layer, 0.0) / wall
    for name in (
        "distributions.cdf_calls", "distributions.cdf_points", "core.hitsets.configs",
        "core.hitmodel.models_built", "sizing.points_requested", "sizing.points_evaluated",
        "sizing.max_streams_calls", "sim.events", "runtime.ticks", "runtime.replans",
        "slo.alerts", "slo.shed_streams",
    ):
        metrics[name] = counts.get(name, 0)
    metrics.update(extra)
    return metrics


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _service_extras(stats: dict, decisions: dict, cache: dict, sent: int, skipped: int) -> dict:
    extras = {
        "service.engine.requests": stats.get("requests", 0),
        "service.start_admit_ratio": _ratio(
            stats.get("admitted", 0) + stats.get("batched", 0),
            stats.get("admitted", 0) + stats.get("batched", 0) + stats.get("rejected", 0),
        ),
        "service.vcr_grant_ratio": _ratio(
            stats.get("vcr_admitted", 0), stats.get("vcr_admitted", 0) + stats.get("vcr_denied", 0)
        ),
        "service.resume_hit_ratio": _ratio(
            stats.get("resume_hits", 0), stats.get("resume_hits", 0) + stats.get("resume_misses", 0)
        ),
        "runtime.modelcache_hit_ratio": _ratio(cache["hits"], cache["hits"] + cache["misses"]),
        "service.server.backpressure": decisions.get("backpressure", 0),
        "loadgen.sent": sent,
        "loadgen.skipped": skipped,
    }
    for kind in DECISION_KINDS:
        extras[f"service.decisions.{kind}"] = decisions.get(kind, 0)
    return extras


def _digest(spans: list, root: str) -> dict:
    digest = span_digest(spans, (root,))
    digest["root_self_s"] = digest["self_s"].get(root, 0.0)
    return digest


def _overhead_pct(plain: list[float], traced: list[float]) -> float:
    return 100.0 * (median(traced) - median(plain)) / median(plain)


def offline_layers(workload: str, result: dict) -> dict:
    ops = result["ops"]
    traced = [op for op in ops if op["traced"]]
    plain = [op for op in ops if not op["traced"]]
    digest = _digest(result["spans"], "job")
    # Traced rounds run whole, so counters are reported per round.
    phases = {op["phase"] for op in ops}
    scale = len(phases) / len(traced)
    counts = {k: v * scale for k, v in result["counts"].items()}
    if workload == "example1":
        extras = _service_extras({}, {}, result["cache"], 0, 0)
        extras["vod.viewers"] = next(op["viewers"] for op in traced if op["phase"] == "validate")
        details = {}
    else:
        op = traced[0]
        extras = _service_extras(
            op["stats"], op["decisions"], result["cache"], op["ops"], op["skipped"]
        )
        extras["vod.viewers"] = 0
        details = _service_details(result["spans"], digest)
    extras["trace.overhead_pct"] = _overhead_pct(
        [sum(phase_medians(plain, "wall_s").values())],
        [sum(phase_medians(traced, "wall_s").values())],
    )
    return {"metrics": _layer_metrics(digest, counts, extras), "details": details}


def _service_details(spans: list, digest: dict) -> dict:
    """Per-call latency of the service layers (reported, not gated)."""
    samples = digest["samples"]
    details = {}
    for layer, key in (
        ("service.engine", "service.engine.us"),
        ("service.gate", "service.gate.us"),
        ("service.protocol", "service.protocol.us"),
        ("service.server", "service.server.us"),
    ):
        values = [s * 1e6 for s in samples.get(layer, [])]
        if values:
            details[f"{key}_p50"] = nearest_rank(values, 0.50)
            details[f"{key}_p99"] = nearest_rank(values, 0.99)
    ticks = [t * 1e3 for t in tick_durations(spans)]
    if ticks:
        details["runtime.tick_ms_p50"] = nearest_rank(ticks, 0.50)
        details["runtime.tick_ms_max"] = max(ticks)
        details["runtime.tick_s_total"] = sum(ticks) / 1e3
    details["runtime.refit_self_s"] = digest["self_s"].get("runtime.refit", 0.0)
    return details


def serve_layers(passes: list[dict]) -> dict:
    traced = [p for p in passes if p["traced"]]
    plain = [p for p in passes if not p["traced"]]
    chosen = traced[0]
    with open(chosen["spans_path"]) as handle:
        dumped = json.load(handle)
    spans, counts = dumped["spans"], dumped["counts"]
    digest = _digest(spans, "serve")
    stats = chosen["stats"]
    result = chosen["result"]
    extras = _service_extras(
        stats["engine"], result.decisions, stats["cache"], result.attempted, result.skipped
    )
    extras["vod.viewers"] = 0
    extras["trace.overhead_pct"] = _overhead_pct(
        [p["cpu_s"] for p in plain], [p["cpu_s"] for p in traced]
    )
    metrics = _layer_metrics(digest, counts, extras)
    details = _service_details(spans, digest)
    server_ms = {rid: s * 1e3 for rid, s in server_times_by_rid(spans).items()}
    transport = [
        sent_ms - server_ms[rid]
        for rid, _, sent_ms in result.latencies
        if rid in server_ms
    ]
    if transport:
        details["transport.ms_p50"] = nearest_rank(transport, 0.50)
        details["transport.ms_p99"] = nearest_rank(transport, 0.99)
    details["loadgen.lag_ms_p99"] = nearest_rank(result.lag_ms, 0.99)
    details["loadgen.backlog_s"] = result.backlog_s
    return {"metrics": metrics, "details": details}


# ----------------------------------------------------------------------
# The command.
# ----------------------------------------------------------------------
RUNNERS = {
    "example1": run_offline,
    "replay-vcr": run_offline,
    "serve-vcr": run_serve,
    "serve-churn": run_serve,
}


def run_workload(
    bench: dict, workload: str, seed: int, seconds: float, traced: bool, out: str
) -> dict:
    scratch = os.path.join(out, workload)
    os.makedirs(scratch, exist_ok=True)
    record = RUNNERS[workload](workload, seed, seconds, traced, scratch)
    checks = record.pop("checks")
    correct = bool(checks) and all(checks.values())
    if traced:
        layers = record.pop("layers")
        names = [m["name"] for m in bench["per_layer"]]
        units = {m["name"]: m["unit"] for m in bench["per_layer"]}
        metrics = {n: {"value": layers["metrics"][n], "unit": units[n]} for n in names}
        details = {**record, **layers["details"]}
    else:
        names = [m["name"] for m in bench["end_to_end"]]
        units = {m["name"]: m["unit"] for m in bench["end_to_end"]}
        metrics = {n: {"value": record[n], "unit": units[n]} for n in names}
        details = record
    return {
        "correct": correct,
        "attempted": int(record["attempted"]),
        "failed": int(record["failed"]),
        "metrics": metrics,
        "workload": workload,
        "seed": seed,
        "trace": int(traced),
        "checks": checks,
        "details": details,
    }


def print_report(outcome: dict) -> None:
    print(f"workload {outcome['workload']} seed {outcome['seed']} trace {outcome['trace']}")
    for name, metric in outcome["metrics"].items():
        print(f"  {name:36s} {metric['value']:>14.6g} {metric['unit']}")
    for name, value in sorted(outcome["details"].items()):
        if name not in outcome["metrics"] and isinstance(value, (int, float)):
            print(f"  ({name:34s} {value:>14.6g})")
    failed = [name for name, ok in outcome["checks"].items() if not ok]
    print(f"  checks: {len(outcome['checks']) - len(failed)}/{len(outcome['checks'])} passed"
          + (f"; FAILED: {', '.join(failed)}" if failed else ""))


def main(argv: list[str]) -> int:
    if argv and argv[0] == "compare":
        from compare import main as compare_main

        return compare_main(argv[1:])
    bench = load_benchmark()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=float(bench["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None, help="append results to DIR/results.jsonl")
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"no program source at {SRC}: run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(1, SRC)
    workloads = [args.workload] if args.workload else [w["name"] for w in bench["workloads"]]
    out = args.out or DEFAULT_OUT
    outcomes = []
    for workload in workloads:
        outcome = run_workload(bench, workload, args.seed, args.seconds, bool(args.trace), out)
        print_report(outcome)
        outcomes.append(outcome)
        if args.out:
            with open(os.path.join(args.out, "results.jsonl"), "a") as handle:
                handle.write(json.dumps(outcome) + "\n")
    for outcome in outcomes:
        line = {key: outcome[key] for key in ("correct", "attempted", "failed", "metrics")}
        print(json.dumps(line))
    return 0 if all(o["correct"] for o in outcomes) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
