"""Start ``repro-vod serve`` for the benchmark, optionally traced.

Usage::

    python3 serve_launcher.py STATS_OUT SPANS_OUT -- <serve arguments>

``SPANS_OUT`` is ``-`` for an untraced server.  The launcher starts a
``speed.Sampler``, records the process's CPU time once the server is
listening, runs the unmodified CLI entry point, and at exit writes the
server-side numbers the benchmark reads: CPU seconds while serving (less
the sampler's), peak RSS, engine decision counts, control loop and cache
counters, and the reference slices of set-up and of serving.  A traced
server also writes its spans.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(HERE)), "src"))


def main(argv: list[str]) -> int:
    stats_out, spans_out, separator, *serve_args = argv
    if separator != "--":
        raise SystemExit("usage: serve_launcher.py STATS_OUT SPANS_OUT -- <serve args>")
    import speed

    sampler = speed.Sampler()
    sampler.start()
    try:
        return serve(stats_out, spans_out, serve_args, sampler)
    finally:
        # Its timer signal would end the process once the handler is gone.
        sampler.stop()


def serve(stats_out: str, spans_out: str, serve_args: list[str], sampler) -> int:
    import repro.cli as cli
    import repro.service.server as server
    from layers import capture, install, install_idle
    from repro.vod.streams import StreamPurpose
    from spans import Tracer

    tracer = Tracer()
    tracer.enabled = spans_out != "-"
    if tracer.enabled:
        install(tracer)
        install_idle(tracer)
    captured = capture()

    marks: dict = {}
    start = server.AdmissionService.start

    async def start_and_mark(self):
        await start(self)
        marks["ready_cpu"] = time.process_time()
        marks["ready_sampler"] = sampler.mark()
        if tracer.enabled:
            # Everything the server does from here on nests under one root.
            marks["root"] = tracer.open("serve")

    server.AdmissionService.start = start_and_mark
    code = cli.main(["serve", *serve_args])
    if "root" in marks:
        tracer.close(marks["root"])
    serve_cpu_s = time.process_time() - marks["ready_cpu"]
    sampler.stop()
    ready = marks["ready_sampler"]
    serving = sampler.since(ready)
    usage = resource.getrusage(resource.RUSAGE_SELF)
    engine = captured.engines[0]
    stats = {
        "exit_code": code,
        "serve_cpu_s": serve_cpu_s - serving["cpu_s"],
        "setup_slices": {"timings": sampler.timings[: ready[0]], "wall_s": ready[2]},
        "serve_slices": serving,
        "maxrss_kb": usage.ru_maxrss,
        "engine": vars(engine.stats),
        "books": {
            "open_sessions": len(engine.registry),
            "in_use": engine.account.in_use,
            "playback_block": engine.account.held_for(StreamPurpose.PLAYBACK),
        },
        "ticks": engine.control_loop.ticks_run if engine.control_loop else 0,
        "controller": captured.controllers[0].counters() if captured.controllers else {},
        "cache": _cache_counts(captured.caches),
        "slo": engine.slo.snapshot() if engine.slo else {},
    }
    with open(stats_out, "w") as handle:
        json.dump(stats, handle)
    if tracer.enabled:
        tracer.dump(spans_out)
    return code


def _cache_counts(caches) -> dict:
    hits = sum(cache.evaluation_stats.hits for cache in caches)
    misses = sum(cache.evaluation_stats.misses for cache in caches)
    return {"hits": hits, "misses": misses}


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
