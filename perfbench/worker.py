"""One workload in one process: set up, run whole rounds until the given
number of seconds has passed, check the outputs, and print one JSON line.

Started by ``run.py`` with ``PYTHONPATH`` pointing at the checkout's ``src``
and BLAS pinned to one thread. ``--t0`` is the parent's ``time.monotonic()``
just before it started this process, so ``setup_s`` counts interpreter start.
With ``--probe`` the process stops after set-up and reports ``setup_s`` only.
With ``--trace 1`` every public pendraw function is wrapped by the recorder in
``tracer.py``; rounds then alternate traced and untraced, and the report holds
the per-layer metrics of the traced rounds.
"""

import argparse
import importlib
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MAX_MEASURE_S = 150.0

# Per-layer metrics read off the recorder: the metric is
# "<module>.<function>.<field>", the field being "calls", "self_s" or a work
# count from tracer.WORK.
LAYER_METRICS = [
    "numerics.normal_block.calls", "numerics.normal_block.streams",
    "numerics.normal_block.self_s",
    "numerics.solve_ode.calls", "numerics.solve_ode.steps",
    "numerics.solve_ode.self_s",
    "mortality.simulate_paths.path_steps", "mortality.simulate_paths.self_s",
    "mortality.death_time_distribution.self_s",
    "pricing.build_coefficient_table.calls",
    "pricing.build_coefficient_table.nodes",
    "pricing.build_coefficient_table.self_s",
    "control.g_and_gradient.calls", "control.g_and_gradient.states",
    "control.g_and_gradient.self_s",
    "scheme.simulate_scheme.calls", "scheme.simulate_scheme.path_steps",
    "scheme.simulate_scheme.self_s",
    "experiments.write_csv.rows", "experiments.write_csv.bytes",
    "experiments.write_csv.self_s",
]
UNITS = {"self_s": "s", "bytes": "B"}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--t0", type=float, required=True)
    p.add_argument("--probe", action="store_true")
    p.add_argument("--tiny", action="store_true",
                   help="tiny inputs, for the self-test")
    return p.parse_args(argv)


def import_pendraw():
    """Import pendraw from the checkout's src/; return it and the seconds taken."""
    t0 = time.perf_counter()
    pendraw = importlib.import_module("pendraw")
    importlib.import_module("pendraw.cli")
    seconds = time.perf_counter() - t0
    src = (ROOT / "src").resolve()
    if Path(pendraw.__file__).resolve().parent.parent != src:
        raise SystemExit(f"pendraw was imported from {pendraw.__file__}, "
                         f"not from {src}")
    return pendraw, seconds


def clear_caches(pendraw) -> None:
    """Empty every functools cache in pendraw, so that each round pays what
    one fresh process pays."""
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == "pendraw" or name.startswith("pendraw.")):
            continue
        for obj in list(vars(mod).values()):
            cache_clear = getattr(obj, "cache_clear", None)
            if callable(cache_clear):
                cache_clear()


def layer_metrics(recorder, per_round, setup_stats):
    """Per traced round: counts (identical in every round) and median self
    times; set-up metrics from the set-up phase."""
    metrics = {}
    n = len(per_round)
    for metric in LAYER_METRICS:
        key, field = metric.rsplit(".", 1)
        found = recorder.find(key)
        stats = [r.get(found, tracer.Stat()) if found else tracer.Stat()
                 for r in per_round]
        if field == "self_s":
            value = statistics.median(s.self_s for s in stats)
        elif field == "calls":
            value = sum(s.calls for s in stats) / n
        else:
            value = sum(s.work.get(field, 0) for s in stats) / n
        metrics[metric] = (value, UNITS.get(field, "count"))
    g_key = recorder.find("control.g_and_gradient")
    t_key = recorder.find("pricing.build_coefficient_table")
    lookups = sum(r[g_key].calls for r in per_round) if g_key else 0
    misses = sum(r[t_key].callers.get(g_key, 0) for r in per_round) \
        if g_key and t_key else 0
    metrics["control.table_hit_ratio"] = (
        (lookups - misses) / lookups if lookups else 0.0, "ratio")
    load = recorder.find("config.load_config")
    metrics["config.load_config.self_s"] = (
        setup_stats[load].self_s if load else 0.0, "s")
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    pendraw, import_s = import_pendraw()
    import workloads  # after pendraw, so that import_s counts numpy

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    recorder = None
    if args.trace:
        recorder = tracer.Recorder()
        recorder.install(pendraw)
        recorder.enabled = True

    work = HERE / ".work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        wl = workloads.WORKLOADS[args.workload](pendraw, work, args.seed,
                                                args.tiny)
        wl.setup()
        setup_s = time.monotonic() - args.t0
        if args.probe:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        setup_stats = recorder.snapshot() if recorder else None
        if recorder:
            recorder.enabled = False
        wl.prepare()

        attempted, failures = 0, []
        times, traced_times, per_round = [], [], []
        start = time.perf_counter()
        budget = min(args.seconds, MAX_MEASURE_S)
        while True:
            clear_caches(pendraw)
            traced = (recorder is not None
                      and (len(times) + len(traced_times)) % 2 == 0)
            if recorder:
                recorder.enabled = traced
                before = recorder.snapshot()
            t0 = time.perf_counter()
            ops, fails = wl.run_round()
            elapsed = time.perf_counter() - t0
            if recorder:
                recorder.enabled = False
                if traced:
                    per_round.append(tracer.delta(recorder.snapshot(), before))
            wl.after_round()
            (traced_times if traced else times).append(elapsed)
            attempted += ops
            failures += [f for f in fails if f]
            done = len(times) + len(traced_times)
            if done >= (2 if recorder else 1) and \
                    time.perf_counter() - start >= budget:
                break
        ops, fails = wl.finish()
        attempted += ops
        failures += [f for f in fails if f]
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for failure in failures[:20]:
        print("check failed: " + "; ".join(failure), file=sys.stderr)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    report = {"correct": not failures, "attempted": attempted,
              "failed": len(failures), "setup_s": setup_s,
              "round_s": times, "traced_round_s": traced_times}
    if recorder:
        metrics = layer_metrics(recorder, per_round, setup_stats)
        metrics["setup.import_s"] = (import_s, "s")
        metrics["trace.overhead_s"] = (
            statistics.median(traced_times) - statistics.median(times), "s")
        report["metrics"] = {k: {"value": v, "unit": u}
                             for k, (v, u) in metrics.items()}
        absent = sorted({m.rsplit(".", 1)[0] for m in LAYER_METRICS
                         if recorder.find(m.rsplit(".", 1)[0]) is None})
        if absent:
            print("absent from pendraw: " + ", ".join(absent), file=sys.stderr)
        detail = {"absent": absent, "wrapped": recorder.wrapped,
                  "rounds": [{k: vars(s) for k, s in r.items() if s.calls}
                             for r in per_round]}
        (HERE / ".work").mkdir(exist_ok=True)
        with open(HERE / ".work" / f"trace-{args.workload}.json", "w") as fh:
            json.dump(detail, fh, indent=1, sort_keys=True)
    else:
        report["metrics"] = {
            "run_s": {"value": statistics.median(times), "unit": "s"},
            "peak_rss_mb": {"value": peak_mb, "unit": "MB"},
        }
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
