"""pendraw benchmark: one workload, one seed, one JSON line.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout; pendraw is imported from its ``src/``.
Workloads: policy-cold, ou-sub-sweep, mc-survival, mortality-dump (see
README.md). With ``--trace 0`` the last line of stdout holds the end-to-end
metrics ``run_s``, ``setup_s`` and ``peak_rss_mb``; with ``--trace 1`` it holds
the per-layer metrics of a traced run. Exits 2 if the checkout has no pendraw
source.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# set-up is measured in this many fresh processes besides the workload's own
SETUP_PROBES = 4
# every child process must end within this many seconds of our start
DEADLINE_S = 170.0


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    # one BLAS thread: the G matvecs are small, and on a shared 2-core machine
    # a BLAS thread pool only adds contention and run-to-run spread
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    # a fixed string-hash seed keeps dict layouts, and so Python-bound
    # timings, the same from process to process
    env["PYTHONHASHSEED"] = "0"
    return env


def run_worker(args, started: float, probe: bool = False) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if probe:
        cmd.append("--probe")
    if args.tiny:
        cmd.append("--tiny")
    timeout = DEADLINE_S - (time.monotonic() - started)
    if timeout <= 0:
        raise RuntimeError("no time left for the workload process")
    t0 = time.monotonic()
    proc = subprocess.run(cmd + ["--t0", repr(t0)], cwd=ROOT, env=child_env(),
                          stdout=subprocess.PIPE, text=True, timeout=timeout)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker exited with {proc.returncode}")
    return json.loads(lines[-1])


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="tiny inputs, for the self-test")
    args = p.parse_args(argv)
    started = time.monotonic()

    if not (ROOT / "src" / "pendraw" / "__init__.py").is_file():
        print(f"error: no pendraw source under {ROOT / 'src'}; run from the "
              f"root of a pendraw checkout", file=sys.stderr)
        return 2
    try:
        report = run_worker(args, started)
        if not args.trace:
            setups = [report["setup_s"]]
            for _ in range(SETUP_PROBES):
                setups.append(run_worker(args, started, probe=True)["setup_s"])
            report["metrics"]["setup_s"] = {"value": statistics.median(setups),
                                            "unit": "s"}
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    rounds = report["traced_round_s"] + report["round_s"]
    print(f"{args.workload}: {len(rounds)} rounds, "
          f"{' '.join(f'{s:.3f}' for s in rounds)} s", file=sys.stderr)
    print(json.dumps({k: report[k] for k in ("correct", "attempted", "failed",
                                              "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
