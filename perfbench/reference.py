"""Reference figures: the baseline table of single library calls, per model kind.

    python3 perfbench/reference.py            # about five minutes

Times, on the shipped table1.cfg with 100 paths and 351 steps:
``simulate_paths``; one ``build_coefficient_table(t=0, t_max)``; and
``simulate_scheme`` with the optimal policy, once with pendraw's caches
emptied (cold) and once right after (warm). Prints a Markdown table. Measured
once for the README; the benchmark proper is ``run.py``.
"""

import os
import platform
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
sys.path.insert(0, str(HERE.parent / "src"))

import numpy as np  # noqa: E402
import pendraw  # noqa: E402
from pendraw.pricing import build_coefficient_table  # noqa: E402
from pendraw.scheme import OPTIMAL, simulate_scheme  # noqa: E402

import workloads  # noqa: E402
from worker import clear_caches  # noqa: E402


def timed(fn):
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def main() -> int:
    rows = {"`simulate_paths`": [], "one `build_coefficient_table(0, t_max)`": [],
            "`simulate_scheme`, cold caches": [],
            "`simulate_scheme`, warm caches": []}
    work = HERE / ".work" / f"reference-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    for kind in workloads.KINDS:
        cfg = pendraw.load_config(workloads.write_config(
            pendraw, work / f"{kind}.cfg", kind))
        model = pendraw.build_model(cfg)
        sc = cfg.scenario
        grid = pendraw.TimeGrid(0.0, sc.horizon, sc.dt)
        paths = pendraw.simulate_paths(model, grid, sc.n_paths, sc.seed)
        rows["`simulate_paths`"].append(timed(
            lambda: pendraw.simulate_paths(model, grid, sc.n_paths, sc.seed)))
        rows["one `build_coefficient_table(0, t_max)`"].append(timed(
            lambda: build_coefficient_table(model, 0.0, sc.t_max)))
        clear_caches(pendraw)
        for label in ("cold", "warm"):
            rows[f"`simulate_scheme`, {label} caches"].append(timed(
                lambda: simulate_scheme(model, sc, cfg.market, OPTIMAL, paths)))
            print(f"{kind} {label} done", file=sys.stderr)
    print(f"Python {platform.python_version()}, numpy {np.__version__}, "
          f"{os.cpu_count()} CPUs, {sc.n_paths} paths, {grid.n_steps + 1} steps\n")
    print("| measurement | " + " | ".join(workloads.KINDS) + " |")
    print("| --- |" + " --- |" * len(workloads.KINDS))
    for label, values in rows.items():
        cells = [f"{v * 1e3:.1f} ms" if v < 1 else f"{v:.2f} s" for v in values]
        print(f"| {label} | " + " | ".join(cells) + " |")
    for f in work.iterdir():
        f.unlink()
    work.rmdir()
    return 0


if __name__ == "__main__":
    sys.exit(main())
