"""Fast self-test of the benchmark (about 20 seconds).

    python3 perfbench/selftest.py

Runs every workload at a tiny size, in this process and through ``run.py``
with tracing off and on, and requires every check to pass on the real outputs
and to reject a deliberately corrupted copy of them. Exits 1 if any check
accepts a corrupted output or rejects a clean one.
"""

import copy
import json
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import pendraw  # noqa: E402
import pendraw.cli  # noqa: E402,F401
import workloads as W  # noqa: E402

RESULTS = []


def expect(label: str, errors, reject: bool) -> None:
    ok = bool(errors) == reject
    RESULTS.append(ok)
    verdict = "rejects" if errors else "accepts"
    print(f"{'ok  ' if ok else 'FAIL'} {verdict} {label}"
          + (f": {errors[0]}" if errors and not ok else ""))


def tiny(cls, work: Path):
    wl = cls(pendraw, work, seed=3, tiny=True)
    wl.setup()
    wl.prepare()
    return wl


def policy_cold(work: Path) -> None:
    wl = tiny(W.PolicyCold, work)
    _, fails = wl.run_round()
    expect("policy-cold outputs", sum(fails, []), reject=False)
    _, fails = wl.finish()
    expect("policy-cold oracle and gradient", sum(fails, []), reject=False)

    kind, t = "cir-sub", wl.anchors[-1]
    dec = wl.decisions[(kind, t)]
    lam, wealth = wl.states[(kind, t)]
    market = wl.cfgs[kind].market
    stock = market.theta_s / market.sigma_s

    def corrupt(**changes):
        return W.check_decision(0, dict(dec, **changes), wealth, stock)

    expect("policy exit code 2", W.check_decision(2, dec, wealth, stock), True)
    expect("unparseable policy output", W.check_decision(
        0, W.parse_policy("t,G\n1,2\n"), wealth, stock), True)
    expect("G <= 0", corrupt(G=-dec["G"],
                             withdraw_rate=-dec["withdraw_rate"]), True)
    expect("withdraw_rate off by 1e-7",
           corrupt(withdraw_rate=dec["withdraw_rate"] * (1 + 1e-7)), True)
    expect("cash weight off by 1e-7",
           corrupt(cash_weight=dec["cash_weight"] + 1e-7), True)
    expect("stock weight off by 1e-6 (sum kept)",
           corrupt(stock_weight=dec["stock_weight"] + 1e-6,
                   cash_weight=dec["cash_weight"] - 1e-6), True)

    cfg, model = wl.cfgs[kind], wl.models[kind]
    g_ref = W.oracles.annuity_value(pendraw.pricing, model, cfg.scenario,
                                    cfg.market, t, lam)
    expect("G off the quadrature by 1e-7", W.check_oracle_G(
        dec["G"] * (1 + 1e-7), g_ref), True)
    grad = pendraw.annuity_G_gradient(model, cfg.scenario, cfg.market, t, lam)
    fd = W.oracles.central_gradient(pendraw.annuity_G, model, cfg.scenario,
                                    cfg.market, t, lam)
    expect("gradient off by 1e-5", W.check_gradient(grad * (1 + 1e-5), fd), True)


def ou_sub_sweep(work: Path) -> None:
    wl = tiny(W.OuSubSweep, work)
    _, fails = wl.run_round()
    expect("ou-sub-sweep outputs", sum(fails, []), reject=False)
    args = (wl.VALUES, wl.times, wl.a1_maturity, wl.cfg.sigma1, wl.stock_weight)

    def corrupt(table, col, row, delta, col2=None):
        tables = copy.deepcopy(wl.tables)
        rows = tables[table][1]
        rows[row, col] += delta
        if col2 is not None:
            rows[row, col2] -= delta
        return W.check_sweep(0, tables, *args)

    expect("sweep exit code 2", W.check_sweep(2, wl.tables, *args), True)
    expect("bond weight shifted by 1e-6 (sum kept)", corrupt(1, 3, 5, 1e-6, 4), True)
    expect("stock weight shifted by 1e-6 (sum kept)", corrupt(0, 2, 0, 1e-6, 4), True)
    expect("cash weight shifted by 1e-7", corrupt(0, 4, 3, 1e-7), True)
    expect("value column changed", corrupt(0, 1, 2, 1e-4), True)
    tables = copy.deepcopy(wl.tables)
    tables[0] = (tables[0][0], tables[0][1][:-1])
    expect("a sweep row dropped", W.check_sweep(0, tables, *args), True)
    tables = copy.deepcopy(wl.tables)
    tables[1] = (["time", "value"] + tables[1][0][2:], tables[1][1])
    tables[1][0][2] = "w_bond"
    expect("sweep header changed", W.check_sweep(0, tables, *args), True)


def mc_survival(work: Path) -> None:
    wl = tiny(W.McSurvival, work)
    _, fails = wl.run_round()
    expect("mc-survival outputs", sum(fails, []), reject=False)
    paths, dist = wl.last
    wl.after_round()
    _, fails = wl.finish()
    expect("mc-survival stitched halves", sum(fails, []), reject=False)

    at = paths.survival[:, wl.idx]
    se = at.std(axis=0) / np.sqrt(wl.n_paths)
    expect("mean survival 1% high", W.check_mc_survival(
        at.mean(axis=0) * 1.01, se, wl.exact, wl.grid.step), True)

    def corrupt(name, row, col, value):
        arrays = {"lambda1": paths.lambda1, "lambda2": paths.lambda2,
                  "survival": paths.survival, "cdf": dist.cdf}
        bad = arrays[name].copy()
        bad[row, col] = value
        arrays[name] = bad
        return W.check_mc_paths(**arrays)

    expect("negative CIR hazard", corrupt("lambda2", 7, 9, -1e-12), True)
    expect("survival increases", corrupt(
        "survival", 3, 20, paths.survival[3, 19] * (1 + 1e-9)), True)
    expect("death CDF above 1", corrupt("cdf", 2, -1, 1.0 + 1e-12), True)
    expect("death CDF decreases", corrupt(
        "cdf", 5, 30, dist.cdf[5, 29] * (1 - 1e-9)), True)
    bad = dict(wl.digest, shocks2="0" * 64)
    expect("stitched block differs", W.check_stitched(wl.digest, bad), True)


def mortality_dump(work: Path) -> None:
    wl = tiny(W.MortalityDump, work)
    wl.run_round()
    first_sha = wl.sha
    _, fails = wl.run_round()
    expect("mortality-dump outputs, bytes equal to the previous round",
           sum(fails, []), reject=False)
    data, n, times = wl.data, wl.n_paths, wl.times
    lines = data.split(b"\n")

    def check(bad: bytes, previous=first_sha):
        return W.check_dump(0, bad, n, times, previous)

    expect("mortality exit code 2", W.check_dump(2, data, n, times, None), True)
    expect("last row dropped", check(b"\n".join(lines[:-2] + [b""]), None), True)
    expect("header changed", check(data.replace(b"survival", b"surv", 1), None), True)
    row = lines[40].split(b",")
    row[4] = repr(float(row[4]) * (1 + 1e-7)).encode()
    bad = b"\n".join(lines[:40] + [b",".join(row)] + lines[41:])
    expect("one survival value off by 1e-7", check(bad, None), True)
    row = lines[41].split(b",")
    row[1] = b"7"
    bad = b"\n".join(lines[:41] + [b",".join(row)] + lines[42:])
    expect("one path_id changed", check(bad, None), True)
    expect("bytes differ from the previous round", check(data, "0" * 64), True)


def end_to_end() -> None:
    for name in W.WORKLOADS:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", name,
                 "--seed", "5", "--seconds", "1", "--trace", str(trace),
                 "--tiny"], cwd=ROOT, stdout=subprocess.PIPE,
                stderr=subprocess.PIPE, text=True, timeout=170)
            lines = proc.stdout.strip().splitlines()
            report = json.loads(lines[-1]) if lines else {}
            ok = (proc.returncode == 0 and report.get("correct") is True
                  and report.get("failed") == 0
                  and report.get("attempted", 0) >= 1
                  and set(report) == {"correct", "attempted", "failed", "metrics"})
            RESULTS.append(ok)
            print(f"{'ok  ' if ok else 'FAIL'} run.py {name} --trace {trace}: "
                  f"{len(report.get('metrics', {}))} metrics")
            if not ok:
                print(proc.stderr, end="")


def main() -> int:
    with tempfile.TemporaryDirectory(dir=HERE) as tmp:
        for test in (policy_cold, ou_sub_sweep, mc_survival, mortality_dump):
            work = Path(tmp) / test.__name__
            work.mkdir()
            test(work)
    end_to_end()
    print(f"{sum(RESULTS)}/{len(RESULTS)} self-test checks passed")
    return 0 if all(RESULTS) else 1


if __name__ == "__main__":
    sys.exit(main())
