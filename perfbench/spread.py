"""Run-to-run spread and drift of the end-to-end metrics.

    python3 perfbench/spread.py

Runs every workload of BENCHMARK.json untraced at its run_seconds, in two
sets of ten runs: seeds 0-9, then seeds 10-19.  For each set and each
end-to-end metric it prints the median, the quartiles from
statistics.quantiles(values, n=4) and the spread (Q3 - Q1) / median next
to the metric's bound, and then how much the second set's median is worse
than the first's, also as a share of the bound.

Exit code 1 when a run fails or is not correct, when the failed share
differs between any two runs, when a spread other than that of setup_s
reaches its bound, or when a median gets worse by more than its bound.
setup_s is held only to the last of these: its spread is printed, but a
process start-up time on a shared machine varies with the machine, and the
bound is meant to catch work moved into set-up, which moves the median.
A spread at or above a third of its bound is marked but passes.
Raw results go to .bench_out/spread-<workload>.json.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETS = (range(0, 10), range(10, 20))


def run(bench: dict, workload: str, seed: int) -> dict:
    cmd = [*bench["command"], "--workload", workload, "--seed", str(seed),
           "--seconds", str(bench["run_seconds"]), "--trace", "0"]
    t0 = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    print(f"{workload} seed {seed} ({time.monotonic() - t0:.0f} s): correct={res['correct']} "
          f"failed {res['failed']}/{res['attempted']} "
          + " ".join(f"{k}={v['value']:.4g}" for k, v in res["metrics"].items()), flush=True)
    return res


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ok = True
    for wl in (w["name"] for w in bench["workloads"]):
        sets = [[run(bench, wl, seed) for seed in seeds] for seeds in SETS]
        runs = sets[0] + sets[1]
        (ROOT / ".bench_out").mkdir(exist_ok=True)
        (ROOT / ".bench_out" / f"spread-{wl}.json").write_text(json.dumps(sets, indent=1))
        shares = {(r["failed"] * 10**9) // r["attempted"] for r in runs}
        if len(shares) != 1 or not all(r["correct"] for r in runs):
            ok = False
            print(f"{wl}: failed shares {sorted(shares)}, correct {[r['correct'] for r in runs]}")
        for m in bench["end_to_end"]:
            name, bound = m["name"], m["bound"]
            medians = []
            for i, rs in enumerate(sets):
                vals = [r["metrics"][name]["value"] for r in rs]
                q1, _, q3 = statistics.quantiles(vals, n=4)
                med = statistics.median(vals)
                spread = (q3 - q1) / med
                medians.append(med)
                mark = "" if spread < bound / 3 else "  (not below a third of the bound)"
                if spread >= bound and name != "setup_s":
                    ok, mark = False, "  <-- AT OR ABOVE THE BOUND"
                print(f"  {wl:16s} set {i + 1} {name:14s} median {med:10.4g}  Q1 {q1:10.4g}  Q3 {q3:10.4g}"
                      f"  spread {spread:6.3f} = {spread / bound:4.2f} of bound {bound}{mark}")
            worse = (medians[1] - medians[0]) / medians[0] * (1 if m["better"] == "lower" else -1)
            mark = "" if worse <= bound else "  <-- WORSE BY MORE THAN THE BOUND"
            ok &= not mark
            print(f"  {wl:16s} drift {name:14s} set 2 worse than set 1 by {worse:+7.3f}"
                  f" = {worse / bound:+5.2f} of bound {bound}{mark}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
