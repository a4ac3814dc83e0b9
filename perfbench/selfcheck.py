"""Self-checks of the benchmark itself.

    python3 perfbench/selfcheck.py

For each workload, runs the traced run twice with seed 7 and requires
every count-valued per-layer metric to repeat exactly, both runs to be
correct (each traced run also checks that the inputs repeat for the same
seed and change with the seed, and that tracing leaves every report body
byte-identical), and charsum.phase_sum.calls to be 0 on verify-exact.
Exits 0 when all hold.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEED = 7


def traced(workload: str, command: list[str]) -> dict:
    cmd = [*command, "--workload", workload, "--seed", str(SEED), "--seconds", "1", "--trace", "1"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{workload}: traced run exited {proc.returncode}\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    counts = [m["name"] for m in bench["per_layer"] if m["unit"] == "count"]
    ok = True
    for wl in (w["name"] for w in bench["workloads"]):
        a, b = traced(wl, bench["command"]), traced(wl, bench["command"])
        differ = [n for n in counts if a["metrics"][n]["value"] != b["metrics"][n]["value"]]
        good = a["correct"] and b["correct"] and not differ
        if wl == "verify-exact" and a["metrics"]["charsum.phase_sum.calls"]["value"] != 0:
            good = False
            print(f"{wl}: charsum.phase_sum.calls is not 0")
        ok &= good
        print(f"{wl}: {'ok' if good else 'FAILED'}; {len(counts)} counts compared, differing: {differ}; "
              f"correct {a['correct']}/{b['correct']}; tracing overhead "
              f"{a['metrics']['trace.overhead_pct']['value']:.1f}% / {b['metrics']['trace.overhead_pct']['value']:.1f}%")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
