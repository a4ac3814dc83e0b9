"""locquad benchmark: one command per workload run.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The package is used from the checkout's
src/ (nothing is installed).  --trace 0 prints every end-to-end metric,
--trace 1 every per-layer metric; the names, units and directions are the
ones in BENCHMARK.json.  The last line of stdout is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

The line before it (starting with "#") holds the run's facts: rounds,
sample counts, failures and the machine.  A copy of both goes to
.bench_out/ in the checkout, with the spans of a traced run.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKLOADS = ("verify-analytic", "verify-exact", "cli-queries")
DEADLINE_S = 170  # a run must end within 180 s


class BenchError(RuntimeError):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    # the package's defaults: 10^6 Monte Carlo samples, one verify worker
    env.pop("LOCQUAD_MC_SAMPLES", None)
    env.pop("LOCQUAD_WORKERS", None)
    return env


def run_child(argv: list[str], deadline: float) -> subprocess.CompletedProcess:
    left = deadline - time.monotonic()
    if left <= 0:
        raise BenchError("out of time")
    try:
        return subprocess.run(argv, capture_output=True, text=True, env=child_env(), cwd=ROOT, timeout=left)
    except subprocess.TimeoutExpired:  # subprocess.run has killed and reaped the child
        raise BenchError(f"timed out: {' '.join(argv[:4])}")


def machine() -> dict:
    model = ""
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), "")
    except OSError:
        pass
    versions = {}
    for pkg in ("numpy", "scipy"):
        try:
            versions[pkg] = importlib.metadata.version(pkg)
        except importlib.metadata.PackageNotFoundError:
            versions[pkg] = None
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model or platform.processor(),
        "python": platform.python_version(),
        **versions,
    }


def import_breakdown(deadline: float) -> dict:
    """Seconds spent importing locquad, and inside it numpy and scipy,
    from `python -X importtime -c "import locquad"` in a fresh interpreter."""
    proc = run_child([sys.executable, "-X", "importtime", "-c", "import locquad"], deadline)
    if proc.returncode != 0:
        raise BenchError(f"import failed: {proc.stderr.strip()[-300:]}")
    self_us = {"numpy": 0, "scipy": 0}
    total = None
    for line in proc.stderr.splitlines():
        if not line.startswith("import time:") or "[us]" in line:
            continue
        own, cum, name = (f.strip() for f in line[len("import time:"):].split("|"))
        top = name.split(".")[0]
        if top in self_us:
            self_us[top] += int(own)
        if name == "locquad":
            total = int(cum)
    if total is None:
        raise BenchError("no locquad line in the import-time report")
    return {
        "import.locquad_s": (total / 1e6, "s"),
        "import.numpy_s": (self_us["numpy"] / 1e6, "s"),
        "import.scipy_s": (self_us["scipy"] / 1e6, "s"),
    }


def run_worker(args, deadline: float, spans: Path | None) -> dict:
    argv = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if spans is not None:
        argv += ["--spans", str(spans)]
    proc = run_child(argv, deadline)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker failed (rc {proc.returncode}): {proc.stderr.strip()[-1500:]}")
    return json.loads(lines[-1])


def declared(kind: str) -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec[kind]}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")
    deadline = time.monotonic() + DEADLINE_S
    try:
        if not (SRC / "locquad" / "__init__.py").is_file():
            raise BenchError(f"no package source at {SRC}; run from the root of a locquad checkout")
        want = declared("per_layer" if args.trace else "end_to_end")
        OUT.mkdir(exist_ok=True)
        stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
        problems: list[str] = []
        if args.trace:
            metrics = import_breakdown(deadline)
            res = run_worker(args, deadline, OUT / f"{stem}-spans.npz")
            metrics.update({k: tuple(v) for k, v in res["layer"].items()})
        else:
            res = run_worker(args, deadline, None)
            metrics = {
                "setup_s": (res["setup_s"], "s"),
                "cold_start_ms": (res["cold_start_ms"], "ms"),
                "verify_s": (res["verify_s"], "s"),
                "peak_rss_mb": (res["peak_rss_mb"], "MB"),
                "query_p50_ms": (res["query_p50_ms"], "ms"),
                "query_p95_ms": (res["query_p95_ms"], "ms"),
                "queries_per_s": (res["queries_per_s"], "1/s"),
            }
        got = {k: unit for k, (_, unit) in metrics.items()}
        if got != want:
            raise BenchError(f"metrics do not match BENCHMARK.json: {sorted(set(got.items()) ^ set(want.items()))}")
    except BenchError as e:
        print(f"benchmark error: {e}", file=sys.stderr)
        return 1

    problems += res["problems"]
    facts = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "rounds": res["rounds"],
        "requests": res["attempted"],
        "latency_samples": res["attempted"],
        "cold_start_probes_ms": res.get("probes"),
        "failures": res["failures"],
        "problems": problems[:50],
        "machine": machine(),
    }
    result = {
        "correct": not problems,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in sorted(metrics.items())},
    }
    with open(OUT / f"{stem}.json", "w") as fh:
        json.dump({"facts": facts, "result": result}, fh, indent=1)
    for prob in problems[:20]:
        print(f"check failed: {prob}", file=sys.stderr)
    print("# " + json.dumps(facts))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
