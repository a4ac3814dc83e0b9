"""Runs one workload in a fresh process and prints its figures as one JSON line.

    python3 perfbench/worker.py --workload W --seed N --seconds S --trace 0|1

Every request goes through the package's own CLI entry point,
locquad.cli.main(argv), in this process, one at a time (a closed loop
with one client).  Untraced, it repeats whole rounds while at least half
a round fits in the S seconds.  Traced, it runs round 0 untraced, under
the span tracer, and untraced again, checks that tracing left every
answer byte-identical, and reports the per-layer figures.  run.py starts
this with PYTHONPATH pointing at the checkout's src/ and one BLAS thread.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import random
import resource
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from locquad import cli  # noqa: E402

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


# What the `locquad` console script does, plus a timestamp once the import
# is done; run with a trivial query whose answer is known: (-1, -1)_7 = 1.
STUB = (
    "import sys, time\n"
    "from locquad.cli import main\n"
    "sys.stderr.write('ready %r\\n' % time.monotonic())\n"
    "sys.stderr.flush()\n"
    "sys.exit(main(sys.argv[1:]))\n"
)
TRIVIAL = ["hilbert", "--place=p:7", "--a=-1", "--b=-1"]
# Fresh processes are timed, PROBE_BURST of them, at the start and at the
# end, and one between requests whenever PROBE_GAP_S have passed since the
# last.  On a shared machine one start-up takes 0.6 s or 0.9 s depending on
# the phase the machine is in, and the phases last seconds to minutes; many
# probes spread over the run give a steadier median.
PROBE_BURST = 3
PROBE_GAP_S = 3.0


class Probes:
    """Start-up times of fresh `locquad` processes: seconds from spawn until
    the package is imported, and ms from spawn until the answer is out."""

    def __init__(self, problems: list[str]):
        self.setup: list[float] = []
        self.cold: list[float] = []
        self.problems = problems
        self.last = 0.0

    def due(self) -> None:
        if time.monotonic() - self.last >= PROBE_GAP_S:
            self.run(1)

    def run(self, n: int) -> None:
        for _ in range(n):
            self._one()

    def _one(self) -> None:
        t0 = time.monotonic()
        proc = subprocess.run([sys.executable, "-c", STUB, *TRIVIAL], capture_output=True, text=True, timeout=60)
        t1 = time.monotonic()
        ready = [ln for ln in proc.stderr.splitlines() if ln.startswith("ready ")]
        if proc.returncode != 0 or not ready:
            raise RuntimeError(f"cold start failed (rc {proc.returncode}): {proc.stderr.strip()[-300:]}")
        if json.loads(proc.stdout).get("symbol") != 1:
            self.problems.append(f"cold start: (-1,-1)_7 answered {proc.stdout.strip()}")
        self.setup.append(float(ready[-1].split()[1]) - t0)
        self.cold.append((t1 - t0) * 1e3)
        self.last = time.monotonic()


def call(argv: list[str]) -> tuple[int, str, float]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            rc = cli.main(argv)
        except SystemExit as e:  # argparse rejected the request
            rc = e.code if isinstance(e.code, int) else 2
        dt = time.perf_counter() - t0
    return rc, out.getvalue(), dt


def failed(rc: int, text: str) -> bool:
    """A request fails when the CLI rejects it (a usage error, exit 2) or
    answers with an error payload.  A report whose gate is not ok (exit 1)
    is an answer, and the checks judge it."""
    if rc == 0:
        return False
    if rc != 1:
        return True
    try:
        return "error" in json.loads(text)
    except ValueError:
        return True


class Round:
    """Answers, latencies and failures of one pass over a round's requests."""

    def __init__(self):
        self.texts: list[str] = []
        self.latency: list[float] = []  # inf for failed requests
        self.kinds: list[str] = []
        self.failed = 0
        self.failures: list[str] = []


def run_round(reqs, probes: Probes | None = None) -> Round:
    rd = Round()
    for kind, argv, spec in reqs:
        if probes is not None:
            probes.due()
        rc, text, dt = call(argv)
        rd.texts.append(text)
        rd.kinds.append(kind)
        if failed(rc, text):
            rd.failed += 1
            rd.latency.append(float("inf"))
            rd.failures.append(f"{' '.join(argv)[:80]} -> rc {rc}: {text.strip()[:120]}")
        else:
            rd.latency.append(dt)
    return rd


def check_round(reqs, rd: Round, oracle, rng, problems: list[str]) -> None:
    for (kind, argv, spec), text, dt in zip(reqs, rd.texts, rd.latency):
        if dt != float("inf"):
            for prob in checks.check(kind, spec, text, oracle, rng):
                problems.append(f"{' '.join(argv)[:100]}: {prob}")


def self_check_inputs(gen, seed: int, problems: list[str]) -> None:
    """Same seed, same inputs; another seed, other inputs."""
    argvs = lambda s: [argv for _, argv, _ in gen(s, 0)]  # noqa: E731
    if argvs(seed) != argvs(seed):
        problems.append("the same seed generated different inputs")
    if argvs(seed) == argvs(seed + 1):
        problems.append("a different seed generated the same inputs")


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile, the upper value where two are equally near:
    an actual latency, never a blend of two (a verify run has only 6 to 24
    requests, of very different cost)."""
    return float(np.percentile(np.array(values, dtype=float), q, method="higher"))


def untraced(workload: str, seed: int, seconds: float) -> dict:
    gen = workloads.WORKLOADS[workload]
    problems: list[str] = []
    self_check_inputs(gen, seed, problems)
    done: list[tuple[list, Round]] = []
    probes = Probes(problems)
    t_end = time.perf_counter() + seconds
    last = 0.0
    probes.run(PROBE_BURST)
    # whole rounds, as long as at least half a round fits in the time left
    while not done or t_end - time.perf_counter() >= last / 2:
        t_round = time.perf_counter()
        reqs = gen(seed, len(done))
        done.append((reqs, run_round(reqs, probes)))
        last = time.perf_counter() - t_round
    probes.run(PROBE_BURST)
    # read before the checks run: the oracle's lattice tables are large
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    oracle, rng = checks.Oracle(), random.Random(f"checks:{seed}")
    for i, (reqs, rd) in enumerate(done):
        check_round(reqs, rd, oracle, rng, problems)
        # verify rounds rerun the same seed: each report must be byte-identical
        if workload != "cli-queries" and rd.texts != done[0][1].texts:
            problems.append(f"round {i}: a rerun with the same seed changed a report")
    lat = [x for _, rd in done for x in rd.latency]
    ok_lat = [x for x in lat if x != float("inf")]
    return {
        "rounds": len(done),
        "probes": [round(x, 4) for x in probes.cold],
        "setup_s": float(np.median(probes.setup)),
        "cold_start_ms": float(np.median(probes.cold)),
        "attempted": len(lat),
        "failed": sum(rd.failed for _, rd in done),
        "failures": sorted({f for _, rd in done for f in rd.failures}),
        "problems": problems,
        # the program time of a round, as the median over the run's rounds
        "verify_s": float(np.median([sum(x for x in rd.latency if x != float("inf")) for _, rd in done])),
        "query_p50_ms": percentile(lat, 50) * 1e3,
        "query_p95_ms": percentile(lat, 95) * 1e3,
        "queries_per_s": len(ok_lat) / sum(ok_lat),
        "peak_rss_mb": peak_mb,
    }


def traced(workload: str, seed: int, spans_path: str | None) -> dict:
    gen = workloads.WORKLOADS[workload]
    problems: list[str] = []
    self_check_inputs(gen, seed, problems)
    reqs = gen(seed, 0)
    before = run_round(reqs)
    check_round(reqs, before, checks.Oracle(), random.Random(f"checks:{seed}"), problems)

    tr = tracing.Tracer()
    tracing.install(tr)
    tr.active = True
    try:
        with_trace = run_round(reqs)
    finally:
        tr.active = False
    after = run_round(reqs)
    if with_trace.texts != before.texts or after.texts != before.texts:
        problems.append("tracing changed a report body")
    suites = workloads.VERIFY_ANALYTIC + workloads.VERIFY_EXACT
    metrics = tracing.layer_metrics(tr, with_trace.kinds, workloads.KINDS, suites)
    # the traced round against the mean of an untraced round on either side,
    # so that a drift of the machine over the three rounds cancels to first order
    program_s = lambda rd: sum(x for x in rd.latency if x != float("inf"))  # noqa: E731
    t_plain = (program_s(before) + program_s(after)) / 2
    metrics["trace.overhead_pct"] = ((program_s(with_trace) / t_plain - 1) * 100, "%")
    if spans_path:
        tr.save(spans_path)
    rounds = (before, with_trace, after)
    return {
        "rounds": len(rounds),
        "attempted": sum(len(rd.latency) for rd in rounds),
        "failed": sum(rd.failed for rd in rounds),
        "failures": sorted({f for rd in rounds for f in rd.failures}),
        "problems": problems,
        "layer": {k: list(v) for k, v in metrics.items()},
    }


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spans", help="traced run: write the spans to this .npz file")
    args = ap.parse_args()
    if args.trace:
        result = traced(args.workload, args.seed, args.spans)
    else:
        result = untraced(args.workload, args.seed, args.seconds)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
