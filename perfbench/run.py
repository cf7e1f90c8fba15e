"""qineq benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload draws_audit --seed 1 --seconds 10 --trace 0

Imports qineq from the ``src`` tree next to this directory, generates the
workload's inputs from the seed, runs whole rounds of operations in a closed
loop with one caller until ``--seconds`` have passed, checks every output and
prints a report.  The last line is one JSON object: with ``--trace 0`` it
holds the end-to-end metrics, with ``--trace 1`` the per-layer metrics of a
traced pass (see README.md).  Exit status: 0 when every check passed, 1 when
a check failed, 2 when the source tree or the arguments are unusable.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("draws_audit", "lattice_audit", "envelope_table", "identity_residuals")

# Latency samples a run may hold; the buffer is allocated up front.
OP_CAPACITY = 1 << 19
SETUP_RUNS = 7
# Rounds the traced run replays, per second of --seconds.  The count is fixed
# (not timed) so that per-layer counts repeat exactly; the untraced and the
# traced pass together take roughly 0.6-0.9 x --seconds on a 2-vCPU Xeon.
TRACE_ROUNDS_PER_SECOND = {
    "draws_audit": 1.2,
    "lattice_audit": 0.4,
    "envelope_table": 0.8,
    "identity_residuals": 2.5,
}

# Child interpreter for setup_s: import the package, then build the
# workload's first target; the workload's own module loads off the clock.
SETUP_PROBE = """
import sys, time
sys.path.insert(0, sys.argv[1])
import speed
reference = speed.reference_seconds()
start = time.perf_counter()
import qineq, qineq.cli
elapsed = time.perf_counter() - start
import workloads
build = workloads.make(sys.argv[2]).first_target(int(sys.argv[3]))
start = time.perf_counter()
build()
elapsed += time.perf_counter() - start
reference = 0.5 * (reference + speed.reference_seconds())
print(elapsed * speed.REFERENCE_NOMINAL_S / reference)
"""


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def import_package() -> str | None:
    """Import qineq from this checkout's src tree; return why not, or None."""
    init = SRC / "qineq" / "__init__.py"
    if not init.is_file():
        return f"no qineq source tree at {init.relative_to(ROOT)}"
    sys.path.insert(0, str(SRC))
    import qineq

    if Path(qineq.__file__).resolve() != init.resolve():
        return f"imported qineq from {qineq.__file__}, not from src/"
    return None


def git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return "unknown (not a git checkout)"
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    try:
        return (git / ref).read_text().strip()
    except OSError:
        pass
    try:
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def machine_facts() -> dict:
    import mpmath

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "mpmath": mpmath.__version__,
        "git_commit": git_commit(),
    }


def measure_setup(workload: str, seed: int) -> list[float]:
    """Set-up seconds of fresh interpreters, scaled to the nominal host speed."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    times = []
    for _ in range(SETUP_RUNS):
        child = subprocess.run(
            [sys.executable, "-c", SETUP_PROBE, str(BENCH_DIR), workload, str(seed)],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=120, check=False,
        )
        if child.returncode != 0:
            raise RuntimeError(f"setup probe failed: {child.stderr.strip()}")
        times.append(float(child.stdout.split()[-1]))
    return times


def latency_ms(samples: list[float]) -> tuple[float, float, int]:
    samples = sorted(samples)
    deciles = statistics.quantiles(samples, n=10, method="inclusive")
    p50, p90 = deciles[4], deciles[8]
    beyond = len(samples) - sum(1 for s in samples if s <= p90)
    return p50 * 1e3, p90 * 1e3, beyond


def certified_rate(tally, busy_s: float) -> float:
    return (tally.results - tally.errors) / busy_s


def warm_up(workloads, name: str, seed: int) -> None:
    """One untimed op from a throwaway instance, so lazy imports are done."""
    scratch = workloads.make(name)
    scratch.run_round(next(scratch.rounds(seed))[:1], workloads.Tally(1))


def run_timed(workloads, name: str, seed: int, seconds: float):
    workload = workloads.make(name)
    tally = workloads.Tally(OP_CAPACITY)
    warm_up(workloads, name, seed)
    rounds = 0
    deadline = time.perf_counter() + seconds
    tally.calibrate()
    for specs in workload.rounds(seed):
        workload.run_round(specs, tally)
        rounds += 1
        if tally.full or time.perf_counter() >= deadline:
            break
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return workload, tally, rounds, rss_mb


def run_traced(workloads, tracing, modules, name: str, seed: int, seconds: float):
    """An untraced pass and a traced pass over the same fixed rounds."""
    from qineq.errors import QSeriesError

    workload = workloads.make(name)
    n_rounds = max(1, round(seconds * TRACE_ROUNDS_PER_SECOND[name]))
    plan = list(itertools.islice(workload.rounds(seed), n_rounds))
    warm_up(workloads, name, seed)
    untraced = workloads.Tally(OP_CAPACITY)
    untraced.calibrate()
    for specs in plan:
        workload.run_round(specs, untraced)
    tracer = tracing.Tracer(modules, QSeriesError)
    traced = workloads.Tally(OP_CAPACITY)
    traced.calibrate()
    tracer.install()
    try:
        for specs in plan:
            workload.run_round(specs, traced, tracer)
    finally:
        tracer.uninstall()
    return workload, untraced, traced, tracer, n_rounds


def layer_metrics(stats: dict, traced, untraced) -> dict:
    """Per-layer metrics of the traced pass, times at the nominal host speed."""
    traced_ops = traced.normalized()
    scale = sum(traced_ops) / traced.busy_s

    def stat(layer: str) -> dict:
        return stats.get(layer, {"calls": 0, "total_ns": 0, "self_ns": 0, "work": 0, "errors": 0})

    def per_call(value: float, calls: int) -> float:
        return value / calls if calls else 0.0

    metrics = {}

    def put(name, value, unit):
        metrics[name] = {"value": value, "unit": unit}

    def calls_and_us(layer):
        s = stat(layer)
        put(f"{layer}.calls", s["calls"], "count")
        put(f"{layer}.us_per_call", per_call(scale * s["total_ns"] / 1e3, s["calls"]), "us")
        return s

    s = calls_and_us("qcore.pochhammer_infinite")
    put("qcore.pochhammer_infinite.factors_per_call", per_call(s["work"], s["calls"]), "count")
    calls_and_us("qcore.multishifted")
    for fn in ("eval_confluent_f", "eval_phi", "eval_theta", "eval_laurent"):
        s = calls_and_us(f"series.{fn}")
        put(f"series.{fn}.terms_per_call", per_call(s["work"], s["calls"]), "count")
        put(f"series.{fn}.errors", s["errors"], "count")
    for fn in ("constant_c", "envelope_entire", "envelope_phi", "envelope_aq_gaussian",
               "envelope_theta", "theta_weighted_constant", "term_peak"):
        calls_and_us(f"bounds.{fn}")
    calls_and_us("verify.audit_target")
    put("verify.audit_envelope.self_ms", scale * stat("verify.audit_envelope")["self_ns"] / 1e6, "ms")
    for fn in ("euler", "qbinomial_theorem", "ql_sum", "theta_triple_product"):
        s = stat(f"verify.identity_{fn}")
        put(f"verify.identity_{fn}.calls", s["calls"], "count")
        put(f"verify.identity_{fn}.self_ms_per_call", per_call(scale * s["self_ns"] / 1e6, s["calls"]), "ms")
    s = stat("cli.run")
    put("cli.run.calls", s["calls"], "count")
    put("cli.run.self_ms", scale * s["self_ns"] / 1e6, "ms")
    put("cli.output_bytes", traced.output_bytes, "bytes")
    put("trace.ops", traced.ops, "count")
    overhead = certified_rate(traced, sum(traced_ops)) - certified_rate(untraced, sum(untraced.normalized()))
    put("trace.overhead_results_per_s", overhead, "1/s")
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    problem = import_package()
    if problem:
        print(f"perfbench: {problem}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(BENCH_DIR))
    import qineq.cli as cli
    import tracing
    import workloads
    from qineq import bounds, qcore, series, verify

    name, seed = args.workload, args.seed
    print(f"perfbench workload={name} seed={seed} seconds={args.seconds:g} trace={args.trace}")
    print("machine " + json.dumps(machine_facts(), sort_keys=True))

    if args.trace:
        modules = {"qcore": qcore, "series": series, "bounds": bounds, "verify": verify, "cli": cli}
        originals = tracing.bound_attributes(modules)
        workload, untraced, tally, tracer, n_rounds = run_traced(
            workloads, tracing, modules, name, seed, args.seconds
        )
        metrics = layer_metrics(tracer.layer_stats(), tally, untraced)
        print(f"load: closed loop, 1 caller; {n_rounds} fixed rounds, {tally.ops} ops "
              f"untraced then traced; {len(tracer.spans)} spans")
        restored = tracing.bound_attributes(modules) == originals
        spans_path = BENCH_DIR / "out" / f"spans-{name}.csv.gz"
    else:
        setup = measure_setup(name, seed)
        workload, tally, rounds, rss_mb = run_timed(workloads, name, seed, args.seconds)
        durations = tally.normalized()
        p50, p90, beyond = latency_ms(durations)
        raw_p50, raw_p90, _ = latency_ms(tally.durations[: tally.ops])
        metrics = {
            "results_per_s": {"value": certified_rate(tally, sum(durations)), "unit": "1/s"},
            "op_ms_p50": {"value": p50, "unit": "ms"},
            "op_ms_p90": {"value": p90, "unit": "ms"},
            "certified_share": {"value": (tally.results - tally.errors) / tally.results,
                                "unit": "fraction"},
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
        }
        print(f"load: closed loop, 1 caller; {rounds} rounds, {tally.ops} ops, "
              f"{tally.results} results, {beyond} ops beyond p90, "
              f"busy {tally.busy_s:.3f} s")
        if beyond < 10:
            print("note: fewer than ten ops beyond p90; run longer for a usable p90")
        print(f"wall clock, unscaled: results_per_s {certified_rate(tally, tally.busy_s):.6g} 1/s, "
              f"op_ms_p50 {raw_p50:.6g} ms, op_ms_p90 {raw_p90:.6g} ms; host speed "
              f"{tally.busy_s / sum(durations):.3f}x slower than nominal")
        print(f"error_share {tally.errors / tally.results!r} "
              f"({tally.errors} error results of {tally.results})")
        print("setup_s samples " + " ".join(f"{t:.4f}" for t in setup))

    check = workloads.Check()
    check.failures.extend(f"op failed: {m}" for m in tally.failures)
    workload.gate(check)
    if args.trace:
        check.require(restored, "trace restore", "a wrapper stayed bound")
        check.failures.extend(f"op failed (untraced pass): {m}" for m in untraced.failures)
        tracer.write_spans(spans_path)
        print(f"spans written to {spans_path.relative_to(ROOT)}")
    for note in check.notes:
        print(note)
    print(f"oracle: {check.oracle_samples} evaluations, worst scaled error "
          f"{check.worst_oracle:.3e} (gate 1e-12)")
    for key, entry in metrics.items():
        print(f"{key:<48} {entry['value']!r} {entry['unit']}")
    for failure in check.failures:
        print(f"CHECK FAILED {failure}")
    correct = not check.failures
    print("checks: " + ("all passed" if correct else f"{len(check.failures)} failed"))
    print(json.dumps({
        "correct": correct,
        "attempted": tally.ops,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
