"""One measured pass in a fresh interpreter, started by run.py.

    python3 benchmarks/worker.py --workload fold --seed 1 --trace 0
    python3 benchmarks/worker.py --workload fold --seed 1 --check 0
    python3 benchmarks/worker.py --workload fold --seed 1 --setup-only
    python3 benchmarks/worker.py --probes

A pass imports ``cyclestat`` from the checkout's ``src``, generates the
workload's inputs from the seed, prints ``ready`` (run.py's set-up clock
stops there), runs the timed pass -- traced when asked -- checks the
outputs and prints one JSON line. Beside each instance's latency the
line has the reference loop's time around that instance
(workloads.SpeedProbe). With ``--check 0`` the pass skips the checks
and reports only a digest of its outputs, which run.py compares with
that of a checked pass on the same inputs. With ``--setup-only`` it
stops after ``ready``. Every pass starts with the library's
process-lifetime caches cold, as every command-line user does.

``--probes`` instead times the rows of the ROADMAP Baseline table, each
once and cold in this process (the micro rows as a median over batches).
"""
from __future__ import annotations

import argparse
import hashlib
import json
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

import tracer
from workloads import WORKLOADS

SRC = Path(__file__).resolve().parent.parent / "src"


def import_library():
    """Import cyclestat from the checkout, never from an installed copy."""
    sys.path.insert(0, str(SRC))
    try:
        import cyclestat
    except ImportError as err:
        sys.exit(f"cannot import cyclestat from {SRC}: {err}")
    if Path(cyclestat.__file__).resolve().parent != (SRC / "cyclestat").resolve():
        sys.exit(f"cyclestat was imported from {cyclestat.__file__}, not from {SRC}")
    return cyclestat


def run_pass(
    workload_name: str, seed: int, trace: bool, setup_only: bool = False, check: bool = True
) -> dict:
    cs = import_library()
    workload = WORKLOADS[workload_name]
    inputs = workload.make_inputs(seed)
    prepared = workload.prepare(cs, inputs)
    spans = tracer.Tracer() if trace else None
    if spans:
        spans.install()
    print("ready", flush=True)
    if setup_only:
        return {}
    # No timer probes while tracing: a signal handler that ran between the
    # tracer's own steps would tangle its span records.
    result = workload.timed_pass(cs, prepared, timer=not trace)
    # Read before the checks and the digest, which are the benchmark's own memory.
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if spans:
        spans.uninstall()
    if check:
        attempted, failed, problems = workload.check(cs, inputs, result)
    else:
        attempted, failed, problems = None, None, []
    record = {
        "wall_s": result.wall_s,
        "latencies_ms": [s * 1e3 for s in result.latencies_s],
        "ref_loop_ms": [s * 1e3 for s in result.ref_loop_s],
        "attempted": attempted,
        "failed": failed,
        "problems": problems[:20],
        "digest": hashlib.sha256(repr((result.outputs, result.errors)).encode()).hexdigest(),
        "peak_rss_mib": peak_rss_mib,
        "sizes": workload.sizes(inputs),
    }
    if spans:
        summary = spans.summary()
        metrics = tracer.layer_metrics(summary, result.wall_s)
        records = workload.records(result) if workload_name == "verify" else (0, 0)
        metrics["cli.records"], metrics["cli.records_failed"] = records
        record["layers"] = metrics
        record["isolation"] = tracer.isolation(workload_name, metrics, result.wall_s)
        record["spans"] = summary["spans"]
        record["fraction_share_base"] = summary["counts"].get("algebra.fraction_share.base", 0)
    return record


def _per_call_us(fn, batches: int = 5, batch_s: float = 0.04) -> float:
    calls = 1
    while True:
        start = perf_counter()
        for _ in range(calls):
            fn()
        if perf_counter() - start >= batch_s:
            break
        calls *= 2
    times = []
    for _ in range(batches):
        start = perf_counter()
        for _ in range(calls):
            fn()
        times.append((perf_counter() - start) / calls * 1e6)
    return statistics.median(times)


def _once(fn) -> float:
    start = perf_counter()
    fn()
    return perf_counter() - start


def run_probes() -> dict:
    cs = import_library()
    out = {}
    p = cs.Permutation((5, 1, 7, 3, 2, 6, 11, 8, 10, 4, 9))  # n = 11; 7 is a double ascent
    out["probe.stat_sets_n11_us"] = _per_call_us(lambda: cs.stat_sets(p))
    out["probe.psi_n11_us"] = _per_call_us(lambda: cs.psi(p, (7,)))
    out["probe.orbit_n11_us"] = _per_call_us(lambda: cs.orbit(p))
    for n in (8, 11, 14, 18):
        ct = cs.CycleType((n,))
        out[f"probe.theorem1_joint_n{n}_ms"] = _once(lambda: cs.theorem1_joint(ct)) * 1e3
    for n in (8, 14, 24):
        ct = cs.CycleType((n,))
        out[f"probe.theorem6_cval_n{n}_ms"] = _once(lambda: cs.theorem6_cval(ct)) * 1e3
    for n in (8, 12, 16, 20):
        out[f"probe.egf_snki_n{n}_ms"] = _once(lambda: cs.egf_snki(n)) * 1e3
    spec = cs.ClassSpec.of_cycle_type(cs.CycleType((1, 5, 5)))
    out["probe.fold_1_5_5_s"] = _once(lambda: cs.dist_joint(spec))
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--check", type=int, choices=(0, 1), default=1)
    parser.add_argument("--setup-only", action="store_true", help="stop once inputs exist")
    parser.add_argument("--probes", action="store_true")
    args = parser.parse_args(argv)
    if args.probes:
        record = run_probes()
    elif args.workload:
        record = run_pass(
            args.workload, args.seed, bool(args.trace), args.setup_only, bool(args.check)
        )
    else:
        parser.error("give --workload or --probes")
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
