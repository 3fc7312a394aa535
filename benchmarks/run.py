"""cyclestat benchmark: one workload, one seed, every metric by name.

    python3 benchmarks/run.py --workload fold --seed 1 --seconds 30 --trace 0

Run from the root of a checkout. The benchmark is a closed loop with one
caller: passes run one after another, each in a fresh interpreter
(benchmarks/worker.py), so the library's process-lifetime caches start
cold in every pass, as they do for every command-line user. Passes
repeat while another one fits in ``--seconds``, and at least MIN_PASSES
run.

With ``--trace 0`` the last line of output carries the end-to-end
metrics of BENCHMARK.json: the median set-up time and pass wall time,
the median and tail over instances of each instance's median latency
across passes, the share of instances that passed their output checks,
and peak memory. Pass and instance times are reported at reference speed
(``norm_*``): a pass times a short fixed reference loop at its start and
end and every 20 ms in between (workloads.SpeedProbe), and each
instance's latency is multiplied by REF_LOOP_MS over the loop's time
around it. The shared
hosts this runs on switch between speeds that differ by up to 2x, for
tens of milliseconds to minutes at a time; an instance's ratio to the
reference loop stays put, its raw time does not. The raw times are in
the run description.

With ``--trace 1`` it carries the per-layer metrics: one untraced pass,
one traced pass, and the Baseline probes in a third interpreter. The
line before the last describes the run (machine, revision, seed, sizes,
tail percentile).
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
from fractions import Fraction
from pathlib import Path
from time import perf_counter

from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "worker.py"
MIN_PASSES = 3
SETUP_SAMPLES = 9  # set-up is timed in every pass, and in extra set-up-only starts
RUN_LIMIT_S = 150  # start no pass after this, to end well inside 180 s
TAIL_LADDER = (50, 75, 90, 95, 99, 99.9, 99.99)
# The reference loop's time (workloads.reference_loop) on the machine the
# bounds were set on, in its faster state: norm_* times are what that
# machine takes in that state.
REF_LOOP_MS = 1.1
README_FOLD_CLAIM_S = 1.0  # README: 798,336-member classes fold "in about a second"


class BenchmarkError(RuntimeError):
    """The benchmark could not measure: no result is printed."""


# -- statistics ----------------------------------------------------------


def tail_percentile(samples: int) -> float | None:
    """The highest percentile of TAIL_LADDER with at least 10 of
    ``samples`` beyond it, or None when there is none."""
    best = None
    for p in TAIL_LADDER:
        if samples * (100 - Fraction(str(p))) / 100 >= 10:
            best = p
    return best


def percentile(values: list[float], p: float) -> float:
    """The p-th percentile, interpolating linearly between order statistics."""
    ordered = sorted(values)
    rank = (len(ordered) - 1) * p / 100
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


# -- passes --------------------------------------------------------------


def _spawn(args: list[str], deadline: float) -> tuple[float, dict]:
    """Run the worker with ``args``; return (seconds until it printed
    ``ready``, its JSON record). Kills the worker at ``deadline``."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    env.pop("CYCLESTAT_CLASS_CAP", None)
    start = perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(WORKER), *args],
        stdout=subprocess.PIPE,
        text=True,
        cwd=ROOT,
        env=env,
    )
    timer = threading.Timer(max(deadline - start, 0.0), proc.kill)
    timer.start()
    try:
        first = proc.stdout.readline()
        ready = perf_counter() - start
        rest = proc.stdout.read()
        proc.wait()
    finally:
        timer.cancel()
        proc.kill()
        proc.wait()
        proc.stdout.close()
    lines = (first + rest).splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchmarkError(f"worker {' '.join(args)} exited with code {proc.returncode}")
    return ready, json.loads(lines[-1])


def run_pass(workload: str, seed: int, trace: bool, deadline: float, check: bool = True) -> dict:
    args = ["--workload", workload, "--seed", str(seed), "--trace", str(int(trace))]
    setup_s, record = _spawn(args + ["--check", str(int(check))], deadline)
    record["setup_s"] = setup_s
    return record


def settle_unchecked(passes: list[dict]) -> None:
    """Only the first pass of a run is checked; the library is
    deterministic, so every later pass must give the same outputs, and
    its instances fail or pass as the first pass's did. A pass whose
    outputs differ fails all its instances."""
    checked = passes[0]
    for p in passes[1:]:
        if p["attempted"] is not None:
            continue
        p["attempted"] = checked["attempted"]
        if p["digest"] == checked["digest"]:
            p["failed"] = checked["failed"]
        else:
            p["failed"] = p["attempted"]
            p["problems"] = ["outputs differ from those of the checked first pass"]


def time_setup(workload: str, seed: int, deadline: float) -> float:
    """Set-up time of a worker that stops once its inputs exist."""
    setup_s, _ = _spawn(["--workload", workload, "--seed", str(seed), "--setup-only"], deadline)
    return setup_s


# -- run -------------------------------------------------------------------


def at_reference_speed(record: dict) -> tuple[float, list[float]]:
    """A pass's wall time and instance latencies at reference speed. Work
    outside any instance (the end of a CLI run) is scaled like the
    instances on average."""
    latencies = [
        ms * REF_LOOP_MS / ref for ms, ref in zip(record["latencies_ms"], record["ref_loop_ms"])
    ]
    raw = sum(record["latencies_ms"])
    wall_s = record["wall_s"] * sum(latencies) / raw if raw > 0 else record["wall_s"]
    return wall_s, latencies


def instance_latencies(per_pass: list[list[float]]) -> list[float]:
    """Each instance's median latency over the passes (every pass of a
    run has the same instances, in the same order)."""
    return [statistics.median(samples) for samples in zip(*per_pass)]


def timings(passes: list[dict], tail_p: float, scaled: bool) -> dict[str, float]:
    """Median pass wall time, and the median and tail of instance
    latencies, at reference speed when ``scaled``, else as measured."""
    if scaled:
        walls, per_pass = zip(*(at_reference_speed(p) for p in passes))
    else:
        walls, per_pass = [p["wall_s"] for p in passes], [p["latencies_ms"] for p in passes]
    latencies = instance_latencies(per_pass)
    return {
        "wall_s": statistics.median(walls),
        "instance_ms.p50": percentile(latencies, 50),
        "instance_ms.tail": percentile(latencies, tail_p),
    }


def end_to_end(passes: list[dict], setups: list[float]) -> tuple[dict[str, float], dict]:
    tail_p = tail_percentile(len(passes[0]["latencies_ms"]))
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    metrics = {
        "setup_s": statistics.median(setups),
        **{f"norm_{k}": v for k, v in timings(passes, tail_p, scaled=True).items()},
        "pass_frac": 1 - failed / attempted,
        "peak_rss_mib": statistics.median(p["peak_rss_mib"] for p in passes),
    }
    about = {
        "tail_percentile": tail_p,
        "latency_samples": len(passes[0]["latencies_ms"]),
        "latency_samples_are": "instances, each its median over the passes",
        "setup_samples": len(setups),
        "fail_frac": failed / attempted,
        "raw": timings(passes, tail_p, scaled=False),
        "ref_loop_ms": {
            "reference": REF_LOOP_MS,
            "median_per_pass": [statistics.median(p["ref_loop_ms"]) for p in passes],
        },
    }
    return metrics, about


def per_layer(untraced: dict, traced: dict, probes: dict) -> tuple[dict[str, float], dict]:
    metrics = dict(traced["layers"])
    # Unscaled: the traced pass runs no timer probes, so it cannot be
    # scaled like the untraced one, and the two passes run seconds apart.
    metrics["trace.wall_s"] = traced["wall_s"]
    metrics["trace.untraced_wall_s"] = untraced["wall_s"]
    metrics["trace.overhead_frac"] = traced["wall_s"] / untraced["wall_s"] - 1
    metrics.update(probes)
    about = {
        "isolation": traced["isolation"],
        "spans": traced["spans"],
        "fraction_share_base": traced["fraction_share_base"],
        "overhead_bases_s": {"traced": traced["wall_s"], "untraced": untraced["wall_s"]},
        "readme_fold_claim_s": README_FOLD_CLAIM_S,
        "waiting": "none recorded: one caller, one thread, no queue",
    }
    return metrics, about


def git_state() -> dict:
    """Revision and dirty flag, when the checkout is a git repository."""
    if not (ROOT / ".git").exists():
        return {"revision": None, "dirty": None}
    try:
        rev = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
        status = subprocess.run(
            ["git", "status", "--porcelain", "--untracked-files=no"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return {"revision": None, "dirty": None}
    return {"revision": rev.stdout.strip() or None, "dirty": bool(status.stdout.strip())}


def cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def declared_metrics(trace: bool) -> list[dict]:
    with open(ROOT / "BENCHMARK.json") as f:
        spec = json.load(f)
    return spec["per_layer" if trace else "end_to_end"]


def run(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    start = perf_counter()
    deadline = start + RUN_LIMIT_S + 25
    if trace:
        untraced = run_pass(workload, seed, False, deadline)
        traced = run_pass(workload, seed, True, deadline)
        passes = [untraced, traced]
        _, probes = _spawn(["--probes"], deadline)
        metrics, about = per_layer(untraced, traced, probes)
    else:
        passes = []
        while True:
            elapsed = perf_counter() - start
            per_pass = elapsed / len(passes) if passes else 0.0
            if len(passes) >= MIN_PASSES and (
                elapsed + per_pass > seconds or elapsed > RUN_LIMIT_S
            ):
                break
            passes.append(run_pass(workload, seed, False, deadline, check=not passes))
        settle_unchecked(passes)
        setups = [p["setup_s"] for p in passes]
        while len(setups) < SETUP_SAMPLES:
            setups.append(time_setup(workload, seed, deadline))
        metrics, about = end_to_end(passes, setups)
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    values = {}
    for m in declared_metrics(trace):
        if m["name"] not in metrics:
            raise BenchmarkError(f"metric {m['name']} was not measured")
        values[m["name"]] = {"value": metrics[m["name"]], "unit": m["unit"]}
    meta = {
        "workload": workload,
        "seed": seed,
        "tracing": trace,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "git": git_state(),
        "passes": len(passes),
        "pass_wall_s": [p["wall_s"] for p in passes],
        "instances_per_pass": passes[0]["attempted"],
        "sizes": passes[0]["sizes"],
        "problems": [q for p in passes for q in p["problems"]][:20],
        **about,
    }
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": values}
    return meta, result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "cyclestat" / "__init__.py").is_file():
        print(f"error: no cyclestat sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        meta, result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except (BenchmarkError, OSError, ValueError, KeyError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    print(json.dumps({"meta": meta}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
