"""attconv benchmark: one workload per process, driven through the library API.

Usage, from the root of a source checkout:

    python3 bench/run.py --workload train-ctx-d300 --seed 1 --seconds 20 --trace 0

Inputs come from ``--seed`` alone. The run repeats rounds of the workload
(set-up, then the timed phases) until ``--seconds`` have passed, with at
least ``MIN_ROUNDS`` rounds, then checks the outputs. With ``--trace 0`` the
last stdout line holds the end-to-end metrics of ``BENCHMARK.json``; with
``--trace 1`` it holds the per-layer metrics, taken from a run in which
``tracer.Tracer`` wraps the library functions, averaged per traced round
after one untraced reference round. The line before it holds the details:
sample counts, checks, environment, and with tracing the full span table.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# Single process, one BLAS thread: the whole benchmark runs on one core of
# the two-core machine it was sized on, which keeps run-to-run spread low.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

MIN_ROUNDS = 3
MIN_TRACED_ROUNDS = 1
SETUP_REPS = 3  # set-ups per round; set-up is short, so it gets more samples
TAIL = 0.90  # quantile of forward latency reported as the tail (see end_to_end)
TRIM = 0.10  # share of checkpoint load samples dropped at each end (see end_to_end)


def _fail(msg: str) -> None:
    print(f"bench: {msg}", file=sys.stderr)
    sys.exit(2)


def _import_library():
    if not (SRC / "attconv" / "__init__.py").is_file():
        _fail(f"no attconv sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import attconv

    if Path(attconv.__file__).resolve().parent != SRC / "attconv":
        _fail(f"imported attconv from {attconv.__file__}, not from {SRC}")
    return attconv


def environment() -> dict:
    import numpy as np

    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_THREADS,
    }


def _percentile(samples: list[float], q: float) -> float:
    ordered = sorted(samples)
    pos = (len(ordered) - 1) * q
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def _trimmed_mean(samples: list[float], share: float) -> float:
    ordered = sorted(samples)
    cut = int(len(ordered) * share)
    return statistics.fmean(ordered[cut:len(ordered) - cut])


def end_to_end(rec) -> dict[str, float]:
    """The end-to-end metrics of one run.

    Timings other than set-up are means over the run, and the latency tail
    is the 90th percentile. On a shared host the same work runs about 1.6x
    slower in spells lasting seconds, so per-call times have two modes whose
    shares change from run to run. A median or a low percentile jumps
    between the modes as the shares change; the mean moves only in
    proportion. The load mean drops the top and bottom ``TRIM`` of its
    samples, so that one stalled file read does not set it alone. Set-up
    time is the median over all set-ups of the run.
    """
    if len(rec.predict_ms) < 1000:
        _fail(f"only {len(rec.predict_ms)} predict samples; expected at least 1000")
    return {
        "setup_s": statistics.median(rec.setup_s),
        # every round does the same work, so this is total examples / total wall
        "examples_per_s": statistics.harmonic_mean(rec.examples_per_s),
        "loss_nats": rec.loss[-1],
        "predict_ms_mean": statistics.fmean(rec.predict_ms),
        "predict_ms_p90": _percentile(rec.predict_ms, TAIL),
        "checkpoint_load_s": _trimmed_mean(rec.load_s, TRIM),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def run_rounds(workload, seed: int, workdir: str, rec, min_rounds: int, seconds: float):
    """Closed loop of rounds; returns (last state, rounds, seconds taken).

    After ``min_rounds``, a round starts only if it is expected to end within
    ``seconds``, judged by the longest round so far.
    """
    state = None
    rounds = 0
    longest = 0.0
    clock = time.perf_counter
    start = clock()
    while rounds < min_rounds or clock() - start + longest <= seconds:
        t_round = clock()
        for _ in range(SETUP_REPS):
            state = None  # free the previous model before building the next
            t0 = clock()
            state = workload.setup(seed, workdir)
            rec.setup_s.append(clock() - t0)
            rec.attempted += 1
        rec.main_wall_s.append(workload.round(state, rec))
        rounds += 1
        longest = max(longest, clock() - t_round)
    return state, rounds, clock() - start


def per_layer(table: dict, tracer, rounds: int, overhead_s: float,
              dev_examples_per_round: int) -> dict[str, float]:
    """Flatten the span table into metric names, per traced round."""
    out: dict[str, float] = {}
    for name, row in table.items():
        if name.startswith("autodiff.") and name.endswith((".fwd", ".bw")):
            base, kind = name.rsplit(".", 1)
            out[f"{base}.{kind}_s"] = row["total_s"] / rounds
            if kind == "fwd":
                out[f"{base}.calls"] = row["calls"] / rounds
        else:
            for key in ("calls", "total_s", "self_s"):
                out[f"{name}.{key}"] = row[key] / rounds
    forwards = table.get("model.forward_ids", {}).get("calls", 0)
    out["autodiff.ops_per_example"] = tracer.ops_in_forward / forwards if forwards else 0.0
    dev_examples = dev_examples_per_round * rounds
    out["model.forward.calls_per_dev_example"] = (
        tracer.forwards_in_train / dev_examples if dev_examples else 0.0)
    out["bench.trace_overhead_s"] = overhead_s
    return out


def self_time_shares(table: dict) -> list[tuple[str, float]]:
    total = sum(row["self_s"] for row in table.values())
    shares = [(name, row["self_s"] / total) for name, row in table.items()]
    return sorted(shares, key=lambda kv: -kv[1])[:12]


def main(argv=None) -> int:
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        _fail(f"missing {spec_path}")
    spec = json.loads(spec_path.read_text())
    names = [w["name"] for w in spec["workloads"]]

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=names)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    attconv = _import_library()
    import tracer as tracing
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    workdir = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    rec = workloads.Recorder()
    tracer = None
    try:
        if args.trace:
            # one untraced reference round, then traced rounds in the time left
            _, _, reference_s = run_rounds(workload, args.seed, str(workdir), rec, 1, 0.0)
            tracer = tracing.Tracer()
            tracer.install(attconv)
            try:
                state, rounds, measured = run_rounds(
                    workload, args.seed, str(workdir), rec, MIN_TRACED_ROUNDS,
                    args.seconds - reference_s)
            finally:
                tracer.uninstall()
        else:
            state, rounds, measured = run_rounds(
                workload, args.seed, str(workdir), rec, MIN_ROUNDS, args.seconds)
        workload.check(state, rec)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass

    tail = _percentile(rec.predict_ms, TAIL) if rec.predict_ms else 0.0
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "rounds": rounds,
        "measured_s": measured,
        "samples": {
            "setup": len(rec.setup_s),
            "examples_per_s": len(rec.examples_per_s),
            "predict": len(rec.predict_ms),
            "predict_beyond_p90": sum(1 for x in rec.predict_ms if x > tail),
            "checkpoint_load": len(rec.load_s),
        },
        "failed_checks": [name for name, ok in rec.checks if not ok],
        "per_round": {"setup_s": rec.setup_s, "examples_per_s": rec.examples_per_s},
        "environment": environment(),
    }
    if tracer is not None:
        table = tracer.table()
        reference_wall = rec.main_wall_s[0]
        overhead = statistics.median(rec.main_wall_s[1:]) - reference_wall
        values = per_layer(table, tracer, rounds, overhead,
                           workload.dev_examples_per_round)
        detail["spans"] = table
        detail["self_time_shares"] = self_time_shares(table)
        detail["skipped"] = tracer.skipped
        detail["untraced_main_s"] = reference_wall
        wanted = spec["per_layer"]
    else:
        values = end_to_end(rec)
        wanted = spec["end_to_end"]

    metrics = {}
    for m in wanted:
        if m["name"] not in values and tracer is None:
            _fail(f"end-to-end metric {m['name']} was not measured")
        metrics[m["name"]] = {"value": float(values.get(m["name"], 0.0)), "unit": m["unit"]}
    if tracer is not None:
        # listed metrics whose function was never called (reported as 0), and
        # measured spans the list leaves out
        detail["not_called"] = sorted({m["name"] for m in wanted} - set(values))
        detail["unlisted_metrics"] = sorted(set(values) - {m["name"] for m in wanted})
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": rec.failed == 0,
        "attempted": rec.attempted,
        "failed": rec.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
