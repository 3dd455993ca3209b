"""Run every workload over several seeds and record the results in one file.

Usage, from the root of a source checkout:

    python3 bench/baseline.py --out bench/baseline.json

This makes ``SETS`` sets of untraced runs, each set one run per workload and
seed in ``SEEDS``. Runs go round-robin, every workload once per seed, so a
slow spell of the host is spread over the workloads and seeds instead of
landing on one workload's consecutive seeds. Then it makes one traced run per
workload on the first seed. The file keeps every run's result line and
details and, per set and end-to-end metric, the median, the quartiles and
the spread (quartile distance over the median) that the bounds in
BENCHMARK.json are checked against, plus how far each later set's median
moved from the first set's. For the traced run it also records the
self-time shares that show what each workload stresses.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN_TIMEOUT_S = 300
SEEDS = range(1, 11)
SETS = 2


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} trace {trace} failed:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    return {"seed": seed, "result": json.loads(lines[-1]),
            "detail": json.loads(lines[-2])["detail"]}


def summarize(runs: list[dict], bounds: dict[str, float]) -> dict:
    out = {}
    for name, bound in bounds.items():
        values = [r["result"]["metrics"][name]["value"] for r in runs]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        out[name] = {"median": median, "q1": q1, "q3": q3,
                     "spread": (q3 - q1) / median, "bound": bound}
    return out


def purpose(spans: dict) -> dict:
    """Self-time shares of the spans each workload is meant to stress."""
    total = sum(row["self_s"] for row in spans.values())

    def share(names) -> float:
        return sum(spans.get(n, {}).get("self_s", 0.0) for n in names) / total

    pair = ["autodiff.embed.bw", "model.adagrad_step"]
    op_build = [n for n in spans if n.endswith(".fwd")] + ["autodiff.topo_order"]
    others = {n: share([n]) for n in spans if n not in pair}
    largest_other = max(others, key=others.get)
    return {
        "embed_bw_plus_adagrad_share": share(pair),
        "largest_other_span": [largest_other, others[largest_other]],
        "op_construction_plus_topo_order_share": share(op_build),
        "backward_spans": sum(row["calls"] for n, row in spans.items()
                              if n.endswith(".bw") or n == "autodiff.backward"),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", required=True)
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    names = [w["name"] for w in spec["workloads"]]

    runs = {name: [[] for _ in range(SETS)] for name in names}
    for i in range(SETS):
        for seed in SEEDS:
            for name in names:
                runs[name][i].append(run(name, seed, seconds, 0))
                print(f"set {i + 1}", name, seed,
                      {k: round(v["value"], 5)
                       for k, v in runs[name][i][-1]["result"]["metrics"].items()}, flush=True)

    report = {"seconds": seconds, "seeds": list(SEEDS), "sets": SETS,
              "environment": runs[names[0]][0][0]["detail"]["environment"],
              "workloads": {}}
    for name in names:
        summaries = [summarize(r, bounds) for r in runs[name]]
        shift = {metric: [s[metric]["median"] / summaries[0][metric]["median"] - 1
                          for s in summaries[1:]]
                 for metric in bounds}
        print(name, flush=True)
        for metric in bounds:
            spreads = " ".join(f"{s[metric]['spread']:.4f}" for s in summaries)
            print(f"  {metric:20s} median {summaries[0][metric]['median']:.5g}"
                  f" spread {spreads} shift {shift[metric]} bound {bounds[metric]}",
                  flush=True)
        traced = run(name, SEEDS[0], seconds, 1)
        traced["purpose"] = purpose(traced["detail"]["spans"])
        report["workloads"][name] = {"summary": summaries, "median_shift": shift,
                                     "runs": runs[name], "traced": traced}
    Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
