"""Benchmark of synchrad: one command, every end-to-end metric by name and unit.

    python3 bench/run.py --workload beam_sweep --seed 1 --seconds 25 --trace 0

runs one workload from the root of a checkout and prints, as the last line
of its output, one JSON object with `correct`, `attempted`, `failed` and
`metrics` (the end-to-end metrics with --trace 0, the per-layer metrics of a
traced run with --trace 1).

    python3 bench/run.py --compare --seconds 25

runs two sets of ten untraced runs of every workload (seeds 1..10 and
101..110, interleaved) plus two traced runs, and prints each metric's median and
quartiles per set, the tracing overhead, and whether the traced counts
repeat.

This launcher imports only the standard library.  Each workload runs in a
fresh interpreter (bench/workloads.py) with BLAS and OpenMP held to one
thread and PYTHONHASHSEED fixed; set-up time is the median over several
fresh interpreters.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import orderstats

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
WORKLOADS = ("beam_sweep", "localize_fian60", "velocity_jump")

SETUP_INTERPRETERS = 3  # the timed interpreter and two that stop after set-up
RUNS_PER_SET = 10
# A run may take this many times --seconds in all (175 s at the benchmark's
# 25 s, inside the 180 s a run is allowed).  A set-up-only interpreter that
# does not fit in what is left is skipped, so a slow timed section still
# reports its figures.
RUN_BUDGET_FACTOR = 7.0

THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


class BenchError(Exception):
    pass


class OutOfTime(BenchError):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONHASHSEED"] = "0"
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def interpreter(workload, seed, seconds, mode, deadline, trace_file=None) -> tuple[float, dict]:
    """Start bench/workloads.py in a fresh interpreter; return its set-up time
    (start to first timed operation) and its result."""
    tag = f"{workload}-{seed}-{mode}-{os.getpid()}"
    result_path = OUT / f"result-{tag}.json"
    cmd = [
        sys.executable,
        str(BENCH / "workloads.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--mode", mode,
        "--workdir", str(OUT / f"work-{tag}"),
        "--result", str(result_path),
    ]
    if trace_file:
        cmd += ["--trace-file", str(trace_file)]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise OutOfTime("out of time before starting an interpreter")
    started = time.monotonic()
    try:
        # the program's own console output goes to stderr, keeping stdout for results
        proc = subprocess.run(cmd, env=child_env(), cwd=ROOT, stdout=sys.stderr, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise OutOfTime(f"{workload} seed {seed} ({mode}) did not finish in time")
    if proc.returncode != 0 or not result_path.exists():
        raise BenchError(f"{workload} seed {seed} ({mode}) exited {proc.returncode} without a result")
    result = json.loads(result_path.read_text())
    result_path.unlink()
    return result["ready"] - started, result


def run_once(workload, seed, seconds, trace) -> dict:
    """One benchmark run: the result object printed as the last line of output."""
    if not (ROOT / "src" / "synchrad" / "__init__.py").is_file():
        raise BenchError(f"no program source at {ROOT / 'src' / 'synchrad'}")
    OUT.mkdir(exist_ok=True)
    deadline = time.monotonic() + RUN_BUDGET_FACTOR * seconds
    if trace:
        trace_file = OUT / f"trace-{workload}-seed{seed}.json"
        _, res = interpreter(workload, seed, seconds, "run", deadline, trace_file=trace_file)
        metrics = res["per_layer"]
        extra = {"trace_file": str(trace_file.relative_to(ROOT)), "absent": res["absent"]}
    else:
        # set-up-only interpreters before and after the timed one, so that the
        # median spans more than one phase of the machine's background load
        setups = []
        for mode in ("setup", "run") + ("setup",) * (SETUP_INTERPRETERS - 2):
            try:
                setup, out = interpreter(workload, seed, seconds, mode, deadline)
            except OutOfTime:
                if mode == "run":
                    raise
                continue
            setups.append(setup)
            if mode == "run":
                res = out
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "wall_s": {"value": res["wall_s"], "unit": "s"},
            "op_p50_s": {"value": statistics.median(res["op_s"]), "unit": "s"},
            "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
        }
        tail = orderstats.tail_percentile(res["op_s"])
        extra = {
            "op_samples": len(res["op_s"]),
            "setup_samples": setups,
            # printed for inspection only; README.md says why it is not a metric
            "op_tail": None if tail is None else {"percentile": tail[0], "value_s": tail[1]},
        }
    return {
        "correct": res["correct"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
        "info": {"workload": workload, "seed": seed, **extra, "errors": res["errors"], "check_failures": res["check_failures"][:20]},
    }


def report(result) -> str:
    info = result["info"]
    parts = [f"{name} {m['value']:.6g} {m['unit']}" for name, m in result["metrics"].items()]
    if "op_samples" in info:
        parts[0] += " (median of " + ", ".join(f"{s:.3f}" for s in info["setup_samples"]) + ")"
        parts[2] += f" (n={info['op_samples']})"
    head = f"{info['workload']} seed {info['seed']}: correct={result['correct']} attempted={result['attempted']} failed={result['failed']}"
    lines = [head, "  " + " | ".join(parts)]
    if info.get("op_tail"):
        lines.append(f"  op_tail p{info['op_tail']['percentile']} {info['op_tail']['value_s']:.6g} s (not a metric)")
    for msg in info["errors"] + info["check_failures"]:
        lines.append(f"  ! {msg}")
    if info.get("absent"):
        lines.append(f"  absent from the program (metrics read 0): {', '.join(info['absent'])}")
    return "\n".join(lines)


def summarize(values) -> dict:
    q1, med, q3 = orderstats.quartiles(values) if len(values) > 1 else (values[0],) * 3
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0, "values": values}


def compare(seconds) -> dict:
    """Two interleaved sets of untraced runs per workload, and two traced
    runs of seed 1."""
    out = {"runs": RUNS_PER_SET, "seconds": seconds, "workloads": {}}
    for workload in WORKLOADS:
        sets = {"A": [], "B": []}
        for i in range(1, RUNS_PER_SET + 1):
            for name, seed in (("A", i), ("B", 100 + i)):
                res = run_once(workload, seed, seconds, trace=False)
                print(report(res), flush=True)
                sets[name].append(res)
        traced = [run_once(workload, 1, seconds, trace=True) for _ in range(2)]
        row = {"failed_share": {}, "metrics": {}}
        for name, results in sets.items():
            row["failed_share"][name] = sum(r["failed"] for r in results) / sum(r["attempted"] for r in results)
            row["correct"] = row.get("correct", True) and all(r["correct"] for r in results)
            for metric in results[0]["metrics"]:
                stats = summarize([r["metrics"][metric]["value"] for r in results])
                row["metrics"].setdefault(metric, {})[name] = stats
            tails = [r["info"]["op_tail"] for r in results]
            if all(tails):
                # not a metric: summarized to show whether it would be steady
                label = f" p{min(t['percentile'] for t in tails)}-{max(t['percentile'] for t in tails)}"
                row["metrics"].setdefault("op_tail", {"label": label})[name] = summarize([t["value_s"] for t in tails])
        for per_set in row["metrics"].values():
            per_set["shift"] = per_set["B"]["median"] / per_set["A"]["median"] - 1.0
        counts = [
            {k: m["value"] for k, m in t["metrics"].items() if m["unit"] in ("count", "bytes", "ratio")}
            for t in traced
        ]
        untraced_wall = sets["A"][0]["metrics"]["wall_s"]["value"]
        row["traced"] = {
            "wall_s": [t["metrics"]["traced.wall_s"]["value"] for t in traced],
            "untraced_wall_s_seed1": untraced_wall,
            "overhead_s": traced[0]["metrics"]["traced.wall_s"]["value"] - untraced_wall,
            "counts_repeat": counts[0] == counts[1],
            "per_layer": {k: m["value"] for k, m in traced[0]["metrics"].items()},
            "absent": traced[0]["info"]["absent"],
        }
        out["workloads"][workload] = row
        print(compare_table(workload, row), flush=True)
    return out


def compare_table(workload, row) -> str:
    lines = [f"== {workload}: correct={row['correct']} failed share A={row['failed_share']['A']:.4g} B={row['failed_share']['B']:.4g}"]
    lines.append(f"  {'metric':<14}{'set':>4}{'median':>12}{'q1':>12}{'q3':>12}{'spread':>9}")
    for metric, per_set in row["metrics"].items():
        metric += per_set.get("label", "")
        for name in ("A", "B"):
            s = per_set[name]
            lines.append(f"  {metric:<14}{name:>4}{s['median']:>12.5g}{s['q1']:>12.5g}{s['q3']:>12.5g}{s['spread']:>9.2%}")
        lines.append(f"  {metric:<14}{'B/A':>4}{per_set['shift']:>+12.2%}")
    t = row["traced"]
    lines.append(
        f"  traced wall_s {t['wall_s'][0]:.4g} s vs untraced {t['untraced_wall_s_seed1']:.4g} s (seed 1):"
        f" overhead {t['overhead_s']:+.3g} s; counts repeat across two traced runs: {t['counts_repeat']}"
    )
    return "\n".join(lines)


def main() -> int:
    parser = argparse.ArgumentParser(description="synchrad benchmark")
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--compare", action="store_true", help="two sets of ten runs of every workload")
    args = parser.parse_args()
    try:
        if args.compare:
            summary = compare(args.seconds)
            path = OUT / f"compare-{time.strftime('%Y%m%dT%H%M%S')}.json"
            path.write_text(json.dumps(summary, indent=1))
            print(f"summary written to {path.relative_to(ROOT)}")
            return 0
        if not args.workload:
            parser.error("name a --workload (or use --compare)")
        result = run_once(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    print(report(result))
    del result["info"]
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
