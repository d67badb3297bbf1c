"""nucleus benchmark: one workload, one seed, one run.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload functions --seed 1 --seconds 50 --trace 0

It generates the workload's inputs from the seed, computes every
expected output with the benchmark's own reference code, measures the
set-up time of a fresh interpreter, then runs the jobs in a fresh
single-threaded child process for ``--seconds`` and checks each output.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
See perfbench/README.md for the metrics, workloads and load model.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import bench_reference as ref
import bench_workloads as wl
from bench_trace import LAYERS, PER_LAYER

BENCH_DIR = Path(__file__).resolve().parent
SETUP_SPAWNS = 4  # before the timed loop, and as many again after it
CHILD_TIMEOUT_S = 150
SINGLE_THREAD = {
    v: "1"
    for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS",
              "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS")
}
END_TO_END = {
    "jobs_per_s": "jobs/s",
    "job_p50_ms": "ms",
    "job_tail_ms": "ms",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


def _child_env(root: Path) -> dict:
    env = dict(os.environ, **SINGLE_THREAD)
    paths = [str(root / "src"), str(BENCH_DIR)]
    if env.get("PYTHONPATH"):
        paths.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


def measure_setup(root: Path) -> list[float]:
    """Times from spawning a fresh interpreter until nucleus.cli is
    imported and its parser built, i.e. ready for a first job."""
    code = "import nucleus.cli as c; c.build_parser(); print('ready', flush=True)"
    env = _child_env(root)
    times = []
    for _ in range(SETUP_SPAWNS):
        t0 = time.perf_counter()
        with subprocess.Popen([sys.executable, "-c", code], env=env, stdout=subprocess.PIPE, text=True) as p:
            line = p.stdout.readline()
            t1 = time.perf_counter()
            p.stdout.read()
            p.wait(timeout=60)
        if line.strip() != "ready" or p.returncode != 0:
            raise RuntimeError("a fresh interpreter could not import nucleus.cli")
        times.append(t1 - t0)
    return times


def git_sha(root: Path) -> str:
    head = root / ".git" / "HEAD"
    try:
        text = head.read_text().strip()
        if not text.startswith("ref: "):
            return text
        name = text[5:]
        loose = root / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (root / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def machine_facts(root: Path) -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "git_sha": git_sha(root),
    }


def best_of_repeats(phase: dict) -> tuple[np.ndarray, np.ndarray]:
    """Each job's best (lowest) latency over its repeats in the loop, and
    how often it ran, for every job that ran at least once.

    A shared host's speed swings by up to ~1.7x in spells of seconds to
    minutes, in CPU time as much as in wall time; a job's best of many
    repeats spread over the run is nearly free of them, while a mean or
    median over the loop follows the host."""
    best: dict[int, float] = {}
    runs: dict[int, int] = {}
    for i, x in zip(phase["job"], phase["latency"]):
        best[i] = min(best.get(i, x), x)
        runs[i] = runs.get(i, 0) + 1
    order = sorted(best)
    return np.array([best[i] for i in order]), np.array([runs[i] for i in order])


def tail(best: np.ndarray, runs: np.ndarray, pct: int) -> tuple[float, int]:
    """The pct-th percentile of one pass's job latencies (each job once, at
    its best) and the number of job runs in the loop beyond it."""
    value = float(np.percentile(best, pct))
    return value, int(runs[best > value].sum())


def run_child(plan: wl.Plan, work: Path, root: Path, seconds: float, trace: bool) -> dict:
    plan_file = work / "plan.json"
    result_file = work / "result.json"
    plan_file.write_text(json.dumps({
        "jobs": plan.jobs, "seconds": seconds, "trace": trace,
        "spans_path": str(root / ".perfbench_out" / f"spans_{plan.workload}.npz"),
    }))
    cmd = [sys.executable, str(BENCH_DIR / "bench_worker.py"), str(plan_file), str(result_file)]
    with subprocess.Popen(cmd, env=_child_env(root), stdout=subprocess.DEVNULL) as child:
        try:
            code = child.wait(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            child.kill()
            child.wait()
            raise RuntimeError(f"the workload child ran past {CHILD_TIMEOUT_S} s")
    if code != 0:
        raise RuntimeError(f"the workload child exited with code {code}")
    return json.loads(result_file.read_text())


def verdicts(plan: wl.Plan, result: dict) -> tuple[dict[int, str | None], list[str]]:
    """Reference check of each job's first output."""
    bad = {}
    notes = []
    for key, out in result["first"].items():
        i = int(key)
        msg = ref.check(out, plan.wants[i])
        bad[i] = msg
        if msg:
            notes.append(f"job {i} ({plan.jobs[i]['class']}): {msg}")
    return bad, notes


def failures(phase: dict, bad: dict[int, str | None]) -> int:
    return sum(1 for i, same in zip(phase["job"], phase["same"]) if not same or bad.get(i))


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "nucleus" / "__init__.py").is_file():
        print("error: run from the root of a nucleus checkout (src/nucleus not found)", file=sys.stderr)
        return 2

    work = root / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        t0 = time.perf_counter()
        plan = wl.build(args.workload, args.seed, work)
        prep_s = time.perf_counter() - t0
        if plan.largest_bytes > wl.MEMORY_BUDGET_BYTES:
            print(
                f"error: plan needs ~{plan.largest_bytes / 2**20:.0f} MiB in one job, above the "
                f"{wl.MEMORY_BUDGET_BYTES / 2**20:.0f} MiB budget; refusing to run",
                file=sys.stderr,
            )
            return 2
        spawns = measure_setup(root)
        result = run_child(plan, work, root, args.seconds, bool(args.trace))
        # Half the spawns after the loop, so that one slow spell of a shared
        # host does not decide the median.
        setup_s = statistics.median(spawns + measure_setup(root))
    except RuntimeError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)

    bad, notes = verdicts(plan, result)
    phases = ["untraced", "traced"] if args.trace else ["timed"]
    attempted = sum(len(result[p]["job"]) for p in phases)
    failed = sum(failures(result[p], bad) for p in phases)

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "why": plan.why, "machine": machine_facts(root), "inputs": plan.facts,
        "largest_allocation_mib": round(plan.largest_bytes / 2**20, 1),
        "input_generation_s": round(prep_s, 3),
        "load": "closed loop, one client, in-process nucleus.cli.run / library calls, fresh child process",
    }
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    for note in notes[:20]:
        print(f"MISMATCH {note}")

    if not args.trace:
        timed = result["timed"]
        lat = timed["latency"]
        best, runs = best_of_repeats(timed)
        tail_s, beyond = tail(best, runs, plan.tail_pct)
        metrics = {
            "jobs_per_s": len(best) / float(best.sum()),
            "job_p50_ms": float(np.median(best)) * 1e3,
            "job_tail_ms": tail_s * 1e3,
            "peak_rss_mb": result["maxrss_kb"] / 1024,
            "setup_s": setup_s,
        }
        record["tail"] = {"percentile": plan.tail_pct, "job_runs_beyond": beyond, "job_runs": len(lat),
                          "distinct_jobs": len(best)}
        by_class: dict[str, list[float]] = {}
        for i, x in zip(timed["job"], lat):
            by_class.setdefault(plan.jobs[i]["class"], []).append(x * 1e3)
        record["class_p50_ms"] = {c: round(statistics.median(v), 3) for c, v in sorted(by_class.items())}
        record["loop"] = {
            "jobs": len(lat), "wall_s": round(timed["wall"], 3), "passes": timed["passes"],
            "repeats_per_job": {"min": int(runs.min()), "max": int(runs.max())},
            "as_run_jobs_per_s": round(len(lat) / timed["wall"], 4),
            "as_run_p50_ms": round(statistics.median(lat) * 1e3, 4),
        }
        record["failed_share"] = failed / attempted
        for name, unit in END_TO_END.items():
            print(f"{name} {metrics[name]:.6g} {unit}")
        print(f"  each job at its best of {runs.min()}-{runs.max()} repeats; job_tail_ms is p{plan.tail_pct} "
              f"of {len(best)} jobs: {beyond} of {len(lat)} job runs beyond it")
        print(f"failed_share {failed / attempted:.6g} ratio ({failed} of {attempted} jobs)")
        out = {name: {"value": metrics[name], "unit": unit} for name, unit in END_TO_END.items()}
    else:
        summary = result["trace"]
        untraced, traced = result["untraced"], result["traced"]
        best_u, best_t = best_of_repeats(untraced)[0], best_of_repeats(traced)[0]
        summary["trace.overhead_share"] = 1.0 - float(best_u.sum() / best_t.sum())
        layers = {layer: summary.get(f"{layer}.self_s", 0.0) for layer in LAYERS}
        top = max(layers, key=layers.get)
        record["largest_self_time_layer"] = top
        out = {name: {"value": float(summary.get(name, 0.0)), "unit": unit} for name, unit in PER_LAYER}
        for name in sorted(summary):
            print(f"{name} {summary[name]:.6g}")
        print(f"largest self time: {top} ({layers[top] * 1e3:.3f} ms per job)")
        print(f"traced {len(traced['job'])} jobs in {traced['passes']:g} passes; "
              f"failed_share {failed / attempted:.6g} ({failed} of {attempted})")
    print("record " + json.dumps(record, sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
