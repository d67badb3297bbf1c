"""The workload's child process: runs the jobs of one plan and reports
latencies, outputs and peak memory.

Usage: python3 perfbench/bench_worker.py PLAN.json RESULT.json

The plan names the jobs, the run length and whether to trace.  Library
inputs are loaded and lattices enumerated before the timed loop; one
job of each class runs once untimed to warm caches.  The loop is a
closed loop with one client: a job starts when the previous one has
finished.  Each job's first output is kept for the reference check;
every later run of the same job must reproduce it exactly.
"""

from __future__ import annotations

import json
import resource
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

import nucleus
from nucleus import core, galois

from bench_trace import Tracer


def _ext_vector(values, side):
    return core.PresheafVector(tuple(nucleus.extreal.from_float(float(v)) for v in values), side, core.EXT_REAL)


def _truth_vector(values, side):
    return core.PresheafVector(tuple(bool(v) for v in values), side, core.TRUTH)


def _load_context(path: str):
    text = Path(path).read_text()
    return galois.parse_cxt(text) if text.startswith("B") else galois.parse_context_csv(text)


# Library jobs.  ``prepare`` runs before the timed loop; the returned
# callable is the timed job.  Every call goes through the module
# attribute, so that trace wrappers see it.

def prepare_ext_queries(job):
    prof = core.parse_matrix_csv(Path(job["matrix"]).read_text())[2]
    pres = [_ext_vector(v, core.Side.PRE) for v in job["pres"]]
    opcos = [_ext_vector(v, core.Side.OPCO) for v in job["opcos"]]

    def run():
        out = []
        for p, q in zip(pres, opcos):
            out.append((core.push(prof, p), core.pull(prof, q), core.closure(prof, p),
                        core.is_fixed(prof, p), *core.adjunction_gap(prof, p, q)))
        return out

    return run


def prepare_limits(job):
    prof = core.parse_matrix_csv(Path(job["matrix"]).read_text())[2]
    pairs = [(_ext_vector(p, core.Side.PRE), _ext_vector(q, core.Side.OPCO)) for p, q in job["pairs"]]
    s = nucleus.extreal.from_float(job["scalar"])
    kind = core.LimitKind

    def run():
        return [
            core.nucleus_limit(prof, kind.PRODUCT, pairs),
            core.nucleus_limit(prof, kind.COPRODUCT, pairs),
            core.nucleus_limit(prof, kind.TENSOR, pairs[:1], scalar=s),
            core.nucleus_limit(prof, kind.COTENSOR, pairs[:1], scalar=s),
        ]

    return run


def prepare_rspace(job):
    entries = core.parse_matrix_csv(Path(job["matrix"]).read_text())[2].entries

    def run():
        return core.check_rspace_axioms(entries)

    return run


def prepare_truth_queries(job):
    ctx = _load_context(job["context"])
    pres = [_truth_vector(v, core.Side.PRE) for v in job["pres"]]
    opcos = [_truth_vector(v, core.Side.OPCO) for v in job["opcos"]]

    def run():
        prof = ctx.to_profunctor()
        return [(core.push(prof, p), core.pull(prof, q), core.closure(prof, p)) for p, q in zip(pres, opcos)]

    return run


def prepare_lattice_reads(job):
    ctx = _load_context(job["context"])
    by_extent = {frozenset(c.extent): c for c in galois.enumerate_concepts(ctx).concepts}
    pairs = [(by_extent[frozenset(a)], by_extent[frozenset(b)]) for a, b in job["pairs"]]
    subsets = job["subsets"]

    def run():
        return (
            [galois.lattice_meet(ctx, a, b) for a, b in pairs],
            [galois.lattice_join(ctx, a, b) for a, b in pairs],
            [galois.close_extent(ctx, s) for s in subsets],
        )

    return run


PREPARE = {
    "ext_queries": prepare_ext_queries,
    "limits": prepare_limits,
    "rspace": prepare_rspace,
    "truth_queries": prepare_truth_queries,
    "lattice_reads": prepare_lattice_reads,
}


def plain(obj):
    """Library results as JSON-ready nested lists."""
    if isinstance(obj, core.PresheafVector):
        return [plain(v) for v in obj.values]
    if isinstance(obj, nucleus.ExtReal):
        return obj.to_float()
    if isinstance(obj, galois.Concept):
        return [list(obj.extent), list(obj.intent)]
    if isinstance(obj, core.RSpaceReport):
        return [obj.ok, [[i, v.to_float()] for i, v in obj.diagonal_violations],
                [list(t) for t in obj.triangle_violations]]
    if isinstance(obj, (list, tuple)):
        return [plain(v) for v in obj]
    return obj


class Runner:
    def __init__(self, plan: dict, out_dir: Path):
        self.jobs = plan["jobs"]
        self.out_paths = [out_dir / f"job{i}.txt" for i in range(len(self.jobs))]
        self.calls = []
        for job, out in zip(self.jobs, self.out_paths):
            if job["kind"] == "cli":
                self.calls.append(job["argv"] + ["--out", str(out)])
            else:
                self.calls.append(PREPARE[job["op"]](job))
        self.first: dict[int, object] = {}

    def run(self, i: int):
        """Run job i; return (latency, result)."""
        call = self.calls[i]
        if isinstance(call, list):
            out = self.out_paths[i]
            if out.exists():
                out.unlink()
            t0 = perf_counter()
            try:
                rc = nucleus.cli.run(call)
            except Exception as e:  # a crash is a failed job, not a failed run
                return perf_counter() - t0, ("error", repr(e))
            t1 = perf_counter()
            return t1 - t0, ("cli", rc, out.read_text() if out.exists() else None)
        t0 = perf_counter()
        try:
            value = call()
        except Exception as e:
            return perf_counter() - t0, ("error", repr(e))
        return perf_counter() - t0, ("lib", value)

    def loop(self, seconds: float, whole_passes: bool, tracer: Tracer | None = None) -> dict:
        """Closed loop over the job list for ``seconds``; with
        ``whole_passes`` it only stops at the end of a pass."""
        n = len(self.jobs)
        lat, idx, same, job_time = [], [], [], 0.0
        start = perf_counter()
        k = 0
        while True:
            if (not whole_passes or k % n == 0) and perf_counter() - start >= seconds:
                break
            i = k % n
            if tracer is not None:
                tracer.current_job = k
            dt, result = self.run(i)
            job_time += dt
            lat.append(dt)
            idx.append(i)
            if i not in self.first:
                self.first[i] = result
                same.append(True)
            else:
                same.append(result == self.first[i])
            k += 1
        wall = perf_counter() - start
        return {"latency": lat, "job": idx, "same": same, "wall": wall, "job_seconds": job_time,
                "passes": k / n}

    def warm_up(self) -> None:
        seen = set()
        for i, job in enumerate(self.jobs):
            if job["class"] not in seen:
                seen.add(job["class"])
                self.run(i)

    def first_outputs(self) -> dict[str, dict]:
        out = {}
        for i, result in self.first.items():
            if result[0] == "error":
                out[str(i)] = {"error": result[1]}
            elif result[0] == "cli":
                out[str(i)] = {"rc": result[1], "text": result[2]}
            else:
                out[str(i)] = {"value": plain(result[1])}
        return out


def main(argv: list[str]) -> int:
    plan_path, result_path = Path(argv[0]), Path(argv[1])
    plan = json.loads(plan_path.read_text())
    out_dir = plan_path.parent / "out"
    out_dir.mkdir(exist_ok=True)
    runner = Runner(plan, out_dir)
    runner.warm_up()
    seconds = plan["seconds"]
    result = {}
    if not plan["trace"]:
        result["timed"] = runner.loop(seconds, whole_passes=False)
    else:
        # Untraced then traced, each in whole passes of the job list, so
        # both phases run the same mix and the counts repeat exactly.
        result["untraced"] = runner.loop(seconds / 2, whole_passes=True)
        tracer = Tracer()
        tracer.install()
        try:
            traced = runner.loop(seconds / 2, whole_passes=True, tracer=tracer)
        finally:
            tracer.uninstall()
        result["traced"] = traced
        result["trace"] = tracer.summary(traced["job_seconds"], len(traced["latency"]))
        spans = Path(plan["spans_path"])
        spans.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(spans, **tracer.arrays())
    result["first"] = runner.first_outputs()
    result["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    result_path.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
