"""Tests of the benchmark itself: seeded generation is repeatable, the
reference checker catches corrupted outputs, the memory guard refuses an
oversized plan and the tracer leaves the package as it found it."""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

import bench_reference as ref
import bench_trace
import bench_workloads as wl
import run as bench_run

ROOT = Path(__file__).resolve().parent.parent


def _snapshot(plan: wl.Plan, work: Path):
    files = {str(p.relative_to(work)): p.read_bytes() for p in sorted(work.rglob("*")) if p.is_file()}
    jobs = json.dumps(plan.jobs).replace(str(work), "<work>")
    return files, jobs


@pytest.fixture(scope="module")
def built(tmp_path_factory):
    """One plan per workload, seed 11, with its input directory."""
    out = {}
    for name in wl.WORKLOADS:
        work = tmp_path_factory.mktemp(name)
        out[name] = (wl.build(name, 11, work), work)
    return out


@pytest.mark.parametrize("name", wl.WORKLOADS)
def test_same_seed_gives_same_inputs(name, built, tmp_path):
    plan, work = built[name]
    again = wl.build(name, 11, tmp_path / "again")
    assert _snapshot(again, tmp_path / "again") == _snapshot(plan, work)


def test_another_seed_gives_other_inputs(built, tmp_path):
    plan, work = built["algebra"]
    other = wl.build("algebra", 12, tmp_path / "other")
    assert _snapshot(other, tmp_path / "other")[0] != _snapshot(plan, work)[0]


def _run_cli(argv, out: Path) -> dict:
    from nucleus import cli

    rc = cli.run(argv + ["--out", str(out)])
    return {"rc": rc, "text": out.read_text() if out.exists() else None}


def _corrupt_number(text: str) -> str:
    """Change the last finite number in the text by 1e-6."""
    lines = text.rstrip("\n").split("\n")
    for i in range(len(lines) - 1, -1, -1):
        head, sep, last = lines[i].rpartition(",") if "," in lines[i] else lines[i].rpartition("\t")
        try:
            v = float(last)
        except ValueError:
            continue
        if np.isfinite(v):
            lines[i] = head + sep + repr(v + 1e-6)
            return "\n".join(lines) + "\n"
    raise AssertionError("no finite number to corrupt")


@pytest.mark.parametrize("name", wl.WORKLOADS)
def test_checker_accepts_real_output_and_flags_corruption(name, built, tmp_path):
    plan = built[name][0]
    seen = set()
    for i, (job, want) in enumerate(zip(plan.jobs, plan.wants)):
        if job["kind"] != "cli" or job["class"] in seen:
            continue
        seen.add(job["class"])
        out = _run_cli(job["argv"], tmp_path / f"out{i}.txt")
        assert ref.check(out, want) is None, job["class"]
        bad = dict(out)
        if want["check"] == "report":
            got = json.loads(out["text"])
            got["holds"] = not got["holds"]
            bad["text"] = json.dumps(got)
        elif want["check"] in ("concepts", "lattice"):
            lines = out["text"].splitlines()
            drop = max(i for i, ln in enumerate(lines) if "->" in ln or ln.startswith("({"))
            bad["text"] = "\n".join(lines[:drop] + lines[drop + 1 :]) + "\n"
        elif want["check"] == "distance":
            bad["text"] = out["text"].replace("climb ", "climb 1")
        else:
            bad["text"] = _corrupt_number(out["text"])
        assert ref.check(bad, want) is not None, job["class"]
        assert ref.check(dict(out, rc=out["rc"] + 3), want) is not None


def test_checker_flags_corrupted_library_result():
    want = {"check": "plain", "value": [[1.0, float("inf")], True, {(0, 1, 2)}]}
    assert ref.check({"value": [[1.0, float("inf")], True, [[0, 1, 2]]]}, want) is None
    assert ref.check({"value": [[1.0 + 1e-6, float("inf")], True, [[0, 1, 2]]]}, want) is not None
    assert ref.check({"value": [[1.0, 1e308], True, [[0, 1, 2]]]}, want) is not None
    assert ref.check({"value": [[1.0, float("inf")], False, [[0, 1, 2]]]}, want) is not None
    assert ref.check({"value": [[1.0, float("inf")], True, [[0, 2, 1]]]}, want) is not None
    assert ref.check({"error": "ValueError()"}, want) is not None


def test_reference_covers_match_the_dense_transitive_reduction():
    rng = np.random.default_rng(0)
    for _ in range(5):
        inc = rng.random((9, 7)) < 0.45
        rows = [sum(1 << j for j in np.flatnonzero(r).tolist()) for r in inc]
        concepts = ref.next_closure(rows, 7)
        assert len(concepts) == ref.count_concepts(rows, 7) == len({e for e, _ in concepts})
        ext = [e for e, _ in concepts]
        leq = np.array([[a & b == a for b in ext] for a in ext])
        strict = leq & ~np.eye(len(ext), dtype=bool)
        dense = {(ext[i], ext[j]) for i, j in np.argwhere(strict & ~(strict.astype(int) @ strict.astype(int) > 0))}
        assert ref.upper_cover_edges(rows, 7, ext) == dense


def test_best_of_repeats_takes_each_jobs_lowest_latency():
    phase = {"job": [0, 1, 2, 0, 1, 2, 0], "latency": [0.5, 0.2, 0.9, 0.3, 0.4, 0.7, 0.6]}
    best, runs = bench_run.best_of_repeats(phase)
    assert best.tolist() == [0.3, 0.2, 0.7] and runs.tolist() == [3, 2, 2]
    value, beyond = bench_run.tail(best, runs, 90)
    assert value == pytest.approx(0.62) and beyond == 2


def test_memory_guard_refuses_an_oversized_plan(monkeypatch, capsys):
    monkeypatch.chdir(ROOT)
    monkeypatch.setattr(wl, "MEMORY_BUDGET_BYTES", 1024)
    code = bench_run.main(["--workload", "algebra", "--seed", "1", "--seconds", "1"])
    assert code == 2
    out = capsys.readouterr()
    assert out.out == "" and "budget" in out.err


def test_tracer_restores_every_patched_name():
    import nucleus
    from nucleus import cli, galois, legendre

    before = (legendre.conjugate, cli.conjugate, legendre.Grid.__dict__["from_range"], galois.ConceptLattice.covers)
    tracer = bench_trace.Tracer()
    tracer.install()
    try:
        assert cli.conjugate is legendre.conjugate is not before[0]
        tracer.current_job = 0
        f = legendre.parse_function_csv("0,1\n1,0\n2,1\n")
        legendre.biconjugate(f, legendre.Grid.from_range(-1.0, 1.0, 0.5))
    finally:
        tracer.uninstall()
    after = (legendre.conjugate, cli.conjugate, legendre.Grid.__dict__["from_range"], galois.ConceptLattice.covers)
    assert after == before
    summary = tracer.summary(job_seconds=1.0, jobs=1)
    assert summary["legendre.conjugate.cells"] == 3 * 5
    assert summary["legendre.grid.points"] == 3 + 5
    assert summary["extreal.parse.calls"] == 3
    assert nucleus.extreal.parse("1") == nucleus.extreal.finite(1.0)


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(bench_run.END_TO_END.items())
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == bench_trace.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(wl.WORKLOADS)
