"""End-to-end command tests: verbs, formats and exit codes."""

from __future__ import annotations

import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import nucleus
from nucleus.cli import run
from nucleus.galois import parse_cxt, render_cxt
from nucleus.legendre import parse_function_csv, render_function_csv

IDENT2_CXT = "B\n\n2\n2\ng1\ng2\nm1\nm2\nX.\n.X\n"
WORKED_CXT = "B\n\n3\n2\n1\n2\n3\na\nb\nX.\nXX\n..\n"


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def csv_of(points, fn):
    lines = ["x,value"]
    for x in points:
        v = fn(x)
        lines.append(f"{float(x)!r},{v}")
    return "\n".join(lines) + "\n"


def frange(lo, hi, step):
    n = int(round((hi - lo) / step))
    return [lo + i * step for i in range(n + 1)]


@pytest.fixture
def fig_pair(tmp_path):
    xs = frange(-4.0, 6.0, 0.5)
    f1 = write(tmp_path, "f1.csv", csv_of(xs, lambda x: abs(x)))
    f2 = write(tmp_path, "f2.csv", csv_of(xs, lambda x: abs(x - 2.0) - 1.0))
    return f1, f2


def test_tables_output(capsys):
    assert run(["tables"]) == 0
    out = capsys.readouterr().out
    assert "x + y" in out and "x - y" in out
    lines = out.splitlines()
    add_rows = lines[1:4]
    assert add_rows[0].split("\t") == ["-inf", "-inf", "-inf", "inf"]
    assert add_rows[1].split("\t") == ["5.0", "-inf", "8.0", "inf"]
    assert add_rows[2].split("\t") == ["inf", "inf", "inf", "inf"]
    sub_rows = lines[6:9]
    assert sub_rows[0].split("\t") == ["-inf", "-inf", "-inf", "-inf"]
    assert sub_rows[1].split("\t") == ["5.0", "inf", "2.0", "-inf"]
    assert sub_rows[2].split("\t") == ["inf", "inf", "inf", "-inf"]


def test_conjugate_of_constant_inf(tmp_path, capsys):
    path = write(tmp_path, "f.csv", "x,value\n-1.0,inf\n0.0,inf\n1.0,inf\n")
    assert run(["conjugate", path, "--dual", "0:0:1"]) == 0
    assert capsys.readouterr().out == "x,value\n0.0,-inf\n"


def test_conjugate_auto_and_out_file(tmp_path):
    path = write(tmp_path, "spike.csv", "x,value\n-1.0,0.0\n0.0,3.0\n1.0,0.0\n")
    out = tmp_path / "conj.csv"
    assert run(["conjugate", path, "--dual", "auto", "--out", str(out)]) == 0
    g = parse_function_csv(out.read_text())
    assert g.grid.points == (-3.0, 0.0, 3.0)


def test_biconjugate_and_hull_agree(tmp_path, capsys):
    path = write(tmp_path, "spike.csv", "x,value\n-1.0,0.0\n0.0,3.0\n1.0,0.0\n")
    assert run(["biconjugate", path, "--dual", "auto"]) == 0
    bi = capsys.readouterr().out
    assert run(["hull", path]) == 0
    hull = capsys.readouterr().out
    assert parse_function_csv(bi) == parse_function_csv(hull)
    assert [v.value for v in parse_function_csv(hull).values] == [0.0, 0.0, 0.0]


def test_distance_verb(fig_pair, capsys):
    f1, f2 = fig_pair
    assert run(["distance", f1, f2]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "climb 1.0"
    assert out[1] == "fall 3.0"


def test_check_toland_singer_exit_zero(fig_pair, capsys):
    f1, f2 = fig_pair
    assert run(["check", "toland-singer", f1, f2, "--dual", "-1:1:0.25"]) == 0
    out = capsys.readouterr().out
    assert "lhs 1.0" in out and "rhs 1.0" in out and "holds true" in out


def test_check_json_report(fig_pair, capsys):
    f1, f2 = fig_pair
    assert run(["check", "short", f1, f2, "--dual", "-1:1:0.25", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["relation"] == "GEQ" and doc["holds"] is True
    assert doc["lhs"] == "1.0" and doc["rhs"] == "1.0"


def test_check_adjunction_verb(tmp_path, capsys):
    f = write(tmp_path, "f.csv", "x,value\n-1.0,1.0\n0.0,0.0\n1.0,1.0\n")
    g = write(tmp_path, "g.csv", "x,value\n-1.0,0.0\n0.0,0.0\n1.0,0.0\n")
    assert run(["check", "adjunction", f, g]) == 0
    out = capsys.readouterr().out
    assert "lhs 0.0" in out and "rhs 0.0" in out


def test_check_hypothesis_not_met_exits_one(tmp_path, capsys):
    vee = write(tmp_path, "vee.csv", "x,value\n-1.0,1.0\n0.0,0.0\n1.0,1.0\n")
    spike = write(tmp_path, "spike.csv", "x,value\n-1.0,0.0\n0.0,3.0\n1.0,0.0\n")
    assert run(["check", "toland-singer", vee, spike, "--dual", "-1:1:1"]) == 1
    assert "HYPOTHESIS_NOT_MET" in capsys.readouterr().out


def test_check_requires_dual_for_short(tmp_path, capsys):
    f = write(tmp_path, "f.csv", "x,value\n0.0,0.0\n")
    assert run(["check", "short", f, f]) == 2
    assert "--dual" in capsys.readouterr().err


def test_concepts_identity_context(tmp_path, capsys):
    path = write(tmp_path, "ident.cxt", IDENT2_CXT)
    assert run(["concepts", path]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 4
    assert set(lines) == {
        "({}, {m1, m2})",
        "({g2}, {m2})",
        "({g1}, {m1})",
        "({g1, g2}, {})",
    }


def test_concepts_accepts_csv_context(tmp_path, capsys):
    path = write(tmp_path, "ctx.csv", ",a,b\n1,1,0\n2,1,1\n3,0,0\n")
    assert run(["concepts", path]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 3


def test_lattice_dot(tmp_path, capsys):
    path = write(tmp_path, "ident.cxt", IDENT2_CXT)
    assert run(["lattice", path]) == 0
    dot = capsys.readouterr().out
    assert dot.startswith("digraph") and dot.count("->") == 4


def test_compose_verb(tmp_path, capsys):
    a = write(tmp_path, "a.csv", ",x,y\nr,0.0,1.0\ns,2.0,0.0\n")
    b = write(tmp_path, "b.csv", ",u,v\nx,0.0,3.0\ny,1.0,0.0\n")
    assert run(["compose", a, b]) == 0
    assert capsys.readouterr().out == ",u,v\nr,0.0,1.0\ns,1.0,0.0\n"


def test_plotdata_notes_omissions(tmp_path, capsys):
    path = write(tmp_path, "f.csv", "x,value\n-1.0,inf\n0.0,0.5\n1.0,-inf\n")
    assert run(["plotdata", path]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "0.0\t0.5"
    assert lines[-1].startswith("# omitted 2 infinite samples:")
    assert "x=-1.0" in lines[-1] and "x=1.0" in lines[-1]


def test_plotdata_all_finite_has_no_comment(tmp_path, capsys):
    path = write(tmp_path, "f.csv", "x,value\n0.0,0.5\n")
    assert run(["plotdata", path]) == 0
    assert "#" not in capsys.readouterr().out


def test_exit_two_on_malformed_input(tmp_path, capsys):
    bad = write(tmp_path, "bad.csv", "x,value\n1.0,zzz\n")
    assert run(["conjugate", bad, "--dual", "auto"]) == 2
    err = capsys.readouterr().err
    assert "bad.csv" in err and "line 2" in err and "value" in err


def test_exit_two_on_missing_file(capsys):
    assert run(["hull", "/nonexistent/f.csv"]) == 2
    assert "error" in capsys.readouterr().err


def test_exit_two_on_mismatched_dual_grid(tmp_path, capsys):
    f = write(tmp_path, "f.csv", "x,value\n-1.0,1.0\n0.0,0.0\n1.0,1.0\n")
    g = write(tmp_path, "g.csv", "x,value\n-1.0,0.0\n1.0,0.0\n")
    assert run(["check", "adjunction", f, g, "--dual", "0:1:0.5"]) == 2
    assert "dual grid" in capsys.readouterr().err


def test_exit_two_on_incompatible_compose(tmp_path, capsys):
    a = write(tmp_path, "a.csv", ",x,y\nr,0.0,1.0\n")
    b = write(tmp_path, "b.csv", ",u\nz,0.0\n")
    assert run(["compose", a, b]) == 2
    assert "inner sizes" in capsys.readouterr().err


def test_exit_two_on_bad_dual_spec(tmp_path, capsys):
    f = write(tmp_path, "f.csv", "x,value\n0.0,0.0\n")
    assert run(["conjugate", f, "--dual", "nonsense"]) == 2
    assert run(["conjugate", f, "--dual", "1:0:0.5"]) == 2
    assert run(["check", "short", f, f, "--dual", "0:1:0.5", "--tol", "-1"]) == 2


def test_usage_error_exit_code():
    assert run(["frobnicate"]) == 2
    assert run([]) == 2


def test_round_trip_canonical_files():
    f = parse_function_csv("x,value\n-1.0,inf\n0.5,0.25\n")
    assert render_function_csv(parse_function_csv(render_function_csv(f))) == render_function_csv(f)
    ctx = parse_cxt(WORKED_CXT)
    assert render_cxt(parse_cxt(render_cxt(ctx))) == render_cxt(ctx) == WORKED_CXT


def test_conjugate_beyond_the_float_range_is_silent(tmp_path, capsys):
    # k*x and k*x - f(x) overflow; both saturate to inf without a warning
    path = write(tmp_path, "f.csv", "x,value\n1.0,-1.7e308\n2.0,0.0\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(["conjugate", path, "--dual", "1.7e308:1.7e308:1"]) == 0
    captured = capsys.readouterr()
    assert captured.out == "x,value\n1.7e+308,inf\n"
    assert captured.err == ""


def test_python_dash_m_runs_the_cli():
    env = {**os.environ, "PYTHONPATH": str(Path(nucleus.__file__).parents[1])}

    def module_run(*argv):
        cmd = [sys.executable, "-m", "nucleus", *argv]
        return subprocess.run(cmd, capture_output=True, text=True, env=env, timeout=120)

    tables = module_run("tables")
    assert tables.returncode == 0 and tables.stdout.startswith("x + y\t-inf")
    assert module_run("conjugate").returncode == 2
