"""End-to-end command tests: verbs, formats and exit codes."""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import nucleus
from nucleus import extreal as ext
from nucleus.cli import _fold_flag_values, _parse_dual_spec, build_parser, run
from nucleus.core import EXT_REAL, Profunctor, render_matrix_csv
from nucleus.galois import parse_cxt, render_cxt
from nucleus.legendre import (
    MAX_GRID_POINTS,
    Grid,
    SampledFunction,
    Space,
    default_dual_grid,
    parse_function_csv,
    render_function_csv,
    reverse_conjugate,
)

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
    # an infinite tolerance is the string "inf", as lhs and rhs spell one: JSON has no Infinity
    assert run(["check", "short", f1, f2, "--dual", "-1:1:0.25", "--tol", "inf", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out, parse_constant=lambda name: pytest.fail(f"{name} in JSON"))
    assert doc["tolerance"] == "inf"
    assert run(["check", "short", f1, f2, "--dual", "-1:1:0.25", "--tol", "inf"]) == 0
    assert "\ntolerance inf\n" in capsys.readouterr().out


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


def cell_text(x):
    # the per-cell renderer that text output used before it read the arrays
    if x.tag is ext.Tag.POS_INF:
        return "inf"
    if x.tag is ext.Tag.NEG_INF:
        return "-inf"
    return repr(x.value)


def test_text_output_at_the_float_corners(tmp_path, capsys):
    corners = [float("inf"), -0.0, 5e-324, -5e-324, 1.7e308, -1.7e308, float("-inf"), 0.1]
    f = SampledFunction(Grid(tuple(range(len(corners)))), corners, Space.PRIMAL)
    want = "".join(f"{x!r},{cell_text(v)}\n" for x, v in zip(f.grid.points, f.values))
    assert render_function_csv(f) == "x,value\n" + want
    assert want.splitlines()[1:4] == ["1.0,0.0", "2.0,5e-324", "3.0,-5e-324"]
    assert ext.render(ext.ExtReal(ext.Tag.FINITE, -0.0)) == "-0.0"
    m = Profunctor((f.values[:4], f.values[4:]), EXT_REAL, ("r0", "r1"), ("a", "b", "c", "d"))
    rows = [",".join(["r" + str(i)] + [cell_text(v) for v in row]) for i, row in enumerate(m.entries)]
    assert render_matrix_csv(m) == "\n".join([",a,b,c,d", *rows]) + "\n"
    assert run(["plotdata", write(tmp_path, "f.csv", render_function_csv(f))]) == 0
    finite = [f"{x!r}\t{v.value!r}" for x, v in zip(f.grid.points, f.values) if v.is_finite]
    omitted = "# omitted 2 infinite samples: x=0.0, x=6.0"
    assert capsys.readouterr().out == "\n".join([*finite, omitted]) + "\n"


def test_exit_two_on_malformed_input(tmp_path, capsys):
    bad = write(tmp_path, "bad.csv", "x,value\n1.0,zzz\n")
    assert run(["conjugate", bad, "--dual", "auto"]) == 2
    err = capsys.readouterr().err
    assert "bad.csv" in err and "line 2" in err and "value" in err


def test_exit_two_on_missing_file(capsys):
    assert run(["hull", "/nonexistent/f.csv"]) == 2
    assert "error" in capsys.readouterr().err


def test_exit_two_on_mismatched_dual_grid(tmp_path, capsys):
    # the adjunction's slopes are the second file's grid: any --dual, even that grid, is refused
    f = write(tmp_path, "f.csv", "x,value\n-1.0,1.0\n0.0,0.0\n1.0,1.0\n")
    g = write(tmp_path, "g.csv", "x,value\n-1.0,0.0\n1.0,0.0\n")
    for dual in ("0:1:0.5", "-1:1:2", "auto"):
        assert run(["check", "adjunction", f, g, "--dual", dual]) == 2
        assert capsys.readouterr() == ("", f"error: check adjunction takes no --dual: its slopes are the grid of {g}\n")


def test_exit_two_on_incompatible_compose(tmp_path, capsys):
    a = write(tmp_path, "a.csv", ",x,y\nr,0.0,1.0\n")
    b = write(tmp_path, "b.csv", ",u\nz,0.0\n")
    assert run(["compose", a, b]) == 2
    assert "inner sizes" in capsys.readouterr().err


def test_compose_pairs_inner_objects_by_label(tmp_path, capsys):
    a = write(tmp_path, "a.csv", ",x,y\na,0,1\n")
    b = write(tmp_path, "b.csv", ",u\ny,5\nx,7\n")
    assert run(["compose", a, b]) == 2
    want = f"error: {a}, {b}: inner labels differ: columns ['x', 'y'] vs rows ['y', 'x']\n"
    assert capsys.readouterr() == ("", want)
    same = write(tmp_path, "same.csv", ",u\nx,7\ny,5\n")
    assert run(["compose", a, same]) == 0
    assert capsys.readouterr().out == ",u\na,6.0\n"


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


def test_conjugate_takes_the_real_product_beyond_the_float_range(tmp_path, capsys):
    # a -inf sample makes the conjugate +inf at every slope, however k*x
    # overflows, and 2 * 1e308 - 1e308 is finite though 2 * 1e308 is not;
    # the mirror transform reads the same file as a dual function
    for row, k, want in [("1e308,-inf", -2.75, "inf"), ("1e308,-inf", -1.0, "inf"), ("1e308,1e308", 2.0, "1e+308")]:
        path = write(tmp_path, "f.csv", row + "\n")
        assert run(["conjugate", path, f"--dual={k!r}:{k!r}:1"]) == 0
        assert capsys.readouterr().out == f"x,value\n{k!r},{want}\n"
        g = parse_function_csv(row, Space.DUAL)
        assert reverse_conjugate(g, Grid((k,))).values_array.tolist() == [float(want)]


def test_hull_near_the_float_range_is_silent(tmp_path, capsys):
    # the chord from (0, -1e308) to (3, 1.7e308) passes x = 1 at about -1e307;
    # the differences of the values overflow unless the chain scales them
    path = write(tmp_path, "f.csv", "x,value\n0.0,-1e308\n1.0,0.0\n3.0,1.7e308\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(["hull", path]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    hull = parse_function_csv(captured.out)
    assert hull.grid.points == (0.0, 1.0, 3.0)
    low, mid, high = hull.values_array
    assert (low, high) == (-1e308, 1.7e308)
    assert abs(mid - (-1e308 * (2 / 3) + 1.7e308 / 3)) <= 1e-12 * 1e307


def test_hull_keeps_vertices_whose_turns_underflow(tmp_path, capsys):
    # the turns of these points underflow to 0 unless the coordinates are
    # scaled up first, which once put the hull at 0.0 above the middle sample
    for t in (1e-200, 5e-324):
        path = write(tmp_path, "f.csv", f"x,value\n{-t!r},0.0\n0.0,{-t!r}\n{t!r},0.0\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(["hull", path]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        hull = parse_function_csv(captured.out)
        assert hull.grid.points == (-t, 0.0, t)
        assert hull.values_array.tolist() == [0.0, -t, 0.0]
        samples = parse_function_csv(Path(path).read_text()).values_array.tolist()
        assert all(h <= v for h, v in zip(hull.values_array.tolist(), samples))


def test_dual_auto_beyond_the_float_range_names_the_file(tmp_path, capsys):
    path = write(tmp_path, "q.csv", "x,value\n0.0,-1e308\n1e-10,1e308\n1.0,0.0\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(["biconjugate", path, "--dual", "auto"]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: ") and "give --dual lo:hi:step" in err
        assert run(["biconjugate", path, "--dual", "-1:1:0.5"]) == 0


def test_dual_auto_is_the_union_of_the_quotients():
    f1 = parse_function_csv("x,value\n0.0,0.0\n1.0,1.0\n3.0,0.0\n")
    f2 = parse_function_csv("x,value\n0.0,2.0\n1.0,inf\n3.0,-1.0\n")
    want = sorted(set(default_dual_grid(f1).points) | set(default_dual_grid(f2).points))
    assert want == [-1.0, -0.5, 0.0, 1.0]
    assert _parse_dual_spec("auto", [("a.csv", f1), ("b.csv", f2)]).points == tuple(want)
    assert _parse_dual_spec("auto", [("a.csv", f1)]) == default_dual_grid(f1)


def test_dual_range_whose_span_overflows_is_read(tmp_path, capsys):
    # -1e308:1e308:1e308 spans more than the largest float but has three points
    path = write(tmp_path, "f.csv", "x,value\n0.0,0.0\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(["conjugate", path, "--dual=-1e308:1e308:1e308"]) == 0
    captured = capsys.readouterr()
    assert captured.out == "x,value\n-1e+308,0.0\n0.0,0.0\n1e+308,0.0\n"
    assert captured.err == ""


def test_dual_range_too_large_is_refused(tmp_path, capsys):
    # 2e12 points: the count is checked before anything is built
    path = write(tmp_path, "f.csv", "x,value\n0.0,0.0\n")
    assert run(["conjugate", path, "--dual", "-1e6:1e6:1e-6"]) == 2
    assert capsys.readouterr().err.startswith("error: --dual -1e6:1e6:1e-6: ")


def test_dual_auto_over_the_pair_cap_names_the_file(tmp_path, capsys):
    # the fewest finite samples whose pairs exceed the cap
    n = 2897
    assert n * (n - 1) // 2 > MAX_GRID_POINTS >= (n - 1) * (n - 2) // 2
    path = write(tmp_path, "big.csv", csv_of(range(n), lambda x: x * x))
    assert run(["biconjugate", path, "--dual", "auto"]) == 2
    err = capsys.readouterr().err
    assert err == (
        f"error: {path}: {n} finite samples give {n * (n - 1) // 2} difference quotients, "
        f"more than {MAX_GRID_POINTS}; give --dual lo:hi:step\n"
    )
    assert run(["biconjugate", path, "--dual", "-1:1:0.5", "--out", str(tmp_path / "o.csv")]) == 0


def test_shared_parser_carries_nothing_between_runs(tmp_path, capsys, fig_pair):
    parser = build_parser()
    assert build_parser() is parser
    f1, f2 = fig_pair
    out = tmp_path / "short.json"
    argv = ["check", "short", f1, f2, "--dual", "-1:1:0.25", "--tol", "0.5", "--json", "--out", str(out)]
    assert run(argv) == 0
    assert json.loads(out.read_text())["tolerance"] == 0.5
    # a usage error between the runs: --dual given no value
    assert run(["conjugate", f1, "--dual"]) == 2
    assert "expected one argument" in capsys.readouterr().err
    # another verb, then the first one with every option left at its default
    assert run(["tables"]) == 0
    assert capsys.readouterr().out.startswith("x + y\t-inf")
    assert run(["check", "short", f1, f2, "--dual", "-1:1:0.25"]) == 0
    text = capsys.readouterr().out
    assert text.startswith("lhs 1.0\n") and "tolerance 1e-09\n" in text
    fresh = build_parser.__wrapped__()
    for bare in (["check", "short", "a", "b"], ["tables"], ["conjugate", "a", "--dual", "auto"]):
        assert parser.parse_args(bare) == fresh.parse_args(bare)


def test_attribute_free_cxt_error_names_the_file(tmp_path, capsys):
    path = write(tmp_path, "dup.cxt", "B\n\n2\n0\ng\ng\n")
    assert run(["concepts", path]) == 2
    assert capsys.readouterr().err == f"error: {path}: object labels must be unique\n"


def test_csv_context_with_the_one_column_label_b_is_read_as_csv(tmp_path, capsys):
    path = write(tmp_path, "b.csv", "B\ng\nh\n")
    assert run(["concepts", path]) == 0
    assert capsys.readouterr().out == "({g, h}, {})\n"
    # text that neither reader takes, or a .cxt file cut short after its
    # counts, keeps the .cxt message
    for text, message in (
        ("B\n\nx\ny,1\n", "line 3: expected object count, got 'x'"),
        ("B\n\n1\n2\ng\nm\n", "unexpected end of file while reading an attribute name"),
    ):
        path = write(tmp_path, "bad.cxt", text)
        assert run(["concepts", path]) == 2
        assert capsys.readouterr().err == f"error: {path}: {message}\n"


def test_cxt_count_with_an_underscore_or_a_non_ascii_digit_exits_two(tmp_path, capsys):
    for count in ("0_1", "\u0661"):
        path = tmp_path / "u.cxt"
        path.write_text(f"B\n\n{count}\n1\ng\nm\nX\n", encoding="utf-8")
        assert run(["concepts", str(path)]) == 2
        assert capsys.readouterr().err == f"error: {path}: line 3: expected object count, got {count!r}\n"


def test_cxt_line_after_the_incidence_rows_names_file_and_line(tmp_path, capsys):
    path = write(tmp_path, "tail.cxt", "B\n\n1\n1\ng\nm\nX\n.\nX\nfoo bar\n")
    assert run(["concepts", path]) == 2
    err = capsys.readouterr().err
    assert err == f"error: {path}: line 8: unexpected line after the incidence rows: '.'\n"


def test_python_dash_m_runs_the_cli():
    env = {**os.environ, "PYTHONPATH": str(Path(nucleus.__file__).parents[1])}

    def module_run(*argv):
        cmd = [sys.executable, "-m", "nucleus", *argv]
        return subprocess.run(cmd, capture_output=True, text=True, env=env, timeout=120)

    tables = module_run("tables")
    assert tables.returncode == 0 and tables.stdout.startswith("x + y\t-inf")
    assert module_run("conjugate").returncode == 2


def test_nan_tolerance_exits_two(tmp_path, capsys):
    f = write(tmp_path, "f.csv", "x,value\n-1.0,1.0\n1.0,1.0\n")
    g = write(tmp_path, "g.csv", "x,value\n0.0,-1.0\n")
    for argv in (["check", "adjunction", f, g], ["check", "short", f, f, "--dual", "0:1:0.5"]):
        assert run([*argv, "--tol", "nan"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == "error: tolerance must be nonnegative\n"
    assert run(["check", "adjunction", f, g, "--tol", "inf"]) == 0


def test_underscore_tokens_exit_two_naming_file_line_and_field(tmp_path, capsys):
    f = write(tmp_path, "f.csv", "x,value\n0.0,1_0\n")
    x = write(tmp_path, "x.csv", "x,value\n1_0,0.0\n")
    m = write(tmp_path, "m.csv", ",a\nr,2_5\n")
    for argv, want in (
        (["hull", f], f"error: {f}: line 2, field 'value': not an extended real: '1_0'\n"),
        (["plotdata", x], f"error: {x}: line 2, field 'x': bad abscissa '1_0'\n"),
        (["compose", m, m], f"error: {m}: line 2, field 'a': not an extended real: '2_5'\n"),
    ):
        assert run(argv) == 2
        assert capsys.readouterr().err == want


def test_size_errors_name_the_files(tmp_path, capsys):
    a = write(tmp_path, "a.csv", ",x,y,z\nr,0.0,1.0,2.0\n")
    b = write(tmp_path, "b.csv", ",u\nz,0.0\n")
    f = write(tmp_path, "f.csv", "x,value\n-1.0,1.0\n0.0,0.0\n1.0,1.0\n")
    g = write(tmp_path, "g.csv", "x,value\n-1.0,0.0\n1.0,0.0\n")
    grids = f"error: {f}, {g}: functions live on different grids\n"
    for argv, want in (
        (["compose", a, b], f"error: {a}, {b}: inner sizes differ: 3 vs 1\n"),
        (["distance", f, g], grids),
        (["check", "short", f, g, "--dual", "0:1:1"], grids),
        (["check", "toland-singer", f, g, "--dual", "0:1:1", "--json"], grids),
        (["check", "adjunction", f, g, "--dual", "0:1:0.5"],
         f"error: check adjunction takes no --dual: its slopes are the grid of {g}\n"),
    ):
        assert run(argv) == 2
        assert capsys.readouterr() == ("", want)


def test_out_into_a_missing_directory_exits_two(tmp_path, capsys):
    f = write(tmp_path, "f.csv", "x,value\n0.0,0.0\n")
    for argv in (["hull", f], ["tables"], ["check", "short", f, f, "--dual", "0:1:1"]):
        assert run([*argv, "--out", str(tmp_path / "missing" / "o.csv")]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: [Errno 2] ")


def test_underscore_flag_numbers_exit_two(tmp_path, capsys):
    # float() reads 1_0 as 10; flags follow the same token rule as files
    v = write(tmp_path, "v.csv", "x,value\n-1.0,1.0\n0.0,0.0\n1.0,1.0\n")
    assert run(["conjugate", v, "--dual", "-1_0:1_0:5"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: dual grid must be lo:hi:step or auto, got '-1_0:1_0:5'\n"
    assert run(["check", "short", v, v, "--dual", "-1:1:0.5", "--tol", "1_0"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.endswith("error: argument --tol: invalid float value: '1_0'\n")
    for dual in ("Infinity:1:1", "0:1e400:1"):
        assert run(["conjugate", v, "--dual", dual]) == 2
        assert "must be finite" in capsys.readouterr().err


def test_readme_python_blocks_run(capsys):
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    blocks = [part.split("```", 1)[0] for part in readme.split("```python\n")[1:]]
    assert blocks
    for block in blocks:
        exec(compile(block, "README.md", "exec"), {})
    assert capsys.readouterr().out == "0.0\n"


def test_readme_cli_block_parses():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    block = readme.split("## CLI", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    lines = [ln.split("#", 1)[0].split() for ln in block.splitlines()]
    commands = [words[1:] for words in lines if words and words[0] == "nucleus"]
    assert len(commands) == len([ln for ln in lines if ln])
    parser = build_parser()
    for argv in commands:
        parser.parse_args(_fold_flag_values(argv))
    verbs = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices
    assert set(verbs) == {argv[0] for argv in commands}


def test_input_that_is_not_utf8_names_the_file(tmp_path, capsys):
    good = write(tmp_path, "m.csv", ",a\nr,1.0\n")
    for name, data, verb, offset in (
        ("bin.csv", b"x,value\n0.0,\xff\n", "hull", 12),
        ("bin.cxt", b"B\n\n1\n1\ng\xe9\nm\nX\n", "concepts", 8),
        ("bin_m.csv", b",a\nr\x80,1.0\n", "compose", 4),
    ):
        path = tmp_path / name
        path.write_bytes(data)
        argv = [verb, *([good] if verb == "compose" else []), str(path)]
        assert run(argv) == 2
        assert capsys.readouterr() == (
            "", f"error: {path}: not valid UTF-8 (byte 0x{data[offset]:02x} at offset {offset})\n"
        )


def test_files_are_utf8_whatever_the_locale(tmp_path):
    # the C locale without UTF-8 mode reads and writes ASCII by default
    env = {**os.environ, "LC_ALL": "C", "PYTHONPATH": str(Path(nucleus.__file__).parents[1])}
    path = tmp_path / "u.cxt"
    path.write_bytes("B\n\n1\n1\ncafé\nm\nX\n".encode())
    out = tmp_path / "o.txt"
    cmd = [sys.executable, "-X", "utf8=0", "-m", "nucleus", "concepts", str(path), "--out", str(out)]
    done = subprocess.run(cmd, capture_output=True, text=True, env=env, timeout=120)
    assert (done.returncode, done.stdout, done.stderr) == (0, "", "")
    assert out.read_bytes() == "({café}, {m})\n".encode()


def test_stdout_that_cannot_encode_the_output_is_named(tmp_path):
    env = {k: v for k, v in os.environ.items() if k not in ("PYTHONIOENCODING", "PYTHONUTF8")}
    env |= {"LC_ALL": "C", "PYTHONPATH": str(Path(nucleus.__file__).parents[1])}
    path = tmp_path / "u.cxt"
    path.write_bytes("B\n\n1\n1\ncafé\nm\nX\n".encode())
    cmd = [sys.executable, "-X", "utf8=0", "-m", "nucleus", "concepts", str(path)]
    done = subprocess.run(cmd, capture_output=True, env=env, timeout=120)
    assert (done.returncode, done.stdout) == (2, b"")
    assert done.stderr == b"error: stdout cannot encode '\\xe9' as ascii; give --out\n"
