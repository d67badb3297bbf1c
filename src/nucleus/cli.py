"""Command-line front end.

Verbs cover the sampled-function calculus (conjugate, biconjugate,
hull, distance, the three duality checks), the concept-lattice side
(concepts, lattice), min-plus matrix composition, plot-ready dumps and
a self-demonstration of the infinity arithmetic tables.  Exit status is
the only channel for check outcomes: 0 success, 1 failed check, 2 for
unreadable or malformed input.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import extreal as ext
from .core import FormatError, compose_profunctors, parse_matrix_csv, render_matrix_csv
from .galois import enumerate_concepts, export_dot, parse_context_csv, parse_cxt
from .legendre import (
    Grid,
    SampledFunction,
    Space,
    biconjugate,
    check_lf_adjunction,
    check_short,
    check_toland_singer,
    climb_distance,
    conjugate,
    convex_hull_oracle,
    default_dual_grid,
    fall_distance,
    parse_function_csv,
    render_function_csv,
)

__all__ = ["build_parser", "run", "main"]


def _read_text(path: str) -> str:
    return Path(path).read_text()


def _attach_source(err: FormatError, path: str) -> FormatError:
    err.source = path
    return err


def _load_function(path: str, space: Space) -> SampledFunction:
    try:
        return parse_function_csv(_read_text(path), space)
    except FormatError as e:
        raise _attach_source(e, path)


def _load_context(path: str):
    text = _read_text(path)
    first = next((ln.strip() for ln in text.splitlines() if ln.strip()), "")
    try:
        return parse_cxt(text) if first == "B" else parse_context_csv(text)
    except FormatError as e:
        raise _attach_source(e, path)


def _load_matrix(path: str):
    try:
        return parse_matrix_csv(_read_text(path))
    except FormatError as e:
        raise _attach_source(e, path)


def _parse_dual_spec(spec: str, functions: list[SampledFunction]) -> Grid:
    """Either ``lo:hi:step`` or ``auto`` (difference quotients of the inputs)."""
    if spec == "auto":
        points: set[float] = set()
        for f in functions:
            points.update(default_dual_grid(f).points)
        return Grid(tuple(sorted(points)))
    parts = spec.split(":")
    if len(parts) != 3:
        raise ValueError(f"dual grid must be lo:hi:step or auto, got {spec!r}")
    try:
        lo, hi, step = (float(p) for p in parts)
    except ValueError:
        raise ValueError(f"dual grid must be lo:hi:step or auto, got {spec!r}") from None
    return Grid.from_range(lo, hi, step)


def _emit(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _check_tol(tol: float) -> float:
    if tol < 0:
        raise ValueError("tolerance must be nonnegative")
    return tol


def _cmd_tables(args: argparse.Namespace) -> int:
    row = [ext.NEG_INF, ext.finite(5.0), ext.POS_INF]
    col = [ext.NEG_INF, ext.finite(3.0), ext.POS_INF]
    lines = []
    for title, op in (("x + y", ext.add), ("x - y", ext.sub)):
        lines.append("\t".join([title] + [ext.render(y) for y in col]))
        for x in row:
            lines.append("\t".join([ext.render(x)] + [ext.render(op(x, y)) for y in col]))
        lines.append("")
    _emit("\n".join(lines), args.out)
    return 0


def _cmd_conjugate(args: argparse.Namespace) -> int:
    f = _load_function(args.input, Space.PRIMAL)
    dual = _parse_dual_spec(args.dual, [f])
    _emit(render_function_csv(conjugate(f, dual)), args.out)
    return 0


def _cmd_biconjugate(args: argparse.Namespace) -> int:
    f = _load_function(args.input, Space.PRIMAL)
    dual = _parse_dual_spec(args.dual, [f])
    _emit(render_function_csv(biconjugate(f, dual)), args.out)
    return 0


def _cmd_hull(args: argparse.Namespace) -> int:
    f = _load_function(args.input, Space.PRIMAL)
    _emit(render_function_csv(convex_hull_oracle(f)), args.out)
    return 0


def _cmd_distance(args: argparse.Namespace) -> int:
    f1 = _load_function(args.first, Space.PRIMAL)
    f2 = _load_function(args.second, Space.PRIMAL)
    climb = climb_distance(f1, f2)
    # the same samples read as functions of slope
    g1, g2 = (SampledFunction(f.grid, f.values_array, Space.DUAL) for f in (f1, f2))
    fall = fall_distance(g1, g2)
    _emit(f"climb {ext.render(climb)}\nfall {ext.render(fall)}\n", args.out)
    return 0


def _cmd_check(args: argparse.Namespace) -> int:
    tol = _check_tol(args.tol)
    if args.kind == "adjunction":
        f = _load_function(args.first, Space.PRIMAL)
        g = _load_function(args.second, Space.DUAL)
        dual = _parse_dual_spec(args.dual, [f]) if args.dual else None
        report = check_lf_adjunction(f, g, dual=dual, tol=tol)
    else:
        f1 = _load_function(args.first, Space.PRIMAL)
        f2 = _load_function(args.second, Space.PRIMAL)
        if not args.dual:
            raise ValueError(f"check {args.kind} needs --dual")
        dual = _parse_dual_spec(args.dual, [f1, f2])
        if args.kind == "short":
            report = check_short(f1, f2, dual, tol=tol)
        else:
            report = check_toland_singer(f1, f2, dual, tol=tol)
    text = (
        json.dumps(report.to_json_dict(), indent=2) + "\n"
        if args.json
        else report.render_text() + "\n"
    )
    _emit(text, args.out)
    return 0 if report.holds else 1


def _cmd_concepts(args: argparse.Namespace) -> int:
    lattice = enumerate_concepts(_load_context(args.input))
    _emit("".join(f"{c}\n" for c in lattice.concepts), args.out)
    return 0


def _cmd_lattice(args: argparse.Namespace) -> int:
    lattice = enumerate_concepts(_load_context(args.input))
    _emit(export_dot(lattice), args.out)
    return 0


def _cmd_compose(args: argparse.Namespace) -> int:
    rows_a, cols_a, first = _load_matrix(args.first)
    rows_b, cols_b, second = _load_matrix(args.second)
    composed = compose_profunctors(first, second)
    _emit(render_matrix_csv(rows_a, cols_b, composed), args.out)
    return 0


def _cmd_plotdata(args: argparse.Namespace) -> int:
    f = _load_function(args.input, Space.PRIMAL)
    lines = []
    omitted = []
    for x, v in zip(f.grid.points, f.values):
        if v.is_finite:
            lines.append(f"{x!r}\t{v.value!r}")
        else:
            omitted.append(x)
    if omitted:
        shown = ", ".join(f"x={x!r}" for x in omitted)
        lines.append(f"# omitted {len(omitted)} infinite samples: {shown}")
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nucleus",
        description="Discrete conjugation calculus and concept lattices.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    def add_out(p: argparse.ArgumentParser) -> None:
        p.add_argument("--out", help="write output here instead of stdout")

    p = sub.add_parser("tables", help="print the infinity arithmetic tables")
    add_out(p)
    p.set_defaults(handler=_cmd_tables)

    p = sub.add_parser("conjugate", help="slope transform of a function CSV")
    p.add_argument("input")
    p.add_argument("--dual", required=True, help="slope grid, lo:hi:step or auto")
    add_out(p)
    p.set_defaults(handler=_cmd_conjugate)

    p = sub.add_parser("biconjugate", help="transform twice: convex envelope on the slope grid")
    p.add_argument("input")
    p.add_argument("--dual", required=True, help="slope grid, lo:hi:step or auto")
    add_out(p)
    p.set_defaults(handler=_cmd_biconjugate)

    p = sub.add_parser("hull", help="geometric lower convex hull of the samples")
    p.add_argument("input")
    add_out(p)
    p.set_defaults(handler=_cmd_hull)

    p = sub.add_parser("distance", help="climb and fall distances between two functions")
    p.add_argument("first")
    p.add_argument("second")
    add_out(p)
    p.set_defaults(handler=_cmd_distance)

    p = sub.add_parser("check", help="verify a duality identity; exit 0 iff it holds")
    p.add_argument("kind", choices=["adjunction", "short", "toland-singer"])
    p.add_argument("first")
    p.add_argument("second")
    p.add_argument("--dual", help="slope grid, lo:hi:step or auto")
    p.add_argument("--tol", type=float, default=1e-9, help="tolerance on finite values")
    p.add_argument("--json", action="store_true", help="emit the report as JSON")
    add_out(p)
    p.set_defaults(handler=_cmd_check)

    p = sub.add_parser("concepts", help="list all concepts of a context (.cxt or CSV)")
    p.add_argument("input")
    add_out(p)
    p.set_defaults(handler=_cmd_concepts)

    p = sub.add_parser("lattice", help="DOT Hasse diagram of the concept lattice")
    p.add_argument("input")
    add_out(p)
    p.set_defaults(handler=_cmd_lattice)

    p = sub.add_parser("compose", help="min-plus product of two labelled matrices")
    p.add_argument("first")
    p.add_argument("second")
    add_out(p)
    p.set_defaults(handler=_cmd_compose)

    p = sub.add_parser("plotdata", help="tab-separated finite samples for plotting")
    p.add_argument("input")
    add_out(p)
    p.set_defaults(handler=_cmd_plotdata)

    return parser


# Flags whose values may start with a dash (negative grid bounds); fold
# them into --flag=value form so argparse does not read them as options.
_VALUE_FLAGS = ("--dual", "--tol", "--out")


def _fold_flag_values(argv: list[str]) -> list[str]:
    out = []
    it = iter(argv)
    for tok in it:
        if tok in _VALUE_FLAGS:
            val = next(it, None)
            out.append(tok if val is None else f"{tok}={val}")
        else:
            out.append(tok)
    return out


def run(argv: list[str]) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(_fold_flag_values(argv))
    except SystemExit as e:
        return int(e.code or 0)
    try:
        return args.handler(args)
    except FormatError as e:
        source = getattr(e, "source", "<input>")
        print(f"error: {source}: {e}", file=sys.stderr)
        return 2
    except (OSError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


def main(argv: list[str] | None = None) -> int:
    return run(sys.argv[1:] if argv is None else argv)
