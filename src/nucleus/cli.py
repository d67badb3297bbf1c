"""Command-line front end.

Verbs cover the sampled-function calculus (conjugate, biconjugate,
hull, distance, the three duality checks), the concept-lattice side
(concepts, lattice), min-plus matrix composition, plot-ready dumps and
a self-demonstration of the infinity arithmetic tables.

One table, ``_VERBS``, gives each verb's help, handler, file arguments
with their reader, and other arguments; its lambdas look library names
up when called, so a wrapper on this module's names sees every call.
Handlers are pure functions of the arguments and the files read and
return their text (``check`` its exit code too).  ``run`` alone reads
files, writes stdout or ``--out`` and reports errors: exit 0 success,
1 failed check, 2 for unreadable or malformed input, naming the file
with its line and field, the files between which sizes, grids or labels
differ, or a context with too many concepts.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from . import extreal as ext
from .core import FormatError, SizeMismatchError, compose_profunctors, parse_matrix_csv, render_matrix_csv
from .galois import TooManyConceptsError, enumerate_concepts, export_dot, parse_context_csv, parse_cxt, render_concepts
from .legendre import (
    DEFAULT_TOL,
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


def _parse_context(text: str):
    """A ``.cxt`` file when the first line that is not blank is ``B``, a CSV
    context otherwise.  Text that fails as ``.cxt`` before both counts are
    read, and reads as a CSV context (whose one column label is ``B``), is
    that context; otherwise the ``.cxt`` error stands, so a truncated
    ``.cxt`` file is not taken for a column of object labels."""
    first = next((ln.strip() for ln in text.splitlines() if ln.strip()), "")
    if first != "B":
        return parse_context_csv(text)
    try:
        return parse_cxt(text)
    except FormatError as cxt_error:
        lines = [ln.strip() for ln in text.splitlines()]
        # the first two lines after the name line that are not blank
        counts = [ln for ln in lines[lines.index("B") + 2:] if ln][:2]
        if len(counts) == 2 and all(map(_is_count, counts)):
            raise
        try:
            return parse_context_csv(text)
        except FormatError:
            raise cxt_error from None


def _is_count(token: str) -> bool:
    try:
        return int(token) >= 0
    except ValueError:
        return False


def _parse_dual_spec(spec: str, inputs: list[tuple[str, SampledFunction]]) -> Grid:
    """Either ``lo:hi:step``, three numbers read by the file token rule, or
    ``auto`` (difference quotients of the inputs, each given with the path
    it was read from)."""
    if spec == "auto":
        grids = []
        for path, f in inputs:
            try:
                grids.append(default_dual_grid(f))
            except ValueError as e:
                raise ValueError(f"{path}: {e}; give --dual lo:hi:step") from None
        if len(grids) == 1:
            return grids[0]
        return Grid(np.unique(np.concatenate([g.as_array for g in grids])))
    try:
        lo, hi, step = map(ext._real, spec.split(":"))
    except ValueError:
        raise ValueError(f"dual grid must be lo:hi:step or auto, got {spec!r}") from None
    try:
        return Grid.from_range(lo, hi, step)
    except ValueError as e:
        raise ValueError(f"--dual {spec}: {e}") from None


def _flag_real(token: str) -> float:
    """A number flag read by the file token rule, refused as argparse refuses ``float``."""
    try:
        return ext._real(token)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {token!r}") from None


def _as_dual(f: SampledFunction) -> SampledFunction:
    """The same samples read as a function of slope."""
    return SampledFunction(f.grid, f.values_array, Space.DUAL)


def _tables(args: argparse.Namespace) -> str:
    row = [ext.NEG_INF, ext.finite(5.0), ext.POS_INF]
    col = [ext.NEG_INF, ext.finite(3.0), ext.POS_INF]
    lines = []
    for title, op in (("x + y", ext.add), ("x - y", ext.sub)):
        lines.append("\t".join([title] + [ext.render(y) for y in col]))
        for x in row:
            lines.append("\t".join([ext.render(x)] + [ext.render(op(x, y)) for y in col]))
        lines.append("")
    return "\n".join(lines)


def _transform(args: argparse.Namespace, f: SampledFunction, transform) -> str:
    dual = _parse_dual_spec(args.dual, [(args.input, f)])
    return render_function_csv(transform(f, dual))


def _distance(args: argparse.Namespace, f1: SampledFunction, f2: SampledFunction) -> str:
    climb = climb_distance(f1, f2)
    fall = fall_distance(_as_dual(f1), _as_dual(f2))
    return f"climb {ext.render(climb)}\nfall {ext.render(fall)}\n"


def _check(args: argparse.Namespace, f1: SampledFunction, f2: SampledFunction) -> tuple[str, int]:
    tol = ext._check_tol(args.tol)  # refused before any --dual is read
    if args.kind == "adjunction":
        if args.dual is not None:
            raise ValueError(f"check adjunction takes no --dual: its slopes are the grid of {args.second}")
        report = check_lf_adjunction(f1, _as_dual(f2), tol=tol)
    else:
        if not args.dual:
            raise ValueError(f"check {args.kind} needs --dual")
        dual = _parse_dual_spec(args.dual, [(args.first, f1), (args.second, f2)])
        check = check_short if args.kind == "short" else check_toland_singer
        report = check(f1, f2, dual, tol=tol)
    text = json.dumps(report.to_json_dict(), indent=2) if args.json else report.render_text()
    return text + "\n", 0 if report.holds else 1


def _plotdata(args: argparse.Namespace, f: SampledFunction) -> str:
    xs, vs = f.grid.as_array, f.values_array
    finite = np.isfinite(vs)
    text = "".join([f"{x!r}\t{v!r}\n" for x, v in zip(xs[finite].tolist(), vs[finite].tolist())])
    omitted = xs[~finite].tolist()
    if omitted:
        shown = ", ".join(f"x={x!r}" for x in omitted)
        text += f"# omitted {len(omitted)} infinite samples: {shown}\n"
    return text


class _Verb(NamedTuple):
    help: str
    handler: Callable[..., str | tuple[str, int]]
    files: tuple[str, ...] = ()
    read: Callable[[str], object] | None = None
    options: tuple[tuple[str, dict], ...] = ()


_FUNCTION = lambda text: parse_function_csv(text)  # noqa: E731 (late binding, as in the table)
_DUAL_HELP = "slope grid, lo:hi:step or auto"
_SLOPES = (("--dual", {"required": True, "help": _DUAL_HELP}),)
_VERBS = {
    "tables": _Verb("print the infinity arithmetic tables", _tables),
    "conjugate": _Verb(
        "slope transform of a function CSV", lambda args, f: _transform(args, f, conjugate),
        ("input",), _FUNCTION, _SLOPES),
    "biconjugate": _Verb(
        "transform twice: convex envelope on the slope grid",
        lambda args, f: _transform(args, f, biconjugate),
        ("input",), _FUNCTION, _SLOPES),
    "hull": _Verb(
        "geometric lower convex hull of the samples",
        lambda args, f: render_function_csv(convex_hull_oracle(f)), ("input",), _FUNCTION),
    "distance": _Verb(
        "climb and fall distances between two functions", _distance, ("first", "second"), _FUNCTION),
    "check": _Verb(
        "verify a duality identity; exit 0 iff it holds", _check, ("first", "second"), _FUNCTION, (
            ("kind", {"choices": ["adjunction", "short", "toland-singer"]}),
            ("--dual", {"help": f"{_DUAL_HELP}; short and toland-singer only"}),
            ("--tol", {"type": _flag_real, "default": DEFAULT_TOL, "help": "tolerance on finite values"}),
            ("--json", {"action": "store_true", "help": "emit the report as JSON"}),
        )),
    "concepts": _Verb(
        "list all concepts of a context (.cxt or CSV)",
        lambda args, ctx: render_concepts(enumerate_concepts(ctx)),
        ("input",), _parse_context),
    "lattice": _Verb(
        "DOT Hasse diagram of the concept lattice",
        lambda args, ctx: export_dot(enumerate_concepts(ctx)), ("input",), _parse_context),
    "compose": _Verb(
        "min-plus product of two labelled matrices",
        lambda args, a, b: render_matrix_csv(compose_profunctors(a, b)),
        ("first", "second"), lambda text: parse_matrix_csv(text)[2]),
    "plotdata": _Verb("tab-separated finite samples for plotting", _plotdata, ("input",), _FUNCTION),
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process from ``_VERBS``: parsing
    reads it and leaves it as it was, each run getting a fresh namespace."""
    parser = argparse.ArgumentParser(
        prog="nucleus",
        description="Discrete conjugation calculus and concept lattices.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)
    for name, verb in _VERBS.items():
        p = sub.add_parser(name, help=verb.help)
        for flag, kwargs in verb.options:
            p.add_argument(flag, **kwargs)
        for file in verb.files:
            p.add_argument(file)
        p.add_argument("--out", help="write output here instead of stdout")
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
    try:
        args = build_parser().parse_args(_fold_flag_values(argv))
    except SystemExit as e:
        return int(e.code or 0)
    verb = _VERBS[args.verb]
    paths = [getattr(args, name) for name in verb.files]
    try:
        inputs = []
        for path in paths:
            try:
                inputs.append(verb.read(Path(path).read_text(encoding="utf-8")))
            except UnicodeDecodeError as e:
                raise ValueError(
                    f"{path}: not valid UTF-8 (byte 0x{e.object[e.start]:02x} at offset {e.start})"
                ) from None
            except FormatError as e:
                raise ValueError(f"{path}: {e}") from None
        try:
            out = verb.handler(args, *inputs)
        except (SizeMismatchError, TooManyConceptsError) as e:
            raise ValueError(f"{', '.join(paths)}: {e}") from None
        text, code = out if isinstance(out, tuple) else (out, 0)
        if args.out:
            Path(args.out).write_text(text, encoding="utf-8")
        else:
            try:
                sys.stdout.write(text)  # encodes the whole text before writing any of it
            except UnicodeEncodeError as e:
                raise ValueError(f"stdout cannot encode {e.object[e.start]!r} as {e.encoding}; give --out") from None
        return code
    except (OSError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


def main(argv: list[str] | None = None) -> int:
    return run(sys.argv[1:] if argv is None else argv)
