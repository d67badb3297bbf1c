"""Run-time spans around calls into each layer of ``nucleus``.

Wrappers are installed by assigning to module and class attributes, in
every module where the name is looked up (for example both
``nucleus.legendre.conjugate`` and the copy bound in ``nucleus.cli``);
the package source is left untouched.  Each span records its name,
start, end, parent span and job id; spans are kept in memory in flat
arrays and written out when the run ends.  Counts are taken from the
argument and result shapes at the call boundary.  The scalar
``extreal.add``/``sub``/``compare`` are not wrapped: they run in hot
loops, and ``core.*.inner_ops`` stands for their work.
"""

from __future__ import annotations

import importlib
from array import array
from collections import defaultdict
from time import perf_counter

import numpy as np

LAYERS = ("extreal", "core", "galois", "legendre", "cli")
_MODULES = ("nucleus", "nucleus.cli", "nucleus.core", "nucleus.extreal", "nucleus.galois", "nucleus.legendre")


def _finite_pairs(f) -> int:
    m = int(np.isfinite(f.values_array).sum())
    return m * (m - 1) // 2


# (module, attribute or Class.method, span name, counts from (args, result))
FUNCTION_SPANS = [
    ("nucleus.extreal", "sub_arrays", "extreal.sub_arrays", lambda a, r: {"cells": r.size}),
    ("nucleus.extreal", "parse", "extreal.parse", None),
    ("nucleus.extreal", "render", "extreal.render", None),
    ("nucleus.extreal", "from_array", "extreal.from_array", lambda a, r: {"cells": len(r)}),
    ("nucleus.legendre", "parse_function_csv", "legendre.parse_function_csv", lambda a, r: {"rows": len(r)}),
    ("nucleus.legendre", "render_function_csv", "legendre.render_function_csv", lambda a, r: {"rows": len(a[0])}),
    ("nucleus.legendre", "Grid.__post_init__", "legendre.grid", lambda a, r: {"points": len(a[0].points)}),
    ("nucleus.legendre", "Grid.from_range", "legendre.grid", None),
    ("nucleus.legendre", "conjugate", "legendre.conjugate", lambda a, r: {"cells": len(a[0]) * len(a[1])}),
    ("nucleus.legendre", "reverse_conjugate", "legendre.reverse_conjugate", lambda a, r: {"cells": len(a[0]) * len(a[1])}),
    ("nucleus.legendre", "default_dual_grid", "legendre.default_dual_grid",
     lambda a, r: {"pairs": _finite_pairs(a[0]), "slopes": len(r)}),
    ("nucleus.legendre", "convex_hull_oracle", "legendre.convex_hull_oracle", None),
    ("nucleus.legendre", "check_lf_adjunction", "legendre.checks", None),
    ("nucleus.legendre", "check_short", "legendre.checks", None),
    ("nucleus.legendre", "check_toland_singer", "legendre.checks", None),
    ("nucleus.legendre", "climb_distance", "legendre.distance", None),
    ("nucleus.legendre", "fall_distance", "legendre.distance", None),
    ("nucleus.core", "parse_matrix_csv", "core.parse_matrix_csv",
     lambda a, r: {"cells": r[2].domain_size * r[2].codomain_size}),
    ("nucleus.core", "render_matrix_csv", "core.render_matrix_csv", None),
    ("nucleus.core", "Profunctor.__post_init__", "core.profunctor", None),
    ("nucleus.core", "compose_profunctors", "core.compose_profunctors",
     lambda a, r: {"inner_ops": a[0].domain_size * a[0].codomain_size * a[1].codomain_size}),
    ("nucleus.core", "push", "core.push_pull", lambda a, r: {"cells": a[0].domain_size * a[0].codomain_size}),
    ("nucleus.core", "pull", "core.push_pull", lambda a, r: {"cells": a[0].domain_size * a[0].codomain_size}),
    ("nucleus.core", "closure", "core.closure", None),
    ("nucleus.core", "nucleus_limit", "core.nucleus_limit", None),
    ("nucleus.core", "check_rspace_axioms", "core.check_rspace_axioms", lambda a, r: {"triples": len(a[0]) ** 3}),
    ("nucleus.galois", "parse_cxt", "galois.parse_context",
     lambda a, r: {"cells": len(r.objects) * len(r.attributes)}),
    ("nucleus.galois", "parse_context_csv", "galois.parse_context",
     lambda a, r: {"cells": len(r.objects) * len(r.attributes)}),
    ("nucleus.galois", "enumerate_concepts", "galois.enumerate_concepts",
     lambda a, r: {"concepts": len(r), "order_cells": len(r) ** 2}),
    ("nucleus.galois", "ConceptLattice.covers", "galois.covers",
     lambda a, r: {"edges": len(r), "matmul_ops": len(a[0]) ** 3}),
    ("nucleus.galois", "export_dot", "galois.export_dot", None),
    ("nucleus.galois", "lattice_meet", "galois.meet_join", None),
    ("nucleus.galois", "lattice_join", "galois.meet_join", None),
    ("nucleus.galois", "close_extent", "galois.close_extent", None),
    ("nucleus.cli", "run", "cli.run", None),
]

# The per-layer metrics a traced run reports, per job, averaged over
# whole passes of the job list.  ``self_s`` is span time minus the time
# covered by child spans.
PER_LAYER = [
    *[(f"{layer}.self_s", "s") for layer in LAYERS],
    ("extreal.sub_arrays.self_s", "s"), ("extreal.sub_arrays.cells", "count"),
    ("extreal.parse.calls", "count"), ("extreal.parse.self_s", "s"),
    ("extreal.render.calls", "count"), ("extreal.render.self_s", "s"),
    ("extreal.from_array.self_s", "s"), ("extreal.from_array.cells", "count"),
    ("legendre.parse_function_csv.self_s", "s"), ("legendre.parse_function_csv.rows", "count"),
    ("legendre.render_function_csv.self_s", "s"), ("legendre.render_function_csv.rows", "count"),
    ("legendre.grid.self_s", "s"), ("legendre.grid.points", "count"),
    ("legendre.conjugate.self_s", "s"), ("legendre.conjugate.cells", "count"),
    ("legendre.reverse_conjugate.self_s", "s"), ("legendre.reverse_conjugate.cells", "count"),
    ("legendre.default_dual_grid.self_s", "s"), ("legendre.default_dual_grid.pairs", "count"),
    ("legendre.default_dual_grid.slopes", "count"), ("legendre.default_dual_grid.unique_ratio", "ratio"),
    ("legendre.convex_hull_oracle.self_s", "s"),
    ("legendre.checks.self_s", "s"), ("legendre.distance.self_s", "s"),
    ("core.parse_matrix_csv.self_s", "s"), ("core.parse_matrix_csv.cells", "count"),
    ("core.render_matrix_csv.self_s", "s"),
    ("core.profunctor.self_s", "s"),
    ("core.compose_profunctors.self_s", "s"), ("core.compose_profunctors.inner_ops", "count"),
    ("core.push_pull.self_s", "s"), ("core.push_pull.cells", "count"), ("core.closure.calls", "count"),
    ("core.nucleus_limit.self_s", "s"),
    ("core.check_rspace_axioms.self_s", "s"), ("core.check_rspace_axioms.triples", "count"),
    ("galois.parse_context.self_s", "s"), ("galois.parse_context.cells", "count"),
    ("galois.close_extent_mask.calls", "count"), ("galois.walk.useful_ratio", "ratio"),
    ("galois.enumerate_concepts.self_s", "s"), ("galois.enumerate_concepts.concepts", "count"),
    ("galois.enumerate_concepts.order_cells", "count"),
    ("galois.covers.self_s", "s"), ("galois.covers.edges", "count"), ("galois.covers.matmul_ops", "count"),
    ("galois.export_dot.self_s", "s"),
    ("galois.meet_join.self_s", "s"), ("galois.meet_join.calls", "count"),
    ("galois.close_extent.self_s", "s"),
    ("cli.run.self_s", "s"),
    ("trace.overhead_share", "ratio"), ("trace.unattributed_share", "ratio"),
]

# Called once per closure in the lectic walk: counted, without a span.
COUNTED_METHOD = ("nucleus.galois", "Context.close_extent_mask", "galois.close_extent_mask")


class Tracer:
    """Span recorder.  ``install`` patches the package; ``uninstall``
    restores every attribute it replaced."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.job = array("i")
        self.counts: dict[str, float] = defaultdict(float)
        self.current_job = -1
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- patching ---------------------------------------------------------

    def _span_wrapper(self, name: str, fn, count):
        if name not in self.names:
            self.names.append(name)
        nid = self.names.index(name)
        stack, counts = self._stack, self.counts
        name_id, start, end, parent, job = self.name_id, self.start, self.end, self.parent, self.job

        def wrapper(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1] if stack else -1)
            job.append(self.current_job)
            start.append(0.0)
            end.append(0.0)
            stack.append(idx)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                start[idx] = t0
                end[idx] = t1
            counts[name + ".calls"] += 1
            if count is not None:
                for key, v in count(args, result).items():
                    counts[f"{name}.{key}"] += v
            return result

        return wrapper

    def _count_wrapper(self, name: str, fn):
        counts, stack, names, name_id = self.counts, self._stack, self.names, self.name_id

        def wrapper(*args, **kwargs):
            counts[name + ".calls"] += 1
            if stack and names[name_id[stack[-1]]] == "galois.enumerate_concepts":
                counts["galois.walk.closures"] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _replace(self, module: str, attr: str, make) -> None:
        home = importlib.import_module(module)
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(home, cls_name)
            raw = cls.__dict__[meth]
            if isinstance(raw, classmethod):
                new = classmethod(make(raw.__func__))
            else:
                new = make(raw)
            self._undo.append((cls, meth, raw))
            setattr(cls, meth, new)
            return
        original = getattr(home, attr)
        wrapped = make(original)
        for mod_name in _MODULES:
            mod = importlib.import_module(mod_name)
            if mod.__dict__.get(attr) is original:
                self._undo.append((mod, attr, original))
                setattr(mod, attr, wrapped)

    def install(self) -> None:
        for module, attr, name, count in FUNCTION_SPANS:
            self._replace(module, attr, lambda fn, n=name, c=count: self._span_wrapper(n, fn, c))
        module, attr, name = COUNTED_METHOD
        self._replace(module, attr, lambda fn: self._count_wrapper(name, fn))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- results ------------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "job": np.frombuffer(self.job, dtype=np.int32).copy(),
            "names": np.array(self.names),
        }

    def summary(self, job_seconds: float, jobs: int) -> dict[str, float]:
        """Per-job totals: self time and calls of every span name, the
        counts, each layer's self time, and the share of job time that
        no span covers."""
        a = self.arrays()
        dur = a["end"] - a["start"]
        child = np.zeros(len(dur))
        has_parent = a["parent"] >= 0
        np.add.at(child, a["parent"][has_parent], dur[has_parent])
        self_time = dur - child
        out: dict[str, float] = {}
        for nid, name in enumerate(self.names):
            out[f"{name}.self_s"] = float(self_time[a["name_id"] == nid].sum()) / jobs
        for key, v in self.counts.items():
            out[key] = v / jobs
        # useful work over attempts: concepts per closure evaluated in the
        # lectic walk, distinct slopes per difference quotient
        for ratio, num, den in (
            ("galois.walk.useful_ratio", "galois.enumerate_concepts.concepts", "galois.walk.closures"),
            ("legendre.default_dual_grid.unique_ratio", "legendre.default_dual_grid.slopes",
             "legendre.default_dual_grid.pairs"),
        ):
            if out.get(den):
                out[ratio] = out.get(num, 0.0) / out[den]
        for layer in LAYERS:
            out[f"{layer}.self_s"] = sum(v for k, v in out.items() if k.startswith(layer + ".") and k.endswith(".self_s"))
        out["trace.unattributed_share"] = 1.0 - float(dur[~has_parent].sum()) / job_seconds
        return out
