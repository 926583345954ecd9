"""Traced runs: wrappers at lvf's layer boundaries and the per-layer metrics.

The tracer replaces each public function of a layer, at every place it is
looked up, with a wrapper that records a span: name, start, end, parent
span, job id and a few counts taken from the arguments or the result.
Spans stay in memory and are written out once, at the end of the run.
``ExpPoly`` arithmetic runs hundreds of thousands of times a pass, so the
expr layer keeps counters and its own busy time instead of spans.

Self time is a span's duration minus the durations of its child spans.

Which end-to-end metric a layer's metrics should move, and where (written
down before measuring; the traced runs give the actual shares):

=========== ============================ =====================================
layer       should move                  on workload (and not on)
=========== ============================ =====================================
linalg      pass_s, job_p50_s,           g2-obstruction (pivot search) and
            job_tail_s                   constraint-solve (arithmetic, witness
                                         search; b2.2 jobs hold the tail); not
                                         catalog-verify, except linalg.det.*
solve       pass_s, job_p50_s            g2-obstruction (matrix build),
                                         constraint-solve; not catalog-verify
expr        pass_s                       catalog-verify (most of bracket time),
                                         g2-obstruction (inside the build)
fields      pass_s, job_p50_s            catalog-verify; little on
                                         g2-obstruction
algebra     pass_s                       catalog-verify only
parsing     pass_s, setup_s              catalog-verify, and setup on all
catalog     setup_s                      all
obstruction job_p50_s                    g2-obstruction only
verify      job_p50_s                    catalog-verify only
=========== ============================ =====================================
"""

from __future__ import annotations

import importlib
import json
import statistics
import time
from collections import Counter, defaultdict

# (span name, owner, attribute).  Several modules import a function by
# name, so it is wrapped at each of those lookup sites as well.
SPAN_POINTS = (
    ("linalg.elim", "lvf._kernels", "rref"),
    ("linalg.rref", "lvf._linalg", "rref"),
    ("linalg.nullspace", "lvf._linalg", "nullspace"),
    ("linalg.affine", "lvf._linalg", "solve_affine"),
    ("linalg.rank", "lvf._linalg", "rank"),
    ("linalg.det", "lvf._linalg", "det"),
    ("solve", "lvf.solve", "solve"),
    ("solve", "lvf.obstruction", "solve"),
    ("fields.bracket", "lvf.fields.VectorField", "bracket"),
    ("fields.generic_rank", "lvf.fields", "generic_rank"),
    ("fields.generic_rank", "lvf.verify", "generic_rank"),
    ("fields.generic_rank", "lvf.solve", "generic_rank"),
    ("fields.generic_rank", "lvf.catalog", "generic_rank"),
    ("algebra.closure", "lvf.algebra", "close_under_bracket"),
    ("algebra.closure", "lvf.verify", "close_under_bracket"),
    ("algebra.structure_tensor", "lvf.algebra", "structure_tensor"),
    ("algebra.structure_tensor", "lvf.verify", "structure_tensor"),
    ("algebra.span_insert", "lvf.algebra.SpanTracker", "insert"),
    ("algebra.killing", "lvf.algebra.StructureTensor", "killing_det"),
    ("parsing", "lvf.parsing", "parse_field"),
    ("parsing", "lvf.parsing", "parse_scalar"),
    ("parsing", "lvf.catalog", "parse_field"),
    ("parsing", "lvf.catalog", "parse_scalar"),
    ("catalog.load", "lvf.catalog", "load_builtin"),
    ("catalog.load", "lvf.catalog", "loads"),
    ("obstruction", "lvf.obstruction", "g2_obstruction"),
    ("obstruction", "lvf.obstruction", "b2_sanity_control"),
    ("verify", "lvf.verify", "verify_realization"),
)
# ExpPoly methods; a subtraction is one addition of the negated operand.
EXPR_OWNER = "lvf.expr.ExpPoly"
EXPR_POINTS = (
    ("mul", "__mul__"),
    ("mul", "__rmul__"),
    ("add", "__add__"),
    ("add", "__radd__"),
    ("diff", "diff"),
    ("subst", "subst_params"),
)
ALL = "*"  # a self time depends on every child being wrapped

# Per-layer metric -> span names it is computed from.  A metric is reported
# absent when a wrap point of one of its names did not resolve.
SOURCES = {
    "linalg.rref.calls": ("linalg.elim",),
    "linalg.rref.s": ("linalg.elim",),
    "linalg.rows": ("linalg.elim",),
    "linalg.cols": ("linalg.elim",),
    "linalg.nnz": ("linalg.elim",),
    "linalg.full_rank_frac": ("linalg.elim",),
    "linalg.affine.calls": ("linalg.affine",),
    "linalg.affine.s": ("linalg.affine",),
    "linalg.elims_per_affine": ("linalg.elim", "linalg.affine"),
    "linalg.det.calls": ("linalg.det",),
    "linalg.det.s": ("linalg.det",),
    "solve.calls": ("solve",),
    "solve.s": ("solve",),
    "solve.build_s": (ALL,),
    "solve.check_s": ("solve", "fields.bracket"),
    "solve.target_rows": ("solve", "linalg.rref", "linalg.affine"),
    "solve.ansatz_cols": ("solve",),
    "solve.solution_dim": ("solve",),
    "expr.mul.calls": ("expr",),
    "expr.add.calls": ("expr",),
    "expr.diff.calls": ("expr",),
    "expr.terms_out": ("expr",),
    "expr.self_s": ("expr",),
    "fields.bracket.calls": ("fields.bracket",),
    "fields.bracket.s": ("fields.bracket",),
    "fields.generic_rank.calls": ("fields.generic_rank",),
    "fields.generic_rank.s": ("fields.generic_rank",),
    "algebra.closure.s": ("algebra.closure",),
    "algebra.span_inserts": ("algebra.span_insert",),
    "algebra.span_accept_frac": ("algebra.span_insert",),
    "algebra.structure_tensor.s": ("algebra.structure_tensor",),
    "algebra.killing.s": ("algebra.killing",),
    "parsing.calls": ("parsing",),
    "parsing.s": ("parsing",),
    "catalog.load_s": ("catalog.load",),
    "obstruction.self_s": (ALL,),
    "obstruction.solve_calls": ("obstruction", "solve"),
    "verify.self_s": (ALL,),
    "verify.relations": ("verify",),
    "trace.overhead_s": (),
}


def _elim_attrs(args, result):
    rows, ncols = args[0], args[1]
    return {
        "rows": len(rows),
        "cols": ncols,
        "nnz": sum(len(r) for r in rows),
        "rank": len(result[0]),
    }


# Counts taken at a boundary from its arguments and result.
ATTRS = {
    "linalg.elim": _elim_attrs,
    "linalg.rref": lambda args, result: {"rows": len(args[0])},
    "linalg.affine": lambda args, result: {"rows": len(args[0])},
    "solve": lambda args, result: {"cols": result.ansatz_dim, "dim": result.dimension},
    "algebra.span_insert": lambda args, result: {"added": result[0]},
    "verify": lambda args, result: {"relations": len(result.relations)},
}


def _resolve(owner: str):
    """The module or class named by a dotted path, or None."""
    parts = owner.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for name in parts[cut:]:
            obj = getattr(obj, name, None)
            if obj is None:
                return None
        return obj
    return None


def _lookup(owner_obj, attr):
    """The attribute as stored on its owner (unbound for a class)."""
    if isinstance(owner_obj, type):
        for klass in owner_obj.__mro__:
            if attr in vars(klass):
                return vars(klass)[attr]
        return None
    return getattr(owner_obj, attr, None)


class Tracer:
    """Spans and expr counters of one process; install around traced code."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index, job, attrs]
        self.stack = []
        self.job = None
        self.expr_calls = Counter()
        self.expr_acc = [0, 0.0, 0]  # depth, busy seconds, terms produced
        self.points = []  # (owner object, attribute, original, wrapper)
        self.absent = []  # "owner.attribute" of wrap points that did not resolve
        self.absent_names = set()
        for name, owner, attr in SPAN_POINTS:
            self._add_point(name, owner, attr, self._span_wrapper)
        for op, attr in EXPR_POINTS:
            self._add_point("expr", EXPR_OWNER, attr, lambda n, f, op=op: self._expr_wrapper(op, f))

    def _add_point(self, name, owner, attr, make):
        owner_obj = _resolve(owner)
        original = _lookup(owner_obj, attr) if owner_obj is not None else None
        if original is None:
            self.absent.append(f"{owner}.{attr}")
            self.absent_names.add(name)
            return
        self.points.append((owner_obj, attr, original, make(name, original)))

    def install(self):
        for owner_obj, attr, _, wrapper in self.points:
            setattr(owner_obj, attr, wrapper)

    def uninstall(self):
        for owner_obj, attr, original, _ in self.points:
            setattr(owner_obj, attr, original)

    def _span_wrapper(self, name, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        attrs = ATTRS.get(name)

        def wrapper(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.job, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if attrs is not None:
                rec[5] = attrs(args, result)
            return result

        return wrapper

    def _expr_wrapper(self, op, fn):
        calls, acc, clock = self.expr_calls, self.expr_acc, time.perf_counter
        expr_type = _resolve(EXPR_OWNER)

        def wrapper(*args):
            calls[op] += 1
            if acc[0]:
                result = fn(*args)
            else:
                acc[0] = 1
                start = clock()
                try:
                    result = fn(*args)
                finally:
                    acc[1] += clock() - start
                    acc[0] = 0
            if type(result) is expr_type:
                acc[2] += len(result.term_map())
            return result

        return wrapper

    def reset_expr(self):
        self.expr_calls.clear()
        self.expr_acc[1] = 0.0
        self.expr_acc[2] = 0

    def pass_metrics(self, lo: int) -> dict:
        """Per-layer metrics of the spans from index ``lo`` on, and the expr
        counters since the last ``reset_expr``."""
        spans = self.spans
        idx = defaultdict(list)
        children = defaultdict(list)
        for i in range(lo, len(spans)):
            idx[spans[i][0]].append(i)
            if spans[i][3] >= 0:
                children[spans[i][3]].append(i)

        def dur(i):
            return spans[i][2] - spans[i][1]

        def total(name):
            return sum(dur(i) for i in idx[name])

        def self_time(name):
            return sum(dur(i) - sum(dur(c) for c in children[i]) for i in idx[name])

        def attrs(ids):
            return [spans[i][5] for i in ids if spans[i][5] is not None]

        def mean_attr(ids, key):
            values = [a[key] for a in attrs(ids)]
            return statistics.fmean(values) if values else 0.0

        def ratio(a, b):
            return a / b if b else 0.0

        def under(i, name):
            p = spans[i][3]
            while p >= 0:
                if spans[p][0] == name:
                    return True
                p = spans[p][3]
            return False

        def parent_is(i, name):
            return spans[i][3] >= 0 and spans[spans[i][3]][0] == name

        elim, solves = idx["linalg.elim"], idx["solve"]
        elim_rows = [c for s in solves for c in children[s] if spans[c][0] in ("linalg.rref", "linalg.affine")]
        inserts = idx["algebra.span_insert"]
        parses = [i for i in idx["parsing"] if not under(i, "parsing")]
        return {
            "linalg.rref.calls": len(elim),
            "linalg.rref.s": total("linalg.elim"),
            "linalg.rows": mean_attr(elim, "rows"),
            "linalg.cols": mean_attr(elim, "cols"),
            "linalg.nnz": mean_attr(elim, "nnz"),
            "linalg.full_rank_frac": ratio(
                sum(a["rank"] == a["cols"] for a in attrs(elim)), len(elim)
            ),
            "linalg.affine.calls": len(idx["linalg.affine"]),
            "linalg.affine.s": total("linalg.affine"),
            "linalg.elims_per_affine": ratio(
                sum(under(i, "linalg.affine") for i in elim), len(idx["linalg.affine"])
            ),
            "linalg.det.calls": len(idx["linalg.det"]),
            "linalg.det.s": total("linalg.det"),
            "solve.calls": len(solves),
            "solve.s": total("solve"),
            "solve.build_s": self_time("solve"),
            "solve.check_s": sum(dur(i) for i in idx["fields.bracket"] if parent_is(i, "solve")),
            "solve.target_rows": mean_attr(elim_rows, "rows"),
            "solve.ansatz_cols": mean_attr(solves, "cols"),
            "solve.solution_dim": mean_attr(solves, "dim"),
            "expr.mul.calls": self.expr_calls["mul"],
            "expr.add.calls": self.expr_calls["add"],
            "expr.diff.calls": self.expr_calls["diff"],
            "expr.terms_out": self.expr_acc[2],
            "expr.self_s": self.expr_acc[1],
            "fields.bracket.calls": len(idx["fields.bracket"]),
            "fields.bracket.s": total("fields.bracket"),
            "fields.generic_rank.calls": len(idx["fields.generic_rank"]),
            "fields.generic_rank.s": total("fields.generic_rank"),
            "algebra.closure.s": total("algebra.closure"),
            "algebra.span_inserts": len(inserts),
            "algebra.span_accept_frac": ratio(sum(a["added"] for a in attrs(inserts)), len(inserts)),
            "algebra.structure_tensor.s": total("algebra.structure_tensor"),
            "algebra.killing.s": total("algebra.killing"),
            "parsing.calls": len(parses),
            "parsing.s": sum(dur(i) for i in parses),
            "obstruction.self_s": self_time("obstruction"),
            "obstruction.solve_calls": sum(parent_is(i, "obstruction") for i in solves),
            "verify.self_s": self_time("verify"),
            "verify.relations": sum(a["relations"] for a in attrs(idx["verify"])),
        }

    def is_absent(self, metric: str) -> bool:
        names = SOURCES[metric]
        if ALL in names:
            return bool(self.absent_names)
        return any(n in self.absent_names for n in names)

    def dump(self, path: str, jobs: dict):
        """Write every span, and the job each id stands for, as one JSON file."""
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(
                {
                    "fields": ["name", "start", "end", "parent", "job", "attrs"],
                    "absent": self.absent,
                    "jobs": jobs,
                    "spans": self.spans,
                },
                handle,
                separators=(",", ":"),
            )
