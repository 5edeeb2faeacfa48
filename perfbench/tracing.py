"""Spans around calls into each algval module, and the per-layer metrics
computed from them.

Each public function named in ``TARGETS`` is replaced, in every algval
module namespace that binds it, by a wrapper that records a span: name,
start, end, parent span and op id.  The wrappers are installed only
around the ops of a traced pass and removed afterwards, so untraced
passes run the program's own functions.  Spans stay in memory until the
run ends.  A span's self time is its duration minus its child spans';
every ``_s`` metric is a self time except the two in ``INCLUSIVE``.
"""

from __future__ import annotations

import json
import statistics
import sys
from contextlib import contextmanager
from functools import update_wrapper
from time import perf_counter


def _is_empty(result):
    return int(not result)


def _is_nonzero(result):
    return int(not result.is_zero())


def _checked(report):
    return report.checked


def _directions(report):
    return report.directions


# (module, qualified name, what to record from the return value)
TARGETS = (
    ("algval.cli", "run", None),
    ("algval.cli", "load_problem", None),
    ("algval.cli", "build_pipeline", None),
    ("algval.cli", "valuation_document", None),
    ("algval.cli", "minor_document", None),
    ("algval.cli", "flock_document", None),
    ("algval.cli", "verify_document", None),
    ("algval.cli", "cross_check", None),
    ("algval.cli", "emit", None),
    ("algval.ffpoly", "parse_polynomial", None),
    ("algval.ffpoly", "circuit_vector", None),
    ("algval.groebner", "saturate", None),
    ("algval.groebner", "eliminate", _is_empty),
    ("algval.groebner", "buchberger", None),
    ("algval.groebner", "normal_form", _is_nonzero),
    ("algval.algmat", "EliminationOracle.elimination", None),
    ("algval.algmat", "Matroid.circuits", None),
    ("algval.algmat", "Matroid.hyperplanes", None),
    ("algval.algmat", "circuits", None),
    ("algval.algmat", "bases", None),
    ("algval.valmat", "valuation_from_circuits", None),
    ("algval.valmat", "cocircuits", None),
    ("algval.valmat", "check_circuit_axioms", _checked),
    ("algval.valmat", "check_exchange_consistency", _checked),
    ("algval.valmat", "check_orthogonality", _checked),
    ("algval.flock", "check_flock_axioms", _directions),
    ("algval.flock", "flock_slice", None),
    ("algval.toric", "toric_ideal", None),
    ("algval.toric", "linear_valuated_matroid", None),
    ("algval.toric", "determinant_valuation", None),
    ("algval.toric", "integer_kernel_circuits", None),
)

DOCUMENT_SPANS = ("cli.valuation_document", "cli.minor_document",
                  "cli.flock_document", "cli.verify_document", "cli.cross_check")

# metric -> spans whose whole duration it sums: saturation does its work
# in nested Groebner calls, so its self time would hide what it costs
INCLUSIVE = {"groebner.saturate_s": "groebner.saturate",
             "toric.toric_ideal_s": "toric.toric_ideal"}

# metric -> spans whose self times it sums
SELF_TIMES = {f"{name}_s": (name,) for name in (
    "groebner.buchberger",
    "groebner.normal_form", "algmat.circuits", "algmat.bases",
    "valmat.valuation_from_circuits", "ffpoly.circuit_vector",
    "algmat.Matroid.circuits", "algmat.Matroid.hyperplanes",
    "ffpoly.parse_polynomial", "toric.linear_valuated_matroid",
    "toric.integer_kernel_circuits", "valmat.cocircuits",
    "valmat.check_circuit_axioms", "valmat.check_exchange_consistency",
    "valmat.check_orthogonality", "flock.check_flock_axioms",
    "flock.flock_slice", "cli.load_problem", "cli.build_pipeline", "cli.emit",
)}
SELF_TIMES["cli.document_s"] = DOCUMENT_SPANS

# metric -> spans whose calls it counts
CALLS = {f"{name}.calls": name for name in (
    "groebner.saturate", "groebner.eliminate", "groebner.buchberger",
    "groebner.normal_form", "ffpoly.parse_polynomial",
    "toric.determinant_valuation",
)}
CALLS["algmat.oracle_queries"] = "algmat.EliminationOracle.elimination"

# metric -> spans whose recorded return values it sums
NOTES = {
    "valmat.checks": ("valmat.check_circuit_axioms",
                      "valmat.check_exchange_consistency",
                      "valmat.check_orthogonality"),
    "flock.directions": ("flock.check_flock_axioms",),
}

COUNTS = (*CALLS, *NOTES, "algmat.eliminations_run")
SHARES = ("groebner.normal_form.nonzero_share", "algmat.elim_independent_share",
          "algmat.elim_reuse_share")

# counts that must repeat exactly, op by op, across passes and runs
DETERMINISTIC = ("groebner.eliminate.calls", "groebner.normal_form.calls",
                 "algmat.oracle_queries", "toric.determinant_valuation.calls",
                 "flock.directions", "valmat.checks")

UNITS = {**{m: "s/op" for m in (*INCLUSIVE, *SELF_TIMES)}, **{m: "count/op" for m in COUNTS},
         **{m: "share" for m in SHARES}, "trace.overhead_s": "s/op"}


class Tracer:
    """Span recorder; ``installed()`` patches the program while active."""

    def __init__(self):
        self.spans = []          # (name, start, end, parent index, op, note)
        self.op = 0
        self._stack = []
        self._patches = []
        for module_name, qualname, note in TARGETS:
            module = sys.modules[module_name]
            span = f"{module_name.split('.')[-1]}.{qualname}"
            if "." in qualname:
                cls_name, attr = qualname.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[attr]
                self._patches.append((cls, attr, original,
                                      self._wrap(span, original, note)))
                continue
            original = getattr(module, qualname)
            wrapped = self._wrap(span, original, note)
            for name, mod in list(sys.modules.items()):
                if name == "algval" or name.startswith("algval."):
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._patches.append((mod, attr, original, wrapped))

    def _wrap(self, name, fn, note):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            result = None
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = perf_counter()
                stack.pop()
                noted = note(result) if note and result is not None else None
                spans[index] = (name, start, end, parent, self.op, noted)

        return update_wrapper(traced, fn)

    @contextmanager
    def installed(self):
        for owner, attr, _, wrapped in self._patches:
            setattr(owner, attr, wrapped)
        try:
            yield
        finally:
            for owner, attr, original, _ in self._patches:
                setattr(owner, attr, original)

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


# span -> the deterministic count its calls or recorded values add to
_COUNTED = {span: m for m, span in CALLS.items() if m in DETERMINISTIC}
_NOTED = {span: m for m, names in NOTES.items() for span in names}


def op_counts(spans, lo, hi):
    """Deterministic counts of each op in spans[lo:hi], keyed by op id."""
    out = {}
    for name, _, _, _, op, note in spans[lo:hi]:
        row = out.setdefault(op, dict.fromkeys(DETERMINISTIC, 0))
        if name in _COUNTED:
            row[_COUNTED[name]] += 1
        if name in _NOTED:
            row[_NOTED[name]] += note or 0
    return out


def pass_totals(spans, lo, hi, scale=1.0):
    """Self times, counts and shares summed over spans[lo:hi], the spans
    of one pass; times are multiplied by ``scale``."""
    whole, self_s, calls, notes = {}, {}, {}, {}
    run = independent = 0
    for name, start, end, parent, _, note in spans[lo:hi]:
        duration = end - start
        whole[name] = whole.get(name, 0.0) + duration
        self_s[name] = self_s.get(name, 0.0) + duration
        calls[name] = calls.get(name, 0) + 1
        notes[name] = notes.get(name, 0) + (note or 0)
        if parent >= 0:
            parent_name = spans[parent][0]
            self_s[parent_name] -= duration
            if (name == "groebner.eliminate"
                    and parent_name == "algmat.EliminationOracle.elimination"):
                run += 1
                independent += note or 0
    totals = {m: whole.get(n, 0.0) * scale for m, n in INCLUSIVE.items()}
    totals.update({m: sum(self_s.get(n, 0.0) for n in names) * scale
                   for m, names in SELF_TIMES.items()})
    totals.update({m: calls.get(n, 0) for m, n in CALLS.items()})
    totals.update({m: sum(notes.get(n, 0) for n in names)
                   for m, names in NOTES.items()})
    totals["algmat.eliminations_run"] = run
    queries = totals["algmat.oracle_queries"]
    nf_calls = totals["groebner.normal_form.calls"]
    nonzero = notes.get("groebner.normal_form", 0)
    totals["groebner.normal_form.nonzero_share"] = nonzero / nf_calls if nf_calls else 0.0
    totals["algmat.elim_independent_share"] = independent / run if run else 0.0
    totals["algmat.elim_reuse_share"] = 1 - run / queries if queries else 0.0
    return totals


def layer_metrics(passes, ops_per_pass):
    """Per-op metrics from the per-pass totals of the traced passes:
    counts and shares from the first pass (they repeat exactly), self
    times as the median over passes."""
    first = passes[0]
    out = {}
    for metric in (*INCLUSIVE, *SELF_TIMES):
        out[metric] = statistics.median(p[metric] for p in passes) / ops_per_pass
    for metric in COUNTS:
        out[metric] = first[metric] / ops_per_pass
    for metric in SHARES:
        out[metric] = first[metric]
    return out
