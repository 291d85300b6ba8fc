"""Per-layer tracing from outside the program.

``install`` runs inside a job process after ``evoalg`` is imported. It wraps
the public entry points of each ``src/evoalg`` module and rebinds every
module-level name that refers to the original, so ``from .solver import
automorphism_group`` in ``cli`` and ``suites`` is traced as well. Methods are
wrapped on their class. Hot functions are only counted; the rest record a
span (id, parent id, name, start, end) per call in memory. Generators get one
span per ``next()``, not at the call that creates them. ``Tracer.dump``
writes the spans and counters at exit, and ``Aggregate`` turns the files of
a pass into per-layer metrics, with self time = duration minus the time covered
by direct child spans. Span times are the CPU time of the calling thread, so
the self times of concurrent census threads add up instead of overlapping.
"""

from __future__ import annotations

import array
import inspect
import itertools
import json
import sys
import threading
import time
from collections import defaultdict

# spans measure the CPU time of their own thread: busy time, which stays
# additive when census threads contend for the interpreter lock
clock = time.thread_time

# The end-to-end metric and workload each layer should move:
#   fields.scalars_created                   wall_s on census and verify
#   fields.kth_roots                         wall_s on iso
#   fields.Scalar.inverse                    wall_s on aut (cyclotomic) and verify
#   algebra.EvolutionAlgebra, .determinant   wall_s on census
#   algebra.mat_mul                          wall_s on verify
#   digraph.pattern_isomorphisms, .transversals   wall_s on iso
#   digraph.min_transversal_order            wall_s on census
#   groups.MonomialGroup, .MonomialMap.mul, .close_generators
#                                            wall_s on aut; census for per-call overhead
#   groups.recognize                         wall_s on aut and verify
#   groups.quotient_embedding_check          wall_s on verify
#   solver.solve_monomial                    wall_s on iso and census
#   solver.automorphism_group, .diagonal_subgroup   wall_s on aut and census
#   solver.isomorphism, .certificate_checks  wall_s on iso
#   solver.brute_force_automorphisms         wall_s on verify
#   snf.solve_homogeneous_mod                wall_s on census
#   families.build_family                    setup_s
#   suites.run_suite                         wall_s on verify
#   cli.main                                 every workload
#
# name -> (module, attribute path, how): "span" records a span per call,
# "gen" a span per next() plus .calls and .yielded counters, and "count"
# only counts calls, under the name itself
TARGETS = {
    "fields.scalars_created": ("evoalg.fields", "Scalar.__init__", "count"),
    "fields.kth_roots": ("evoalg.fields", "Field.kth_roots", "span"),
    "fields.Scalar.inverse": ("evoalg.fields", "Scalar.inverse", "span"),
    "algebra.EvolutionAlgebra": ("evoalg.algebra", "EvolutionAlgebra.__init__", "span"),
    "algebra.determinant": ("evoalg.algebra", "determinant", "span"),
    "algebra.mat_mul": ("evoalg.algebra", "mat_mul", "span"),
    "digraph.pattern_isomorphisms": ("evoalg.digraph", "pattern_isomorphisms", "gen"),
    "digraph.transversals": ("evoalg.digraph", "transversals", "gen"),
    "digraph.min_transversal_order": ("evoalg.digraph", "min_transversal_order", "span"),
    "groups.MonomialGroup": ("evoalg.groups", "MonomialGroup.__init__", "span"),
    "groups.MonomialMap.mul.calls": ("evoalg.groups", "MonomialMap.__mul__", "count"),
    "groups.close_generators": ("evoalg.groups", "close_generators", "span"),
    "groups.recognize": ("evoalg.groups", "recognize", "span"),
    "groups.quotient_embedding_check": ("evoalg.groups", "quotient_embedding_check", "span"),
    "solver.solve_monomial": ("evoalg.solver", "solve_monomial", "span"),
    "solver.automorphism_group": ("evoalg.solver", "automorphism_group", "span"),
    "solver.diagonal_subgroup": ("evoalg.solver", "diagonal_subgroup", "span"),
    "solver.isomorphism": ("evoalg.solver", "isomorphism", "span"),
    "solver.certificate_checks": ("evoalg.solver", "certificate_checks", "span"),
    "solver.brute_force_automorphisms": ("evoalg.solver", "brute_force_automorphisms", "span"),
    "snf.solve_homogeneous_mod": ("evoalg.snf", "solve_homogeneous_mod", "span"),
    "families.build_family": ("evoalg.families", "build_family", "span"),
    "suites.run_suite": ("evoalg.suites", "run_suite", "span"),
    "cli.main": ("evoalg.cli", "main", "span"),
}

# extra counters taken from a call's result: name -> (target, predicate)
RESULT_COUNTERS = {
    "fields.kth_roots.incomplete": ("fields.kth_roots", lambda r: not r.complete),
    "solver.solve_monomial.hits": ("solver.solve_monomial", lambda r: bool(r.maps)),
}


class _ThreadSpans:
    """Open-span stack, counters and finished spans of one thread, so no
    update is shared between threads."""

    __slots__ = ("stack", "counters", "columns")

    def __init__(self):
        self.stack: list[int] = []
        self.counters: dict[str, int] = defaultdict(int)
        # span id, parent id, name index, start, end
        self.columns = tuple(array.array(code) for code in "qqHdd")


class Tracer:
    """Spans and counters of one job process."""

    def __init__(self):
        self.names = list(TARGETS)
        self._ids = itertools.count()
        self._local = threading.local()
        self._threads: list[_ThreadSpans] = []
        self._lock = threading.Lock()

    def _mine(self) -> _ThreadSpans:
        try:
            return self._local.spans
        except AttributeError:
            mine = self._local.spans = _ThreadSpans()
            with self._lock:
                self._threads.append(mine)
            return mine

    def _record(self, mine, span_id, parent, idx, start) -> None:
        end = clock()
        mine.stack.pop()
        ids, parents, name_idx, starts, ends = mine.columns
        ids.append(span_id)
        parents.append(parent)
        name_idx.append(idx)
        starts.append(start)
        ends.append(end)

    def wrap(self, name: str, func, how: str):
        idx = self.names.index(name)
        ids = self._ids
        mine_of = self._mine
        record = self._record
        result_counters = [
            (key, pred) for key, (target, pred) in RESULT_COUNTERS.items() if target == name
        ]

        if how == "count":
            def counted(*args, **kwargs):
                mine_of().counters[name] += 1
                return func(*args, **kwargs)

            return counted

        def opened():
            mine = mine_of()
            span_id = next(ids)
            parent = mine.stack[-1] if mine.stack else -1
            mine.stack.append(span_id)
            return mine, span_id, parent

        if how == "gen":
            def timed_next(gen):
                while True:
                    mine, span_id, parent = opened()
                    start = clock()
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    finally:
                        record(mine, span_id, parent, idx, start)
                    mine.counters[name + ".yielded"] += 1
                    yield item

            def generator(*args, **kwargs):
                mine_of().counters[name + ".calls"] += 1
                return timed_next(func(*args, **kwargs))

            return generator

        def spanned(*args, **kwargs):
            mine, span_id, parent = opened()
            start = clock()
            try:
                result = func(*args, **kwargs)
            finally:
                record(mine, span_id, parent, idx, start)
            for key, pred in result_counters:
                if pred(result):
                    mine.counters[key] += 1
            return result

        return spanned

    def install(self) -> None:
        """Wrap every target and rebind each evoalg module name that refers
        to an original function."""
        replaced = {}
        for name, (module_name, path, how) in TARGETS.items():
            owner = sys.modules[module_name]
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = inspect.getattr_static(owner, attr)
            wrapped = self.wrap(name, original, how)
            setattr(owner, attr, wrapped)
            replaced[id(original)] = wrapped
        for module_name, module in list(sys.modules.items()):
            if module_name == "evoalg" or module_name.startswith("evoalg."):
                for key, value in list(vars(module).items()):
                    if id(value) in replaced and callable(value):
                        setattr(module, key, replaced[id(value)])

    def dump(self, path: str) -> None:
        """Write the counters and span table of every thread to ``path``: a
        JSON header line, then the five span columns as raw arrays."""
        with self._lock:
            threads = list(self._threads)
        counters: dict[str, int] = defaultdict(int)
        columns = tuple(array.array(code) for code in "qqHdd")
        for mine in threads:
            for key, value in mine.counters.items():
                counters[key] += value
            for merged, part in zip(columns, mine.columns):
                merged.extend(part)
        header = {
            "names": self.names,
            "counters": dict(counters),
            "spans": len(columns[0]),
            "typecodes": [c.typecode for c in columns],
        }
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode("utf-8") + b"\n")
            for column in columns:
                column.tofile(fh)


def load(path: str):
    """Read a file written by ``Tracer.dump``: (header, columns)."""
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        columns = []
        for code in header["typecodes"]:
            column = array.array(code)
            column.fromfile(fh, header["spans"])
            columns.append(column)
    return header, columns


class Aggregate:
    """Per-layer totals over the trace files of one pass."""

    def __init__(self):
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counters: dict[str, int] = defaultdict(int)
        # self time split by the name of the calling span
        self.self_by_caller: dict[tuple[str, str], float] = defaultdict(float)

    def add_file(self, path: str) -> None:
        header, (ids, parents, name_idx, starts, ends) = load(path)
        names = header["names"]
        for key, value in header["counters"].items():
            self.counters[key] += value
        row_of = {span_id: row for row, span_id in enumerate(ids)}
        covered = defaultdict(float)
        for row in range(len(ids)):
            if parents[row] >= 0:
                covered[parents[row]] += ends[row] - starts[row]
        for row, span_id in enumerate(ids):
            name = names[name_idx[row]]
            self_time = ends[row] - starts[row] - covered[span_id]
            self.calls[name] += 1
            self.self_s[name] += self_time
            parent_row = row_of.get(parents[row])
            caller = "-" if parent_row is None else names[name_idx[parent_row]]
            self.self_by_caller[(name, caller)] += self_time

    def metrics(self) -> dict[str, float]:
        """Every per-layer metric the benchmark reports, zero when unused."""
        out: dict[str, float] = {}
        for name, (_, _, how) in TARGETS.items():
            if how == "count":
                out[name] = self.counters[name]
                continue
            if how == "gen":
                out[name + ".calls"] = self.counters[name + ".calls"]
                out[name + ".yielded"] = self.counters[name + ".yielded"]
            else:
                out[name + ".calls"] = self.calls[name]
            out[name + ".self_s"] = self.self_s[name]
        out["fields.kth_roots.incomplete"] = self.counters["fields.kth_roots.incomplete"]
        solves = self.calls["solver.solve_monomial"]
        hits = self.counters["solver.solve_monomial.hits"]
        out["solver.solve_monomial.hit_ratio"] = hits / solves if solves else 0.0
        return out

    def dominant(self, top: int = 5) -> list[tuple[str, float, str, float]]:
        """The spans with the most self time: (name, self_s, caller with the
        largest share, that share)."""
        ranked = sorted(self.self_s.items(), key=lambda kv: -kv[1])[:top]
        out = []
        for name, total in ranked:
            caller, share = max(
                ((c, t) for (n, c), t in self.self_by_caller.items() if n == name),
                key=lambda ct: ct[1],
            )
            out.append((name, total, caller, share))
        return out
