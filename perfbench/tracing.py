"""Spans and counts around the calls into each module of ``multiway``.

The tracer replaces public functions by wrappers in every ``multiway`` module
that bound them by name (``cli`` and ``algebra`` import ``evolve`` directly,
so patching ``multiway.core`` alone would miss their calls) and restores them
afterwards.  Spans (name, parent, start, end) and counts are kept in memory
and written out once, when the run ends.

``successors`` runs once per frontier state, hundreds of thousands of times in
one pass, so its calls are folded into one (calls, seconds) aggregate per
parent span instead of a span each.  Every wrapper adds the time it spends on
its own bookkeeping to ``lost``; a span's effective duration subtracts what
was lost inside it, so the counting done in the ``successors`` wrapper is not
charged to ``evolve``.
"""

from __future__ import annotations

import sys
import time
from array import array
from collections import Counter
from contextlib import contextmanager

import multiway

ZOO_BUILDERS = tuple(entry.build.__name__ for entry in multiway.ZOO.values())

# (defining module, function) pairs wrapped in a traced run
TRACED = [
    ("core", "evolve"),
    ("core", "successors"),
    ("core", "growth_series"),
    ("core", "export_dot"),
    ("analysis", "classify"),
    ("tm", "enchain"),
    ("tm", "compile_tm"),
    ("tm", "parse_tm"),
    ("algebra", "sum_systems"),
    ("algebra", "product_systems"),
    ("algebra", "reduce_to_binary"),
    ("algebra", "check_rule_independence"),
    ("algebra", "layered_isomorphic"),
    ("algebra", "verify_semiring_identity"),
    ("rulefiles", "parse_system"),
    ("rulefiles", "format_system"),
    ("cli", "main"),
] + [("zoo", name) for name in ZOO_BUILDERS]

# per-layer time metric -> span names it sums (outermost spans only)
GROUPS = {
    "core.evolve_s": {"core.evolve"},
    "core.growth_series_s": {"core.growth_series"},
    "core.export_dot_s": {"core.export_dot"},
    "analysis.classify_s": {"analysis.classify"},
    "tm.build_s": {"tm.enchain", "tm.compile_tm"} | {f"zoo.{n}" for n in ZOO_BUILDERS},
    "algebra.combine_s": {
        "algebra.sum_systems",
        "algebra.product_systems",
        "algebra.reduce_to_binary",
    },
    "algebra.independence_s": {"algebra.check_rule_independence"},
    "algebra.isomorphism_s": {"algebra.layered_isomorphic"},
    "rulefiles.parse_s": {"rulefiles.parse_system"},
    "rulefiles.format_s": {"rulefiles.format_system"},
    "cli.main_s": {"cli.main"},
}

COUNTS = (
    "core.successor_calls",
    "core.matches",
    "core.distinct_results",
    "core.rule_scans",
    "core.rule_hits",
    "core.new_states",
    "core.cells",
    "core.edges",
    "algebra.isomorphism_calls",
    "algebra.isomorphism_nodes",
    "algebra.refinement_only",
)

# raw sums a pass (or a traced CLI child) reports; they add across children
RAW = tuple(GROUPS) + COUNTS + ("core.successors_s", "core.evolve_self_s", "cli.self_s")


def _count_evolve(counts, args, graph):
    counts["core.new_states"] += len(graph.states) - 1
    counts["core.cells"] += sum(map(len, graph.states))
    counts["core.edges"] += len(graph.edges)


class Tracer:
    """Spans and counts for calls into ``multiway``, kept in memory."""

    def __init__(self):
        self.names: list[str] = []
        self.parents = array("l")
        self.starts = array("d")
        self.ends = array("d")
        self.lost_at_start = array("d")
        self.lost_at_end = array("d")
        self.folded: dict[int, list] = {}  # parent span -> [successors calls, seconds]
        self.stack = [-1]
        self.lost = 0.0
        self.counts: Counter = Counter()
        self._patches: list[tuple[object, str, object]] = []

    # -- spans --------------------------------------------------------------

    def _open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self.stack[-1])
        for arr in (self.starts, self.ends, self.lost_at_start, self.lost_at_end):
            arr.append(0.0)
        self.stack.append(idx)
        return idx

    def _close(self, idx: int, t0: float, t1: float, lost0: float) -> None:
        self.stack.pop()
        self.starts[idx] = t0
        self.ends[idx] = t1
        self.lost_at_start[idx] = lost0
        self.lost_at_end[idx] = self.lost

    @contextmanager
    def span(self, name: str):
        """A span around the benchmark's own code, such as one operation."""
        idx = self._open(name)
        lost0 = self.lost
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self._close(idx, t0, time.perf_counter(), lost0)

    def _wrap(self, name: str, fn, count=None):
        perf = time.perf_counter

        def traced(*args, **kwargs):
            t_in = perf()
            idx = self._open(name)
            lost0 = self.lost
            ok = False
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                t1 = perf()
                self._close(idx, t0, t1, lost0)
                if ok and count is not None:
                    count(self.counts, args, result)
                self.lost += (t0 - t_in) + (perf() - t1)

        return traced

    def _wrap_successors(self, fn):
        perf = time.perf_counter
        counts = self.counts
        folded = self.folded

        def traced(system, state):
            t_in = perf()
            t0 = perf()
            out = fn(system, state)
            t1 = perf()
            agg = folded.get(self.stack[-1])
            if agg is None:
                agg = folded[self.stack[-1]] = [0, 0.0]
            agg[0] += 1
            agg[1] += t1 - t0
            counts["core.successor_calls"] += 1
            counts["core.matches"] += len(out)
            counts["core.distinct_results"] += len({t for t, _, _ in out})
            counts["core.rule_hits"] += len({ri for _, ri, _ in out})
            counts["core.rule_scans"] += len(system.rules)
            self.lost += (t0 - t_in) + (perf() - t1)
            return out

        return traced

    # -- patching -----------------------------------------------------------

    def install(self) -> None:
        """Wrap every traced function wherever a ``multiway`` module bound it."""
        limit = sys.modules["multiway.algebra"].BACKTRACK_NODE_LIMIT

        def count_isomorphism(counts, args, result):
            nodes = len(args[0].states)
            counts["algebra.isomorphism_calls"] += 1
            counts["algebra.isomorphism_nodes"] += nodes
            if nodes > limit and result[0]:
                counts["algebra.refinement_only"] += 1

        modules = [
            m
            for key, m in list(sys.modules.items())
            if m is not None and (key == "multiway" or key.startswith("multiway."))
        ]
        for modname, fname in TRACED:
            home = sys.modules.get(f"multiway.{modname}")
            if home is None:
                continue
            original = getattr(home, fname)
            name = f"{modname}.{fname}"
            if name == "core.successors":
                wrapper = self._wrap_successors(original)
            elif name == "core.evolve":
                wrapper = self._wrap(name, original, _count_evolve)
            elif name == "algebra.layered_isomorphic":
                wrapper = self._wrap(name, original, count_isomorphism)
            else:
                wrapper = self._wrap(name, original)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        self._patches.append((m, attr, original))
                        setattr(m, attr, wrapper)

    def uninstall(self) -> None:
        for m, attr, original in reversed(self._patches):
            setattr(m, attr, original)
        self._patches.clear()

    # -- results ------------------------------------------------------------

    def effective(self, i: int) -> float:
        return (self.ends[i] - self.starts[i]) - (self.lost_at_end[i] - self.lost_at_start[i])

    def raw_totals(self, lo: int = 0, counts: Counter | None = None) -> dict:
        """Raw sums over the spans from ``lo`` on (one pass) plus the given counts."""
        hi = len(self.names)
        raw = dict.fromkeys(RAW, 0)
        child_time = Counter()
        for i in range(lo, hi):
            p = self.parents[i]
            if p >= lo:
                child_time[p] += self.effective(i)
        group_of = {n: g for g, names in GROUPS.items() for n in names}
        for i in range(lo, hi):
            name = self.names[i]
            group = group_of.get(name)
            if group is None:
                continue
            p = self.parents[i]
            while p >= lo and group_of.get(self.names[p]) != group:
                p = self.parents[p]
            if p < lo:  # outermost span of its group within the pass
                raw[group] += self.effective(i)
            own = self.effective(i) - child_time[i] - self.folded.get(i, (0, 0.0))[1]
            if name == "core.evolve":
                raw["core.evolve_self_s"] += own
            elif name == "cli.main":
                raw["cli.self_s"] += own
        for parent, (_, seconds) in self.folded.items():
            if lo <= parent < hi:
                raw["core.successors_s"] += seconds
        for key, value in (counts if counts is not None else self.counts).items():
            raw[key] += value
        return raw

    def dump_spans(self) -> list[list]:
        """Spans as [name, parent, start, end, effective seconds], then folded calls."""
        out = [
            [self.names[i], self.parents[i], self.starts[i], self.ends[i], self.effective(i)]
            for i in range(len(self.names))
        ]
        for parent, (calls, seconds) in sorted(self.folded.items()):
            out.append([f"core.successors x{calls}", parent, None, None, seconds])
        return out


def finish(raw: dict) -> dict:
    """Per-layer metrics from summed raw totals: ratios and differences."""
    out = dict(raw)
    out["core.match_yield"] = raw["core.distinct_results"] / raw["core.matches"] if raw["core.matches"] else 0.0
    out["core.rule_hit_ratio"] = raw["core.rule_hits"] / raw["core.rule_scans"] if raw["core.rule_scans"] else 0.0
    out["core.duplicates"] = raw["core.distinct_results"] - raw["core.new_states"]
    return out


def unit(metric: str) -> str:
    if metric.endswith("_ms"):
        return "ms"
    if metric.endswith("_s"):
        return "s"
    if metric in ("core.match_yield", "core.rule_hit_ratio"):
        return "ratio"
    return "count"
