"""Core string rewriting engine: systems, breadth-first evolution, growth counts."""

from __future__ import annotations

import logging
import math
import re
from dataclasses import dataclass, field
from itertools import islice
from typing import Iterable, Iterator, NamedTuple, Sequence

logger = logging.getLogger(__name__)
# silent until the application configures logging; Python's fallback would print to stderr
logger.addHandler(logging.NullHandler())

# ---------------------------------------------------------------------------
# Symbols and glyph strings
#
# A symbol is written either as one printable character ("A") or as a
# bracketed token ("[fwd]").  Internally every symbol is exactly one
# character: bracketed tokens are interned to private-use codepoints, so
# states stay ordinary Python strings and substring search stays cheap.

Symbol = str  # exactly one interned character
StateId = int

_PUA_BASE = 0xE000
_PUA_LIMIT = 0xF8FF

_token_to_char: dict[str, str] = {}
_render_table: dict[int, str] = {}  # {codepoint: "[name]"}, for str.translate

_TOKEN_NAME_CHARS = frozenset(
    "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789@_+.-"
)


class GlyphError(ValueError):
    """Malformed glyph text, or a symbol used outside its alphabet."""


def intern_token(name: str) -> Symbol:
    """Return the one-character symbol for a bracketed token name like "fwd".

    The table is global to the process: a name keeps its character for as
    long as the process runs, and no name is ever freed.  It holds 6,400
    names, one per private-use codepoint U+E000–U+F8FF; once they are all
    taken, a new name raises ``GlyphError("token table exhausted")``, while
    names already interned still resolve.
    """
    ch = _token_to_char.get(name)
    if ch is not None:
        return ch
    if not name or not set(name) <= _TOKEN_NAME_CHARS:
        raise GlyphError(f"bad token name {name!r}")
    code = _PUA_BASE + len(_token_to_char)
    if code > _PUA_LIMIT:
        raise GlyphError("token table exhausted")
    ch = chr(code)
    _token_to_char[name] = ch
    _render_table[code] = f"[{name}]"
    return ch


def parse_glyphs(text: str) -> str:
    """Parse glyph text like ``"AB[fwd]C"`` into its interned one-char-per-symbol form."""
    out: list[str] = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch == "[":
            j = text.find("]", i + 1)
            if j < 0:
                raise GlyphError(f"unterminated token starting at column {i} in {text!r}")
            out.append(intern_token(text[i + 1 : j]))
            i = j + 1
            continue
        if ch == "]":
            raise GlyphError(f"stray ']' at column {i} in {text!r}")
        if ch == "#" or ch.isspace() or not ch.isprintable():
            raise GlyphError(f"{ch!r} cannot be a symbol (column {i} in {text!r})")
        if _PUA_BASE <= ord(ch) <= _PUA_LIMIT:
            raise GlyphError("private-use characters are reserved for interned tokens")
        out.append(ch)
        i += 1
    return "".join(out)


def render_glyphs(encoded: str) -> str:
    """Inverse of :func:`parse_glyphs`: interned tokens come back as ``[name]``."""
    return encoded.translate(_render_table)


# ---------------------------------------------------------------------------
# Systems


@dataclass(frozen=True)
class Alphabet:
    """Ordered set of symbols (interned characters)."""

    symbols: tuple[Symbol, ...]

    def __post_init__(self) -> None:
        seen = set()
        for s in self.symbols:
            if len(s) != 1:
                raise GlyphError(f"alphabet entries must be single symbols, got {s!r}")
            if s in seen:
                raise GlyphError(f"duplicate alphabet symbol {render_glyphs(s)!r}")
            seen.add(s)

    @classmethod
    def parse(cls, text: str) -> Alphabet:
        return cls(tuple(parse_glyphs(text)))

    @classmethod
    def infer(cls, init: str, rules: Iterable[tuple[str, str]]) -> Alphabet:
        """The symbols of encoded ``init``, then of each rule's lhs and rhs,
        in order of first appearance."""
        return cls(tuple(dict.fromkeys(init + "".join(lhs + rhs for lhs, rhs in rules))))

    def __len__(self) -> int:
        return len(self.symbols)

    def __iter__(self) -> Iterator[Symbol]:
        return iter(self.symbols)

    @property
    def glyphs(self) -> tuple[str, ...]:
        return tuple(render_glyphs(s) for s in self.symbols)

    def check(self, encoded: str) -> None:
        symset = set(self.symbols)
        for c in encoded:
            if c not in symset:
                raise GlyphError(f"symbol {render_glyphs(c)!r} not in alphabet")

    def union(self, other: Alphabet) -> Alphabet:
        extra = tuple(s for s in other.symbols if s not in self.symbols)
        return Alphabet(self.symbols + extra)

    def isdisjoint(self, other: Alphabet) -> bool:
        return set(self.symbols).isdisjoint(other.symbols)


class Rule(NamedTuple):
    lhs: str
    rhs: str


@dataclass(frozen=True)
class MultiwaySystem:
    """A finite rule set over an alphabet, plus an initial string.

    ``rules`` and ``init`` hold interned strings; build instances through
    :func:`make_system` (or the rule-file parser) when starting from glyph
    text.  Duplicate rules are dropped, keeping first occurrence.
    """

    alphabet: Alphabet
    rules: tuple[Rule, ...]
    init: str

    def __post_init__(self) -> None:
        deduped: list[Rule] = []
        seen: set[Rule] = set()
        for r in self.rules:
            rule = Rule(*r)
            if not rule.lhs:
                raise GlyphError("rule with empty left-hand side")
            self.alphabet.check(rule.lhs)
            self.alphabet.check(rule.rhs)
            if rule not in seen:
                seen.add(rule)
                deduped.append(rule)
        object.__setattr__(self, "rules", tuple(deduped))
        self.alphabet.check(self.init)


def make_system(
    rules: Iterable[tuple[str, str]],
    init: str,
    alphabet: str | Alphabet | None = None,
) -> MultiwaySystem:
    """Build a system from rendered glyph strings.

    Args:
        rules: (lhs, rhs) pairs of glyph text, e.g. ``[("AB", "BA")]``.
        init: initial string as glyph text.
        alphabet: glyph text or an :class:`Alphabet`; inferred from the
            init and rules (first-appearance order) when omitted.
    """
    parsed = [Rule(parse_glyphs(l), parse_glyphs(r)) for l, r in rules]
    parsed_init = parse_glyphs(init)
    if alphabet is None:
        alpha = Alphabet.infer(parsed_init, parsed)
    elif isinstance(alphabet, Alphabet):
        alpha = alphabet
    else:
        alpha = Alphabet.parse(alphabet)
    return MultiwaySystem(alpha, tuple(parsed), parsed_init)


# ---------------------------------------------------------------------------
# Evolution


class Edge(NamedTuple):
    src: StateId
    dst: StateId
    rule: int
    pos: int


@dataclass(frozen=True, repr=False)
class StatesGraph:
    """Layered derivation graph produced by :func:`evolve`; a value, never changed once built.

    ``layers[d]`` lists the ids of states first reached at distance ``d``
    from the initial string, in the order breadth-first search finds them
    (frontier state, rule index, match position), so ids and ``edges``
    depend on the system alone.  Any sequence of ids will do; :func:`evolve`
    numbers states in that order, so each of its layers is a ``range`` that
    starts where the previous one stops.  ``edges`` holds every single-step
    rewrite from a state of ``layers[:-1]``, including rewrites that land on
    already-known states, in that same order.  Given as None (as
    :func:`evolve` does) it is derived from ``system``, ``states`` and
    ``layers`` on every read, by one more matching pass over those states,
    into a fresh list the graph does not keep; a list given explicitly is
    returned as it is.  The graph comparisons in ``algebra`` and
    :func:`export_dot` never read ``edges``: they take the same edges as a
    stream of rows from :func:`_edge_rows` and keep none of them.
    Neither ``repr`` nor ``==`` reads it.  ``truncation_reason`` says which budget
    stopped the evolution, or is None; ``truncated`` is read off it.
    ``repr`` shows the system and sizes, not the states, so its length does
    not grow with the evolution.
    """

    system: MultiwaySystem
    states: list[str]
    layers: list[Sequence[StateId]]
    _edges: list[Edge] | None = field(compare=False)  # read through ``edges``
    truncation_reason: str | None = None

    def __repr__(self) -> str:
        reason = self.truncation_reason
        tail = "" if reason is None else f", truncation_reason={reason!r}"
        return (
            f"StatesGraph(system={self.system!r}, states={len(self.states)}, "
            f"layers={len(self.layers)}{tail})"
        )

    @property
    def edges(self) -> list[Edge]:
        if self._edges is not None:
            return self._edges
        return [Edge(*row) for row in _edge_rows(self)]

    @property
    def truncated(self) -> bool:
        return self.truncation_reason is not None

    @property
    def horizon(self) -> int:
        return len(self.layers) - 1

    def layer_strings(self, d: int) -> list[str]:
        return [self.states[i] for i in self.layers[d]]

    def state_distances(self) -> list[int]:
        """Distance (layer index) of every state, indexed by StateId."""
        dist = [0] * len(self.states)
        for d, layer in enumerate(self.layers):
            for sid in layer:
                dist[sid] = d
        return dist


_RulePlan = tuple[str, str, int, re.Pattern[str] | None, bool]
_GuardGroup = tuple[str, list[tuple[str, tuple[int, ...]]]]
_Plans = tuple[list[_RulePlan], list[_GuardGroup]]


def _rule_plans(system: MultiwaySystem) -> _Plans:
    """Rule plans and the distinct lhs grouped under guard symbols, computed once per evolution.

    A plan is ``(lhs, rhs, len(lhs), run, apart)`` per rule, where ``run``
    matches a run of c when lhs is one symbol c and rhs is in c*, and is None
    otherwise, and ``apart`` marks a rule whose matches never rewrite to the
    same string: rhs is non-empty and ``rhs[0] != lhs[0]`` or ``rhs[-1] !=
    lhs[-1]``.  (For matches p < q, ``rhs + s[p+n : q+n]`` starts with
    ``rhs[0]`` and ends with ``s[q+n-1] = lhs[-1]``, while ``s[p:q] + rhs``
    starts with ``s[p] = lhs[0]`` and ends with ``rhs[-1]``, so the two
    windows differ.)  A rule with a run is never marked.  Each distinct lhs
    carries the ascending indices of the rules that share it, and sits in
    one group ``(guard, [(lhs, indices), ...])``.
    An lhs occurs only where each of its symbols does, so a state that lacks
    a group's guard lacks all of its members.

    The guards are a greedy set cover fixed by the system alone: repeatedly
    take the symbol found in the most distinct lhs not yet covered, ties
    going to the symbol with the fewest occurrences in the initial string
    plus all right-hand sides (the likeliest to be absent), then to first
    appearance in the lhs.  The cover stops when no symbol is shared by two
    uncovered lhs; each lhs left over is its own guard.
    """
    plans: list[_RulePlan] = []
    by_lhs: dict[str, tuple[int, ...]] = {}
    for ri, (lhs, rhs) in enumerate(system.rules):
        run = None
        if len(lhs) == 1 and rhs == lhs * len(rhs):
            run = re.compile(re.escape(lhs) + "+")
        apart = rhs != "" and (rhs[0] != lhs[0] or rhs[-1] != lhs[-1])
        plans.append((lhs, rhs, len(lhs), run, apart))
        by_lhs[lhs] = by_lhs.get(lhs, ()) + (ri,)
    produced = system.init + "".join(rhs for _, rhs in system.rules)
    rank = {c: (produced.count(c), i) for i, c in enumerate(dict.fromkeys("".join(by_lhs)))}
    guards: list[_GuardGroup] = []
    uncovered = list(by_lhs)
    while uncovered:
        holders: dict[str, list[str]] = {}
        for lhs in uncovered:
            for c in dict.fromkeys(lhs):
                holders.setdefault(c, []).append(lhs)
        g = min(holders, key=lambda c: (-len(holders[c]), rank[c]))
        if len(holders[g]) < 2:
            break
        # a member equal to its guard is the guard itself, so it costs no second test
        g = next((lhs for lhs in holders[g] if lhs == g), g)
        guards.append((g, [(lhs, by_lhs[lhs]) for lhs in holders[g]]))
        uncovered = [lhs for lhs in uncovered if g not in lhs]
    guards += [(lhs, [(lhs, by_lhs[lhs])]) for lhs in uncovered]
    return plans, guards


def _rewrite_groups(plans: _Plans, state: str) -> list[tuple[str, int, Sequence[int]]]:
    """Single-step rewrites of ``state`` as (result, rule index, positions).

    One ``in`` test per guard group (a symbol shared by several lhs, or a
    lone lhs), then one per member lhs only under a guard that is present,
    select the rules that match at all; only those are searched for
    positions.  So a group whose guard is absent costs one one-symbol
    containment test for all its lhs, and a rule whose lhs is absent costs
    no method call.

    Groups come in rule index order, then by position, and consecutive
    matches of one rule that rewrite to the same string form one group whose
    result is built once.  Two matches p < q of one rule (lhs length n) agree
    exactly when ``rhs + state[p+n : q+n] == state[p:q] + rhs``: outside that
    window both results are ``state[:p]`` and ``state[q+n:]``.  A rule marked
    ``apart`` in its plan skips that test, since its matches never agree:
    each match is its own group.  For a one-symbol lhs c with rhs in c*,
    every match in a run of c gives the same string, so the whole run is one
    group, taken in one step without visiting its positions; the identity
    c -> c rewrites every run to ``state`` itself.

    :func:`evolve` does not call this: it walks the same guards and rules in
    its own loop and builds no group.  This is the matcher for
    :func:`_edge_rows` and :func:`successors`, which need the positions.
    """
    rules, guards = plans
    # loops, not comprehensions: Python 3.11 makes a frame per comprehension
    hits: list[tuple[int, ...]] = []
    for g, members in guards:
        if g in state:
            for lhs, ris in members:
                if lhs is g or lhs in state:
                    hits.append(ris)
    if not hits:
        return []
    groups: list[tuple[str, int, Sequence[int]]] = []
    for ri in hits[0] if len(hits) == 1 else sorted(sum(hits, ())):
        lhs, rhs, n, run, apart = rules[ri]
        p = state.find(lhs)
        if run is not None:
            while p >= 0:
                q = run.match(state, p).end()
                result = state if rhs == lhs else state[:p] + rhs + state[p + 1 :]
                groups.append((result, ri, range(p, q)))
                p = state.find(lhs, q)
            continue
        result = state[:p] + rhs + state[p + n :]
        positions = [p]
        while (q := state.find(lhs, p + 1)) >= 0:
            if not apart and rhs + state[p + n : q + n] == state[p:q] + rhs:
                positions.append(q)
            else:
                groups.append((result, ri, positions))
                result = state[:q] + rhs + state[q + n :]
                positions = [q]
            p = q
        groups.append((result, ri, positions))
    return groups


def _edge_rows(
    graph: StatesGraph, index: dict[str, StateId] | None = None
) -> Iterator[tuple[StateId, StateId, int, int]]:
    """``(src, dst, rule, pos)`` for each edge of ``graph``, in the order of their sources' layers.

    The one reader of ``graph._edges``.  A list given by hand is yielded
    sorted by source layer, stably, so a list already in discovery order
    comes back as it is.  Otherwise the rows are derived in discovery order,
    one per match in each state of ``layers[:-1]`` (the frontiers
    :func:`evolve` expanded and kept: the last layer is where it stopped,
    and a budget drops the layer being built together with the rewrites
    that found it), by one matching pass that looks results up in ``index``
    (``{state: id}``, built here when not given) and keeps nothing, so a
    reader that files or writes each row as it comes never holds all the
    edges at once.
    """
    if graph._edges is not None:
        if graph._edges:
            dist = graph.state_distances()
            yield from sorted(graph._edges, key=lambda row: dist[row[0]])
        return
    plans = _rule_plans(graph.system)
    states = graph.states
    if index is None:
        index = {s: i for i, s in enumerate(states)}
    for layer in graph.layers[:-1]:
        for u in layer:
            for t, ri, positions in _rewrite_groups(plans, states[u]):
                v = index[t]
                for pos in positions:
                    yield u, v, ri, pos


def successors(system: MultiwaySystem, state: str) -> list[tuple[str, int, int]]:
    """All single-step rewrites of ``state`` as (result, rule index, position).

    Every occurrence of every left-hand side rewrites independently;
    occurrences may overlap.  Order is deterministic: rule index ascending,
    then match position left to right.

    Matches that rewrite to the same string share one result object, built
    once.  A run of a one-symbol lhs c with rhs in c* (``A -> AA`` on
    ``A...A``) is taken in one step; the returned list still holds one
    triple per match.

    Rules are selected as :func:`evolve` selects them (one test per guard
    group, then lhs tests only under a present guard), but the guard groups
    are rebuilt on every call, and the triples are built by
    ``_rewrite_groups``, which ``evolve`` does not call.
    """
    return [
        (result, ri, pos)
        for result, ri, positions in _rewrite_groups(_rule_plans(system), state)
        for pos in positions
    ]


def evolve(
    system: MultiwaySystem,
    horizon: int,
    *,
    max_states: int = 1_000_000,
    max_cells: int = 100_000_000,
    record_edges: bool = True,
) -> StatesGraph:
    """Breadth-first evolution with global deduplication.

    Explores all single-step rewrites layer by layer.  A string that was
    reached at any earlier distance is never re-added (rewrites onto it are
    still edges).  Once the frontier dies out, the remaining layers up to
    ``horizon`` are present but empty.

    Cost per frontier state: one containment test per guard group of
    left-hand sides (a symbol shared by several lhs, or a lone lhs; see
    ``_rule_plans``), one per lhs only under a guard that is present, then a
    position scan only for the rules whose lhs occurs.  So a group whose
    guard is absent from the state costs one one-symbol test however many
    lhs it holds.  The state is expanded in this function's own loop, and
    each result is tested against the seen dict, and stored there, as soon
    as it is built: no list, tuple or positions object is made per state or
    per group.  A result is built once per group of consecutive matches of
    one rule that give the same string, not once per match.  A rule whose
    matches can never coincide (``apart`` in ``_rule_plans``) builds one
    result per match and makes no window test; a rule with rhs equal to its
    lhs builds nothing, since every match rewrites the state to itself.  For
    a one-symbol lhs c with rhs in c*, a whole run of c is one group found
    in one step, so a run of L matches of ``A -> AA`` costs one step, not L;
    other coinciding matches are found one by one, by the window test that
    ``_rewrite_groups`` describes, and only the first of a group builds its
    string.  No layer is sorted.  A state is stored once, as its string: one
    insertion-ordered dict is both the seen test and the id order, and
    ``states`` is read from it at the end.  No id or int is kept per state,
    since each layer is the ``range`` of ids it was given.  No edge is built
    here: the graph's ``edges`` are derived on each read, by a second
    matching pass over the expanded states that costs one step per match,
    so a caller that reads only states and layers never pays it.

    Args:
        system: the rewriting system.
        horizon: largest distance to explore; the result has ``horizon + 1``
            layers (layer 0 is the initial string).
        max_states: stop as soon as the states stored plus the new ones
            found for the layer being built exceed this.  The partially
            built layer and its edges are dropped and the graph is flagged
            truncated rather than raising.
        max_cells: same, for the total number of stored characters.  Both
            budgets are checked as each new string is found, so a layer
            that breaks one stops there instead of being built in full.
            Budgets are hard bounds: one the initial string already
            breaks (``max_states < 1`` or ``max_cells < len(init)``) is
            rejected with ``ValueError``, as a negative horizon is.
        record_edges: when False, ``edges`` is ``[]`` and never derived;
            when True, it is derived on each read and not kept.  States and
            layers are the same either way.

    Returns:
        A :class:`StatesGraph`.
    """
    if horizon < 0:
        raise ValueError("horizon must be >= 0")
    if max_states < 1:
        raise ValueError("max_states must be >= 1")
    if max_cells < len(system.init):
        raise ValueError("max_cells must be at least the length of the initial string")
    rules, guards = _rule_plans(system)
    # insertion order is id order, so one dict is both the seen-set and the states
    seen: dict[str, None] = {system.init: None}
    layers: list[Sequence[StateId]] = [range(1)]
    cells = len(system.init)
    reason: str | None = None

    frontier = [system.init]
    for d in range(1, horizon + 1):
        start = len(seen)
        layer: list[str] = []
        for s in frontier:
            # the guard walk of _rewrite_groups, inlined: a helper called once
            # per state costs a few per cent of a broad evolution
            hits: list[tuple[int, ...]] = []
            for g, members in guards:
                if g in s:
                    for lhs, ris in members:
                        if lhs is g or lhs in s:
                            hits.append(ris)
            if not hits:
                continue
            for ri in hits[0] if len(hits) == 1 else sorted(sum(hits, ())):
                lhs, rhs, n, run, apart = rules[ri]
                if rhs == lhs:
                    continue  # every match gives s, which is seen
                p = s.find(lhs)
                while p >= 0:
                    t = s[:p] + rhs + s[p + n :]
                    if t not in seen:
                        seen[t] = None
                        layer.append(t)
                        cells += len(t)
                        if len(seen) > max_states:
                            reason = f"more than {max_states} states while building layer {d}"
                            break
                        if cells > max_cells:
                            reason = f"more than {max_cells} stored cells while building layer {d}"
                            break
                    if run is not None:
                        p = s.find(lhs, run.match(s, p).end())
                        continue
                    q = s.find(lhs, p + 1)
                    if not apart:
                        # skip the matches that give t again, as _rewrite_groups groups them
                        while q >= 0 and rhs + s[p + n : q + n] == s[p:q] + rhs:
                            p, q = q, s.find(lhs, q + 1)
                    p = q
                if reason is not None:
                    break
            if reason is not None:
                break
        if reason is not None:
            logger.warning("evolution truncated: %s", reason)
            break
        layers.append(range(start, len(seen)))
        frontier = layer

    # a truncated layer's partial strings are in seen but past the last layer
    states = list(islice(seen, layers[-1].stop))
    return StatesGraph(system, states, layers, None if record_edges else [], reason)


# ---------------------------------------------------------------------------
# Growth series


@dataclass(frozen=True)
class CeilingViolation:
    """A layer holding more states than |alphabet| ** (longest string there).

    That bound only counts the strings of maximal length, so rule sets that
    fan out to many *shorter* strings can exceed it.  Violations are
    recorded on the :class:`GrowthSeries` rather than raised.
    """

    init: str
    distance: int
    count: int
    alphabet_size: int
    max_len: int


@dataclass
class GrowthSeries:
    """Per-distance state counts and longest-string lengths.

    ``ceiling_violations`` lists the layers that broke the combinatorial
    bound, when :func:`growth_series` checked it.
    """

    counts: list[int]
    max_len: list[int]
    ceiling_violations: list[CeilingViolation] = field(default_factory=list)


def _within_ceiling(count: int, base: int, exponent: int) -> bool:
    if count <= 1:
        return True
    if base <= 1:
        return False  # count >= 2 but base**exponent <= 1
    if exponent * math.log2(base) >= 64:
        return True  # the state budget keeps counts far below 2**64
    return count <= base**exponent


def growth_series(graph: StatesGraph) -> GrowthSeries:
    """Counts and max string length per layer of an evolved graph.

    ``counts[0]`` is always 1 (the initial string).  Empty layers report
    ``max_len`` 0.  Every layer is tested against the combinatorial bound
    |alphabet| ** max_len; failures are recorded in the series'
    ``ceiling_violations`` and logged, never raised.
    """
    series = GrowthSeries([], [])
    base = len(graph.system.alphabet)
    for d, layer in enumerate(graph.layers):
        series.counts.append(len(layer))
        longest = max((len(graph.states[i]) for i in layer), default=0)
        series.max_len.append(longest)
        if not _within_ceiling(len(layer), base, longest):
            v = CeilingViolation(
                init=render_glyphs(graph.system.init),
                distance=d,
                count=len(layer),
                alphabet_size=base,
                max_len=longest,
            )
            series.ceiling_violations.append(v)
            logger.warning(
                "count ceiling exceeded at distance %d: %d states > %d**%d",
                d, len(layer), base, longest,
            )
    return series


# ---------------------------------------------------------------------------
# Export


def _dot_lines(graph: StatesGraph) -> Iterator[str]:
    """The lines of :func:`export_dot`, each with its newline, made one at a time."""

    def quoted(s: str) -> str:
        return '"' + s.replace("\\", "\\\\").replace('"', '\\"') + '"'

    yield "digraph multiway {\n"
    for d, layer in enumerate(graph.layers):
        for sid in layer:
            yield f"  n{sid} [label={quoted(render_glyphs(graph.states[sid]))}, layer={d}];\n"
    for u, v, ri, pos in _edge_rows(graph):
        yield f"  n{u} -> n{v} [rule={ri}, pos={pos}];\n"
    yield "}\n"


def export_dot(graph: StatesGraph) -> str:
    """Graphviz DOT text: node ``n<i>`` is state id ``i``; nodes and edges in discovery order.

    The edges are read as rows (see :func:`_edge_rows`): an evolved graph's
    edges are derived for the text and not kept.
    """
    return "".join(_dot_lines(graph))


def _cut_at_edges(graph: StatesGraph, max_edges: int) -> StatesGraph:
    """``graph`` cut to the layers whose edges fit in ``max_edges``.

    Reads the edges of ``graph`` in discovery order, which expands
    ``layers[:-1]`` in turn, up to the first one past ``max_edges``.  If
    that edge is found while layer d is expanded, the result keeps
    ``layers[: d + 1]``, their strings (the states up to the last id they
    name) and the edges of the layers before d, as an evolution truncated
    while building layer d + 1 would, with a ``truncation_reason`` naming
    the edge count.  Otherwise ``graph`` itself is returned.
    """
    over = next(islice(_edge_rows(graph), max_edges, None), None)
    if over is None:
        return graph
    d = graph.state_distances()[over[0]]
    layers = graph.layers[: d + 1]
    stop = 1 + max(max(layer) for layer in layers)
    reason = f"more than {max_edges} edges while building layer {d + 1}"
    return StatesGraph(graph.system, graph.states[:stop], layers, None, reason)
