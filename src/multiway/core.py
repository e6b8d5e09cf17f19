"""Core string rewriting engine: systems, breadth-first evolution, growth counts."""

from __future__ import annotations

import logging
import math
import re
from dataclasses import dataclass, field
from typing import Iterable, Iterator, NamedTuple, Sequence

logger = logging.getLogger(__name__)

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
_char_to_token: dict[str, str] = {}

_TOKEN_NAME_CHARS = frozenset(
    "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789@_+.-"
)


class GlyphError(ValueError):
    """Malformed glyph text, or a symbol used outside its alphabet."""


def intern_token(name: str) -> Symbol:
    """Return the one-character symbol for a bracketed token name like "fwd"."""
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
    _char_to_token[ch] = name
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
    parts = []
    for c in encoded:
        name = _char_to_token.get(c)
        parts.append(c if name is None else f"[{name}]")
    return "".join(parts)


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

    def __contains__(self, sym: object) -> bool:
        return sym in self.symbols

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


@dataclass
class StatesGraph:
    """Layered derivation graph produced by :func:`evolve`.

    ``layers[d]`` lists the ids of states first reached at distance ``d``
    from the initial string, in the order breadth-first search finds them
    (frontier state, rule index, match position), so ids and ``edges``
    depend on the system alone.  ``edges`` records every single-step rewrite
    discovered from a frontier state, including rewrites that land on
    already-known states.  ``truncation_reason`` says which budget stopped
    the evolution, or is None; ``truncated`` is read off it.
    """

    system: MultiwaySystem
    states: list[str]
    layers: list[list[StateId]]
    edges: list[Edge]
    truncation_reason: str | None = None

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


_RulePlan = tuple[str, str, int, re.Pattern[str] | None]
_GuardGroup = tuple[str, list[tuple[str, tuple[int, ...]]]]
_Plans = tuple[list[_RulePlan], list[_GuardGroup]]


def _rule_plans(system: MultiwaySystem) -> _Plans:
    """Rule plans and the distinct lhs grouped under guard symbols, computed once per evolution.

    A plan is ``(lhs, rhs, len(lhs), run)`` per rule, where ``run`` matches a
    run of c when lhs is one symbol c and rhs is in c*, and is None
    otherwise.  Each distinct lhs carries the ascending indices of the rules
    that share it, and sits in one group ``(guard, [(lhs, indices), ...])``.
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
        plans.append((lhs, rhs, len(lhs), run))
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
    window both results are ``state[:p]`` and ``state[q+n:]``.  For a
    one-symbol lhs c with rhs in c*, every match in a run of c gives the same
    string, so the whole run is one group, taken in one step without visiting
    its positions; the identity c -> c rewrites every run to ``state`` itself.
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
        lhs, rhs, n, run = rules[ri]
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
            if rhs + state[p + n : q + n] == state[p:q] + rhs:
                positions.append(q)
            else:
                groups.append((result, ri, positions))
                result = state[:q] + rhs + state[q + n :]
                positions = [q]
            p = q
        groups.append((result, ri, positions))
    return groups


def successors(system: MultiwaySystem, state: str) -> list[tuple[str, int, int]]:
    """All single-step rewrites of ``state`` as (result, rule index, position).

    Every occurrence of every left-hand side rewrites independently;
    occurrences may overlap.  Order is deterministic: rule index ascending,
    then match position left to right.

    Matches that rewrite to the same string share one result object, built
    once.  A run of a one-symbol lhs c with rhs in c* (``A -> AA`` on
    ``A...A``) is taken in one step; the returned list still holds one
    triple per match.

    Rules are selected as in :func:`evolve` (one test per guard group, then
    lhs tests only under a present guard), but the guard groups are rebuilt
    on every call; ``evolve`` builds them once.
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
    still recorded as edges).  Once the frontier dies out, the remaining
    layers up to ``horizon`` are present but empty.

    Cost per frontier state: one containment test per guard group of
    left-hand sides (a symbol shared by several lhs, or a lone lhs; see
    ``_rule_plans``), one per lhs only under a guard that is present, then a
    position scan only for the rules whose lhs occurs.  So a group whose
    guard is absent from the state costs one one-symbol test however many
    lhs it holds.  A rewrite result is built and deduplicated once per group
    of consecutive matches of one rule that give the same string, not once
    per match.  For a
    one-symbol lhs c with rhs in c*, a whole run of c is one group found in
    one step, so a run of L matches of ``A -> AA`` costs one step, not L;
    other coinciding matches are still found one by one.  Each group costs
    one dict lookup, and no layer is sorted.  Only recorded edges cost one
    step per match.

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
        record_edges: when False, ``edges`` stays empty and no edge is
            built; states and layers are the same either way.

    Returns:
        A :class:`StatesGraph`.
    """
    if horizon < 0:
        raise ValueError("horizon must be >= 0")
    if max_states < 1:
        raise ValueError("max_states must be >= 1")
    if max_cells < len(system.init):
        raise ValueError("max_cells must be at least the length of the initial string")
    plans = _rule_plans(system)
    states: list[str] = [system.init]
    index: dict[str, StateId] = {system.init: 0}
    layers: list[list[StateId]] = [[0]]
    edges: list[Edge] = []
    cells = len(system.init)
    reason: str | None = None

    frontier: list[StateId] = [0]
    for d in range(1, horizon + 1):
        first, first_edge = len(states), len(edges)
        layer: list[StateId] = []
        for u in frontier:
            for t, ri, positions in _rewrite_groups(plans, states[u]):
                v = index.get(t)
                if v is None:
                    v = index[t] = len(states)
                    states.append(t)
                    layer.append(v)
                    cells += len(t)
                    if len(states) > max_states:
                        reason = f"more than {max_states} states while building layer {d}"
                        break
                    if cells > max_cells:
                        reason = f"more than {max_cells} stored cells while building layer {d}"
                        break
                if record_edges:
                    for pos in positions:
                        edges.append(Edge(u, v, ri, pos))
            if reason is not None:
                break
        if reason is not None:
            del states[first:], edges[first_edge:]
            break
        layers.append(layer)
        frontier = layer

    if reason is not None:
        logger.warning("evolution truncated: %s", reason)
    return StatesGraph(system, states, layers, edges, reason)


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


def export_dot(graph: StatesGraph) -> str:
    """Graphviz DOT text: node ``n<i>`` is state id ``i``; nodes and edges in discovery order."""

    def quoted(s: str) -> str:
        return '"' + s.replace("\\", "\\\\").replace('"', '\\"') + '"'

    lines = ["digraph multiway {"]
    for d, layer in enumerate(graph.layers):
        for sid in layer:
            label = quoted(render_glyphs(graph.states[sid]))
            lines.append(f"  n{sid} [label={label}, layer={d}];")
    for e in graph.edges:
        lines.append(f"  n{e.src} -> n{e.dst} [rule={e.rule}, pos={e.pos}];")
    lines.append("}")
    return "\n".join(lines) + "\n"
