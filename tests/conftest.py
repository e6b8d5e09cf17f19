"""Shared test helpers: a deliberately naive reference implementation.

The reference expander below scans every position with startswith instead of
str.find, keeps layers as plain sets, and knows nothing about budgets or
edges.  Engine results are checked against it on small systems.  The
rewrite-group reference runs the window test for every rule, the way
``_rewrite_groups`` once did, before rules whose matches cannot coincide
skipped it.  The rule-independence reference below compares graphs by
layered isomorphism, the way ``check_rule_independence`` once did.  The map
reference files every edge of both graphs as a tuple pair, the way
``_map_fails_at`` once did.  The refinement reference colours nodes with
``Counter`` signatures, the way ``layered_isomorphic`` once did.  Systems
over two token pools interned in opposite orders check that results do not
depend on the interning table.
"""

from __future__ import annotations

from collections import Counter
from itertools import permutations, product

from hypothesis import strategies as st

from multiway.algebra import layered_isomorphic
from multiway.core import MultiwaySystem, StatesGraph, evolve, intern_token, make_system

# Two pools of token names, interned here in opposite orders: a system over
# LOW_POOL renamed onto HIGH_POOL ranks its symbols the other way round by
# codepoint, so any result ordered by codepoint tells the two apart.
LOW_POOL = ("lo1", "lo2", "lo3", "lo4")
HIGH_POOL = ("hi1", "hi2", "hi3", "hi4")
for _name in LOW_POOL + HIGH_POOL[::-1]:
    intern_token(_name)

_pool_word = st.lists(st.integers(0, 3), max_size=3)
pool_rules = st.lists(
    st.tuples(st.lists(st.integers(0, 3), min_size=1, max_size=2), _pool_word),
    min_size=1,
    max_size=3,
)
pool_init = st.lists(st.integers(0, 3), min_size=1, max_size=3)


def pool_system(pool, rules, init) -> MultiwaySystem:
    """The system whose symbol i is the token pool[i]; rules and init hold indices."""

    def glyphs(word):
        return "".join(f"[{pool[i]}]" for i in word)

    return make_system([(glyphs(lhs), glyphs(rhs)) for lhs, rhs in rules], glyphs(init))


def naive_successors(rules: list[tuple[str, str]], s: str) -> list[tuple[str, int, int]]:
    """(result, rule index, position) for every match, each built from scratch."""
    out = []
    for ri, (lhs, rhs) in enumerate(rules):
        for p in range(len(s) - len(lhs) + 1):
            if s.startswith(lhs, p):
                out.append((s[:p] + rhs + s[p + len(lhs) :], ri, p))
    return out


def reference_rewrite_groups(system: MultiwaySystem, state: str) -> list[tuple[str, int, list]]:
    """(result, rule index, positions) per group of consecutive matches of one rule that agree.

    Every rule is tried in index order.  For a one-symbol lhs c with rhs in
    c*, each run of c is one group.  Any other rule's matches p < q (lhs
    length n), taken in turn, stay in one group exactly when
    ``rhs + state[p+n : q+n] == state[p:q] + rhs``, whatever the rule.
    """
    groups = []
    for ri, (lhs, rhs) in enumerate(system.rules):
        n = len(lhs)
        p = state.find(lhs)
        if n == 1 and rhs == lhs * len(rhs):
            while p >= 0:
                q = p
                while q < len(state) and state[q] == lhs:
                    q += 1
                groups.append((state[:p] + rhs + state[p + 1 :], ri, list(range(p, q))))
                p = state.find(lhs, q)
            continue
        if p < 0:
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


@st.composite
def window_rule(draw) -> tuple[str, str]:
    """A rule over ``AB``: an empty rhs, one framed by the lhs's ends, the lhs repeated, or any word."""
    lhs = draw(st.text("AB", min_size=1, max_size=3))
    word = st.text("AB", max_size=3)
    rhs = draw(
        st.one_of(
            st.just(""),
            word.map(lambda w: lhs[0] + w + lhs[-1]),
            st.integers(1, 3).map(lambda k: lhs * k),
            word,
        )
    )
    return lhs, rhs


# words over AB, some made of long one-symbol runs
window_state = st.one_of(
    st.text("AB", max_size=12),
    st.lists(st.tuples(st.sampled_from("AB"), st.integers(1, 6)), max_size=4).map(
        lambda runs: "".join(c * k for c, k in runs)
    ),
)


def naive_rewrites(rules: list[tuple[str, str]], s: str) -> set[str]:
    return {t for t, _, _ in naive_successors(rules, s)}


def naive_layers(rules: list[tuple[str, str]], init: str, horizon: int) -> list[set[str]]:
    seen = {init}
    layers = [{init}]
    frontier = {init}
    for _ in range(horizon):
        derived: set[str] = set()
        for s in frontier:
            derived |= naive_rewrites(rules, s)
        fresh = derived - seen
        seen |= fresh
        layers.append(fresh)
        frontier = fresh
    return layers


def reference_independence(m1, m2, horizon: int):
    """Rule independence by layered isomorphism, as (status, witness layer).

    Each operand's graph is compared with its merged-rules variant's, whole
    and then prefix by prefix, so the witness is the first depth at which
    the prefixes stop being isomorphic.  Exact at any size, as
    ``layered_isomorphic`` is, but slow where colour refinement cannot
    separate the graphs' nodes.
    """
    def prefix(graph, depth):
        keep = sum(len(layer) for layer in graph.layers[: depth + 1])  # ids are layer-contiguous
        edges = [e for e in graph.edges if e.src < keep and e.dst < keep]
        return StatesGraph(graph.system, graph.states[:keep], graph.layers[: depth + 1], edges)

    if m1.alphabet.isdisjoint(m2.alphabet):
        return "independent", None
    for own, other in ((m1, m2), (m2, m1)):
        merged = MultiwaySystem(own.alphabet.union(other.alphabet), own.rules + other.rules, own.init)
        ga, gm = evolve(own, horizon), evolve(merged, horizon)
        if not layered_isomorphic(ga, gm)[0]:
            witness = next(
                (d for d in range(horizon + 1) if not layered_isomorphic(prefix(ga, d), prefix(gm, d))[0]),
                horizon,
            )
            return "dependent", witness
    return "independent_up_to_horizon", None


def reference_map_fails_at(g1: StatesGraph, g2: StatesGraph, images: list[str]) -> int | None:
    """``_map_fails_at``'s witness from every edge kept as a tuple pair.

    Both graphs' ``edges`` lists are read whole, and each simple edge is
    filed under the layer of its later endpoint as a pair of g2 ids, g1's
    through the map (-1 for an image that is no state of g2).  Layer d
    fails when its sizes differ, when its states' images are not g2's
    states there, or when its filed pairs differ.
    """
    index = {s: w for w, s in enumerate(g2.states)}
    phi = [index.get(s, -1) for s in images]

    def edges_by_layer(graph, ids):
        dist = graph.state_distances()
        filed = [set() for _ in graph.layers]
        for u, v, _, _ in graph.edges:
            filed[max(dist[u], dist[v])].add((ids[u], ids[v]))
        return filed

    edges1, edges2 = edges_by_layer(g1, phi), edges_by_layer(g2, list(range(len(g2.states))))
    for d, (a, b) in enumerate(zip(g1.layers, g2.layers)):
        if len(a) != len(b) or {phi[v] for v in a} != set(b) or edges1[d] != edges2[d]:
            return d
    return None


def reference_refinement(g1: StatesGraph, g2: StatesGraph) -> tuple[bool, int | None]:
    """``layered_isomorphic``'s verdict from colour refinement alone.

    Colours start from the layer index; each round a node's signature is its
    colour plus the sorted ``Counter`` items of its out- and in-neighbours'
    colours (parallel edges collapsed), and signatures are numbered by first
    appearance, g1's nodes before g2's.  Refinement stops once g1's colours
    stop changing; the graphs then pass when every layer holds the same
    colour histogram on both sides.
    """
    if len(g1.layers) != len(g2.layers):
        raise ValueError("graphs must be evolved to the same horizon")
    for d in range(len(g1.layers)):
        if len(g1.layers[d]) != len(g2.layers[d]):
            return False, d
    n = len(g1.states)
    if n != len(g2.states):
        return False, None
    if n == 0:
        return True, None

    def adjacency(graph):
        fwd = [set() for _ in graph.states]
        back = [set() for _ in graph.states]
        for e in graph.edges:
            fwd[e.src].add(e.dst)
            back[e.dst].add(e.src)
        return fwd, back

    def refine(colors, fwd, back, table):
        out = []
        for v in range(len(colors)):
            sig = (
                colors[v],
                tuple(sorted(Counter(colors[u] for u in fwd[v]).items())),
                tuple(sorted(Counter(colors[u] for u in back[v]).items())),
            )
            out.append(table.setdefault(sig, len(table)))
        return out

    (fwd1, back1), (fwd2, back2) = adjacency(g1), adjacency(g2)
    colors1, colors2 = list(g1.state_distances()), list(g2.state_distances())
    for _ in range(n):
        table: dict = {}
        new1 = refine(colors1, fwd1, back1, table)
        new2 = refine(colors2, fwd2, back2, table)
        stable = len(set(new1)) == len(set(colors1)) and new1 == colors1
        colors1, colors2 = new1, new2
        if stable:
            break
    for d, (layer1, layer2) in enumerate(zip(g1.layers, g2.layers)):
        if Counter(colors1[v] for v in layer1) != Counter(colors2[v] for v in layer2):
            return False, d
    return True, None


def brute_force_isomorphic(g1: StatesGraph, g2: StatesGraph) -> bool:
    """Try every within-layer bijection; simple directed edges must correspond.

    Only for graphs whose layers are tiny: the cost is the product of the
    layer sizes' factorials.
    """
    if [len(layer) for layer in g1.layers] != [len(layer) for layer in g2.layers]:
        return False
    edges1 = {(e.src, e.dst) for e in g1.edges}
    edges2 = {(e.src, e.dst) for e in g2.edges}
    if len(edges1) != len(edges2):
        return False
    for choice in product(*(permutations(layer) for layer in g2.layers)):
        mapping = {}
        for layer1, image in zip(g1.layers, choice):
            mapping.update(zip(layer1, image))
        if all((mapping[a], mapping[b]) in edges2 for a, b in edges1):
            return True
    return False
