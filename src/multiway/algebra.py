"""Composing systems: sums, products, independence, binary reduction, identities."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

from .core import (
    Alphabet,
    MultiwaySystem,
    Rule,
    StatesGraph,
    _edge_rows,
    evolve,
    intern_token,
    render_glyphs,
)

SEED_TOKEN = "@seed"
# every size gets the exact search; only perfbench/tracing.py reads this name
BACKTRACK_NODE_LIMIT = float("inf")


def seed_symbol() -> str:
    """The reserved fresh symbol used as the initial state of every sum."""
    return intern_token(SEED_TOKEN)


def zero_system() -> MultiwaySystem:
    """The rule-less system sitting on the fresh seed symbol (sum identity)."""
    seed = seed_symbol()
    return MultiwaySystem(Alphabet((seed,)), (), seed)


def one_system() -> MultiwaySystem:
    """The empty-string system with no rules at all (product identity)."""
    return MultiwaySystem(Alphabet(()), (), "")


@dataclass(frozen=True)
class IndependenceVerdict:
    """Outcome of a rule-independence check.

    ``independent`` is decided structurally (disjoint alphabets);
    ``independent_up_to_horizon`` is the best a simulation can certify;
    ``dependent`` carries a witness layer when one is identifiable.
    """

    status: str  # "independent" | "independent_up_to_horizon" | "dependent"
    witness_layer: int | None = None

    @property
    def independent(self) -> bool:
        return self.status != "dependent"


@dataclass(frozen=True)
class CombinedSystem:
    """A composed system plus the provenance the combination law depends on."""

    system: MultiwaySystem
    kind: str  # "sum" | "product" | "reduced"
    operands: tuple[MultiwaySystem, ...]
    growth_law: str  # "exact" | "lower_bound"
    independence: IndependenceVerdict | None = None
    fresh_symbol: str | None = None
    translation: dict[str, str] | None = None


def _checked_seed(*operands: MultiwaySystem) -> str:
    """The seed symbol, once no operand uses a reserved symbol outside the sum shape.

    Sums of sums must be allowed (associativity!), so the seed may appear —
    but only in the shape the sum constructor emits: as the whole initial
    string and as the whole left-hand side of its expansion rules, never
    inside a right-hand side or a longer pattern.
    """
    seed = seed_symbol()
    for m in operands:
        for sym in m.alphabet:
            name = render_glyphs(sym)
            if not name.startswith("[@"):
                continue
            if sym != seed:
                raise ValueError(f"operand uses reserved symbol {name}")
            if m.init != seed:
                raise ValueError(f"operand embeds {name} outside the sum shape")
            for lhs, rhs in m.rules:
                if seed in rhs or (seed in lhs and lhs != seed):
                    raise ValueError(f"operand embeds {name} outside the sum shape")
    return seed


def _combined(
    system: MultiwaySystem, kind: str, m1: MultiwaySystem, m2: MultiwaySystem, horizon: int, **extra
) -> CombinedSystem:
    """``system`` as the ``kind`` of m1 and m2; its growth law is exact for independent rules."""
    verdict = check_rule_independence(m1, m2, horizon)
    growth_law = "exact" if verdict.independent else "lower_bound"
    return CombinedSystem(system, kind, (m1, m2), growth_law, independence=verdict, **extra)


def second_layer(system: MultiwaySystem) -> list[str]:
    """States at distance 1, in layer order: what the seed of a sum must expand to."""
    return evolve(system, 1).layer_strings(1)


def _s(m1: MultiwaySystem, m2: MultiwaySystem) -> MultiwaySystem:
    """The sum system alone: :func:`sum_systems` without its independence check."""
    seed = _checked_seed(m1, m2)
    targets = dict.fromkeys(second_layer(m1) + second_layer(m2))
    alphabet = Alphabet((seed,)).union(m1.alphabet).union(m2.alphabet)
    rules = m1.rules + m2.rules + tuple(Rule(seed, t) for t in targets)
    return MultiwaySystem(alphabet, rules, seed)


def _p(m1: MultiwaySystem, m2: MultiwaySystem) -> MultiwaySystem:
    """The product system alone: :func:`product_systems` without its independence check."""
    _checked_seed(m1, m2)
    return MultiwaySystem(m1.alphabet.union(m2.alphabet), m1.rules + m2.rules, m1.init + m2.init)


def sum_systems(
    m1: MultiwaySystem, m2: MultiwaySystem, independence_horizon: int = 4
) -> CombinedSystem:
    """Combine two systems so layer counts add (distances >= 1).

    The result starts from a reserved fresh symbol whose expansion rules
    reproduce the distance-1 states of m1 and then m2, in layer order; from
    there the two evolutions run side by side without interacting.  When the
    operands are not rule independent the construction still goes through
    but the addition law is only a lower bound, which ``growth_law`` records.
    """
    system = _s(m1, m2)
    return _combined(system, "sum", m1, m2, independence_horizon, fresh_symbol=render_glyphs(system.init))


def product_systems(
    m1: MultiwaySystem, m2: MultiwaySystem, independence_horizon: int = 4
) -> CombinedSystem:
    """Combine two systems so layer counts convolve.

    Initial state is the concatenation of the operands' initial states; the
    rule sets are merged.  Each state decomposes into an m1-part and an
    m2-part, so the states graph is the box product of the operand graphs.
    Same growth-law caveat as for sums.
    """
    return _combined(_p(m1, m2), "product", m1, m2, independence_horizon)


def check_rule_independence(
    m1: MultiwaySystem, m2: MultiwaySystem, horizon: int = 4
) -> IndependenceVerdict:
    """Do the two rule sets leave each other's evolutions untouched?

    Disjoint alphabets decide the question outright.  Otherwise each operand
    is evolved next to a merged-rules variant of itself: same initial
    string, its own rules first, then the other's.  Every state and simple
    edge of the operand's graph is also one of the merged graph's, so the
    two finite graphs, and their prefixes up to any layer, are isomorphic
    exactly when they are equal.  So the identity on state strings must
    carry the operand's graph onto the merged graph; the first layer where
    that map fails is the witness.  Exact at any size, but simulation only
    certifies independence up to the horizon; a truncated evolution raises
    ``ValueError``.
    """
    if horizon < 2:
        raise ValueError("independence horizon must be >= 2")
    if m1.alphabet.isdisjoint(m2.alphabet):
        return IndependenceVerdict("independent")
    for own, other in ((m1, m2), (m2, m1)):
        alphabet = own.alphabet.union(other.alphabet)
        merged = MultiwaySystem(alphabet, own.rules + other.rules, own.init)
        g = evolve(own, horizon)
        witness = _map_fails_at(g, evolve(merged, horizon), g.states)
        if witness is not None:
            return IndependenceVerdict("dependent", witness)
    return IndependenceVerdict("independent_up_to_horizon")


def _map_fails_at(g1: StatesGraph, g2: StatesGraph, images: list[str]) -> int | None:
    """The first layer where state v of g1 -> state ``images[v]`` of g2 fails.

    None when the map is a per-layer bijection carrying g1's simple edge set
    onto g2's (parallel rewrites collapse, as in :func:`layered_isomorphic`).
    Layer d fails when its sizes differ, when its states' images are not g2's
    states there, or when the images of the simple edges whose later endpoint
    lies in it are not g2's such edges.  O(V + E) time.  The edges are read
    as rows, g2's through the index that maps the images, and each layer's
    edges are held only until that layer is compared, so no :class:`Edge`
    is built and the memory is the states' plus a few layers' edges.
    Truncated graphs and graphs of different horizons raise ``ValueError``.
    """
    _require_comparable(g1, g2)
    index = {s: w for w, s in enumerate(g2.states)}
    phi = [index.get(s, -1) for s in images]  # -1: not a state of g2
    width = len(g2.states) + 1  # ids run from -1 to len - 1, so a key names one pair
    edges1 = _edges_by_later_layer(g1, phi, width)
    edges2 = _edges_by_later_layer(g2, range(width - 1), width, index)
    for d, (a, b, e1, e2) in enumerate(zip(g1.layers, g2.layers, edges1, edges2)):
        if len(a) != len(b) or {phi[v] for v in a} != set(b) or e1 != e2:
            return d
    return None


def _edges_by_later_layer(
    graph: StatesGraph,
    ids: Sequence[int],
    width: int,
    index: dict[str, int] | None = None,
) -> Iterator[set[int]]:
    """For each layer in turn, the keys ``ids[u] * width + ids[v]`` of the
    edges u -> v whose later endpoint lies in it.

    A row files at or after its source's layer, and :func:`_edge_rows`
    yields rows in the order of their sources' layers, so a layer is
    yielded, and dropped here, as soon as a row from a later source arrives.
    """
    dist = graph.state_distances()
    filed: list[set[int] | None] = [set() for _ in graph.layers]
    done = 0  # layers below this are yielded: no later row lands there
    for u, v, _, _ in _edge_rows(graph, index):
        du, dv = dist[u], dist[v]  # the later endpoint's; max() made the check 1.6x slower
        while done < du:
            yield filed[done]
            filed[done] = None
            done += 1
        filed[du if du > dv else dv].add(ids[u] * width + ids[v])
    for d in range(done, len(filed)):
        yield filed[d]
        filed[d] = None


# ---------------------------------------------------------------------------
# Binary reduction


def _codeword(index: int) -> str:
    # "ab" occurs only at codeword starts and "aa" only at boundaries, so a
    # translated pattern can never match except on whole codewords
    return "a" + "b" * index + "a"


def reduce_to_binary(m: MultiwaySystem) -> CombinedSystem:
    """Rewrite a system over the two-symbol alphabet {a, b}.

    The i-th alphabet symbol (1-indexed) becomes the codeword a·bⁱ·a; the
    initial string and every rule are translated symbol-wise.  Layer counts
    are preserved exactly and the states graphs are isomorphic through the
    translation.
    """
    code = {sym: _codeword(i) for i, sym in enumerate(m.alphabet, start=1)}

    def translate(s: str) -> str:
        return "".join(code[c] for c in s)

    system = MultiwaySystem(
        Alphabet(("a", "b")),
        tuple(Rule(translate(lhs), translate(rhs)) for lhs, rhs in m.rules),
        translate(m.init),
    )
    return CombinedSystem(
        system,
        "reduced",
        (m,),
        "exact",
        translation={render_glyphs(sym): cw for sym, cw in code.items()},
    )


# ---------------------------------------------------------------------------
# Layered graph isomorphism


def _simple_adjacency(graph: StatesGraph) -> tuple[list[set[int]], list[set[int]]]:
    fwd: list[set[int]] = [set() for _ in graph.states]
    back: list[set[int]] = [set() for _ in graph.states]
    for u, v, _, _ in _edge_rows(graph):
        fwd[u].add(v)
        back[v].add(u)
    return fwd, back


def _require_comparable(g1: StatesGraph, g2: StatesGraph) -> None:
    # a truncated graph lacks the edges its rolled-back layer found among the kept ones,
    # and so is short of layers: its truncation is the fault to report
    for g in (g1, g2):
        if g.truncated:
            raise ValueError(f"graph is truncated ({g.truncation_reason}); compare complete graphs")
    if len(g1.layers) != len(g2.layers):
        raise ValueError("graphs must be evolved to the same horizon")


def layered_isomorphic(g1: StatesGraph, g2: StatesGraph) -> tuple[bool, int | None]:
    """Isomorphism of layered states graphs, as simple directed graphs.

    Parallel rewrites between the same pair of states collapse to one edge —
    the comparison is about which states lead to which.  Colors start from
    the layer index and are refined jointly by in/out neighborhood multisets
    (1-dimensional Weisfeiler–Leman on sorted neighbour colours).  Every
    ``True`` comes from an exact backtracking search that draws each node's
    image from the successors of a mapped in-neighbour's image; it is
    exponential in the worst case, on graphs that refinement cannot separate
    (Cai, Fürer & Immerman 1992).  Returns (verdict, witness) where witness
    is a layer exhibiting a mismatch, when identifiable.  Truncated graphs
    and graphs of different horizons raise ``ValueError``.
    """
    _require_comparable(g1, g2)
    for d in range(len(g1.layers)):
        if len(g1.layers[d]) != len(g2.layers[d]):
            return False, d
    n = len(g1.states)

    fwd1, back1 = _simple_adjacency(g1)
    fwd2, back2 = _simple_adjacency(g2)
    dist1 = colors1 = g1.state_distances()
    colors2 = g2.state_distances()

    def refine(colors, fwd, back, table):
        key = colors.__getitem__
        return [
            table.setdefault((c, tuple(sorted(map(key, f))), tuple(sorted(map(key, b)))), len(table))
            for c, f, b in zip(colors, fwd, back)
        ]

    for _ in range(n):
        table: dict = {}
        new1 = refine(colors1, fwd1, back1, table)
        new2 = refine(colors2, fwd2, back2, table)
        stable = new1 == colors1
        colors1, colors2 = new1, new2
        if stable:
            break

    for d, (layer1, layer2) in enumerate(zip(g1.layers, g2.layers)):
        if sorted(colors1[v] for v in layer1) != sorted(colors2[v] for v in layer2):
            return False, d

    mapping = [-1] * n  # g1 node -> g2 node
    inverse = [-1] * n  # g2 node -> g1 node

    def consistent(v: int, w: int) -> bool:
        # mapped pairs must agree on adjacency in both directions
        for u in fwd1[v]:
            if mapping[u] != -1 and mapping[u] not in fwd2[w]:
                return False
        for u in back1[v]:
            if mapping[u] != -1 and mapping[u] not in back2[w]:
                return False
        for x in fwd2[w]:
            if inverse[x] != -1 and inverse[x] not in fwd1[v]:
                return False
        for x in back2[w]:
            if inverse[x] != -1 and inverse[x] not in back1[v]:
                return False
        return True

    def candidates(v: int):
        # an edge u -> v must land on mapping[u] -> w: no solution is lost
        pool = next((fwd2[mapping[u]] for u in back1[v] if mapping[u] != -1), g2.layers[dist1[v]])
        c = colors1[v]
        return (w for w in pool if colors2[w] == c)

    # isolated nodes have a colour of their own, paired off by the histograms
    order = [v for layer in g1.layers for v in layer if fwd1[v] or back1[v]]
    if not order:
        return True, None
    # depth-first search: level k of the stack tries the candidates for order[k]
    stack = [candidates(order[0])]
    while stack:
        v = order[len(stack) - 1]
        if mapping[v] != -1:  # back at this level: undo the choice that failed
            inverse[mapping[v]], mapping[v] = -1, -1
        for w in stack[-1]:
            if inverse[w] == -1 and consistent(v, w):
                mapping[v], inverse[w] = w, v
                break
        else:
            stack.pop()
            continue
        if len(stack) == len(order):
            return True, None
        stack.append(candidates(order[len(stack)]))
    return False, None


# ---------------------------------------------------------------------------
# Semiring identities


# identity -> builder of its (lhs, rhs) from the operands; the builder's
# parameter count is the identity's arity
_IDENTITIES = {
    "sum-comm": lambda a, b: (_s(a, b), _s(b, a)),
    "sum-assoc": lambda a, b, c: (_s(_s(a, b), c), _s(a, _s(b, c))),
    "sum-neutral": lambda a: (_s(a, zero_system()), a),
    "prod-comm": lambda a, b: (_p(a, b), _p(b, a)),
    "prod-assoc": lambda a, b, c: (_p(_p(a, b), c), _p(a, _p(b, c))),
    "prod-neutral": lambda a: (_p(a, one_system()), a),
    "distributivity": lambda a, b, c: (_p(a, _s(b, c)), _s(_p(a, b), _p(a, c))),
    "annihilation": lambda a: (_p(zero_system(), a), zero_system()),
}
SEMIRING_IDENTITIES = tuple(_IDENTITIES)


@dataclass(frozen=True)
class IdentityReport:
    """Verdict for one algebraic identity, checked up to a finite horizon.

    ``mode`` is ``"signature"`` for equal presentations, ``"isomorphism"``
    when the evolutions were compared.  ``proof`` says how: ``"map"`` when a
    proposed state map passed the per-layer check, ``"search"`` when
    :func:`layered_isomorphic` decided, and None for signature verdicts.
    """

    identity: str
    holds: bool
    mode: str  # "signature" | "isomorphism"
    horizon: int
    counterexample_layer: int | None = None
    proof: str | None = None  # "map" | "search" when mode is "isomorphism"


def _signature(m: MultiwaySystem):
    return frozenset(m.rules), m.init, frozenset(m.alphabet.symbols)


def verify_semiring_identity(
    identity: str, *operands: MultiwaySystem, horizon: int = 5
) -> IdentityReport:
    """Check one of the sum/product algebra identities on concrete operands.

    ``identity`` is one of ``SEMIRING_IDENTITIES``; its row of the identity
    table fixes its arity, the number of operands m1, m2, m3 it takes in that
    order.  Another name or another number of operands raises
    ``ValueError``.  Both sides are built from ``s`` and
    ``p``, the systems :func:`sum_systems` and :func:`product_systems` build,
    without the rule-independence checks no identity reads.  Equal
    presentations (same rule set, initial state and alphabet) certify the
    identity outright (mode ``"signature"``); otherwise the evolutions up to
    ``horizon`` are compared (mode ``"isomorphism"``).  For ``prod-comm`` on
    disjoint alphabets the construction names the isomorphism: a state
    ``x + y`` of ``p(m1, m2)``, with ``x`` its longest prefix over m1's
    symbols, goes to ``y + x``.  The per-layer check that decides rule
    independence verifies that map in O(V + E), and a map that passes is
    the proof (``proof="map"``).  Shared alphabets give no split point and a
    failed map proves nothing; both go to :func:`layered_isomorphic` on the
    same evolutions (``proof="search"``), exact at every size and
    exponential in the worst case.  Truncated evolutions raise
    ``ValueError`` on either path.
    Distributivity and annihilation are expected to fail; the neutral sum
    element is not absorbing under the product.  For distributivity the
    growth laws fix the gap: a sum counts ``[1] + (b_d + c_d)`` and a
    product convolves, so with exact laws the counts of
    ``s(p(m1, m2), p(m1, m3))`` minus those of ``p(m1, s(m2, m3))`` are
    m1's own counts from distance 1 on, and the graphs part at layer 1.
    """
    build = _IDENTITIES.get(identity)
    if build is None:
        raise ValueError(f"unknown identity {identity!r}")
    arity = build.__code__.co_argcount
    if len(operands) != arity:
        raise ValueError(f"{identity} takes {arity} operand(s), got {len(operands)}")
    lhs, rhs = build(*operands)
    if _signature(lhs) == _signature(rhs):
        return IdentityReport(identity, True, "signature", horizon)
    g1, g2 = evolve(lhs, horizon), evolve(rhs, horizon)
    if identity == "prod-comm" and operands[0].alphabet.isdisjoint(operands[1].alphabet):
        cut = "".join(operands[0].alphabet)
        tails = [s.lstrip(cut) for s in g1.states]
        swapped = [y + s[: len(s) - len(y)] for s, y in zip(g1.states, tails)]
        if _map_fails_at(g1, g2, swapped) is None:
            return IdentityReport(identity, True, "isomorphism", horizon, proof="map")
    ok, witness = layered_isomorphic(g1, g2)
    return IdentityReport(identity, ok, "isomorphism", horizon, witness, proof="search")
