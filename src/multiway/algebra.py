"""Composing systems: sums, products, independence, binary reduction, identities."""

from __future__ import annotations

from dataclasses import dataclass

from .core import (
    Alphabet,
    MultiwaySystem,
    Rule,
    StatesGraph,
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
    seed = _checked_seed(m1, m2)
    targets = dict.fromkeys(second_layer(m1) + second_layer(m2))
    alphabet = Alphabet((seed,)).union(m1.alphabet).union(m2.alphabet)
    rules = m1.rules + m2.rules + tuple(Rule(seed, t) for t in targets)
    system = MultiwaySystem(alphabet, rules, seed)
    return _combined(system, "sum", m1, m2, independence_horizon, fresh_symbol=render_glyphs(seed))


def product_systems(
    m1: MultiwaySystem, m2: MultiwaySystem, independence_horizon: int = 4
) -> CombinedSystem:
    """Combine two systems so layer counts convolve.

    Initial state is the concatenation of the operands' initial states; the
    rule sets are merged.  Each state decomposes into an m1-part and an
    m2-part, so the states graph is the box product of the operand graphs.
    Same growth-law caveat as for sums.
    """
    _checked_seed(m1, m2)
    system = MultiwaySystem(
        m1.alphabet.union(m2.alphabet), m1.rules + m2.rules, m1.init + m2.init
    )
    return _combined(system, "product", m1, m2, independence_horizon)


def check_rule_independence(
    m1: MultiwaySystem, m2: MultiwaySystem, horizon: int = 4
) -> IndependenceVerdict:
    """Do the two rule sets leave each other's evolutions untouched?

    Disjoint alphabets decide the question outright.  Otherwise each operand
    is evolved next to a merged-rules variant of itself: same initial
    string, its own rules first, then the other's.  Every state and simple
    edge of the operand's graph is also one of the merged graph's, so the
    two finite graphs are isomorphic exactly when they are equal, and so are
    their prefixes up to any layer.  The check therefore compares, layer by
    layer, the set of states plus the (source, target) string pairs whose
    later endpoint lies in that layer; the first layer that differs is the
    witness.  This is exact at any size, but simulation can only ever
    certify independence up to the horizon, and an evolution its budget
    truncates raises ``ValueError``.
    """
    if horizon < 2:
        raise ValueError("independence horizon must be >= 2")
    if m1.alphabet.isdisjoint(m2.alphabet):
        return IndependenceVerdict("independent")
    for own, other in ((m1, m2), (m2, m1)):
        merged = MultiwaySystem(
            own.alphabet.union(other.alphabet), own.rules + other.rules, own.init
        )
        ga, gm = evolve(own, horizon), evolve(merged, horizon)
        _require_complete(ga, gm)
        for d, (a, m) in enumerate(zip(_layer_contents(ga), _layer_contents(gm))):
            if a != m:
                return IndependenceVerdict("dependent", d)
    return IndependenceVerdict("independent_up_to_horizon")


def _layer_contents(graph: StatesGraph) -> list[set]:
    """Per layer, its states plus the simple edges whose later endpoint lies in it."""
    states, dist = graph.states, graph.state_distances()
    contents: list[set] = [{states[v] for v in layer} for layer in graph.layers]
    for e in graph.edges:
        contents[max(dist[e.src], dist[e.dst])].add((states[e.src], states[e.dst]))
    return contents


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
    for e in graph.edges:
        fwd[e.src].add(e.dst)
        back[e.dst].add(e.src)
    return fwd, back


def _require_complete(*graphs: StatesGraph) -> None:
    # a truncated graph lacks the edges its rolled-back layer found among the kept ones
    for g in graphs:
        if g.truncated:
            raise ValueError(f"graph is truncated ({g.truncation_reason}); compare complete graphs")


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
    raise ``ValueError``.
    """
    _require_complete(g1, g2)
    if len(g1.layers) != len(g2.layers):
        raise ValueError("graphs must be evolved to the same horizon")
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


def _s(a: MultiwaySystem, b: MultiwaySystem) -> MultiwaySystem:
    return sum_systems(a, b).system


def _p(a: MultiwaySystem, b: MultiwaySystem) -> MultiwaySystem:
    return product_systems(a, b).system


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

    ``proof`` says how an ``"isomorphism"`` verdict was reached: ``"map"``
    when a proposed state map passed its check, ``"search"`` when
    :func:`layered_isomorphic` decided.  It is None for signature verdicts.
    """

    identity: str
    holds: bool
    mode: str  # "signature" | "isomorphism"
    horizon: int
    counterexample_layer: int | None = None
    proof: str | None = None  # "map" | "search" when mode is "isomorphism"


def _signature(m: MultiwaySystem):
    return frozenset(m.rules), m.init, frozenset(m.alphabet.symbols)


def _map_is_isomorphism(g1: StatesGraph, g2: StatesGraph, images: list[str]) -> bool:
    """Does state v of g1 -> state ``images[v]`` of g2 carry g1 onto g2?

    True only when the layers have the same sizes, every image is a state of
    g2 in its preimage's layer, no two states share an image, and the map
    sends the simple edge set of g1 onto that of g2 (parallel rewrites
    collapse, as in :func:`layered_isomorphic`).  O(V + E).
    """
    if [len(layer) for layer in g1.layers] != [len(layer) for layer in g2.layers]:
        return False
    index = {s: i for i, s in enumerate(g2.states)}
    phi = [index.get(s, -1) for s in images]
    dist2 = g2.state_distances()
    if any(w == -1 or dist2[w] != d for w, d in zip(phi, g1.state_distances())):
        return False
    if len(set(phi)) != len(phi):
        return False
    return {(phi[e.src], phi[e.dst]) for e in g1.edges} == {(e.src, e.dst) for e in g2.edges}


def verify_semiring_identity(
    identity: str,
    m1: MultiwaySystem,
    m2: MultiwaySystem | None = None,
    m3: MultiwaySystem | None = None,
    horizon: int = 5,
) -> IdentityReport:
    """Check one of the sum/product algebra identities on concrete operands.

    ``identity`` is one of ``SEMIRING_IDENTITIES``; its row of the identity
    table fixes its arity, so it takes exactly m1, m1 and m2, or all three.
    Another name, or another number of operands, raises ``ValueError``.
    Both sides are built from ``s`` (:func:`sum_systems`) and ``p``
    (:func:`product_systems`), then compared: syntactically equal
    presentations (same rule set, initial state, and alphabet) certify the
    identity outright; otherwise the two evolutions are compared for layered
    graph isomorphism up to ``horizon``: mode ``"isomorphism"``.  For
    ``prod-comm`` on operands with disjoint alphabets the construction names
    the isomorphism: a state ``x + y`` of ``p(m1, m2)``, with ``x`` its
    longest prefix over m1's symbols, goes to ``y + x``.  That map is
    checked in O(V + E) (a per-layer bijection of states carrying the simple
    edge set onto the simple edge set) and, when it passes, is the proof
    (``proof="map"``).  Shared alphabets give no unambiguous split point,
    and a map that fails its check proves nothing; both go to
    :func:`layered_isomorphic` on the same two evolutions
    (``proof="search"``), exact at every size and exponential in the worst
    case.  Truncated evolutions raise ``ValueError`` on either path.
    Distributivity and annihilation are expected to fail.  The neutral sum
    element is not absorbing under the product.  For distributivity the
    growth laws fix the gap: a sum counts ``[1] + (b_d + c_d)`` and a product
    convolves, so with exact laws the counts of ``s(p(m1, m2), p(m1, m3))``
    minus those of ``p(m1, s(m2, m3))`` are m1's own counts from distance 1
    on, and the graphs part at layer 1.
    """
    build = _IDENTITIES.get(identity)
    if build is None:
        raise ValueError(f"unknown identity {identity!r}")
    arity, got = build.__code__.co_argcount, 1 + (m2 is not None) + (m3 is not None)
    if got != arity:
        raise ValueError(f"{identity} takes {arity} operand(s), got {got}")
    lhs, rhs = build(*(m1, m2, m3)[:arity])
    if _signature(lhs) == _signature(rhs):
        return IdentityReport(identity, True, "signature", horizon)
    g1, g2 = evolve(lhs, horizon), evolve(rhs, horizon)
    if identity == "prod-comm" and m1.alphabet.isdisjoint(m2.alphabet):
        _require_complete(g1, g2)
        cut = "".join(m1.alphabet)
        tails = [s.lstrip(cut) for s in g1.states]
        swapped = [y + s[: len(s) - len(y)] for s, y in zip(g1.states, tails)]
        if _map_is_isomorphism(g1, g2, swapped):
            return IdentityReport(identity, True, "isomorphism", horizon, proof="map")
    ok, witness = layered_isomorphic(g1, g2)
    return IdentityReport(identity, ok, "isomorphism", horizon, witness, proof="search")
