from __future__ import annotations

import math
import sys

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import (
    HIGH_POOL,
    LOW_POOL,
    brute_force_isomorphic,
    pool_init,
    pool_rules,
    pool_system,
    reference_independence,
    reference_refinement,
)

from multiway import algebra, zoo
from multiway.algebra import (
    SEMIRING_IDENTITIES,
    IndependenceVerdict,
    check_rule_independence,
    layered_isomorphic,
    one_system,
    product_systems,
    reduce_to_binary,
    second_layer,
    seed_symbol,
    sum_systems,
    verify_semiring_identity,
    zero_system,
)
from multiway.core import Edge, Rule, StatesGraph, evolve, make_system, render_glyphs

# Fixed operands reused across tests: a shuffler whose B drifts while
# spawning As, a growing two-letter system, and a short branching cascade.
SYS_AB = make_system([("AB", "BA"), ("B", "AAB")], "AB")
SYS_CD = make_system([("CD", "CDD"), ("C", "CD")], "CDC")
SYS_BRANCH = make_system([("P", "Q"), ("Q", "R"), ("Q", "S")], "P")
SHUTTLE = make_system([("A", "AB"), ("AB", "BA")], "A")


def layer_counts(graph):
    return [len(layer) for layer in graph.layers]


def pointwise_sum(a: list[int], b: list[int]) -> list[int]:
    return [1] + [x + y for x, y in zip(a[1:], b[1:])]


def convolved(a: list[int], b: list[int]) -> list[int]:
    n = min(len(a), len(b))
    return [sum(a[k] * b[d - k] for k in range(d + 1)) for d in range(n)]


# ---------------------------------------------------------------------------
# second_layer / sum / product


def test_second_layer_of_doubling_system():
    assert second_layer(make_system([("A", "AB")], "AA")) == ["ABA", "AAB"]


def test_second_layer_of_ruleless_system():
    assert second_layer(one_system()) == []


def test_sum_adds_counts_from_distance_one():
    grower = make_system([("A", "AB")], "AA")
    constant = make_system([("C", "CC")], "C")
    combo = sum_systems(grower, constant)
    assert combo.kind == "sum"
    assert combo.growth_law == "exact"
    assert combo.fresh_symbol == "[@seed]"
    assert combo.system.init == seed_symbol()
    got = layer_counts(evolve(combo.system, 7))
    assert got == [1, 3, 4, 5, 6, 7, 8, 9]


def test_sum_matches_pointwise_oracle():
    h = 6
    a = layer_counts(evolve(SYS_AB, h))
    b = layer_counts(evolve(SYS_CD, h))
    combo = sum_systems(SYS_AB, SYS_CD)
    assert combo.independence.status == "independent"
    assert layer_counts(evolve(combo.system, h)) == pointwise_sum(a, b)


def test_sum_seed_rules_target_both_second_layers():
    combo = sum_systems(SYS_AB, SYS_CD)
    seed = seed_symbol()
    targets = [rhs for lhs, rhs in combo.system.rules if lhs == seed]
    assert targets == list(dict.fromkeys(second_layer(SYS_AB) + second_layer(SYS_CD)))


@settings(max_examples=60, deadline=None)
@given(rules1=pool_rules, init1=pool_init, rules2=pool_rules, init2=pool_init)
def test_sum_seed_rules_do_not_depend_on_interning_order(rules1, init1, rules2, init2):
    def seed_targets(pool):
        m1, m2 = pool_system(pool, rules1, init1), pool_system(pool, rules2, init2)
        rules = sum_systems(m1, m2, independence_horizon=2).system.rules
        return [render_glyphs(rhs) for lhs, rhs in rules if lhs == seed_symbol()]

    assert seed_targets(HIGH_POOL) == [t.replace("[lo", "[hi") for t in seed_targets(LOW_POOL)]


def test_product_counts_are_convolutions():
    ones_a = make_system([("A", "AB")], "A")
    ones_b = make_system([("C", "CD")], "C")
    combo = product_systems(ones_a, ones_b)
    assert combo.kind == "product"
    assert combo.system.init == "AC"
    assert layer_counts(evolve(combo.system, 8)) == list(range(1, 10))

    h = 6
    a = layer_counts(evolve(SYS_AB, h))
    b = layer_counts(evolve(SYS_BRANCH, h))
    prod = product_systems(SYS_AB, SYS_BRANCH)
    assert layer_counts(evolve(prod.system, h)) == convolved(a, b)


def test_product_graph_is_box_product():
    h = 4
    ga, gb = evolve(SHUTTLE, h), evolve(SYS_BRANCH, h)
    da, db = ga.state_distances(), gb.state_distances()
    # the expected-edge construction below assumes no back/cross edges
    assert all(da[e.dst] == da[e.src] + 1 for e in ga.edges)
    assert all(db[e.dst] == db[e.src] + 1 for e in gb.edges)

    gp = evolve(product_systems(SHUTTLE, SYS_BRANCH).system, h)
    for d in range(h + 1):
        expected = {
            sa + sb
            for i in range(d + 1)
            for sa in ga.layer_strings(i)
            for sb in gb.layer_strings(d - i)
        }
        assert set(gp.layer_strings(d)) == expected

    lifted: set[tuple[str, str]] = set()
    for e in ga.edges:
        for w, dw in zip(gb.states, db):
            if da[e.src] + dw < h:
                lifted.add((ga.states[e.src] + w, ga.states[e.dst] + w))
    for e in gb.edges:
        for u, du in zip(ga.states, da):
            if du + db[e.src] < h:
                lifted.add((u + gb.states[e.src], u + gb.states[e.dst]))
    got = {(gp.states[e.src], gp.states[e.dst]) for e in gp.edges}
    assert got == lifted


def test_sum_of_dependent_operands_is_a_lower_bound():
    m1 = make_system([("A", "B")], "A")
    m2 = make_system([("B", "A")], "B")
    combo = sum_systems(m1, m2)
    assert combo.growth_law == "lower_bound"
    assert combo.independence.status == "dependent"
    h = 4
    formula = pointwise_sum(
        layer_counts(evolve(m1, h)), layer_counts(evolve(m2, h))
    )
    got = layer_counts(evolve(combo.system, h))
    assert all(g >= f for g, f in zip(got, formula))


def test_sum_of_sums_composes():
    inner = sum_systems(SYS_AB, SYS_CD)
    outer = sum_systems(inner.system, SYS_BRANCH)
    h = 5
    a = layer_counts(evolve(SYS_AB, h))
    b = layer_counts(evolve(SYS_CD, h))
    c = layer_counts(evolve(SYS_BRANCH, h))
    got = layer_counts(evolve(outer.system, h))
    assert got == [1] + [x + y + z for x, y, z in zip(a[1:], b[1:], c[1:])]


def test_reserved_symbol_rejected_outside_sum_shape():
    impostor = make_system([("[@seed]", "A")], "[@seed]A")
    with pytest.raises(ValueError, match="sum shape"):
        sum_systems(impostor, SYS_CD)
    other = make_system([("[@mine]", "B")], "[@mine]")
    with pytest.raises(ValueError, match="reserved"):
        product_systems(SYS_AB, other)


# ---------------------------------------------------------------------------
# Rule independence


def test_disjoint_alphabets_are_independent_without_simulation():
    verdict = check_rule_independence(SYS_AB, SYS_CD)
    assert verdict.status == "independent"
    assert verdict.witness_layer is None
    assert verdict.independent


def test_swap_pair_is_dependent_with_witness():
    m1 = make_system([("A", "B")], "A")
    m2 = make_system([("B", "A")], "B")
    verdict = check_rule_independence(m1, m2, horizon=4)
    assert verdict.status == "dependent"
    assert not verdict.independent
    # the merged graph grows a back edge B -> A visible from depth 1 on
    assert verdict.witness_layer == 1


def test_shared_alphabet_can_still_be_independent():
    m1 = make_system([("A", "AB")], "A")
    m2 = make_system([("BA", "B")], "B")
    verdict = check_rule_independence(m1, m2, horizon=5)
    assert verdict.status == "independent_up_to_horizon"
    assert verdict.independent


def test_system_is_independent_of_itself():
    verdict = check_rule_independence(SHUTTLE, SHUTTLE)
    assert verdict.status == "independent_up_to_horizon"


def test_independence_horizon_must_be_at_least_two():
    with pytest.raises(ValueError):
        check_rule_independence(SYS_AB, SHUTTLE, horizon=1)


def test_independence_requires_matching_horizons(monkeypatch):
    # a state budget that truncates only the merged evolution leaves it short of layers
    monkeypatch.setattr(algebra, "evolve", lambda system, horizon: evolve(system, horizon, max_states=3))
    m1 = make_system([("A", "B")], "A")
    m2 = make_system([("B", "BB")], "B")
    with pytest.raises(ValueError, match="truncated.*more than 3 states"):
        check_rule_independence(m1, m2, horizon=4)


# Q -> Qa | Qb, and the same plus a -> b, which adds the edge Qa -> Qb inside
# layer 1.  Under a budget of 3 states both evolutions stop before layer 2,
# and the rollback of that layer drops the edge with it.
FORK = make_system([("Q", "Qa"), ("Q", "Qb")], "Q")
FORK_AB = make_system([("Q", "Qa"), ("Q", "Qb"), ("a", "b")], "Q")


def test_isomorphism_rejects_truncated_graphs():
    assert layered_isomorphic(evolve(FORK, 4), evolve(FORK_AB, 4)) == (False, 1)
    g1, g2 = evolve(FORK, 4, max_states=3), evolve(FORK_AB, 4, max_states=3)
    with pytest.raises(ValueError, match="truncated.*more than 3 states"):
        layered_isomorphic(g1, g2)


def test_isomorphism_reports_truncation_before_horizons():
    # the rollback leaves the truncated graph short of layers; the truncation is the fault
    g1, g2 = evolve(FORK, 4, max_states=3), evolve(FORK, 4)
    assert len(g1.layers) < len(g2.layers)
    with pytest.raises(ValueError, match="truncated.*more than 3 states"):
        layered_isomorphic(g1, g2)


def test_truncated_is_read_off_the_reason():
    complete = StatesGraph(SHUTTLE, ["A"], [[0]], [])
    assert complete.truncated is False
    cut = StatesGraph(SHUTTLE, ["A"], [[0]], [], "more than 1 states while building layer 1")
    assert cut.truncated is True
    with pytest.raises(AttributeError):
        cut.truncated = False
    with pytest.raises(ValueError, match="truncated.*more than 1 states"):
        algebra._require_complete(complete, cut)


def test_independence_rejects_truncated_graphs(monkeypatch):
    a_to_b = make_system([("a", "b")], "a")
    assert check_rule_independence(FORK, a_to_b, horizon=4) == IndependenceVerdict("dependent", 1)
    monkeypatch.setattr(algebra, "evolve", lambda system, horizon: evolve(system, horizon, max_states=3))
    with pytest.raises(ValueError, match="truncated.*more than 3 states"):
        check_rule_independence(FORK, a_to_b, horizon=4)


# ---------------------------------------------------------------------------
# Layered graph isomorphism


def test_relabelled_systems_are_isomorphic():
    g1 = evolve(make_system([("A", "AB")], "A"), 4)
    g2 = evolve(make_system([("C", "CD")], "C"), 4)
    assert layered_isomorphic(g1, g2) == (True, None)


def test_extra_back_edge_breaks_isomorphism():
    g1 = evolve(make_system([("A", "B")], "A"), 3)
    g2 = evolve(make_system([("A", "B"), ("B", "A")], "A"), 3)
    ok, _ = layered_isomorphic(g1, g2)
    assert not ok


def test_isomorphism_requires_matching_horizons():
    g = evolve(SHUTTLE, 3)
    with pytest.raises(ValueError):
        layered_isomorphic(g, evolve(SHUTTLE, 4))


def test_empty_tail_graphs_are_isomorphic():
    g = evolve(one_system(), 3)
    assert layered_isomorphic(g, evolve(one_system(), 3)) == (True, None)


# P and E of the algebra benchmark: P x E at horizon 10 has 8,100 states.
SYS_P = make_system([("A", "AB")], "AA")
SYS_E = make_system([("Q", "Qx"), ("Q", "Qy")], "Q")


def test_deep_search_does_not_touch_the_recursion_limit(monkeypatch):
    # P x E at horizon 10: the exact search goes one level deep per state,
    # far past the default recursion limit
    def refuse(limit):
        raise AssertionError("the search must not need a higher recursion limit")

    g1 = evolve(product_systems(SYS_P, SYS_E).system, 10)
    g2 = evolve(product_systems(SYS_E, SYS_P).system, 10)
    assert sys.getrecursionlimit() < len(g1.states)
    monkeypatch.setattr(sys, "setrecursionlimit", refuse)
    assert layered_isomorphic(g1, g2) == (True, None)


def _cycle_and_hub(cycle):
    """A root over seven nodes: six joined by ``cycle``, and a hub with 10,000 leaves."""
    leaves = range(8, 10_008)
    edges = [Edge(0, v, 0, 0) for v in range(1, 8)]
    edges += [Edge(u, v, 0, 0) for u, v in cycle]
    edges += [Edge(7, v, 0, 0) for v in leaves]
    return StatesGraph(SHUTTLE, [str(i) for i in range(10_008)], [[0], list(range(1, 8)), list(leaves)], edges)


def test_search_is_exact_past_ten_thousand_nodes():
    # colour refinement cannot tell a 6-cycle from two 3-cycles; only the
    # exact search can, at this size as at any other
    six = _cycle_and_hub([(i, i % 6 + 1) for i in range(1, 7)])
    two_threes = _cycle_and_hub([(1, 2), (2, 3), (3, 1), (4, 5), (5, 6), (6, 4)])
    assert reference_refinement(six, two_threes) == (True, None)
    assert layered_isomorphic(six, two_threes) == (False, None)


def test_isolated_nodes_pair_off_without_search():
    # without edges every state is isolated: 88,573 of them at horizon 10
    g1 = evolve(zoo.exponential(3), 10, record_edges=False)
    g2 = evolve(zoo.exponential(3), 10, record_edges=False)
    assert layered_isomorphic(g1, g2) == (True, None)


_ab = st.sampled_from("AB")
_ab_rules = st.lists(
    st.tuples(st.text(alphabet=_ab, min_size=1, max_size=2), st.text(alphabet=_ab, max_size=3)),
    min_size=1,
    max_size=3,
)
_ab_init = st.text(alphabet=_ab, min_size=1, max_size=3)
_SWAP_AB = str.maketrans("AB", "BA")


def _variant(rules, init, kind, extra_rule, other_init):
    """A relabelled copy (same graph up to isomorphism) or a perturbed one."""
    if kind == "relabel":
        return [(l.translate(_SWAP_AB), r.translate(_SWAP_AB)) for l, r in rules], init.translate(_SWAP_AB)
    if kind == "reverse":
        return rules[::-1], init
    if kind == "drop":
        return rules[1:] or [extra_rule], init
    if kind == "add":
        return rules + [extra_rule], init
    return rules, other_init


_pair = st.tuples(
    _ab_rules,
    _ab_init,
    st.sampled_from(["relabel", "reverse", "drop", "add", "init"]),
    st.tuples(st.text(alphabet=_ab, min_size=1, max_size=2), st.text(alphabet=_ab, max_size=3)),
    _ab_init,
    st.none() | st.tuples(st.integers(0, 999), st.integers(0, 999)),
)


def _rewired(graph, edge_pick, target_pick):
    """The graph with one edge moved onto another target: layer sizes stay,
    the structure usually does not."""
    if not graph.edges:
        return graph
    edges = list(graph.edges)
    i = edge_pick % len(edges)
    edges[i] = edges[i]._replace(dst=target_pick % len(graph.states))
    return StatesGraph(graph.system, graph.states, graph.layers, edges)


def _graph_pair(pair, horizon, max_states):
    rules, init, kind, extra_rule, other_init, rewire = pair
    rules2, init2 = _variant(rules, init, kind, extra_rule, other_init)
    g1 = evolve(make_system(rules, init, alphabet="AB"), horizon, max_states=max_states)
    g2 = evolve(make_system(rules2, init2, alphabet="AB"), horizon, max_states=max_states)
    assume(not g1.truncated and not g2.truncated)
    return g1, g2 if rewire is None else _rewired(g2, *rewire)


def _bijections(graph) -> int:
    return math.prod(math.factorial(len(layer)) for layer in graph.layers)


@settings(max_examples=300, deadline=None)
@given(pair=_pair, horizon=st.integers(2, 5))
def test_refinement_matches_counter_reference(pair, horizon):
    # a refutation by refinement carries the Counter-signature reference's
    # witness layer; past refinement, the exact search decides with no
    # witness, and agrees with the brute force where that is affordable
    g1, g2 = _graph_pair(pair, horizon, 400)
    passed, layer = reference_refinement(g1, g2)
    ok, witness = layered_isomorphic(g1, g2)
    if not passed:
        assert (ok, witness) == (False, layer)
    else:
        assert witness is None
        if _bijections(g1) <= 5_000:
            assert ok == brute_force_isomorphic(g1, g2)


@settings(max_examples=300, deadline=None)
@given(pair=_pair, horizon=st.integers(2, 4))
def test_verdict_matches_brute_force_over_layer_bijections(pair, horizon):
    g1, g2 = _graph_pair(pair, horizon, 40)
    assume(_bijections(g1) <= 5_000)
    exact = brute_force_isomorphic(g1, g2)
    assert layered_isomorphic(g1, g2)[0] == exact
    if exact:  # refinement never separates isomorphic graphs
        assert reference_refinement(g1, g2) == (True, None)


# ---------------------------------------------------------------------------
# Binary reduction


def test_reduce_to_binary_worked_example():
    combo = reduce_to_binary(make_system([("A", "AB")], "AA"))
    assert combo.kind == "reduced"
    assert combo.system.rules == (Rule("aba", "abaabba"),)
    assert combo.system.init == "abaaba"
    assert combo.system.alphabet.glyphs == ("a", "b")
    assert combo.translation == {"A": "aba", "B": "abba"}


def _codeword_boundaries(state: str) -> set[int]:
    """Greedy decode of a concatenation of a·b^i·a codewords."""
    cuts = {0}
    i = 0
    while i < len(state):
        assert state[i] == "a", state
        j = i + 1
        while state[j] == "b":
            j += 1
        assert state[j] == "a", state
        i = j + 1
        cuts.add(i)
    return cuts


def _assert_reduction_faithful(m, horizon):
    combo = reduce_to_binary(m)
    translate = combo.translation
    g = evolve(m, horizon)
    gr = evolve(combo.system, horizon)
    for d in range(horizon + 1):
        expected = {
            "".join(translate[render_glyphs(c)] for c in s)
            for s in g.layer_strings(d)
        }
        assert set(gr.layer_strings(d)) == expected
    images = {
        (
            "".join(translate[render_glyphs(c)] for c in g.states[e.src]),
            "".join(translate[render_glyphs(c)] for c in g.states[e.dst]),
        )
        for e in g.edges
    }
    assert {(gr.states[e.src], gr.states[e.dst]) for e in gr.edges} == images
    # no translated pattern may ever match off the codeword grid
    for state in gr.states:
        cuts = _codeword_boundaries(state)
        for lhs, _ in combo.system.rules:
            p = state.find(lhs)
            while p != -1:
                assert p in cuts and p + len(lhs) in cuts
                p = state.find(lhs, p + 1)


def test_reduction_preserves_graph_and_respects_boundaries():
    _assert_reduction_faithful(SYS_AB, 5)
    _assert_reduction_faithful(SYS_BRANCH, 4)


def test_reduction_handles_bracketed_tokens():
    m = make_system([("[on]", "[on][off]")], "[on]")
    combo = reduce_to_binary(m)
    assert combo.translation == {"[on]": "aba", "[off]": "abba"}
    assert layer_counts(evolve(combo.system, 5)) == layer_counts(evolve(m, 5))


def test_reduction_of_empty_system():
    combo = reduce_to_binary(one_system())
    assert combo.system.init == ""
    assert combo.system.rules == ()
    assert combo.system.alphabet.glyphs == ("a", "b")


_sym = st.sampled_from("ABC")
_word = st.text(alphabet=_sym, min_size=0, max_size=3)
_lhs = st.text(alphabet=_sym, min_size=1, max_size=2)


@settings(max_examples=60, deadline=None)
@given(
    rules=st.lists(st.tuples(_lhs, _word), min_size=1, max_size=3),
    init=st.text(alphabet=_sym, min_size=1, max_size=3),
)
def test_reduction_faithful_on_random_systems(rules, init):
    m = make_system(rules, init)
    g = evolve(m, 4, max_states=2_000)
    assume(not g.truncated)
    _assert_reduction_faithful(m, 4)


@settings(max_examples=200, deadline=None)
@given(
    rules1=st.lists(st.tuples(_lhs, _word), min_size=1, max_size=3),
    init1=st.text(alphabet=_sym, min_size=1, max_size=3),
    rules2=st.lists(st.tuples(_lhs, _word), min_size=1, max_size=3),
    init2=st.text(alphabet=_sym, min_size=1, max_size=3),
    horizon=st.integers(2, 5),
)
def test_independence_matches_isomorphism_reference(rules1, init1, rules2, init2, horizon):
    # one shared alphabet, so the verdict always comes from simulation
    m1 = make_system(rules1, init1, alphabet="ABC")
    m2 = make_system(rules2, init2, alphabet="ABC")
    verdict = check_rule_independence(m1, m2, horizon)
    assert (verdict.status, verdict.witness_layer) == reference_independence(m1, m2, horizon)


# ---------------------------------------------------------------------------
# Sum/product laws on random independent pairs

_left_rules = st.lists(
    st.tuples(
        st.text(alphabet=st.sampled_from("AB"), min_size=1, max_size=2),
        st.text(alphabet=st.sampled_from("AB"), min_size=2, max_size=3),
    ),
    min_size=1,
    max_size=2,
)
_right_rules = st.lists(
    st.tuples(
        st.text(alphabet=st.sampled_from("XY"), min_size=1, max_size=2),
        st.text(alphabet=st.sampled_from("XY"), min_size=2, max_size=3),
    ),
    min_size=1,
    max_size=2,
)


@settings(max_examples=40, deadline=None)
@given(
    r1=_left_rules,
    i1=st.text(alphabet=st.sampled_from("AB"), min_size=1, max_size=2),
    r2=_right_rules,
    i2=st.text(alphabet=st.sampled_from("XY"), min_size=1, max_size=2),
)
def test_growth_laws_on_disjoint_pairs(r1, i1, r2, i2):
    # keep every right side strictly longer than its left side, so no state
    # is ever revisited and the combination laws are exact
    assume(all(len(rhs) > len(lhs) for lhs, rhs in r1 + r2))
    m1, m2 = make_system(r1, i1), make_system(r2, i2)
    h = 5
    g1 = evolve(m1, h, max_states=3_000)
    g2 = evolve(m2, h, max_states=3_000)
    assume(not (g1.truncated or g2.truncated))
    a, b = layer_counts(g1), layer_counts(g2)

    total = sum_systems(m1, m2)
    assert total.growth_law == "exact"
    assert layer_counts(evolve(total.system, h, max_states=20_000)) == pointwise_sum(a, b)

    prod = product_systems(m1, m2)
    gp = evolve(prod.system, h, max_states=60_000)
    assume(not gp.truncated)
    assert layer_counts(gp) == convolved(a, b)


# ---------------------------------------------------------------------------
# Semiring identities


def test_identity_catalogue_is_complete():
    assert set(SEMIRING_IDENTITIES) == {
        "sum-comm",
        "sum-assoc",
        "sum-neutral",
        "prod-comm",
        "prod-assoc",
        "prod-neutral",
        "distributivity",
        "annihilation",
    }


# every identity with its operand count, in catalogue order
IDENTITY_ARITY = {
    "sum-comm": 2,
    "sum-assoc": 3,
    "sum-neutral": 1,
    "prod-comm": 2,
    "prod-assoc": 3,
    "prod-neutral": 1,
    "distributivity": 3,
    "annihilation": 1,
}


def test_identity_catalogue_order():
    assert SEMIRING_IDENTITIES == tuple(IDENTITY_ARITY)


def test_unknown_identity_is_rejected():
    with pytest.raises(ValueError, match="^unknown identity 'sum-inverse'$"):
        verify_semiring_identity("sum-inverse", SYS_AB)


# one operand too few or too many, as far as m1 (required) and m3 (last) allow
@pytest.mark.parametrize(
    "identity, given",
    [(i, n) for i, arity in IDENTITY_ARITY.items() for n in (arity - 1, arity + 1) if 1 <= n <= 3],
)
def test_identity_operand_count_is_checked(identity, given):
    operands = (SYS_AB, SYS_CD, SYS_BRANCH)[:given]
    message = rf"^{identity} takes {IDENTITY_ARITY[identity]} operand\(s\), got {given}$"
    with pytest.raises(ValueError, match=message):
        verify_semiring_identity(identity, *operands)


def test_sum_commutes_by_signature():
    report = verify_semiring_identity("sum-comm", SYS_AB, SYS_CD)
    assert report.holds and report.mode == "signature"


def test_sum_associates_by_signature():
    report = verify_semiring_identity("sum-assoc", SYS_AB, SYS_CD, SYS_BRANCH)
    assert report.holds and report.mode == "signature"


def test_sum_neutral_element_up_to_isomorphism():
    report = verify_semiring_identity("sum-neutral", SYS_AB)
    assert report.holds and report.mode == "isomorphism"


def test_product_commutes_up_to_isomorphism():
    report = verify_semiring_identity("prod-comm", SHUTTLE, SYS_BRANCH)
    assert report.holds and report.mode == "isomorphism"
    assert report.proof == "map"


def _swapped(states, m1):
    cut = "".join(m1.alphabet)
    return [s.lstrip(cut) + s[: len(s) - len(s.lstrip(cut))] for s in states]


def test_swap_map_checker_rejects_the_identity_map():
    g1 = evolve(product_systems(SYS_P, SYS_E).system, 10)
    g2 = evolve(product_systems(SYS_E, SYS_P).system, 10)
    assert len(g1.states) == 8_100
    assert algebra._map_is_isomorphism(g1, g2, _swapped(g1.states, SYS_P))
    assert not algebra._map_is_isomorphism(g1, g2, list(g1.states))


def _hand_graph(states, layers, edges):
    return StatesGraph(SHUTTLE, list(states), layers, [Edge(u, v, 0, 0) for u, v in edges])


# Each case breaks exactly one condition of the check; images are state strings, as the swap gives.
_WRONG_MAPS = {
    # a per-layer bijection carrying every edge but one
    "one edge differs": (
        _hand_graph("rab", [[0], [1, 2]], [(0, 1), (0, 2), (1, 2)]),
        _hand_graph("rab", [[0], [1, 2]], [(0, 1), (0, 2), (2, 1)]),
        "rab",
    ),
    # a rotation of a 3-cycle carries the edge set onto itself but not the layers
    "layer moves": (
        _hand_graph("abc", [[0], [1], [2]], [(0, 1), (1, 2), (2, 0)]),
        _hand_graph("abc", [[0], [1], [2]], [(0, 1), (1, 2), (2, 0)]),
        "bca",
    ),
    # into g2, not onto it
    "layer sizes differ": (
        _hand_graph("ra", [[0], [1]], [(0, 1)]),
        _hand_graph("rab", [[0], [1, 2]], [(0, 1)]),
        "ra",
    ),
    "two states share an image": (
        _hand_graph("rab", [[0], [1, 2]], [(0, 1)]),
        _hand_graph("rab", [[0], [1, 2]], [(0, 1)]),
        "raa",
    ),
    "image is not a state": (
        _hand_graph("rab", [[0], [1, 2]], [(0, 1)]),
        _hand_graph("rab", [[0], [1, 2]], [(0, 1)]),
        "rac",
    ),
}


@pytest.mark.parametrize("case", list(_WRONG_MAPS))
def test_swap_map_checker_rejects_wrong_maps(case):
    g1, g2, images = _WRONG_MAPS[case]
    assert algebra._map_is_isomorphism(g2, g2, list(g2.states))
    assert not algebra._map_is_isomorphism(g1, g2, list(images))


def test_failed_map_falls_back_to_the_search_on_the_same_graphs(monkeypatch):
    calls = []

    def counted(system, horizon):
        calls.append(system)
        return evolve(system, horizon)

    monkeypatch.setattr(algebra, "evolve", counted)
    monkeypatch.setattr(algebra, "_map_is_isomorphism", lambda g1, g2, images: False)
    report = verify_semiring_identity("prod-comm", SHUTTLE, SYS_BRANCH)
    assert (report.holds, report.mode, report.proof) == (True, "isomorphism", "search")
    assert len(calls) == 2


@settings(max_examples=150, deadline=None)
@given(
    rules1=pool_rules,
    init1=pool_init,
    rules2=pool_rules,
    init2=pool_init,
    shared=st.booleans(),
    horizon=st.integers(1, 3),
)
def test_prod_comm_agrees_with_the_search_and_brute_force(rules1, init1, rules2, init2, shared, horizon):
    # disjoint pools are proven by the swap map; a shared pool has no split
    # point and goes to the search
    a = pool_system(LOW_POOL, rules1, init1)
    b = pool_system(LOW_POOL if shared else HIGH_POOL, rules2, init2)
    g1 = evolve(product_systems(a, b).system, horizon, max_states=300)
    g2 = evolve(product_systems(b, a).system, horizon, max_states=300)
    assume(not g1.truncated and not g2.truncated)
    report = verify_semiring_identity("prod-comm", a, b, horizon=horizon)
    if report.mode == "signature":  # equal presentations, as when a == b
        assert report.holds and report.proof is None
        return
    assert report.mode == "isomorphism"
    if not a.alphabet.isdisjoint(b.alphabet):
        assert report.proof == "search"
        assert (report.holds, report.counterexample_layer) == layered_isomorphic(g1, g2)
        return
    if _bijections(g1) <= 5_000:
        assert report.holds == brute_force_isomorphic(g1, g2)
    assert report.holds and report.proof == "map"
    if len(g1.states) > 1:
        budget = len(g1.states) - 1
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(algebra, "evolve", lambda system, h: evolve(system, h, max_states=budget))
            with pytest.raises(ValueError, match="truncated"):
                verify_semiring_identity("prod-comm", a, b, horizon=horizon)


def test_product_associates_by_signature():
    report = verify_semiring_identity("prod-assoc", SYS_AB, SYS_CD, SYS_BRANCH)
    assert report.holds and report.mode == "signature"


def test_product_neutral_element_by_signature():
    report = verify_semiring_identity("prod-neutral", SYS_AB)
    assert report.holds and report.mode == "signature"


def test_distributivity_fails_at_first_layer():
    report = verify_semiring_identity("distributivity", SYS_AB, SYS_CD, SYS_BRANCH)
    assert not report.holds
    assert report.mode == "isomorphism"
    assert report.counterexample_layer == 1


def test_annihilation_fails_at_first_layer():
    report = verify_semiring_identity("annihilation", SYS_AB)
    assert not report.holds
    assert report.counterexample_layer == 1


def test_identity_arity_is_checked():
    with pytest.raises(ValueError):
        verify_semiring_identity("sum-comm", SYS_AB)
    with pytest.raises(ValueError):
        verify_semiring_identity("no-such-identity", SYS_AB)


def test_neutral_constants():
    zero = zero_system()
    assert zero.init == seed_symbol() and zero.rules == ()
    one = one_system()
    assert one.init == "" and one.rules == () and len(one.alphabet) == 0
