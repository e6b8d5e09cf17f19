from __future__ import annotations

import logging
import os
import subprocess
import sys
import tracemalloc
from dataclasses import FrozenInstanceError
from itertools import accumulate
from pathlib import Path

import pytest
from conftest import (
    HIGH_POOL,
    LOW_POOL,
    naive_layers,
    naive_successors,
    pool_init,
    pool_rules,
    pool_system,
    reference_rewrite_groups,
    window_rule,
    window_state,
)
from hypothesis import event, given, settings
from hypothesis import strategies as st

from multiway import core, zoo
from multiway.algebra import _map_fails_at, layered_isomorphic
from multiway.core import (
    Edge,
    GlyphError,
    MultiwaySystem,
    Rule,
    StatesGraph,
    evolve,
    export_dot,
    growth_series,
    make_system,
    parse_glyphs,
    render_glyphs,
    successors,
)


def test_parse_glyphs_round_trip():
    encoded = parse_glyphs("AB[fwd]C[q12]")
    assert len(encoded) == 5
    assert render_glyphs(encoded) == "AB[fwd]C[q12]"
    # interning is stable: same token name, same character
    assert parse_glyphs("[fwd]") == encoded[2]


def test_token_table_holds_6400_names_and_frees_none():
    # in a child process, so this suite's own table is untouched
    code = (
        "from multiway.core import GlyphError, intern_token, parse_glyphs, render_glyphs\n"
        "chars = []\n"
        "try:\n"
        "    while True:\n"
        "        chars.append(intern_token(f'n{len(chars)}'))\n"
        "except GlyphError as e:\n"
        "    assert str(e) == 'token table exhausted', e\n"
        "assert ord(chars[0]) >= 0xE000 and ord(chars[-1]) == 0xF8FF\n"
        "assert ord(chars[-1]) - 0xE000 + 1 == 6400\n"
        "assert [intern_token(f'n{i}') for i in range(len(chars))] == chars\n"
        "text = f'[n0][n{len(chars) - 1}]'\n"
        "assert render_glyphs(parse_glyphs(text)) == text\n"
        "try:\n"
        "    intern_token('one_more')\n"
        "except GlyphError as e:\n"
        "    assert str(e) == 'token table exhausted', e\n"
        "else:\n"
        "    raise AssertionError('a new name was interned past the limit')\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).parents[1] / "src")}
    subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=60)


@pytest.mark.parametrize(
    "bad",
    ["[", "]x", "[]", "[a b]", "A B", "#", "[fwd", "a\tb", "[x[y]"],
)
def test_parse_glyphs_rejects(bad):
    with pytest.raises(GlyphError):
        parse_glyphs(bad)


def test_alphabet_inferred_in_first_appearance_order():
    m = make_system([("B", "CA")], "AB")
    assert m.alphabet.glyphs == ("A", "B", "C")
    assert "A" in m.alphabet and "D" not in m.alphabet
    with pytest.raises(GlyphError):
        m.alphabet.check(parse_glyphs("AD"))


def test_explicit_alphabet_rejects_foreign_symbols():
    with pytest.raises(GlyphError):
        make_system([("A", "X")], "A", alphabet="AB")


def test_rules_deduplicate_keeping_first():
    m = make_system([("A", "B"), ("A", "B"), ("B", "C")], "A")
    assert m.rules == (Rule("A", "B"), Rule("B", "C"))


def test_empty_lhs_rejected():
    with pytest.raises(GlyphError):
        make_system([("", "B")], "A")


def test_successors_overlapping_matches():
    m = make_system([("AA", "B")], "AAA")
    assert successors(m, "AAA") == [("BA", 0, 0), ("AB", 0, 1)]


def test_successors_order_rule_then_position():
    m = make_system([("A", "X"), ("B", "Y")], "ABA", alphabet="ABXY")
    assert successors(m, "ABA") == [
        ("XBA", 0, 0),
        ("ABX", 0, 2),
        ("AYA", 1, 1),
    ]


# Systems whose matches coincide: runs (A -> AA on A...A), periodic overlaps
# (AB -> ABAB on ABAB...), deletions inside a run, and a bracketed token run.
COINCIDING = [
    ([("A", "AA")], "AAAAA"),
    ([("A", "AA"), ("A", "B")], "AABAAA"),
    ([("AB", "ABAB")], "ABABAB"),
    ([("ABA", "ABABA"), ("BAB", "B")], "ABABABA"),
    ([("A", "")], "AAAA"),
    ([("AA", "A"), ("AA", "AAA")], "AAAAAB"),
    ([("[t]", "[t][t]"), ("[t]", "")], "[t][t][t]A[t]"),
]

# One-symbol lhs c with rhs in c* (a whole run of c is one rewrite group),
# mixed with rules of other shapes, on states holding several runs.
RUNS = [
    ([("A", "AA"), ("AB", "BA")], "AABAAAB"),
    ([("A", "AAA"), ("B", "A")], "ABBAA"),
    ([("A", "A"), ("B", "AB")], "AABA"),
    ([("B", "A"), ("A", "A")], "ABAAB"),
    ([("A", ""), ("BA", "AB"), ("A", "AA")], "AABAABA"),
    ([("B", ""), ("A", "B")], "BBABBBAB"),
    ([("[t]", "[t][t]"), ("A[t]", "[t]A"), ("[t]", "[t]")], "[t][t]A[t]A[t][t][t]"),
]

# Rules grouped by lhs: one lhs shared by rules at non-adjacent indices (the
# shape of intermediate's TL and RT rules), an lhs that is a prefix of
# another, and states in which no lhs occurs (the init, or a later state).
SHARED_LHS = [
    ([("TL", "TaR"), ("RT", "LaT"), ("Ra", "aR"), ("aL", "La"),
      ("TL", "TbR"), ("RT", "LbT"), ("Rb", "bR"), ("bL", "Lb")], "TLT"),
    ([("TL", "TaR"), ("Ra", "aR"), ("TL", "TbR"), ("aL", "La"), ("TL", "")], "TLaRTLbL"),
    ([("A", "B"), ("AB", ""), ("B", "BA")], "AABAB"),
    ([("AB", "BA"), ("C", "D")], "BBAA"),
    ([("AB", "C"), ("C", "AB"), ("AB", "")], "ABAB"),
]

# Left-hand sides grouped under guard symbols, over four or more symbols:
# several lhs share a guard, states that lack it (A is rewritten away, or
# never there), a member equal to its guard (A among AB and BA), a guard
# present with none of its members, and one lhs shared by non-adjacent rules.
GUARDED = [
    ([("AB", "BA"), ("BA", "C"), ("A", "D"), ("CD", "A")], "ABCD"),
    ([("AC", "B"), ("CA", "D"), ("BD", "A"), ("DB", ""), ("C", "CC")], "ACADBDCA"),
    ([("[g]A", "B"), ("B[g]", "A"), ("[g]", "C"), ("CD", "[g]D")], "A[g]BCD"),
    ([("AB", "C"), ("BA", "D"), ("CD", "AB")], "AACDBB"),
    ([("AB", "BA"), ("CD", "DC"), ("AB", ""), ("A", "B"), ("DA", "C"), ("BAD", "E")], "ABADCD"),
]


@pytest.mark.parametrize("rules, init", COINCIDING + RUNS + SHARED_LHS + GUARDED)
def test_successors_match_per_position_construction(rules, init):
    m = make_system(rules, init)
    for s in evolve(m, 3).states:
        assert successors(m, s) == naive_successors(list(m.rules), s)


def _edge_multiset(g):
    return sorted((g.states[e.src], g.states[e.dst], e.rule, e.pos) for e in g.edges)


def _naive_edge_multiset(rules, layers):
    return sorted(
        (s, t, ri, p)
        for layer in layers[:-1]
        for s in layer
        for t, ri, p in naive_successors(rules, s)
    )


@pytest.mark.parametrize("rules, init", COINCIDING + RUNS + SHARED_LHS + GUARDED)
def test_evolve_matches_naive_reference_on_coinciding_matches(rules, init):
    m = make_system(rules, init)
    rules = list(m.rules)
    expected = naive_layers(rules, m.init, 4)
    with_edges = evolve(m, 4)
    without = evolve(m, 4, record_edges=False)
    for g in (with_edges, without):
        assert [set(g.layer_strings(d)) for d in range(5)] == expected
    assert without.states == with_edges.states and without.edges == []
    assert _edge_multiset(with_edges) == _naive_edge_multiset(rules, expected)


def test_a_run_is_one_rewrite_group():
    # structural, not timed: 100,000 matches of A -> AA are one group, taken
    # in one step (its positions are a range, not a list of visited matches),
    # with one result string shared by every triple, and one new state
    state = "A" * 100_000
    m = make_system([("A", "AA")], state)
    groups = core._rewrite_groups(core._rule_plans(m), state)
    assert len(groups) == 1
    result, ri, positions = groups[0]
    assert result == state + "A" and ri == 0 and positions == range(100_000)
    triples = successors(m, state)
    assert [pos for _, _, pos in triples] == list(range(100_000))
    assert all(t is triples[0][0] for t, _, _ in triples)
    assert evolve(m, 1, record_edges=False).layer_strings(1) == [state + "A"]


def test_absent_lhs_is_never_searched():
    # structural, not timed: a rule whose lhs does not occur in the state is
    # skipped by a containment test, so its lhs is never passed to find
    class RecordingState(str):
        needles: list[str] = []

        def find(self, sub, *args):
            self.needles.append(sub)
            return super().find(sub, *args)

    absent = [(f"[x{i}]", "B") for i in range(50)]
    m = make_system(absent[:25] + [("A", "AB")] + absent[25:], "AAB")
    state = RecordingState(m.init)
    groups = core._rewrite_groups(core._rule_plans(m), state)
    assert [(t, ri, list(ps)) for t, ri, ps in groups] == [("ABAB", 25, [0]), ("AABB", 25, [1])]
    assert RecordingState.needles and set(RecordingState.needles) == {"A"}


def test_absent_guard_skips_its_lhs():
    # structural, not timed: on log_system's rules, a state holding a tally
    # run but no head is answered by one one-symbol test per guard group, and
    # no lhs containing the head symbol H is tested once H is found absent
    class RecordingState(str):
        needles: list[str] = []

        def __contains__(self, sub):
            self.needles.append(sub)
            return super().__contains__(sub)

    m = zoo.log_system()
    plans = core._rule_plans(m)
    for g, members in plans[1]:
        assert all(g in lhs for lhs, _ in members)
    tally = parse_glyphs("[tally]")
    state = RecordingState(parse_glyphs("_0_0_") + tally * 200 + parse_glyphs("11111_0_0"))
    groups = core._rewrite_groups(plans, state)
    doubling = m.rules.index((tally, tally * 2))
    assert [(ri, positions) for _, ri, positions in groups] == [(doubling, range(5, 205))]
    needles = RecordingState.needles
    assert needles == [g for g, _ in plans[1]] and len(needles) <= 4
    assert "H" in needles and not any("H" in n for n in needles if n != "H")


def test_evolve_never_searches_an_absent_lhs():
    # structural, not timed: evolve's own loop selects rules as _rewrite_groups
    # does, so expanding the initial string passes no absent lhs to find,
    # whether its guard is absent ([x0] to [x24], each its own guard) or
    # present (A[x25] to A[x49], members under the guard A)
    class RecordingState(str):
        needles: list[str] = []

        def find(self, sub, *args):
            self.needles.append(sub)
            return super().find(sub, *args)

    absent = [(f"[x{i}]", "B") for i in range(25)] + [(f"A[x{i}]", "B") for i in range(25, 50)]
    m = make_system(absent[:25] + [("A", "AB")] + absent[25:], "AAB")
    g = evolve(MultiwaySystem(m.alphabet, m.rules, RecordingState(m.init)), 1)
    assert g.layer_strings(1) == ["ABAB", "AABB"]
    assert RecordingState.needles and set(RecordingState.needles) == {"A"}


def test_evolve_skips_the_lhs_of_an_absent_guard():
    # structural, not timed: on log_system's rules, evolve expands a state
    # holding a tally run but no head with one one-symbol test per guard
    # group, and tests no lhs containing the head symbol H
    class RecordingState(str):
        needles: list[str] = []

        def __contains__(self, sub):
            self.needles.append(sub)
            return super().__contains__(sub)

    m = zoo.log_system()
    _, guards = core._rule_plans(m)
    tally = parse_glyphs("[tally]")
    head, tail = parse_glyphs("_0_0_"), parse_glyphs("11111_0_0")
    init = RecordingState(head + tally * 200 + tail)
    graph = evolve(MultiwaySystem(m.alphabet, m.rules, init), 1)
    assert graph.layer_strings(1) == [head + tally * 201 + tail]
    needles = RecordingState.needles
    assert needles == [g for g, _ in guards] and len(needles) <= 4
    assert "H" in needles and not any("H" in n for n in needles if n != "H")


@pytest.mark.parametrize(
    "rule, state, groups",
    [
        (("AB", "ABAB"), "ABABAB", [("ABABABAB", 0, [0, 2, 4])]),
        (("AA", ""), "AAAA", [("AA", 0, [0, 1, 2])]),
        (("A", "AB"), "AAA", [("ABAA", 0, [0]), ("AABA", 0, [1]), ("AAAB", 0, [2])]),
    ],
)
def test_rewrite_groups_join_only_matches_that_can_coincide(rule, state, groups):
    m = make_system([rule], state)
    got = core._rewrite_groups(core._rule_plans(m), state)
    assert [(t, ri, list(ps)) for t, ri, ps in got] == groups
    assert reference_rewrite_groups(m, state) == groups


def test_rules_whose_matches_cannot_coincide_are_marked():
    for m in (zoo.intermediate(), zoo.exponential(3), zoo.polynomial(), make_system([("P", "PQ")], "P")):
        plans, _ = core._rule_plans(m)
        assert all(apart for *_, apart in plans)


@settings(max_examples=300, deadline=None)
@given(rules=st.lists(window_rule(), min_size=1, max_size=3), state=window_state)
def test_rewrite_groups_agree_with_a_window_test_for_every_rule(rules, state):
    m = make_system(rules, "A", alphabet="AB")
    got = core._rewrite_groups(core._rule_plans(m), state)
    assert [(t, ri, list(ps)) for t, ri, ps in got] == reference_rewrite_groups(m, state)


# Hand-derived evolution of ({A->BC, B->C, C->B}, "A"):
#   d0 {A}; d1 {BC}; d2 {BB, CC}; d3 {CB}; d4 {} and empty from then on.
#   (CB appears first at d3: from CC rewriting position 1 and from BB
#   rewriting position 0.  BC itself was already seen at d1.)
def test_hand_traced_layers():
    m = make_system([("A", "BC"), ("B", "C"), ("C", "B")], "A")
    g = evolve(m, 5)
    assert [set(g.layer_strings(d)) for d in range(6)] == [
        {"A"},
        {"BC"},
        {"BB", "CC"},
        {"CB"},
        set(),
        set(),
    ]
    assert growth_series(g).counts == [1, 1, 2, 1, 0, 0]


def test_empty_rhs_and_empty_string_state():
    m = make_system([("A", "")], "AA")
    g = evolve(m, 3)
    assert growth_series(g).counts == [1, 1, 1, 0]
    assert g.layer_strings(2) == [""]


def test_global_dedup_records_back_edges():
    m = make_system([("A", "B"), ("B", "A")], "A")
    g = evolve(m, 2)
    assert g.states == ["A", "B"]
    assert growth_series(g).counts == [1, 1, 0]
    # the rewrite of B back onto the known state A is still an edge
    assert Edge(src=1, dst=0, rule=1, pos=0) in g.edges


def test_layer_order_is_discovery_order():
    # rule 0 finds C before rule 1 finds B, whatever their codepoints
    g = evolve(make_system([("A", "C"), ("A", "B")], "A"), 1)
    assert g.layer_strings(1) == ["C", "B"]
    assert export_dot(g) == (
        "digraph multiway {\n"
        '  n0 [label="A", layer=0];\n'
        '  n1 [label="C", layer=1];\n'
        '  n2 [label="B", layer=1];\n'
        "  n0 -> n1 [rule=0, pos=0];\n"
        "  n0 -> n2 [rule=1, pos=0];\n"
        "}\n"
    )


@settings(max_examples=150, deadline=None)
@given(rules=pool_rules, init=pool_init)
def test_layer_order_does_not_depend_on_interning_order(rules, init):
    low = evolve(pool_system(LOW_POOL, rules, init), 4, max_states=100_000)
    high = evolve(pool_system(HIGH_POOL, rules, init), 4, max_states=100_000)
    assert high.layers == low.layers
    assert high.edges == low.edges
    assert export_dot(high) == export_dot(low).replace("[lo", "[hi")


def test_layer_ids_sorted_and_contiguous():
    complete = evolve(make_system([("A", "BC"), ("A", "CB")], "AA"), 2)
    # the budget breaks layer 4 of 1, 2, 4, 8, 16 states: its strings must not stay behind
    truncated = evolve(make_system([("Q", "Qa"), ("Q", "Qb")], "Q"), 6, max_states=20)
    assert not complete.truncated and truncated.truncated
    for g in (complete, truncated):
        assert all(type(layer) is range and layer.step == 1 for layer in g.layers)
        assert g.layers[0] == range(1)
        assert all(b.start == a.stop for a, b in zip(g.layers, g.layers[1:]))
        assert g.layers[-1].stop == len(g.states)
    assert truncated.layers[-1] == range(7, 15)


def test_evolve_keeps_no_bookkeeping_per_state():
    # 88,573 states; an id per state (a dict entry, an int and a list slot) would keep about 45 bytes
    m = zoo.exponential(3)
    tracemalloc.start()
    try:
        g = evolve(m, 10, record_edges=False)
        kept, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(g.states) == sum(3**d for d in range(11))
    assert (kept - sum(map(sys.getsizeof, g.states))) / len(g.states) < 16


def test_evolve_peak_keeps_one_index_over_the_states():
    # 369,058 states: a seen-set beside a states list peaks at 67.2 bytes a
    # state beyond the strings, one insertion-ordered dict at 61.6
    tracemalloc.start()
    try:
        g = evolve(zoo.intermediate(), 47, record_edges=False)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(g.states) == 369_058
    assert (peak - sum(map(sys.getsizeof, g.states))) / len(g.states) < 64.5


def _assert_list_layers_read_the_same(g: StatesGraph) -> None:
    copy = StatesGraph(g.system, g.states, [list(layer) for layer in g.layers], None)
    assert growth_series(copy) == growth_series(g)
    assert export_dot(copy) == export_dot(g)
    assert copy.edges == g.edges
    assert copy.state_distances() == g.state_distances()
    assert layered_isomorphic(copy, g) == (True, None)
    assert _map_fails_at(copy, g, g.states) is None


@pytest.mark.parametrize(
    "build, horizon",
    [(zoo.chain, 5), (zoo.polynomial, 8), (zoo.intermediate, 12), (zoo.burst, 6)],
    ids=["chain", "polynomial", "intermediate", "burst"],
)
def test_hand_built_list_layers_read_as_evolved_ranges(build, horizon):
    _assert_list_layers_read_the_same(evolve(build(), horizon))


@settings(max_examples=60, deadline=None)
@given(rules=pool_rules, init=pool_init)
def test_hand_built_list_layers_read_as_evolved_ranges_on_drawn_systems(rules, init):
    _assert_list_layers_read_the_same(evolve(pool_system(LOW_POOL, rules, init), 3))


def test_matches_naive_expansion_on_length_changing_rules():
    rules = [("AB", ""), ("ABA", "ABBAB"), ("ABABBB", "AAAAABA")]
    m = make_system(rules, "ABABAB")
    g = evolve(m, 5)
    expected = naive_layers(rules, "ABABAB", 5)
    assert [set(g.layer_strings(d)) for d in range(6)] == expected
    assert growth_series(g).counts == [len(layer) for layer in expected]


def test_truncation_on_state_budget():
    m = make_system([("Q", "Qa"), ("Q", "Qb")], "Q")
    g = evolve(m, 6, max_states=20)
    assert g.truncated
    assert "states" in (g.truncation_reason or "")
    # layers 0..3 hold 1+2+4+8 = 15 states; layer 4 would blow the budget
    assert g.horizon == 3
    assert growth_series(g).counts == [1, 2, 4, 8]


def test_truncation_warning_reaches_a_configured_handler(caplog):
    # the library's NullHandler keeps Python's fallback quiet, not the records
    with caplog.at_level(logging.WARNING, logger="multiway.core"):
        g = evolve(make_system([("Q", "Qa"), ("Q", "Qb"), ("Q", "Qc")], "Q"), 9, max_states=100)
    assert g.truncated
    assert [r.getMessage() for r in caplog.records] == [f"evolution truncated: {g.truncation_reason}"]


def test_truncation_on_cell_budget():
    m = make_system([("Q", "Qa"), ("Q", "Qb")], "Q")
    g = evolve(m, 6, max_cells=30)
    assert g.truncated
    assert "cells" in (g.truncation_reason or "")
    assert g.horizon == 2


@pytest.mark.parametrize(
    "budget, size", [("max_states", lambda s: 1), ("max_cells", len)], ids=["states", "cells"]
)
def test_truncation_rolls_back_to_the_last_complete_layer(budget, size):
    # layers of 1, 2, 3, 6, 8, 13, 21 and 34 states, with back edges; every
    # limit from the initial string's size to the full graph's breaks a layer
    m = make_system([("A", "AB"), ("B", "A"), ("BA", "")], "AB")
    full = evolve(m, 7)
    dist = full.state_distances()
    full_edges = full.edges
    totals = list(accumulate(sum(size(full.states[i]) for i in layer) for layer in full.layers))
    for limit in range(totals[0], totals[-1]):
        g = evolve(m, 7, **{budget: limit})
        k = max(d for d in range(8) if totals[d] <= limit)
        assert g.truncated
        assert g.horizon == k
        assert g.layers == full.layers[: k + 1]
        n = sum(map(len, g.layers))
        assert g.states == full.states[:n]
        edges = g.edges
        assert edges == [e for e in full_edges if dist[e.src] < k]
        assert all(e.src < n and e.dst < n for e in edges)


@settings(max_examples=200, deadline=None)
@given(rules=pool_rules, init=pool_init, picks=st.tuples(*[st.integers(0, 10**6)] * 2))
def test_a_truncated_evolution_is_the_full_one_cut_at_its_last_layer(rules, init, picks):
    m = pool_system(LOW_POOL, rules, init)
    full = evolve(m, 4, max_states=100_000)
    # each budget ranges from the least allowed to one past the full evolution's size
    total_cells = sum(map(len, full.states))
    max_states = 1 + picks[0] % (len(full.states) + 1)
    max_cells = len(m.init) + picks[1] % (total_cells - len(m.init) + 2)
    g = evolve(m, 4, max_states=max_states, max_cells=max_cells)
    event(f"truncated: {g.truncated}")

    def fits(k: int) -> bool:
        n = full.layers[k].stop
        return n <= max_states and sum(map(len, full.states[:n])) <= max_cells

    k = len(g.layers) - 1
    assert g.layers == full.layers[: k + 1]
    assert g.states == full.states[: g.layers[-1].stop]
    # the budgets keep every layer that fits both and cut at the first that does not
    assert fits(k)
    assert g.truncated == (k < 4)
    if g.truncated:
        assert not fits(k + 1)


def test_a_graph_cut_at_its_edges_keeps_only_the_states_of_its_layers():
    # layers 0-2 of exponential(3) hold 13 states and 39 edges; layer 3's 27 states add 81
    m = zoo.exponential(3)
    cut = core._cut_at_edges(evolve(m, 4), 50)
    assert cut.truncation_reason == "more than 50 edges while building layer 4"
    assert len(cut.states) == 40
    assert "states=40, layers=4," in repr(cut)
    shorter = evolve(m, 3)
    assert (cut.states, cut.layers, cut.edges) == (shorter.states, shorter.layers, shorter.edges)


@pytest.mark.parametrize(
    "budget, limit, unit", [("max_states", 20_000, "states"), ("max_cells", 100_000, "stored cells")]
)
def test_budgets_stop_a_layer_while_it_is_built(budget, limit, unit):
    # layers 0..3 of 26-way branching hold 18,279 states and 72,385 cells;
    # layer 4 would add 456,976 strings, a 45.6 MB tracemalloc peak if it
    # were built in full before the budgets were checked
    tracemalloc.start()
    try:
        g = evolve(zoo.exponential(26), 4, record_edges=False, **{budget: limit})
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert g.truncated
    assert g.truncation_reason == f"more than {limit} {unit} while building layer 4"
    assert growth_series(g).counts == [1, 26, 676, 17576]
    assert peak < 10 * 2**20


@pytest.mark.parametrize(
    "budget, limit", [("max_states", 0), ("max_states", -1), ("max_cells", 2), ("max_cells", 0)]
)
def test_budget_the_initial_string_breaks_is_rejected(budget, limit):
    # no rule matches the initial string, so no new string would ever
    # reveal the breach: the budget itself must be refused
    m = make_system([("B", "BB")], "AAA")
    with pytest.raises(ValueError, match=budget):
        evolve(m, 3, **{budget: limit})


def test_budget_the_initial_string_just_fits_is_accepted():
    m = make_system([("B", "BB")], "AAA")
    g = evolve(m, 3, max_states=1, max_cells=3)
    assert not g.truncated
    assert growth_series(g).counts == [1, 0, 0, 0]


def test_dead_frontier_pads_empty_layers():
    m = make_system([("A", "B"), ("B", "C")], "A")
    g = evolve(m, 6)
    assert not g.truncated
    assert growth_series(g).counts == [1, 1, 1, 0, 0, 0, 0]


def test_growth_series_max_len():
    m = make_system([("A", "AB")], "A")
    series = growth_series(evolve(m, 4))
    assert series.counts == [1, 1, 1, 1, 1]
    assert series.max_len == [1, 2, 3, 4, 5]
    # empty layers report max_len 0
    dead = growth_series(evolve(make_system([("A", "B")], "A"), 3))
    assert dead.max_len == [1, 1, 0, 0]


def test_count_ceiling_violation_is_recorded_not_raised():
    # Twelve rules fan the single symbol I out to every string of length <= 2
    # over {I, a, b} except "I" itself: 12 states at distance 1, but the
    # bound from the longest string there is 3**2 = 9.
    targets = ["", "a", "b", "aa", "ab", "ba", "bb", "aI", "Ia", "II", "bI", "Ib"]
    m = make_system([("I", t) for t in targets], "I", alphabet="Iab")
    series = growth_series(evolve(m, 1))
    assert series.counts == [1, 12]
    assert len(series.ceiling_violations) == 1
    v = series.ceiling_violations[0]
    assert (v.distance, v.count, v.alphabet_size, v.max_len) == (1, 12, 3, 2)


def test_export_dot_golden():
    m = make_system([("A", "B")], "A")
    assert export_dot(evolve(m, 1)) == (
        "digraph multiway {\n"
        '  n0 [label="A", layer=0];\n'
        '  n1 [label="B", layer=1];\n'
        "  n0 -> n1 [rule=0, pos=0];\n"
        "}\n"
    )


def test_export_dot_renders_tokens():
    m = make_system([("A", "A[tick]")], "A")
    dot = export_dot(evolve(m, 1))
    assert 'label="A[tick]"' in dot


def test_state_distances():
    m = make_system([("A", "AB")], "A")
    g = evolve(m, 3)
    assert g.state_distances() == [0, 1, 2, 3]


def test_evolve_rejects_negative_horizon():
    with pytest.raises(ValueError):
        evolve(make_system([("A", "B")], "A"), -1)


# --- randomized cross-check against the naive reference -------------------

_sym = st.sampled_from("AB")
_word = st.text(alphabet=_sym, min_size=0, max_size=3)
_lhs = st.text(alphabet=_sym, min_size=1, max_size=2)
_rules = st.lists(st.tuples(_lhs, _word), min_size=1, max_size=3)
_init = st.text(alphabet=_sym, min_size=1, max_size=3)


@settings(max_examples=120, deadline=None)
@given(rules=_rules, init=_init)
def test_engine_agrees_with_naive_reference(rules, init):
    m = make_system(rules, init, alphabet="AB")
    g = evolve(m, 4, max_states=100_000)
    assert not g.truncated
    expected = naive_layers(list(dict.fromkeys(rules)), init, 4)
    assert [set(g.layer_strings(d)) for d in range(5)] == expected
    assert _edge_multiset(g) == _naive_edge_multiset(list(m.rules), expected)
    assert evolve(m, 4, max_states=100_000, record_edges=False).states == g.states


_run_init = st.text(alphabet=_sym, min_size=1, max_size=40)
# one-symbol lhs c with rhs in c*: c -> "", c -> c, c -> cc, c -> ccc
_run_rule = st.builds(lambda c, k: (c, c * k), _sym, st.integers(0, 3))
# up to six rules over five left-hand sides, so that rules share an lhs and
# several lhs occur in one state
_shared_lhs = st.sampled_from(["A", "B", "AA", "AB", "BA"])
_rules_with_runs = st.lists(
    st.one_of(_run_rule, st.tuples(_shared_lhs, _word)), min_size=1, max_size=6
)


@settings(max_examples=200, deadline=None)
@given(rules=_rules_with_runs, init=_run_init)
def test_successors_agree_with_naive_reference(rules, init):
    m = make_system(rules, init, alphabet="AB")
    assert successors(m, init) == naive_successors(list(m.rules), init)


# four symbols and lhs of one to three: a short state often lacks a guard,
# which two symbols almost never do, so groups are skipped as well as searched
_sym4 = st.sampled_from("ABCD")
_rules4 = st.lists(
    st.tuples(
        st.text(alphabet=_sym4, min_size=1, max_size=3),
        st.text(alphabet=_sym4, min_size=0, max_size=3),
    ),
    min_size=1,
    max_size=6,
)
_init4 = st.text(alphabet=_sym4, min_size=1, max_size=8)


@settings(max_examples=150, deadline=None)
@given(rules=_rules4, init=_init4)
def test_guarded_selection_agrees_with_naive_reference(rules, init):
    m = make_system(rules, init, alphabet="ABCD")
    rules = list(m.rules)
    assert successors(m, init) == naive_successors(rules, init)
    expected = naive_layers(rules, init, 3)
    with_edges = evolve(m, 3, max_states=100_000)
    without = evolve(m, 3, max_states=100_000, record_edges=False)
    for g in (with_edges, without):
        assert [set(g.layer_strings(d)) for d in range(4)] == expected
    assert without.states == with_edges.states
    assert _edge_multiset(with_edges) == _naive_edge_multiset(rules, expected)


@settings(max_examples=120, deadline=None)
@given(rules=_rules, init=_init)
def test_edges_connect_adjacent_or_earlier_layers(rules, init):
    m = make_system(rules, init, alphabet="AB")
    g = evolve(m, 4, max_states=100_000)
    dist = g.state_distances()
    edges = g.edges
    assert sum(len(layer) for layer in g.layers) == len(g.states)
    for e in edges:
        assert dist[e.dst] <= dist[e.src] + 1
    # every non-initial state is the target of at least one edge from the
    # previous layer
    entered = {e.dst for e in edges if dist[e.dst] == dist[e.src] + 1}
    for sid in range(1, len(g.states)):
        assert sid in entered


# --- edges are derived when first read ------------------------------------


@settings(max_examples=150, deadline=None)
@given(
    rules=pool_rules,
    init=pool_init,
    budget=st.sampled_from(["max_states", "max_cells"]),
    pick=st.integers(0, 10**6),
)
def test_derived_edges_are_the_naive_successors_in_order(rules, init, budget, pick):
    # sources are layers[:-1]: the horizon's layer, or the one a budget left last, is never expanded
    m = pool_system(LOW_POOL, rules, rules[0][0] + init)  # the first lhs matches at once
    full = evolve(m, 4, max_states=100_000)
    size = (lambda s: 1) if budget == "max_states" else len
    least, total = size(m.init), sum(map(size, full.states))
    g = evolve(m, 4, **{budget: least + pick % (total - least + 1)})  # the top limit truncates nothing
    event(f"{budget} truncated: {g.truncated}")
    for graph in (full, g):
        index = {s: i for i, s in enumerate(graph.states)}
        expected = [
            (u, index[t], ri, p)
            for layer in graph.layers[:-1]
            for u in layer
            for t, ri, p in naive_successors(list(m.rules), graph.states[u])
        ]
        edges = graph.edges
        assert edges == expected
        assert all(type(e) is Edge for e in edges)


def test_evolve_builds_no_edge_until_edges_are_read(monkeypatch):
    built = []

    def spy(*fields):
        built.append(fields)
        return Edge(*fields)

    monkeypatch.setattr(core, "Edge", spy)
    m = make_system([("A", "AB"), ("B", "A")], "A")
    g = evolve(m, 5)
    assert built == [] and len(g.states) > 1
    edges = g.edges
    assert edges and len(built) == len(edges)
    assert g.edges == edges and len(built) == 2 * len(edges)  # derived again, not kept
    assert g._edges is None
    unrecorded = evolve(m, 5, record_edges=False)
    assert unrecorded.edges == [] and len(built) == 2 * len(edges)  # never derived


def test_printing_and_comparing_derive_no_edges(monkeypatch):
    def refuse(*args):
        raise AssertionError("edges derived")

    m = make_system([("A", "AB"), ("B", "A")], "A")
    g, h, shorter = evolve(m, 5), evolve(m, 5), evolve(m, 4)
    # the edges reader, and the rule plans that any derivation starts from
    monkeypatch.setattr(core, "_edge_rows", refuse)
    monkeypatch.setattr(core, "_rule_plans", refuse)
    assert "_edges" not in repr(g) and "AB" in repr(g)
    assert g == h and g != shorter


def test_comparing_and_printing_build_no_edge_objects(monkeypatch):
    def refuse(*fields):
        raise AssertionError("Edge built")

    m = make_system([("A", "AB"), ("B", "A")], "A")
    g, h = evolve(m, 5), evolve(m, 5)
    expected_dot = export_dot(evolve(m, 5))
    monkeypatch.setattr(core, "Edge", refuse)
    assert _map_fails_at(g, h, g.states) is None
    assert layered_isomorphic(g, h) == (True, None)
    assert export_dot(g) == expected_dot
    assert g._edges is None and h._edges is None  # nothing was kept either


def test_repr_does_not_grow_with_the_evolution():
    assert len(repr(evolve(zoo.exponential(3), 8))) < 500  # 9,841 states
    cut = evolve(zoo.exponential(3), 8, max_states=10)
    assert "states=4, layers=2" in repr(cut) and cut.truncation_reason in repr(cut)


def test_a_graph_is_a_value():
    g = evolve(make_system([("A", "AB"), ("B", "A")], "A"), 5)
    for name in ("states", "layers", "_edges", "truncation_reason"):
        with pytest.raises(FrozenInstanceError):
            setattr(g, name, None)
    first, second = g.edges, g.edges
    assert first == second and first is not second


def test_given_edges_are_read_in_source_layer_order():
    g = evolve(make_system([("A", "AB"), ("B", "A"), ("BA", "")], "AB"), 5)
    dist = g.state_distances()
    derived = g.edges
    shuffled = StatesGraph(g.system, g.states, g.layers, derived[::-1])
    assert [dist[u] for u, *_ in core._edge_rows(shuffled)] == sorted(dist[e.src] for e in derived)
    assert list(core._edge_rows(StatesGraph(g.system, g.states, g.layers, derived))) == derived


def test_explicit_edges_are_returned_as_given():
    m = make_system([("A", "AB")], "A")
    explicit = [Edge(1, 0, 3, 7)]  # no rewrite of the system: a derivation would not give it
    assert StatesGraph(m, ["A", "AB"], [[0], [1]], explicit).edges is explicit
    assert StatesGraph(m, ["A", "AB"], [[0], [1]], []).edges == []
    assert StatesGraph(m, ["A", "AB"], [[0], [1]], None).edges == [Edge(0, 1, 0, 0)]

