from __future__ import annotations

from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multiway.core import evolve, render_glyphs
from multiway.rulefiles import ParseError, format_system
from multiway.tm import (
    HaltingFunctionMeasurement,
    MachineError,
    TuringMachine,
    build_binary_counter,
    build_incrementer,
    chain_restart_rules,
    compile_tm,
    enchain,
    expected_growth,
    parse_tm,
    step_tm,
    tm_input_state,
    validate_t_halter,
)

GOLDEN_RULES = Path(__file__).parent / "data" / "incrementer_rules.txt"

INCREMENTER_RULE_SET = {
    ("00H[q1]", "0H[q2]1"),
    ("10H[q1]", "1H[q2]1"),
    ("_0H[q1]", "_0H[q2]1"),
    ("1H[q1]0", "10H[q1]"),
    ("1H[q1]1", "11H[q1]"),
    ("1H[q1]_", "10H[q1]_"),
    ("0H[q2]0", "00H[q3]"),
    ("0H[q2]1", "01H[q3]"),
    ("0H[q2]_", "00H[q3]_"),
    ("01H[q2]", "0H[q2]1"),
    ("11H[q2]", "1H[q2]1"),
    ("_1H[q2]", "_0H[q2]1"),
}


def simulate(tm: TuringMachine, n: int, limit: int = 10_000) -> list[str]:
    """Rendered configurations from start to halt, by direct stepping."""
    cfg = tm_input_state(tm, n)
    chain = [cfg.render()]
    while (cfg := step_tm(tm, cfg)) is not None:
        chain.append(cfg.render())
        assert len(chain) <= limit
    return chain


# ---------------------------------------------------------------------------
# Machine construction and stepping


def test_input_state_rendering():
    inc = build_incrementer()
    assert tm_input_state(inc, 0).render() == "_0H[q1]_"
    assert tm_input_state(inc, 1).render() == "_1H[q1]_"
    assert tm_input_state(inc, 3).render() == "_1H[q1]11_"


def test_step_moves_right_and_extends_tape():
    inc = build_incrementer()
    cfg = tm_input_state(inc, 2)
    cfg = step_tm(inc, cfg)
    assert cfg.render() == "_11H[q1]_"
    cfg = step_tm(inc, cfg)
    # running off the right end materializes a blank under the head
    assert cfg.render() == "_110H[q1]_"


def test_step_on_halting_configuration_is_none():
    inc = build_incrementer()
    halted = simulate(inc, 1)[-1]
    assert "H[q3]" in halted
    cfg = tm_input_state(inc, 1)
    while (nxt := step_tm(inc, cfg)) is not None:
        cfg = nxt
    assert step_tm(inc, cfg) is None


@pytest.mark.parametrize(
    "kwargs, message",
    [
        (dict(transitions={}), "transition table"),
        (dict(halting=frozenset({5})), "halting states"),
        (dict(tape_alphabet=("0", "H")), "bad tape symbol"),
        (dict(tape_alphabet=("0", "0")), "duplicate"),
        (dict(blank="9"), "blank symbol"),
    ],
)
def test_machine_validation(kwargs, message):
    base = dict(
        n_states=2,
        tape_alphabet=("0", "1"),
        transitions={
            (1, "0"): ("0", "R", 2),
            (1, "1"): ("1", "R", 2),
        },
        halting=frozenset({2}),
    )
    base.update(kwargs)
    with pytest.raises(ValueError, match=message):
        TuringMachine(**base)


def test_transition_targets_are_checked():
    with pytest.raises(ValueError, match="unknown state"):
        TuringMachine(
            2,
            ("0", "1"),
            {(1, "0"): ("0", "R", 9), (1, "1"): ("1", "R", 2)},
            frozenset({2}),
        )
    with pytest.raises(ValueError, match="move"):
        TuringMachine(
            2,
            ("0", "1"),
            {(1, "0"): ("0", "X", 2), (1, "1"): ("1", "R", 2)},
            frozenset({2}),
        )


def test_a_machine_built_directly_names_the_part_at_fault_and_no_line():
    with pytest.raises(MachineError) as err:
        TuringMachine(
            2,
            ("0", "1"),
            {(1, "0"): ("7", "R", 2), (1, "1"): ("1", "R", 2)},
            frozenset({2}),
        )
    assert str(err.value) == "transition (1,0) writes unknown symbol '7'"
    assert (err.value.part, err.value.line) == (("delta", 1, "0"), None)


def test_unary_inputs_are_checked():
    with pytest.raises(ValueError, match="non-negative"):
        tm_input_state(build_incrementer(), -1)
    no_digit = TuringMachine(1, ("0",), {}, frozenset({1}))
    assert tm_input_state(no_digit, 0).render() == "_0H[q1]_"
    with pytest.raises(ValueError, match="digit 1"):
        tm_input_state(no_digit, 2)


# ---------------------------------------------------------------------------
# Compilation


def test_compiled_incrementer_rule_set():
    system = compile_tm(build_incrementer(), 1)
    got = {(render_glyphs(l), render_glyphs(r)) for l, r in system.rules}
    assert got == INCREMENTER_RULE_SET


def test_compiled_incrementer_rule_file_is_byte_stable():
    system = compile_tm(build_incrementer(), 1)
    assert format_system(system) == GOLDEN_RULES.read_text()


def test_rule_count_is_working_states_times_symbols():
    for tm in (build_incrementer(), build_binary_counter()):
        system = compile_tm(tm)
        working = tm.n_states - len(tm.halting)
        symbols = len(tm.tape_alphabet)
        assert len(system.rules) == working * symbols * (symbols + 1)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_compiled_run_locksteps_the_machine(n):
    inc = build_incrementer()
    chain = simulate(inc, n)
    assert len(chain) == 2 * n + 3
    graph = evolve(compile_tm(inc, n), len(chain) + 1)
    for d, want in enumerate(chain):
        assert [render_glyphs(s) for s in graph.layer_strings(d)] == [want]
    # the halting configuration has no successors: the chain goes extinct
    assert graph.layer_strings(len(chain)) == []


# ---------------------------------------------------------------------------
# Machine files

HEADER = "states: 3 halting: {3}\n"
DELTA = "delta: (1, 1) -> (1, R, 1)\n"
INCREMENTER_MACHINE = f"""\
{HEADER}blank: 0
{DELTA}delta: (1, 0) -> (1, L, 2)
delta: (2, 1) -> (1, L, 2)
delta: (2, 0) -> (0, R, 3)
"""

# a bad tape symbol or state parses: it is a validation error (exit 4), not a parse error (exit 3)
BAD_BLANK = HEADER + "blank: 0 0\n"
BAD_READ = HEADER + DELTA + "delta: (1, 10) -> (1, L, 2)\n"
BAD_HALTING = "states: 2 halting: {5}\n"
BAD_TARGET = "states: 2 halting: {2}\ndelta: (1, 1) -> (1, R, 3)\n"
OUT_OF_HALTING = "states: 2 halting: {2}\ndelta: (1, 1) -> (1, R, 2)\ndelta: (2, 1) -> (1, R, 1)\n"
ZERO_STATES = "states: 0 halting: {}\n"


def no_glyph(sym: str) -> str:
    """A machine whose line 3 first names ``sym``, written and read."""
    return (
        "states: 2 halting: {2}\ndelta: (1, 1) -> (1, R, 2)\n"
        f"delta: (1, 0) -> ({sym}, R, 2)\ndelta: (1, {sym}) -> (1, R, 2)\n"
    )


# a control character and a private-use one (core keeps those for tokens) are no glyph
CONTROL, PRIVATE_USE = no_glyph("\x01"), no_glyph("\ue000")
MACHINE_ERRORS = (
    BAD_BLANK, BAD_READ, BAD_HALTING, BAD_TARGET, OUT_OF_HALTING, ZERO_STATES, CONTROL, PRIVATE_USE
)


@pytest.mark.parametrize(
    "text, line",
    [
        (HEADER + HEADER, 2),
        (HEADER + "blank: 0\nblank: 1\n", 3),
        (HEADER + "blank:\n", 2),  # no symbol
        (HEADER + "delta: (1, 1) -> oops\n", 2),
        (HEADER + DELTA + DELTA, 3),  # duplicate transition
        (HEADER + "tape: 01\n", 2),  # unknown directive
        (HEADER + "just words\n", 2),  # no key
        ("states: 3 halting: {x}\n", 1),
        ("states: 3 halting: {,2,,}\n", 1),  # empty names between commas
        ("states: 3 halting: {2,}\n", 1),
        (DELTA, None),  # missing header
        (BAD_BLANK, 2),
        (BAD_READ, 3),
        (BAD_HALTING, 1),
        (BAD_TARGET, 2),
        (OUT_OF_HALTING, 3),
        ("states: three halting: {}\n", 1),
        (ZERO_STATES, 1),
        (CONTROL, 3),
        (PRIVATE_USE, 3),
    ],
)
def test_machine_file_errors_carry_line_numbers(text, line):
    with pytest.raises(MachineError if text in MACHINE_ERRORS else ParseError) as err:
        parse_tm(text)
    assert err.value.line == line


def test_a_fault_of_the_whole_table_names_no_line():
    with pytest.raises(MachineError) as err:
        parse_tm(HEADER + DELTA)  # three of the four transitions are missing
    assert (err.value.part, err.value.line) == (None, None)
    assert str(err.value) == (
        "transition table must cover working states exactly "
        "(missing [(1, '0'), (2, '0'), (2, '1')], extra [])"
    )


@pytest.mark.parametrize("sym", ["\x01", "\ue000"])
def test_a_machine_file_symbol_that_is_no_glyph_names_its_line(sym):
    with pytest.raises(MachineError) as err:
        parse_tm(no_glyph(sym))
    assert str(err.value) == f"line 3: bad tape symbol {sym!r}"
    assert err.value.part == ("symbol", sym)


@pytest.mark.parametrize("braces", ["{}", "{ }"])
def test_machine_file_empty_halting_set(braces):
    machine = parse_tm(f"states: 1 halting: {braces}\ndelta: (1, 0) -> (0, R, 1)\n")
    assert machine.halting == frozenset()


def test_machine_file_skips_comments_and_blank_lines():
    commented = "# the unary incrementer\n\n" + INCREMENTER_MACHINE.replace("\n", "  # note\n\n   \n", 2)
    assert parse_tm(commented) == parse_tm(INCREMENTER_MACHINE) == build_incrementer()


# ---------------------------------------------------------------------------
# Halting measurements


def test_incrementer_run_lengths():
    m = validate_t_halter(build_incrementer(), range(0, 9))
    assert m.ok
    assert m.values == {n: 2 * n + 3 for n in range(0, 9)}
    assert set(m.halt_positions.values()) == {"on-first"}


def test_counter_run_lengths_are_exponential():
    m = validate_t_halter(build_binary_counter(), range(0, 9))
    assert m.ok
    assert m.values == {n: 2 ** (n + 2) - 1 for n in range(0, 9)}
    assert set(m.halt_positions.values()) == {"left-of-first"}


def test_non_halting_machine_is_flagged():
    runner = TuringMachine(
        2,
        ("0", "1"),
        {(1, "0"): ("0", "R", 1), (1, "1"): ("1", "R", 1)},
        frozenset({2}),
    )
    m = validate_t_halter(runner, [1], budget=50)
    assert not m.ok
    assert "not halted" in m.constraint_violations[0]
    assert 1 not in m.values


def test_bad_halt_position_is_flagged():
    # halts one step in, head on the second digit of the output
    skipper = TuringMachine(
        2,
        ("0", "1"),
        {(1, "0"): ("1", "R", 2), (1, "1"): ("1", "R", 2)},
        frozenset({2}),
    )
    m = validate_t_halter(skipper, [2])
    assert not m.ok
    assert "head at cell" in m.constraint_violations[0]


# ---------------------------------------------------------------------------
# Chain restart


def test_expected_growth_staircase_for_incrementer():
    m = validate_t_halter(build_incrementer(), range(1, 6))
    # per-run costs T(n) + p(n) = (2n+3) + (2n+3): 10, 14, 18, ...
    want = [1] * 10 + [2] * 14 + [3] * 7
    assert expected_growth(m, 30, start_input=1) == want


def test_expected_growth_needs_enough_measurements():
    m = validate_t_halter(build_incrementer(), range(1, 3))
    with pytest.raises(ValueError, match="measure more inputs"):
        expected_growth(m, 200, start_input=1)


def test_expected_growth_rejects_mixed_halt_positions():
    m = HaltingFunctionMeasurement(
        values={1: 5, 2: 7},
        halt_positions={1: "on-first", 2: "left-of-first"},
    )
    with pytest.raises(ValueError, match="mixed"):
        expected_growth(m, 10)


def test_expected_growth_rejects_violations():
    m = HaltingFunctionMeasurement(constraint_violations=["input 1: boom"])
    with pytest.raises(ValueError, match="violations"):
        expected_growth(m, 10)


def test_enchained_incrementer_matches_measured_staircase():
    m = validate_t_halter(build_incrementer(), range(1, 8))
    system = enchain(build_incrementer(), start_input=1)
    counts = [len(layer) for layer in evolve(system, 80).layers]
    assert counts == expected_growth(m, 80, start_input=1)


def test_enchained_counter_matches_measured_staircase():
    m = validate_t_halter(build_binary_counter(), range(0, 8))
    system = enchain(build_binary_counter(), start_input=0)
    counts = [len(layer) for layer in evolve(system, 90).layers]
    assert counts == expected_growth(m, 90, start_input=0)
    # block boundaries 7, 20, 43: one new lineage per completed run
    assert counts[6] == 1 and counts[7] == 2
    assert counts[19] == 2 and counts[20] == 3
    assert counts[42] == 3 and counts[43] == 4


def test_chain_restart_needs_unary_digit():
    no_ones = TuringMachine(
        2,
        ("0", "2"),
        {(1, "0"): ("0", "R", 2), (1, "2"): ("2", "R", 2)},
        frozenset({2}),
    )
    with pytest.raises(ValueError, match="unary digit"):
        enchain(no_ones)


def test_chain_restart_rules_cover_all_halting_states():
    rules = chain_restart_rules(build_incrementer())
    assert ("H[q3]", "[fwd]") in rules
    assert ("[fwd]_", "[rew]_") in rules
    assert ("0[rew]1", "0_1H[q1]") in rules


# ---------------------------------------------------------------------------
# Determinism property


@st.composite
def machines(draw):
    n = draw(st.integers(2, 3))
    transitions = {}
    for s in range(1, n):
        for x in "01":
            transitions[(s, x)] = (
                draw(st.sampled_from("01")),
                draw(st.sampled_from("LR")),
                draw(st.integers(1, n)),
            )
    return TuringMachine(n, ("0", "1"), transitions, frozenset({n}))


@settings(max_examples=80, deadline=None)
@given(tm=machines(), n=st.integers(0, 3))
def test_compiled_chain_matches_direct_stepping(tm, n):
    cfg = tm_input_state(tm, n)
    seen = {cfg.render()}
    chain = [cfg.render()]
    for _ in range(12):
        cfg = step_tm(tm, cfg)
        if cfg is None:
            break
        rendered = cfg.render()
        if rendered in seen:
            # a looping run revisits configurations; the evolution
            # deduplicates states globally, so comparison ends here
            break
        seen.add(rendered)
        chain.append(rendered)
    graph = evolve(compile_tm(tm, n), len(chain))
    for d, want in enumerate(chain):
        assert [render_glyphs(s) for s in graph.layer_strings(d)] == [want]
