"""Deterministic Turing machines compiled into string rewriting systems.

A machine configuration becomes the string ``_<left cells><scanned cell>H[qk]
<right cells>_``: the head marker sits immediately after the scanned cell and
underscores fence the touched part of the tape.  Compiling a machine yields
one rewrite rule per (transition, neighbor context) pair plus one tape-edge
rule per transition, so a deterministic machine turns into a system whose
evolution is a single chain of states — which is what makes halting-time
functions measurable as growth.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Iterable, Mapping

from .analysis import occurrence_sequence
from .core import GlyphError, MultiwaySystem, make_system, parse_glyphs
from .rulefiles import ParseError, directives

LEFT = "L"
RIGHT = "R"
UNARY_DIGIT = "1"

FWD_TOKEN = "[fwd]"
REW_TOKEN = "[rew]"
TALLY_TOKEN = "[tally]"

Transition = tuple[str, str, int]  # (write, move, next state)


def state_token(state: int) -> str:
    return f"[q{state}]"


class MachineError(ValueError):
    """An invalid machine: ``part`` names what is at fault, ``line`` the file line naming it.

    ``part`` is ``("states",)``, ``("delta", state, read)``, ``("symbol", sym)``, or None
    for the whole table; ``line`` is None for a machine built directly.
    """

    def __init__(self, message: str, part: tuple | None = None, line: int | None = None):
        self.part, self.line = part, line
        super().__init__(f"line {line}: {message}" if line else message)


def _bad_symbol(sym: str) -> bool:
    # a cell is one glyph by core's rule (one that parses as itself); "_" and "H" encode the head
    try:
        return len(sym) != 1 or sym in "_H" or parse_glyphs(sym) != sym
    except GlyphError:
        return True


@dataclass(frozen=True)
class TuringMachine:
    """Single-tape deterministic machine with states numbered from 1.

    ``tape_alphabet`` holds single-character cell symbols and ``blank`` is
    what materializes when the head walks off the touched region.  Halting
    states have no outgoing transitions; every other (state, symbol) pair
    needs exactly one.  The start state is 1.
    """

    n_states: int
    tape_alphabet: tuple[str, ...]
    transitions: Mapping[tuple[int, str], Transition]
    halting: frozenset[int]
    blank: str = "0"

    def __post_init__(self):
        if self.n_states < 1:
            raise MachineError("machine needs at least one state", ("states",))
        if not self.halting <= set(self.states):
            raise MachineError("halting states out of range", ("states",))
        for (s, x), (_, _, nxt) in self.transitions.items():
            at = ("delta", s, x)
            if s in self.halting or not 1 <= s <= self.n_states:
                kind = "halting" if s in self.halting else "unknown"
                raise MachineError(f"transition ({s},{x}) leaves {kind} state {s}", at)
            if not 1 <= nxt <= self.n_states:
                raise MachineError(f"transition ({s},{x}) targets unknown state {nxt}", at)
        for i, sym in enumerate(self.tape_alphabet):
            if sym in self.tape_alphabet[i + 1 :]:
                raise MachineError("duplicate tape symbols", ("symbol", sym))
        for sym in self.tape_alphabet:
            if _bad_symbol(sym):
                raise MachineError(f"bad tape symbol {sym!r}", ("symbol", sym))
        if self.blank not in self.tape_alphabet:
            raise MachineError("blank symbol must belong to the tape alphabet")
        working = [s for s in self.states if s not in self.halting]
        needed = {(s, x) for s in working for x in self.tape_alphabet}
        if set(self.transitions) != needed:
            missing = needed - set(self.transitions)
            extra = set(self.transitions) - needed
            raise MachineError(
                f"transition table must cover working states exactly "
                f"(missing {sorted(missing)}, extra {sorted(extra)})"
            )
        for (s, x), (write, move, _) in self.transitions.items():
            at = ("delta", s, x)
            if write not in self.tape_alphabet:
                raise MachineError(f"transition ({s},{x}) writes unknown symbol {write!r}", at)
            if move not in (LEFT, RIGHT):
                raise MachineError(f"transition ({s},{x}) has move {move!r}", at)

    @property
    def states(self) -> range:
        return range(1, self.n_states + 1)


@dataclass(frozen=True)
class TapeConfiguration:
    """Head-centered view of a machine configuration."""

    left: str
    scanned: str
    state: int
    right: str

    def render(self) -> str:
        return f"_{self.left}{self.scanned}H{state_token(self.state)}{self.right}_"


def tm_input_state(tm: TuringMachine, n: int) -> TapeConfiguration:
    """Start configuration for the unary input n (n ones, head on the first)."""
    if n < 0:
        raise ValueError("input must be non-negative")
    if n == 0:
        return TapeConfiguration("", tm.blank, 1, "")
    if UNARY_DIGIT not in tm.tape_alphabet:
        raise ValueError("unary inputs need the digit 1 on the tape alphabet")
    return TapeConfiguration("", UNARY_DIGIT, 1, UNARY_DIGIT * (n - 1))


def step_tm(tm: TuringMachine, cfg: TapeConfiguration) -> TapeConfiguration | None:
    """One machine step; None when the configuration is halting."""
    if cfg.state in tm.halting:
        return None
    write, move, nxt = tm.transitions[(cfg.state, cfg.scanned)]
    if move == RIGHT:
        scanned = cfg.right[0] if cfg.right else tm.blank
        return TapeConfiguration(cfg.left + write, scanned, nxt, cfg.right[1:])
    scanned = cfg.left[-1] if cfg.left else tm.blank
    return TapeConfiguration(cfg.left[:-1], scanned, nxt, write + cfg.right)


# ---------------------------------------------------------------------------
# Compilation


def machine_rules(tm: TuringMachine) -> list[tuple[str, str]]:
    """Rewrite rules simulating the machine, in a fixed emission order.

    For every transition there is one rule per possible neighbor cell plus
    one rule for running off the touched tape (which materializes a blank).
    Order: states ascending, read symbols in tape-alphabet order, neighbor
    contexts in tape-alphabet order, then the edge rule.
    """
    rules: list[tuple[str, str]] = []
    for s in tm.states:
        if s in tm.halting:
            continue
        head = f"H{state_token(s)}"
        for x in tm.tape_alphabet:
            write, move, nxt = tm.transitions[(s, x)]
            head_next = f"H{state_token(nxt)}"
            if move == RIGHT:
                for c in tm.tape_alphabet:
                    rules.append((f"{x}{head}{c}", f"{write}{c}{head_next}"))
                rules.append((f"{x}{head}_", f"{write}{tm.blank}{head_next}_"))
            else:
                for c in tm.tape_alphabet:
                    rules.append((f"{c}{x}{head}", f"{c}{head_next}{write}"))
                rules.append((f"_{x}{head}", f"_{tm.blank}{head_next}{write}"))
    return rules


def machine_alphabet(tm: TuringMachine) -> str:
    return "".join(tm.tape_alphabet) + "_H" + "".join(state_token(s) for s in tm.states)


def compile_tm(tm: TuringMachine, input_n: int = 1) -> MultiwaySystem:
    """Compile a machine into a rewriting system started on a unary input.

    The evolution is one state per layer — the machine run, configuration by
    configuration — and goes extinct right after the halting configuration,
    which has no outgoing rules.
    """
    return make_system(
        machine_rules(tm),
        tm_input_state(tm, input_n).render(),
        alphabet=machine_alphabet(tm),
    )


# ---------------------------------------------------------------------------
# Halting-time measurement


@dataclass
class HaltingFunctionMeasurement:
    """Measured run lengths of a machine over unary inputs.

    ``values[n]`` counts configurations from start to halt inclusive.
    ``halt_positions[n]`` records where the head stops relative to the first
    non-blank digit ("on-first" or "left-of-first") — the two placements the
    chain-restart construction can pick up from.  Anything else, and any
    non-halting run, lands in ``constraint_violations``.
    """

    values: dict[int, int] = field(default_factory=dict)
    halt_positions: dict[int, str] = field(default_factory=dict)
    constraint_violations: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.constraint_violations


def validate_t_halter(
    tm: TuringMachine, inputs: Iterable[int], budget: int = 100_000
) -> HaltingFunctionMeasurement:
    """Run the machine on each unary input and measure halting behavior."""
    out = HaltingFunctionMeasurement()
    for n in inputs:
        cfg = tm_input_state(tm, n)
        count = 1
        while (nxt := step_tm(tm, cfg)) is not None:
            cfg, count = nxt, count + 1
            if count > budget:
                out.constraint_violations.append(
                    f"input {n}: not halted after {budget} configurations"
                )
                break
        else:
            out.values[n] = count
            tape = cfg.left + cfg.scanned + cfg.right
            head = len(cfg.left)
            digits = [i for i, c in enumerate(tape) if c != tm.blank]
            if not digits:
                out.constraint_violations.append(f"input {n}: halt tape has no digits")
            elif head == digits[0]:
                out.halt_positions[n] = "on-first"
            elif head == digits[0] - 1:
                out.halt_positions[n] = "left-of-first"
            else:
                out.constraint_violations.append(
                    f"input {n}: halts with head at cell {head}, "
                    f"first digit at cell {digits[0]}"
                )
    return out


# ---------------------------------------------------------------------------
# Chain restart: loop a halting machine back onto its next input


def chain_restart_rules(tm: TuringMachine) -> list[tuple[str, str]]:
    """Hook, shuttle, and restart rules (no counting branch).

    When the machine halts, the head marker becomes a right-moving shuttle
    that crosses the unary output, turns at its end (either at a blank digit
    or at the tape fence), returns left, and re-launches the machine on the
    output — one extra input digit per round trip.
    """
    blank = tm.blank
    rules = [(f"H{state_token(f)}", FWD_TOKEN) for f in sorted(tm.halting)]
    rules += [
        (f"{FWD_TOKEN}{UNARY_DIGIT}", f"{UNARY_DIGIT}{FWD_TOKEN}"),
        (f"{FWD_TOKEN}{blank}", f"{REW_TOKEN}_{blank}"),
        (f"{FWD_TOKEN}_", f"{REW_TOKEN}_"),
        (f"{UNARY_DIGIT}{REW_TOKEN}", f"{REW_TOKEN}{UNARY_DIGIT}"),
        (
            f"{blank}{REW_TOKEN}{UNARY_DIGIT}",
            f"{blank}_{UNARY_DIGIT}H{state_token(1)}",
        ),
    ]
    return rules


def enchain(tm: TuringMachine, start_input: int = 1) -> MultiwaySystem:
    """Turn a halting machine into a single unbounded run with a counter.

    The compiled machine is wrapped with the chain-restart shuttle plus a
    branching tally: each restart also spawns a lineage that contributes
    exactly one state per layer from then on.  Layer counts therefore step
    up by one at every restart, tracing the occurrence staircase of the
    per-run cost (see :func:`expected_growth`).
    """
    if UNARY_DIGIT not in tm.tape_alphabet:
        raise ValueError("chain restart needs the unary digit 1 on the tape")
    rules = machine_rules(tm) + chain_restart_rules(tm)
    rules += [
        (f"{tm.blank}{REW_TOKEN}{UNARY_DIGIT}", TALLY_TOKEN),
        (TALLY_TOKEN, TALLY_TOKEN + TALLY_TOKEN),
    ]
    alphabet = machine_alphabet(tm) + FWD_TOKEN + REW_TOKEN + TALLY_TOKEN
    return make_system(rules, tm_input_state(tm, start_input).render(), alphabet=alphabet)


def expected_growth(
    measurement: HaltingFunctionMeasurement, horizon: int, start_input: int = 1
) -> list[int]:
    """Layer counts an enchained machine must produce, from measured run times.

    One chain round on input n costs T(n) configurations plus the shuttle
    traversal p(n), where p depends on where the machine halts: on the first
    output digit, p(n) = 2(n+1)+1; one cell left of it, p(n) = 2(n+2).  The
    layer counts are then the occurrence staircase of T+p read at positions
    d+1, so the result's entry d is the number of states at distance d.
    """
    if measurement.constraint_violations:
        raise ValueError(
            "measurement has violations: " + "; ".join(measurement.constraint_violations)
        )
    variants = set(measurement.halt_positions.values())
    if len(variants) != 1:
        raise ValueError(f"halt positions are mixed or missing: {sorted(variants)}")
    variant = variants.pop()
    turn = 3 if variant == "on-first" else 4

    costs: list[int] = []
    total = 0
    n = start_input
    while total <= horizon:
        if n not in measurement.values:
            raise ValueError(f"horizon {horizon} needs T({n}); measure more inputs")
        costs.append(measurement.values[n] + 2 * n + turn)
        total += costs[-1]
        n += 1
    return list(occurrence_sequence(costs, length=horizon + 1).values)


# ---------------------------------------------------------------------------
# Stock machines


def build_incrementer() -> TuringMachine:
    """Unary incrementer: turns n ones into n+1 in 2n+3 configurations.

    Runs right to the end of the input, appends a one, runs back left, and
    halts on the first digit.
    """
    return TuringMachine(
        n_states=3,
        tape_alphabet=("0", "1"),
        transitions={
            (1, "1"): ("1", RIGHT, 1),
            (1, "0"): ("1", LEFT, 2),
            (2, "1"): ("1", LEFT, 2),
            (2, "0"): ("0", RIGHT, 3),
        },
        halting=frozenset({3}),
    )


def build_binary_counter() -> TuringMachine:
    """Counter that takes 2^(n+2)-1 configurations on input n.

    The digits 1/2 act as binary 0/1; the machine repeatedly increments the
    binary word until it overflows into one more digit, so the run length is
    exponential in the input while the output is again a unary-style word of
    ones — one longer.  Halts one cell left of the first digit.
    """
    return TuringMachine(
        n_states=3,
        tape_alphabet=("0", "1", "2"),
        transitions={
            (1, "1"): ("1", RIGHT, 1),
            (1, "2"): ("2", RIGHT, 1),
            (1, "0"): ("0", LEFT, 2),
            (2, "2"): ("1", LEFT, 2),
            (2, "1"): ("2", RIGHT, 1),
            (2, "0"): ("1", LEFT, 3),
        },
        halting=frozenset({3}),
    )


# ---------------------------------------------------------------------------
# Machine files


_TM_HEADER_RE = re.compile(r"(\d+)\s+halting:\s*\{([^}]*)\}$")  # after "states:"
_TM_DELTA_RE = re.compile(
    r"\(\s*(\d+)\s*,\s*([^,\s()]+)\s*\)\s*->\s*"
    r"\(\s*([^,\s()]+)\s*,\s*([LR])\s*,\s*(\d+)\s*\)\s*$"
)


def parse_tm(text: str) -> TuringMachine:
    """Parse machine-file text.

    The format is line based: a ``states: n halting: {...}`` header, an
    optional ``blank: <symbol>`` line (default ``0``), and one
    ``delta: (state, read) -> (write, L|R, state)`` line per transition.
    ``#`` starts a comment and blank lines are skipped.  The tape alphabet
    is the blank plus every symbol a transition mentions, sorted.  Only the
    syntax is checked here (:class:`ParseError`); the machine is checked by
    :class:`TuringMachine`, whose :class:`MachineError` comes back with the
    first line naming the part at fault, or unchanged when it names none.
    """
    n_states: int | None = None
    halting: frozenset[int] | None = None
    blank: str | None = None
    transitions: dict[tuple[int, str], Transition] = {}
    lines: dict[tuple, int] = {}  # the first line naming each part a MachineError can name
    for lineno, key, rest in directives(text):
        if key == "states":
            if n_states is not None:
                raise ParseError("duplicate states line", lineno)
            match = _TM_HEADER_RE.match(rest)
            if not match:
                raise ParseError("expected 'states: n halting: {...}'", lineno)
            n_states, lines[("states",)] = int(match.group(1)), lineno
            body = match.group(2).strip()
            names = [p.strip() for p in body.split(",")] if body else []
            if not all(p.isdigit() for p in names):
                raise ParseError("halting states must be integers", lineno)
            halting = frozenset(int(p) for p in names)
        elif key == "blank":
            if blank is not None:
                raise ParseError("duplicate blank line", lineno)
            if not rest:
                raise ParseError("blank needs a symbol", lineno)
            blank = rest
            lines.setdefault(("symbol", blank), lineno)
        elif key == "delta":
            match = _TM_DELTA_RE.match(rest)
            if not match:
                raise ParseError("expected 'delta: (state, read) -> (write, L|R, state)'", lineno)
            state, read, write = int(match.group(1)), match.group(2), match.group(3)
            if (state, read) in transitions:
                raise ParseError(f"duplicate transition for ({state}, {read})", lineno)
            transitions[(state, read)] = (write, match.group(4), int(match.group(5)))
            lines[("delta", state, read)] = lineno
            for sym in (read, write):
                lines.setdefault(("symbol", sym), lineno)
        else:
            raise ParseError(f"unknown directive {key!r}", lineno)
    if n_states is None or halting is None:
        raise ParseError("missing 'states: n halting: {...}' line")
    blank = "0" if blank is None else blank
    symbols = {sym for (_, read), (write, _, _) in transitions.items() for sym in (read, write)}
    tape = (blank, *sorted(symbols - {blank}))
    try:
        return TuringMachine(n_states, tape, transitions, halting, blank)
    except MachineError as exc:
        if exc.part not in lines:
            raise
        raise MachineError(str(exc), exc.part, lines[exc.part]) from None
