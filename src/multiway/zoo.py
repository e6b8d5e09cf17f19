"""A zoo of rewriting systems with known growth behavior.

Each builder returns a system whose layer counts follow a closed form, which
makes the zoo double as a test corpus for the growth classifier: every entry
in :data:`ZOO` names the class the classifier is expected to report and a
horizon at which the verdict is stable.
"""

from __future__ import annotations

import string
from dataclasses import dataclass
from typing import Callable

from .algebra import sum_systems
from .core import MultiwaySystem, make_system
from .tm import (
    FWD_TOKEN,
    REW_TOKEN,
    build_binary_counter,
    build_incrementer,
    chain_restart_rules,
    enchain,
    machine_alphabet,
    machine_rules,
    state_token,
    tm_input_state,
)


def chain(length: int = 3) -> MultiwaySystem:
    """A finite path: each symbol rewrites to the next, then extinction.

    Layer counts are 1 for the first ``length`` layers and 0 afterwards.
    """
    if not 1 <= length <= 26:
        raise ValueError("chain length must be in 1..26")
    symbols = string.ascii_uppercase[:length]
    rules = [(symbols[i], symbols[i + 1]) for i in range(length - 1)]
    return make_system(rules, symbols[0], alphabet=symbols)


def constant() -> MultiwaySystem:
    """One state per layer, forever: A doubles but all rewrites collide."""
    return make_system([("A", "AA")], "A")


def polynomial(width: int = 3) -> MultiwaySystem:
    """Growth like a binomial coefficient of degree ``width`` - 1.

    ``width`` independent growth sites share one rule, so layer d holds one
    state per way of distributing d insertions over the sites:
    C(d + width - 1, width - 1).
    """
    if width < 1:
        raise ValueError("width must be positive")
    return make_system([("A", "AB")], "A" * width)


def _letters(branching: int) -> str:
    """The first ``branching`` lowercase letters: one per choice of a branching step."""
    if not 1 <= branching <= 26:
        raise ValueError("branching must be in 1..26")
    return string.ascii_lowercase[:branching]


def _shuttle(letters: str) -> list[tuple[str, str]]:
    """The fence shuttle's rules: at either T fence, turn and write one of ``letters``."""
    rules: list[tuple[str, str]] = []
    for c in letters:
        rules += [("TL", f"T{c}R"), ("RT", f"L{c}T"), (f"R{c}", f"{c}R"), (f"{c}L", f"L{c}")]
    return rules


def exponential(branching: int = 3) -> MultiwaySystem:
    """Pure branching: ``branching``^d states at distance d."""
    letters = _letters(branching)
    rules = [("Q", f"Q{c}") for c in letters]
    return make_system(rules, "Q", alphabet="Q" + letters)


def intermediate(branching: int = 3) -> MultiwaySystem:
    """Growth between every polynomial and every exponential.

    A shuttle bounces between two T fences over an ever-longer word; each
    full traversal makes one ``branching``-way choice, and the j-th
    traversal takes j more layers than the previous one.  Layer counts are
    branching^w(d) with w(d) ~ sqrt(2 d) completed traversals.
    """
    letters = _letters(branching)
    return make_system(_shuttle(letters), "TLT", alphabet="TLR" + letters)


def inverse_polynomial() -> MultiwaySystem:
    """Layer counts growing like the square root of the distance.

    The single-letter shuttle of :func:`intermediate` is tapped at both
    turning points: every completed traversal spawns one immortal counting
    lineage, so layer d holds 1 + w(d) states with w(d) ~ sqrt(2 d).
    """
    rules = _shuttle("a") + [("TL", "[z]"), ("RT", "[z]"), ("[z]", "[z][z]")]
    return make_system(rules, "TLT", alphabet="TLRa[z]")


def log_system() -> MultiwaySystem:
    """Layer counts growing like the logarithm of the distance.

    The chained binary counter: run k takes about 2^k layers, and each
    completed run adds one state per layer from then on.
    """
    return enchain(build_binary_counter(), start_input=0)


def burst(branching: int = 3, lifetime: int = 4) -> MultiwaySystem:
    """Exponential growth that dies: branching^d states until the fuel runs out.

    A runner eats one A per layer, making a ``branching``-way choice each
    time; after ``lifetime`` layers there is nothing left to eat.
    """
    letters = _letters(branching)
    if lifetime < 1:
        raise ValueError("lifetime must be positive")
    rules = [("RA", f"{c}R") for c in letters]
    return make_system(rules, "R" + "A" * lifetime, alphabet="RA" + letters)


def oscillating_composite() -> MultiwaySystem:
    """Linear baseline plus polynomially spaced quartic spikes.

    One summand grows linearly.  The other runs the chained unary
    incrementer, whose k-th run ends near layer 2k^2 on a word of k ones,
    with a second hook on its halting state: alongside each restart, a
    surveyor lineage sweeps the word and may pause to plant up to four
    markers on the way (two variants for the last), so the sweep fans out
    into one state per marker placement and then dies at the end of the
    word.  Spike peaks scale like k^4 ~ layer^2 while the troughs fall back
    to the baseline, so the upper and lower growth envelopes sit a full
    polynomial degree apart and the classifier must report oscillation.
    """
    stepper = build_incrementer()
    rules = machine_rules(stepper) + chain_restart_rules(stepper)
    rules += [(f"H{state_token(f)}", "[s0]") for f in sorted(stepper.halting)]
    for i in range(3):
        rules += [(f"[s{i}]1", f"1[s{i}]"), (f"[s{i}]1", f"x[s{i + 1}]1")]
    rules += [
        ("[s3]1", "1[s3]"),
        ("[s3]1", "x[s4]1"),
        ("[s3]1", "y[s4]1"),
        ("[s4]1", "1[s4]"),
    ]
    machine_side = make_system(
        rules,
        tm_input_state(stepper, 1).render(),
        alphabet=machine_alphabet(stepper) + FWD_TOKEN + REW_TOKEN + "xy[s0][s1][s2][s3][s4]",
    )
    linear_side = make_system([("P", "PQ")], "PP")
    return sum_systems(linear_side, machine_side).system


@dataclass(frozen=True)
class ZooEntry:
    """A named zoo system plus what the classifier should say about it."""

    name: str
    build: Callable[..., MultiwaySystem]
    expected: str
    classify_horizon: int
    closed_form: str | None = None


ZOO: dict[str, ZooEntry] = {
    entry.name: entry
    for entry in (
        ZooEntry("chain", chain, "Fin", 10, "c(d) = 1 if d < length else 0"),
        ZooEntry("constant", constant, "Bnd", 12, "c(d) = 1"),
        ZooEntry("polynomial", polynomial, "Pol(2)", 40, "c(d) = C(d + width - 1, width - 1)"),
        ZooEntry("exponential", exponential, "Exp(3)", 10, "c(d) = branching**d"),
        ZooEntry(
            "intermediate",
            intermediate,
            "Int",
            47,
            "c(d) = branching**w(d) with w(d) ~ sqrt(2d) completed traversals",
        ),
        ZooEntry(
            "inverse_polynomial",
            inverse_polynomial,
            "InvPol",
            220,
            "c(d) = 1 + w(d) for d >= 1, w(d) ~ sqrt(2d)",
        ),
        ZooEntry("log_system", log_system, "InvExp", 4300, "c(d) ~ log2(d) staircase"),
        ZooEntry(
            "burst", burst, "Fin", 12, "c(d) = branching**d if d <= lifetime else 0"
        ),
        ZooEntry(
            "oscillating_composite",
            oscillating_composite,
            "oscillating",
            580,
            "upper envelope ~ d**2 at spike peaks, lower ~ d at troughs",
        ),
    )
}
