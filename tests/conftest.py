"""Shared test helpers: a deliberately naive reference implementation.

The reference expander below scans every position with startswith instead of
str.find, keeps layers as plain sets, and knows nothing about budgets or
edges.  Engine results are checked against it on small systems.  The
rule-independence reference below compares graphs by layered isomorphism,
the way ``check_rule_independence`` once did.
"""

from __future__ import annotations

from multiway.algebra import layered_isomorphic
from multiway.core import MultiwaySystem, StatesGraph, evolve


def naive_successors(rules: list[tuple[str, str]], s: str) -> list[tuple[str, int, int]]:
    """(result, rule index, position) for every match, each built from scratch."""
    out = []
    for ri, (lhs, rhs) in enumerate(rules):
        for p in range(len(s) - len(lhs) + 1):
            if s.startswith(lhs, p):
                out.append((s[:p] + rhs + s[p + len(lhs) :], ri, p))
    return out


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
    the prefixes stop being isomorphic.  Exact only while the graphs stay
    under ``BACKTRACK_NODE_LIMIT`` nodes.
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
