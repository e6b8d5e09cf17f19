"""Expected values computed apart from the rewrite engine, and the checks.

Nothing here imports ``multiway``.  Every ``check_*`` function returns a list
of problems, empty when the output is right, so a pass can report all of them
and the self-test can show that each check catches a wrong value.
"""

from __future__ import annotations

import json
import math
import re

# ---------------------------------------------------------------------------
# Closed forms of the zoo entries (default parameters)


def traversals(d: int) -> int:
    """Completed shuttle traversals within d layers: the largest j with 1 + j(j-1)/2 <= d."""
    j = 0
    while 1 + j * (j + 1) // 2 <= d:
        j += 1
    return j


def closed_form(name: str, horizon: int) -> list[int]:
    """Layer counts 0..horizon of a zoo entry built with its default parameters."""
    ds = range(horizon + 1)
    if name == "chain":  # length 3
        return [1 if d < 3 else 0 for d in ds]
    if name == "constant":
        return [1 for _ in ds]
    if name == "polynomial":  # width 3
        return [math.comb(d + 2, 2) for d in ds]
    if name == "exponential":  # branching 3
        return [3**d for d in ds]
    if name == "intermediate":
        return [3 ** traversals(d) for d in ds]
    if name == "inverse_polynomial":
        return [1 + traversals(d) for d in ds]
    if name == "burst":  # branching 3, lifetime 4
        return [3**d if d <= 4 else 0 for d in ds]
    raise KeyError(name)


def convolve(a: list[int], b: list[int]) -> list[int]:
    """Product law: counts of a product system."""
    return [sum(a[i] * b[d - i] for i in range(d + 1)) for d in range(min(len(a), len(b)))]


def add(a: list[int], b: list[int]) -> list[int]:
    """Sum law: one seed state, then the operands side by side."""
    return [1] + [x + y for x, y in zip(a[1:], b[1:])]


# ---------------------------------------------------------------------------
# Naive expander: every position tested, layers kept as plain sets


def naive_layers(
    rules: list[tuple[str, str]], init: str, horizon: int, max_states: int | None = None
) -> list[set[str]] | None:
    """BFS layers with global deduplication; None past ``max_states``.

    Strings hold one character per symbol (interned states qualify).
    """
    seen = {init}
    layers = [{init}]
    frontier = [init]
    for _ in range(horizon):
        fresh: set[str] = set()
        for s in frontier:
            for lhs, rhs in rules:
                n = len(lhs)
                for p in range(len(s) - n + 1):
                    if s[p : p + n] == lhs:
                        t = s[:p] + rhs + s[p + n :]
                        if t not in seen:
                            fresh.add(t)
        seen |= fresh
        if max_states is not None and len(seen) > max_states:
            return None
        layers.append(fresh)
        frontier = list(fresh)
    return layers


def naive_counts(rules, init, horizon, max_states=None) -> list[int] | None:
    layers = naive_layers(rules, init, horizon, max_states)
    return None if layers is None else [len(layer) for layer in layers]


# ---------------------------------------------------------------------------
# Growth verdicts (acceptance criterion 12) and the log sandwich (criterion 8)

# name -> (upper kind, upper parameter, lower kind, lower parameter, tolerance, regular)
VERDICTS = {
    "chain": ("Fin", None, "Fin", None, None, "regular"),
    "constant": ("Bnd", None, "Bnd", None, None, "regular"),
    "polynomial": ("Pol", 2.0, "Pol", None, 0.3, "regular"),
    "exponential": ("Exp", 3.0, "Exp", None, 0.15, "regular"),
    "intermediate": ("Int", None, "Int", None, None, "regular"),
    "inverse_polynomial": ("InvPol", None, "InvPol", None, None, "regular"),
    "burst": ("Fin", None, "Fin", None, None, "regular"),
    "oscillating_composite": ("Pol", 2.0, "Pol", 1.0, 0.3, "oscillating"),
}


def check_counts(label: str, got, want) -> list[str]:
    if list(got) == list(want):
        return []
    got, want = list(got), list(want)
    where = next((d for d, (g, w) in enumerate(zip(got, want)) if g != w), min(len(got), len(want)))
    return [f"{label}: counts differ from distance {where} (got {got[where:where + 3]}, want {want[where:where + 3]}; lengths {len(got)}/{len(want)})"]


def check_verdict(label: str, name: str, upper, lower, regular: str) -> list[str]:
    """``upper`` and ``lower`` are (kind, parameter) pairs."""
    up_kind, up_param, low_kind, low_param, tol, want_regular = VERDICTS[name]
    problems = []
    for side, (kind, param), want_kind, want_param in (
        ("upper", upper, up_kind, up_param),
        ("lower", lower, low_kind, low_param),
    ):
        if kind != want_kind:
            problems.append(f"{label}: {side} class {kind}, want {want_kind}")
        elif want_param is not None and (param is None or abs(param - want_param) > tol):
            problems.append(f"{label}: {side} parameter {param}, want {want_param} +- {tol}")
    if regular != want_regular:
        problems.append(f"{label}: regularity {regular}, want {want_regular}")
    return problems


def check_log_sandwich(label: str, counts: list[int]) -> list[str]:
    """log2(d)/2 <= c(d) <= log2(d) for every d past a burn-in of at most 32."""
    bad = [d for d in range(1, len(counts)) if not 0.5 * math.log2(d) <= counts[d] <= math.log2(d)]
    burn_in = max(bad) + 1 if bad else 1
    return [] if burn_in <= 32 else [f"{label}: log sandwich broken up to distance {burn_in - 1}"]


# ---------------------------------------------------------------------------
# CLI outputs, parsed by the benchmark itself

_TOKEN = re.compile(r"\[[^\]]*\]|.")


def glyphs(text: str) -> list[str]:
    """Split glyph text into symbols: one character, or a bracketed token."""
    return _TOKEN.findall(text)


def read_rule_file(text: str) -> tuple[str, list[tuple[str, str]], int]:
    """(init, rules, header comment lines) of a rule file, re-encoded one char per symbol.

    The encoding is the benchmark's own, independent of the program's
    interning table, so the naive expander can run on what the CLI wrote.
    """
    table: dict[str, str] = {}

    def enc(t: str) -> str:
        return "".join(table.setdefault(g, chr(0x100 + len(table))) for g in glyphs(t.strip()))

    init, rules, header = None, [], 0
    for line in text.splitlines():
        if line.startswith("#"):
            header += 1
            continue
        key, _, value = line.partition(":")
        if key == "init":
            init = enc(value)
        elif key == "rule":
            lhs, _, rhs = value.partition("->")
            rules.append((enc(lhs), enc(rhs)))
    if init is None:
        raise ValueError("rule file without init line")
    return init, rules, header


def csv_counts(text: str) -> list[int]:
    rows = [line for line in text.splitlines() if line and not line.startswith("#")]
    if rows[0] != "d,count,maxlen":
        raise ValueError(f"unexpected CSV header {rows[0]!r}")
    return [int(row.split(",")[1]) for row in rows[1:]]


def json_counts(text: str) -> list[int]:
    doc = json.loads(text)
    if "series" in doc:
        return [row["count"] for row in doc["series"]]
    return list(doc["counts"])


def dot_shape(text: str) -> tuple[int, int]:
    """(nodes, edges) of a DOT states graph."""
    nodes = edges = 0
    for line in text.splitlines():
        line = line.strip()
        if re.match(r"n\d+ -> n\d+ ", line):
            edges += 1
        elif re.match(r"n\d+ \[label=", line):
            nodes += 1
    return nodes, edges


def check_dot_tree(label: str, text: str, counts: list[int]) -> list[str]:
    """A tree-shaped states graph: one node per state, one edge fewer."""
    nodes, edges = dot_shape(text)
    problems = []
    if nodes != sum(counts):
        problems.append(f"{label}: {nodes} DOT nodes, want {sum(counts)}")
    if edges != sum(counts) - 1:
        problems.append(f"{label}: {edges} DOT edges, want {sum(counts) - 1}")
    return problems


def check_classify_json(label: str, name: str, text: str, horizon: int) -> list[str]:
    doc = json.loads(text)
    problems = check_counts(label, doc["counts"], closed_form(name, horizon))
    up, low = doc["upper_class"], doc["lower_class"]
    return problems + check_verdict(
        label, name, (up["kind"], up["parameter"]), (low["kind"], low["parameter"]), doc["regular"]
    )
