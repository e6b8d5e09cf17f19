"""Plain-text rule files: ``alphabet:`` / ``init:`` / ``rule: lhs -> rhs`` lines."""

from __future__ import annotations

from .core import Alphabet, GlyphError, MultiwaySystem, Rule, parse_glyphs, render_glyphs


class ParseError(ValueError):
    """Rule-file syntax error, carrying the 1-based line number."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        super().__init__(f"line {line}: {message}" if line else message)


def parse_system(text: str) -> MultiwaySystem:
    """Parse rule-file text into a system.

    Blank lines are skipped and ``#`` starts a comment (whole-line or
    trailing).  Lines may appear in any order.  ``init:`` is required,
    ``alphabet:`` is optional (inferred from init and rules, in order of
    first appearance, when absent).  Rules split on the first ``->``; the
    right-hand side may be empty.  Duplicate rules are dropped silently,
    duplicate ``alphabet:`` / ``init:`` lines are errors.
    """
    alphabet: Alphabet | None = None
    init: str | None = None
    checks: list[tuple[str, int, str]] = []  # (encoded, line, description)
    rules: list[Rule] = []

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition(":")
        if not sep:
            raise ParseError("expected 'alphabet:', 'init:' or 'rule:'", lineno)
        key = key.strip()
        value = value.strip()
        if key == "alphabet":
            if alphabet is not None:
                raise ParseError("duplicate alphabet line", lineno)
            try:
                alphabet = Alphabet.parse(value)
            except GlyphError as exc:
                raise ParseError(str(exc), lineno) from exc
        elif key == "init":
            if init is not None:
                raise ParseError("duplicate init line", lineno)
            try:
                init = parse_glyphs(value)
            except GlyphError as exc:
                raise ParseError(str(exc), lineno) from exc
            checks.append((init, lineno, "init"))
        elif key == "rule":
            lhs_text, arrow, rhs_text = value.partition("->")
            if not arrow:
                raise ParseError("rule needs '->'", lineno)
            try:
                lhs = parse_glyphs(lhs_text.strip())
                rhs = parse_glyphs(rhs_text.strip())
            except GlyphError as exc:
                raise ParseError(str(exc), lineno) from exc
            if not lhs:
                raise ParseError("rule with empty left-hand side", lineno)
            checks.append((lhs + rhs, lineno, "rule"))
            rules.append(Rule(lhs, rhs))
        else:
            raise ParseError(f"unknown key {key!r}", lineno)

    if init is None:
        raise ParseError("missing init line")
    if alphabet is None:
        alphabet = Alphabet.infer(init, rules)
    else:
        for encoded, lineno, what in checks:
            try:
                alphabet.check(encoded)
            except GlyphError as exc:
                raise ParseError(f"{what}: {exc}", lineno) from exc

    return MultiwaySystem(alphabet, tuple(rules), init)


def format_system(system: MultiwaySystem, header: list[str] | None = None) -> str:
    """Emit rule-file text that :func:`parse_system` reads back identically.

    ``header`` lines, if given, are written first as ``#`` comments.
    """
    lines = [f"# {h}" for h in header or []]
    lines.append("alphabet: " + render_glyphs("".join(system.alphabet.symbols)))
    lines.append("init: " + render_glyphs(system.init))
    for lhs, rhs in system.rules:
        lhs_text = render_glyphs(lhs)
        if "->" in lhs_text:
            raise ValueError(f"left-hand side {lhs_text!r} cannot be written unambiguously")
        lines.append(f"rule: {lhs_text} -> {render_glyphs(rhs)}")
    return "\n".join(lines) + "\n"
