"""Plain-text rule files: ``alphabet:`` / ``init:`` / ``rule: lhs -> rhs`` lines.

Machine files (:func:`multiway.tm.parse_tm`) share their line reader, :func:`directives`.
"""

from __future__ import annotations

from typing import Iterator

from .core import Alphabet, GlyphError, MultiwaySystem, Rule, parse_glyphs, render_glyphs


class ParseError(ValueError):
    """Rule-file syntax error, carrying the 1-based line number."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        super().__init__(f"line {line}: {message}" if line else message)


def directives(text: str) -> Iterator[tuple[int, str, str]]:
    """``(lineno, key, value)`` for each line left once ``#`` comments and blank lines are cut.

    The line splits on its first ``:``, both sides stripped; a line without
    one is all key, with an empty value.
    """
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            key, _, value = line.partition(":")
            yield lineno, key.strip(), value.strip()


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

    for lineno, key, value in directives(text):
        try:
            if key == "alphabet":
                if alphabet is not None:
                    raise ParseError("duplicate alphabet line", lineno)
                alphabet = Alphabet.parse(value)
            elif key == "init":
                if init is not None:
                    raise ParseError("duplicate init line", lineno)
                init = parse_glyphs(value)
                checks.append((init, lineno, "init"))
            elif key == "rule":
                lhs_text, arrow, rhs_text = value.partition("->")
                if not arrow:
                    raise ParseError("rule needs '->'", lineno)
                lhs, rhs = parse_glyphs(lhs_text.strip()), parse_glyphs(rhs_text.strip())
                if not lhs:
                    raise ParseError("rule with empty left-hand side", lineno)
                checks.append((lhs + rhs, lineno, "rule"))
                rules.append(Rule(lhs, rhs))
            else:
                raise ParseError(f"expected 'alphabet:', 'init:' or 'rule:', got {key!r}", lineno)
        except GlyphError as exc:
            raise ParseError(str(exc), lineno) from exc

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
