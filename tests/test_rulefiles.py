from __future__ import annotations

import pytest

from multiway import make_system
from multiway.rulefiles import ParseError, directives, format_system, parse_system

SAMPLE = """\
# three rules, one of them deleting
alphabet: AB
init: ABABAB

rule: AB ->
rule: ABA -> ABBAB   # trailing comment
rule: ABABBB -> AAAAABA
"""


def test_parse_basic():
    m = parse_system(SAMPLE)
    assert m.alphabet.glyphs == ("A", "B")
    assert m.init == "ABABAB"
    assert [(l, r) for l, r in m.rules] == [
        ("AB", ""),
        ("ABA", "ABBAB"),
        ("ABABBB", "AAAAABA"),
    ]


def test_parse_infers_alphabet_when_line_absent():
    m = parse_system("init: BA\nrule: A -> C\n")
    assert m.alphabet.glyphs == ("B", "A", "C")
    # the rule-file parser and make_system infer the same alphabet
    m = parse_system("init: _1H[q1]_\nrule: 1H[q1]0 -> 10H[q2]\nrule: [q2]1 -> [q1]X\n")
    assert m.alphabet.glyphs == ("_", "1", "H", "[q1]", "0", "[q2]", "X")
    rules = [("1H[q1]0", "10H[q2]"), ("[q2]1", "[q1]X")]
    assert make_system(rules, "_1H[q1]_").alphabet == m.alphabet


def test_lines_in_any_order():
    m = parse_system("rule: A -> B\ninit: A\nalphabet: AB\n")
    assert m.init == "A"


def test_empty_init_and_empty_rhs():
    m = parse_system("init:\nrule: A ->\n")
    assert m.init == ""
    assert m.rules[0].rhs == ""


def test_bracketed_tokens_parse():
    m = parse_system("init: _1H[q1]_\nrule: 1H[q1]0 -> 10H[q1]\n")
    assert "[q1]" in m.alphabet.glyphs


def test_duplicate_rules_dropped():
    m = parse_system("init: A\nrule: A -> B\nrule: A -> B\n")
    assert len(m.rules) == 1


@pytest.mark.parametrize(
    "text, line",
    [
        ("rule: A -> B\n", None),  # missing init
        ("init: A\ninit: B\n", 2),
        ("init: A\nalphabet: A\nalphabet: A\n", 3),
        ("init: A\nfoo: bar\n", 2),
        ("init: A\njust words\n", 2),
        ("init: A\nrule: A B\n", 2),  # no arrow
        ("init: A\nrule:  -> B\n", 2),  # empty lhs
        ("alphabet: A\ninit: AB\n", 2),  # init outside alphabet
        ("alphabet: A\ninit: A\nrule: A -> B\n", 3),  # rhs outside alphabet
        ("init: [broken\n", 1),
        ("init: A\nalphabet: A[broken\n", 2),
        ("init: A\nrule: A -> [broken\n", 2),
    ],
)
def test_parse_errors_carry_line_numbers(text, line):
    with pytest.raises(ParseError) as err:
        parse_system(text)
    assert err.value.line == line


@pytest.mark.parametrize("line, key", [("foo: bar", "foo"), ("just words", "just words")])
def test_unknown_and_keyless_lines_share_one_message(line, key):
    message = rf"^line 2: expected 'alphabet:', 'init:' or 'rule:', got '{key}'$"
    with pytest.raises(ParseError, match=message):
        parse_system(f"init: A\n{line}\n")


def test_directives_cut_comments_and_blank_lines():
    text = "# header\n\n  key : a: b  # trailing\n   \nbare words\n"
    assert list(directives(text)) == [(3, "key", "a: b"), (5, "bare words", "")]


def test_round_trip():
    m = make_system([("AB", "BA"), ("A", "A[tock]")], "AAB")
    again = parse_system(format_system(m))
    assert again == m


def test_format_emits_header_comments():
    m = make_system([("A", "B")], "A")
    text = format_system(m, header=["multiway 0.1.0", "horizon=5"])
    assert text.startswith("# multiway 0.1.0\n# horizon=5\n")
    assert parse_system(text) == m


def test_format_rejects_ambiguous_lhs():
    m = make_system([("->", "A")], "-")
    with pytest.raises(ValueError):
        format_system(m)
