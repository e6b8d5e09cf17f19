"""CLI surface: output formats, exit codes, headers, determinism."""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from multiway.cli import BUDGET_ENV_VAR, main
from multiway.core import evolve, export_dot
from multiway.rulefiles import parse_system
from multiway.tm import build_incrementer, compile_tm, enchain
from multiway.zoo import ZOO, polynomial

FIG1 = "init: AA\nrule: A -> AB\n"
EXP3 = "init: Q\nrule: Q -> Qa\nrule: Q -> Qb\nrule: Q -> Qc\n"
TOKEN_RULES = "init: [dk]\nrule: [dk] -> [dk][dkx]\nrule: [dk] -> [dk][dkw]\n"
INCREMENTER_MACHINE = """\
states: 3 halting: {3}
blank: 0
delta: (1, 1) -> (1, R, 1)
delta: (1, 0) -> (1, L, 2)
delta: (2, 1) -> (1, L, 2)
delta: (2, 0) -> (0, R, 3)
"""


@pytest.fixture
def write_file(tmp_path):
    def write(text: str, name: str = "system.rules") -> str:
        path = tmp_path / name
        path.write_text(text, encoding="utf-8")
        return str(path)

    return write


def csv_counts(out: str) -> list[int]:
    rows = [line for line in out.splitlines() if line and not line.startswith("#")]
    assert rows[0] == "d,count,maxlen"
    return [int(row.split(",")[1]) for row in rows[1:]]


def test_simulate_csv_prints_one_row_per_generation(write_file, capsys):
    assert main(["simulate", write_file(FIG1), "--horizon", "5"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("# multiway 0.1.0\n# config: ")
    assert "# generation n = distance d + 1" in out
    assert csv_counts(out) == [1, 2, 3, 4, 5]


def test_simulate_ruleless_single_row(write_file, capsys):
    assert main(["simulate", write_file("init: A\n"), "--horizon", "1"]) == 0
    assert csv_counts(capsys.readouterr().out) == [1]


def test_simulate_json_carries_both_indexings(write_file, capsys):
    assert main(["simulate", write_file(FIG1), "--horizon", "6", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["tool"] == "multiway 0.1.0"
    assert doc["config"]["horizon"] == 6
    assert doc["truncated"] is False
    assert [row["count"] for row in doc["series"]] == [1, 2, 3, 4, 5, 6]
    assert all(row["generation"] == row["d"] + 1 for row in doc["series"])


def test_simulate_truncation_is_resource_exit_for_csv(write_file, capsys):
    code = main(["simulate", write_file(EXP3), "--horizon", "9", "--budget", "100"])
    assert code == 5
    assert "# truncated: " in capsys.readouterr().out


def test_simulate_truncation_is_flagged_success_for_json(write_file, capsys):
    code = main(
        ["simulate", write_file(EXP3), "--horizon", "9", "--budget", "100", "--format", "json"]
    )
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["truncated"] is True
    assert "100 states" in doc["truncation_reason"]


@pytest.mark.parametrize("fmt, exit_code", [("json", 0), ("csv", 5)])
def test_truncated_simulate_writes_nothing_to_stderr(
    write_file, capsys, monkeypatch, fmt, exit_code
):
    # the truncation is reported in-band; the library's warning stays off stderr
    # unless the application configures logging
    monkeypatch.delenv(BUDGET_ENV_VAR, raising=False)
    args = ["simulate", write_file(EXP3), "--horizon", "9", "--budget", "100", "--format", fmt]
    assert main(args) == exit_code
    in_process = capsys.readouterr().out
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).parents[1] / "src")}
    fresh = subprocess.run(
        [sys.executable, "-m", "multiway", *args], env=env, capture_output=True, timeout=60
    )
    assert (fresh.returncode, fresh.stderr, fresh.stdout.decode()) == (exit_code, b"", in_process)


def test_simulate_dot_is_deterministic(write_file, tmp_path):
    rules = write_file(FIG1)
    args = ["simulate", rules, "--horizon", "6", "--format", "dot"]
    assert main(args + ["--out", str(tmp_path / "a.dot")]) == 0
    assert main(args + ["--out", str(tmp_path / "b.dot")]) == 0
    a = (tmp_path / "a.dot").read_bytes()
    assert a == (tmp_path / "b.dot").read_bytes()
    assert a.startswith(b"// multiway 0.1.0\n")
    assert b"digraph" in a

    # A fresh process interns [dkx] before [dkw].  Here an unrelated system
    # interns them the other way round before the token rule file's second run.
    tokens = write_file(TOKEN_RULES, "tokens.rules")
    args = ["simulate", tokens, "--horizon", "3", "--format", "dot"]
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).parents[1] / "src")}
    fresh = subprocess.run(
        [sys.executable, "-m", "multiway", *args], env=env, check=True, capture_output=True
    ).stdout
    assert main(["simulate", write_file("init: [dkw]\nrule: [dkw] -> [dkx]\n", "other.rules")]) == 0
    assert main(args + ["--out", str(tmp_path / "c.dot")]) == 0
    assert (tmp_path / "c.dot").read_bytes() == fresh


def test_classify_json_report(write_file, capsys):
    assert main(["classify", write_file(EXP3), "--horizon", "10"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["upper_class"]["kind"] == "Exp"
    assert doc["upper_class"]["parameter"] == pytest.approx(3.0, rel=0.05)
    assert doc["regular"] == "regular"
    assert doc["layers"] == 10
    assert doc["fits"]
    assert doc["caveat"]


@pytest.mark.parametrize(
    "args",
    [
        ["simulate", "--horizon", "12"],
        ["simulate", "--horizon", "12", "--budget", "300"],
        ["simulate", "--horizon", "12", "--format", "json"],
        ["classify", "--horizon", "16"],
    ],
)
def test_output_without_edges_matches_output_with_edges(args, tmp_path, monkeypatch):
    # Only DOT output reads edges, so the other commands evolve without them;
    # their bytes must equal what the same command writes when it records edges.
    rules = str(tmp_path / "intermediate.rules")
    assert main(["zoo", "emit", "intermediate", "--out", rules]) == 0
    command = [args[0], rules, *args[1:], "--out", str(tmp_path / "out")]
    recorded = []

    def spy(system, horizon, **kwargs):
        recorded.append(kwargs["record_edges"])
        return evolve(system, horizon, **kwargs)

    def with_edges(system, horizon, **kwargs):
        return evolve(system, horizon, **{**kwargs, "record_edges": True})

    monkeypatch.setattr("multiway.cli.evolve", spy)
    code = main(command)
    without = (tmp_path / "out").read_bytes()
    monkeypatch.setattr("multiway.cli.evolve", with_edges)
    assert main(command) == code
    assert without == (tmp_path / "out").read_bytes()
    assert recorded == [False]


def test_simulate_dot_records_edges(write_file, capsys):
    # AA -> {ABA, AAB} by two matches, and each of those has two A's: 2 + 4 edges
    assert main(["simulate", write_file(FIG1), "--horizon", "3", "--format", "dot"]) == 0
    assert capsys.readouterr().out.count(" -> ") == 6


def test_simulate_dot_writes_the_layers_whose_edges_fit(write_file, tmp_path):
    # FIG1's layer d holds d + 1 states with two A's each: 2, 4, 6, 8, 10 edges from layers 0-4
    out = tmp_path / "g.dot"
    command = ["simulate", write_file(FIG1), "--horizon", "6", "--budget", "25", "--format", "dot"]
    assert main(command + ["--out", str(out)]) == 5
    header, body = out.read_text().split("digraph", 1)
    assert "// truncated: more than 25 edges while building layer 5\n" in header
    # what an evolution truncated at layer 5 keeps: layers 0-4, and the 20 edges of layers 0-3
    assert "digraph" + body == export_dot(evolve(parse_system(FIG1), 4))
    assert body.count(" -> ") == 20


def test_simulate_dot_budget_bounds_memory(tmp_path):
    # log_system to 800 generations: 5,216 states, 1,516,736 edges, 66.5M characters of DOT
    rules = tmp_path / "log.rules"
    assert main(["zoo", "emit", "log_system", "--out", str(rules)]) == 0
    out = tmp_path / "log.dot"
    command = ["simulate", str(rules), "--horizon", "800", "--budget", "100000", "--format", "dot"]
    tracemalloc.start()
    try:
        code = main(command + ["--out", str(out)])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 5
    text = out.read_text()
    assert "\n// truncated: more than 100000 edges while building layer " in text
    assert 0 < text.count(" -> ") <= 100_000
    assert peak < 66_500_000


def test_classify_needs_eight_layers(write_file, capsys):
    assert main(["classify", write_file(EXP3), "--horizon", "7"]) == 4
    assert "8 layers" in capsys.readouterr().err


def test_classify_cut_below_eight_layers_by_the_budget_is_a_resource_limit(write_file, capsys):
    # EXP3 holds 1 + 3 + 9 + 27 = 40 states to distance 3, and layer 4's 81 pass a budget of 100
    rules = write_file(EXP3)
    assert main(["classify", rules, "--horizon", "30", "--budget", "100"]) == 5
    assert capsys.readouterr().err == (
        "error: truncated: more than 100 states while building layer 4; "
        "need at least 8 layers to classify, got 4\n"
    )
    # a horizon under 8 is the caller's mistake, truncated or not
    assert main(["classify", rules, "--horizon", "7", "--budget", "100"]) == 4


def test_rule_parse_error_exit(write_file, capsys):
    bad = write_file("init: A\nrule: no arrow\n")
    assert main(["simulate", bad]) == 3
    assert "line 2" in capsys.readouterr().err


def test_missing_file_is_usage_error(tmp_path, capsys):
    assert main(["simulate", str(tmp_path / "nope.rules")]) == 2


def test_compile_tm_stdout_roundtrips(write_file, capsys):
    machine = write_file(INCREMENTER_MACHINE, "inc.machine")
    assert main(["compile-tm", machine]) == 0
    parsed = parse_system(capsys.readouterr().out)
    assert parsed == compile_tm(build_incrementer(), input_n=1)


def test_compile_tm_enchain_matches_library(write_file, tmp_path):
    machine = write_file(INCREMENTER_MACHINE, "inc.machine")
    out = tmp_path / "chain.rules"
    args = ["compile-tm", machine, "--enchain", "--input", "1", "--out", str(out)]
    assert main(args) == 0
    first = out.read_bytes()
    assert parse_system(first.decode()) == enchain(build_incrementer(), start_input=1)
    assert main(args) == 0
    assert out.read_bytes() == first  # byte-stable


def test_compile_tm_error_codes(write_file, capsys):
    malformed = write_file("states: 2 halting: {2}\ndelta: (1, 0) -> oops\n", "bad.machine")
    assert main(["compile-tm", malformed]) == 3
    assert "line 2" in capsys.readouterr().err
    invalid = write_file("states: 2 halting: {2}\ndelta: (1, 10) -> (1, L, 2)\n", "inv.machine")
    assert main(["compile-tm", invalid]) == 4
    assert "tape symbol" in capsys.readouterr().err


def test_compile_tm_names_the_line_of_a_bad_symbol(write_file, capsys):
    invalid = write_file("states: 2 halting: {2}\nblank: 0 0\n", "blank.machine")
    assert main(["compile-tm", invalid]) == 4
    assert capsys.readouterr().err == "error: line 2: bad tape symbol '0 0'\n"


def test_compile_tm_names_the_line_of_a_symbol_that_is_no_glyph(write_file, capsys):
    machine = "states: 2 halting: {2}\ndelta: (1, 1) -> (1, R, 2)\ndelta: (1, 0) -> (\x01, R, 2)\n"
    assert main(["compile-tm", write_file(machine + "delta: (1, \x01) -> (1, R, 2)\n")]) == 4
    assert capsys.readouterr().err == "error: line 3: bad tape symbol '\\x01'\n"


@pytest.mark.parametrize(
    "args, low",
    [(["simulate", "x.rules", "--horizon", "0"], 1), (["compile-tm", "x.machine", "--input", "-1"], 0)],
)
def test_integer_flags_below_their_floor_are_usage_errors(args, low, capsys):
    assert main(args) == 2
    assert f"error: argument {args[2]}: must be >= {low}\n" in capsys.readouterr().err


def test_combine_sum_writes_rules_and_provenance(write_file, tmp_path):
    a = write_file(FIG1, "a.rules")
    b = write_file("init: XY\nrule: X -> XY\n", "b.rules")
    out = tmp_path / "sum.rules"
    assert main(["combine", a, b, "--op", "sum", "--out", str(out)]) == 0
    system = parse_system(out.read_text())
    assert system.init and out.read_text().startswith("# multiway 0.1.0")
    doc = json.loads((tmp_path / "sum.rules.provenance.json").read_text())
    assert doc["op"] == "sum"
    assert doc["growth_law"] == "exact"
    assert doc["independence"]["status"] == "independent"
    assert doc["fresh_symbol"] == "[@seed]"


def test_combine_reduce_records_translation(write_file, tmp_path):
    a = write_file(FIG1, "a.rules")
    out = tmp_path / "red.rules"
    assert main(["combine", a, "--op", "reduce", "--out", str(out)]) == 0
    doc = json.loads((tmp_path / "red.rules.provenance.json").read_text())
    assert doc["translation"] == {"A": "aba", "B": "abba"}
    assert doc["growth_law"] == "exact"
    assert set(parse_system(out.read_text()).alphabet) <= set("ab")


def test_combine_operand_arity(write_file, tmp_path, capsys):
    a = write_file(FIG1, "a.rules")
    code = main(["combine", a, a, "--op", "reduce", "--out", str(tmp_path / "x.rules")])
    assert code == 2


def test_combine_rejects_reserved_symbol(write_file, tmp_path, capsys):
    poisoned = write_file("init: X\nrule: X -> [@seed]\n", "bad.rules")
    other = write_file("init: Y\n", "ok.rules")
    code = main(["combine", poisoned, other, "--op", "sum", "--out", str(tmp_path / "x.rules")])
    assert code == 4
    assert "[@seed]" in capsys.readouterr().err


def test_zoo_list_text_names_every_entry(capsys):
    assert main(["zoo", "list"]) == 0
    out = capsys.readouterr().out
    for name in ZOO:
        assert name in out


def test_zoo_list_json(capsys):
    assert main(["zoo", "list", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert len(doc["entries"]) == len(ZOO)
    assert {"name", "expected", "classify_horizon", "closed_form"} <= doc["entries"][0].keys()


def test_zoo_emit_with_params(tmp_path):
    out = tmp_path / "poly.rules"
    assert main(["zoo", "emit", "polynomial", "4", "--out", str(out)]) == 0
    assert parse_system(out.read_text()) == polynomial(4)
    manifest = json.loads((tmp_path / "poly.rules.manifest.json").read_text())
    assert manifest["name"] == "polynomial"
    assert manifest["params"] == [4]
    assert manifest["expected"] == "Pol(2)"
    assert manifest["closed_form"]


def test_zoo_emit_error_codes(tmp_path, capsys):
    out = str(tmp_path / "x.rules")
    assert main(["zoo", "emit", "nosuch", "--out", out]) == 2
    assert main(["zoo", "emit", "chain", "0", "--out", out]) == 4
    assert main(["zoo", "emit", "constant", "3", "--out", out]) == 2


def test_budget_env_var(write_file, capsys, monkeypatch):
    monkeypatch.setenv("MULTIWAY_BUDGET", "50")
    assert main(["simulate", write_file(EXP3), "--horizon", "9", "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["config"]["budget"] == 50
    monkeypatch.setenv("MULTIWAY_BUDGET", "bogus")
    assert main(["simulate", write_file(EXP3)]) == 4


def test_budget_flag_wins_over_env_var(write_file, capsys, monkeypatch):
    monkeypatch.setenv("MULTIWAY_BUDGET", "bogus")
    args = ["simulate", write_file(EXP3), "--horizon", "9", "--format", "json", "--budget", "50"]
    assert main(args) == 0
    assert json.loads(capsys.readouterr().out)["config"]["budget"] == 50
    assert main(["zoo", "list"]) == 0  # takes no budget, so never reads the variable


def test_version_flag(capsys):
    assert main(["--version"]) == 0
    assert capsys.readouterr().out.strip() == "multiway 0.1.0"


def test_cli_import_loads_no_numpy():
    # numpy would cost every command more start-up time than the whole package,
    # and algebra, analysis, tm and zoo load only in the commands that run them
    code = (
        "import multiway.cli, sys\n"
        'assert "numpy" not in sys.modules\n'
        'loaded = {m for m in sys.modules if m.split(".")[0] == "multiway"}\n'
        'assert loaded == {"multiway", "multiway.cli", "multiway.core", "multiway.rulefiles"}, loaded\n'
    )
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).parents[1] / "src")}
    subprocess.run([sys.executable, "-c", code], env=env, check=True)
