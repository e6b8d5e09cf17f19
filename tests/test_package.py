"""The package's import surface: every public name resolves, lazily."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

import multiway

# dir(multiway) before its exports became lazy, public names only
PUBLIC_NAMES = (
    "Alphabet", "CeilingViolation", "ClassificationReport", "CombinedSystem", "Edge",
    "Envelopes", "GlyphError", "GrowthClass", "GrowthSeries", "HaltingFunctionMeasurement",
    "IdentityReport", "IndependenceVerdict", "MultiwaySystem", "OccurrenceSequence",
    "ParseError", "PiecewiseLinear", "Rule", "SEMIRING_IDENTITIES", "StateId", "StatesGraph",
    "Symbol", "TapeConfiguration", "TuringMachine", "UNDECIDABILITY_CAVEAT", "ZOO", "ZooEntry",
    "algebra", "analysis", "build_binary_counter", "build_incrementer", "chain_restart_rules",
    "check_rule_independence", "check_staircase_inversion", "classify", "compile_tm", "core",
    "enchain", "envelopes", "evolve", "expected_growth", "export_dot", "format_system",
    "growth_series", "layered_isomorphic", "linear_interpolation", "machine_alphabet",
    "machine_rules", "make_system", "occurrence_sequence", "one_system", "parse_glyphs",
    "parse_system", "parse_tm", "product_systems", "reduce_to_binary", "render_glyphs",
    "rulefiles", "second_layer", "seed_symbol", "state_token", "step_tm", "successors",
    "sum_systems", "tm", "tm_input_state", "validate_t_halter", "verify_semiring_identity",
    "zero_system", "zoo",
)

# ordered so that no submodule is loaded by one listed before it
SUBMODULES = ("core", "rulefiles", "cli", "analysis", "algebra", "tm", "zoo")


@pytest.mark.parametrize("name", PUBLIC_NAMES + SUBMODULES)
def test_public_name_resolves(name):
    namespace: dict = {}
    exec(f"from multiway import {name}", namespace)
    assert namespace[name] is getattr(multiway, name)
    assert name in dir(multiway)


def test_star_import_brings_every_public_name():
    namespace: dict = {}
    exec("from multiway import *", namespace)
    assert set(PUBLIC_NAMES) <= namespace.keys()


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        multiway.no_such_name  # noqa: B018
    with pytest.raises(ImportError):
        exec("from multiway import no_such_name", {})


def test_exports_are_resolved_on_each_access(monkeypatch):
    # a function patched where it is defined shows through the package
    def patched(*args, **kwargs):
        raise AssertionError

    monkeypatch.setattr(multiway.core, "evolve", patched)
    assert multiway.evolve is patched
    monkeypatch.undo()
    assert multiway.evolve is multiway.core.evolve


def test_submodules_load_on_first_access():
    code = (
        "import sys, multiway\n"
        f"for name in {SUBMODULES!r}:\n"
        "    key = 'multiway.' + name\n"
        "    assert key not in sys.modules, key\n"
        "    assert getattr(multiway, name) is sys.modules[key], key\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).parents[1] / "src")}
    subprocess.run([sys.executable, "-c", code], env=env, check=True)


def test_only_core_reads_how_edges_were_given():
    # core._edge_rows is the one reader of StatesGraph._edges; other modules take its rows
    src = Path(multiway.__file__).parent
    readers = sorted(p.name for p in src.glob("*.py") if "._edges" in p.read_text(encoding="utf-8"))
    assert readers == ["core.py"]
