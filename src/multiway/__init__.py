"""String rewriting multiway systems: evolution, growth analysis, composition.

Every public name is loaded from its submodule on first use, so a program
that needs only ``core`` (as most CLI commands do) never imports ``algebra``,
``analysis``, ``tm`` or ``zoo``.
"""

from importlib import import_module

__version__ = "0.1.0"

# public name -> submodule defining it; each submodule's own name maps to itself
_EXPORTS = {
    name: module
    for module, names in {
        "core": (
            "Alphabet", "CeilingViolation", "Edge", "GlyphError", "GrowthSeries",
            "MultiwaySystem", "Rule", "StateId", "StatesGraph", "Symbol", "evolve",
            "export_dot", "growth_series", "make_system", "parse_glyphs",
            "render_glyphs", "successors",
        ),
        "algebra": (
            "CombinedSystem", "IdentityReport", "IndependenceVerdict",
            "SEMIRING_IDENTITIES", "check_rule_independence", "layered_isomorphic",
            "one_system", "product_systems", "reduce_to_binary", "second_layer",
            "seed_symbol", "sum_systems", "verify_semiring_identity", "zero_system",
        ),
        "analysis": (
            "UNDECIDABILITY_CAVEAT", "ClassificationReport", "Envelopes", "GrowthClass",
            "OccurrenceSequence", "PiecewiseLinear", "check_staircase_inversion",
            "classify", "envelopes", "linear_interpolation", "occurrence_sequence",
        ),
        "rulefiles": ("ParseError", "format_system", "parse_system"),
        "tm": (
            "HaltingFunctionMeasurement", "TapeConfiguration", "TuringMachine",
            "build_binary_counter", "build_incrementer", "chain_restart_rules",
            "compile_tm", "enchain", "expected_growth", "machine_alphabet",
            "machine_rules", "parse_tm", "state_token", "step_tm", "tm_input_state",
            "validate_t_halter",
        ),
        "zoo": ("ZOO", "ZooEntry"),
        "cli": (),
    }.items()
    for name in (module, *names)
}
__all__ = list(_EXPORTS)


def __getattr__(name: str):
    # Looked up on every access and never stored here: a function patched
    # where it is defined (as the benchmark's tracer does) shows through.
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    found = import_module(f".{module}", __name__)
    return found if name == module else getattr(found, name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
