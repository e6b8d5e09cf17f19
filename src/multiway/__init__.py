"""String rewriting multiway systems: evolution, growth analysis, composition."""

from .core import (
    Alphabet,
    CeilingViolation,
    Edge,
    GlyphError,
    GrowthSeries,
    MultiwaySystem,
    Rule,
    StateId,
    StatesGraph,
    Symbol,
    evolve,
    export_dot,
    growth_series,
    make_system,
    parse_glyphs,
    render_glyphs,
    successors,
)
from .algebra import (
    CombinedSystem,
    IdentityReport,
    IndependenceVerdict,
    SEMIRING_IDENTITIES,
    check_rule_independence,
    layered_isomorphic,
    one_system,
    product_systems,
    reduce_to_binary,
    second_layer,
    seed_symbol,
    sum_systems,
    verify_semiring_identity,
    zero_system,
)
from .analysis import (
    UNDECIDABILITY_CAVEAT,
    ClassificationReport,
    Envelopes,
    GrowthClass,
    OccurrenceSequence,
    PiecewiseLinear,
    check_staircase_inversion,
    classify,
    envelopes,
    linear_interpolation,
    occurrence_sequence,
)
from .rulefiles import ParseError, format_system, parse_system
from .tm import (
    HaltingFunctionMeasurement,
    TapeConfiguration,
    TuringMachine,
    build_binary_counter,
    build_incrementer,
    chain_restart_rules,
    compile_tm,
    enchain,
    expected_growth,
    machine_alphabet,
    machine_rules,
    parse_tm,
    state_token,
    step_tm,
    tm_input_state,
    validate_t_halter,
)
from .zoo import ZOO, ZooEntry

__version__ = "0.1.0"
