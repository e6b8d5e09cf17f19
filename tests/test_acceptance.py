"""End-to-end acceptance gate.

Thirteen numbered checks, each printing one ``[criterion N] PASS/FAIL``
line with its runtime (past pytest's capture, so the lines always reach
the terminal).  Every check carries a wall-clock budget; a check that
finishes correct but over budget fails.  The criteria run in order and
the last one audits the combinatorial state-count ceiling across
every growth series the earlier ones computed.
"""

from __future__ import annotations

import math
import time
from contextlib import contextmanager
from pathlib import Path
from random import Random

import pytest
from conftest import naive_layers

from multiway import (
    GrowthSeries,
    StatesGraph,
    ZOO,
    build_binary_counter,
    build_incrementer,
    check_staircase_inversion,
    classify,
    compile_tm,
    enchain,
    evolve,
    expected_growth,
    format_system,
    layered_isomorphic,
    make_system,
    parse_system,
    product_systems,
    reduce_to_binary,
    render_glyphs,
    step_tm,
    sum_systems,
    tm_input_state,
    validate_t_halter,
    verify_semiring_identity,
)
from multiway import growth_series as _growth_series
from multiway import zoo

DATA = Path(__file__).parent / "data"

_SERIES: list[GrowthSeries] = []


def growth_series(graph: StatesGraph) -> GrowthSeries:
    """:func:`multiway.growth_series`, keeping every series for criterion 13."""
    series = _growth_series(graph)
    _SERIES.append(series)
    return series


@pytest.fixture(name="criterion")
def criterion_fixture(capfd):
    """One verdict line per acceptance check, printed past capture."""

    @contextmanager
    def criterion(number: int, label: str, budget: float | None = None):
        start = time.perf_counter()
        failed = True
        over = False
        try:
            yield
            failed = False
        finally:
            elapsed = time.perf_counter() - start
            over = budget is not None and elapsed > budget
            verdict = "PASS" if not (failed or over) else "FAIL"
            with capfd.disabled():
                print(
                    f"[criterion {number:2d}] {verdict} — {label} ({elapsed:.1f}s)",
                    flush=True,
                )
        if over:
            pytest.fail(
                f"criterion {number} exceeded its {budget:.0f}s budget: {elapsed:.1f}s"
            )

    return criterion


def layer_counts(system, horizon: int) -> list[int]:
    return growth_series(evolve(system, horizon)).counts


# ---------------------------------------------------------------------------
# 1-2: small exact series


def test_criterion_01_linear_growth(criterion):
    with criterion(1, "two linear systems count 1..10", budget=1.0):
        for rules in ([("A", "AB")], [("A", "AB"), ("AB", "A")]):
            assert layer_counts(make_system(rules, "AA"), 9) == list(range(1, 11))


def test_criterion_02_constant_and_finite(criterion):
    with criterion(2, "constant counts and the flip-flop's extinction layer", budget=1.0):
        assert layer_counts(make_system([("A", "AA")], "A"), 9) == [1] * 10

        rules = [("A", "BC"), ("B", "C"), ("C", "B")]
        series = growth_series(evolve(make_system(rules, "A"), 9))
        report = classify(series)
        assert report.upper_class.kind == "Fin"
        assert report.lower_class.kind == "Fin"
        # The flip-flop visits {A}, {BC}, {BB, CC}, {CB}; both rewrites of CB
        # (BB, CC) were seen at distance 2, so distance 4 is the first empty
        # layer.  The naive reference fixes the counts apart from the engine.
        assert series.counts == [len(layer) for layer in naive_layers(rules, "A", 9)]
        assert series.counts[:5] == [1, 1, 2, 1, 0]
        assert series.counts.index(0) == 4


# ---------------------------------------------------------------------------
# 3: closed forms


def test_criterion_03_closed_forms(criterion):
    with criterion(3, "binomial and pure-branching closed forms", budget=10.0):
        for width in (2, 3, 4):
            want = [math.comb(d + width - 1, width - 1) for d in range(13)]
            assert layer_counts(zoo.polynomial(width), 12) == want
        for branching in (2, 3):
            want = [branching**d for d in range(9)]
            assert layer_counts(zoo.exponential(branching), 8) == want


# ---------------------------------------------------------------------------
# 4: sum and product growth laws on a randomized corpus


def _random_growing_system(rng: Random, letters: str):
    """A small system whose rules all grow strings, over a sampled alphabet."""
    alpha = "".join(rng.sample(letters, rng.randint(2, 3)))
    rules = []
    for _ in range(rng.randint(1, 3)):
        lhs = "".join(rng.choice(alpha) for _ in range(rng.randint(1, 2)))
        rhs = "".join(rng.choice(alpha) for _ in range(len(lhs) + rng.randint(1, 2)))
        rules.append((lhs, rhs))
    init = "".join(rng.choice(alpha) for _ in range(rng.randint(1, 3)))
    return make_system(rules, init, alphabet=alpha)


def test_criterion_04_sum_and_product_laws(criterion):
    with criterion(4, "sums add counts, products convolve them (20 random pairs)", budget=60.0):
        rng = Random(20260816)
        pairs = []
        attempts = 0
        while len(pairs) < 20 and attempts < 400:
            attempts += 1
            a = _random_growing_system(rng, "ABCDE")
            b = _random_growing_system(rng, "VWXYZ")
            ga = evolve(a, 8, max_states=5000)
            gb = evolve(b, 8, max_states=5000)
            if ga.truncated or gb.truncated:
                continue
            ca = growth_series(ga).counts
            cb = growth_series(gb).counts
            conv = [sum(ca[i] * cb[d - i] for i in range(d + 1)) for d in range(9)]
            if sum(conv) > 100_000:
                continue
            pairs.append((a, b, ca, cb, conv))
        assert len(pairs) == 20

        for a, b, ca, cb, conv in pairs:
            combined = sum_systems(a, b)
            assert combined.growth_law == "exact"
            gs = evolve(combined.system, 8, max_states=300_000)
            assert not gs.truncated
            want = [1] + [ca[d] + cb[d] for d in range(1, 9)]
            assert growth_series(gs).counts == want

            product = product_systems(a, b)
            assert product.growth_law == "exact"
            gp = evolve(product.system, 8, max_states=300_000)
            assert not gp.truncated
            assert growth_series(gp).counts == conv


# ---------------------------------------------------------------------------
# 5: staircase/interpolation inversion identity


def test_criterion_05_staircase_inversion(criterion):
    with criterion(5, "occurrence staircase inverts the running-total chain", budget=10.0):
        rng = Random(5)
        for _ in range(50):
            f = [rng.randint(1, 9) for _ in range(rng.randint(1, 30))]
            equal, residual = check_staircase_inversion(f)
            assert equal
            assert residual == 0


# ---------------------------------------------------------------------------
# 6: golden machine compile and lockstep co-simulation


def test_criterion_06_golden_compile_and_lockstep(criterion):
    with criterion(6, "incrementer compile matches its golden file and the stepper", budget=5.0):
        stepper = build_incrementer()
        system = compile_tm(stepper, input_n=1)
        golden = (DATA / "incrementer_rules.txt").read_text()
        assert len(system.rules) == 12
        assert parse_system(golden) == system
        assert format_system(system) == golden

        for n in range(1, 5):
            cfg = tm_input_state(stepper, n)
            chain = [cfg.render()]
            while (cfg := step_tm(stepper, cfg)) is not None:
                chain.append(cfg.render())
            graph = evolve(compile_tm(stepper, input_n=n), len(chain) + 1)
            for d, want in enumerate(chain):
                assert [render_glyphs(s) for s in graph.layer_strings(d)] == [want]
            # Halting configurations have no successors: extinction.
            assert graph.layer_strings(len(chain)) == []
            assert growth_series(graph).counts[-1] == 0


# ---------------------------------------------------------------------------
# 7: measured run times of the doubling machine


def test_criterion_07_counter_run_times(criterion):
    with criterion(7, "doubling machine runs for 2**(n+2) - 1 configurations", budget=5.0):
        measurement = validate_t_halter(build_binary_counter(), range(1, 9))
        assert measurement.ok
        assert measurement.values == {n: 2 ** (n + 2) - 1 for n in range(1, 9)}


# ---------------------------------------------------------------------------
# 8: logarithmic sandwich for the chained doubling machine


_LOG_GRAPH: StatesGraph | None = None


def _log_graph() -> StatesGraph:
    global _LOG_GRAPH
    if _LOG_GRAPH is None:
        _LOG_GRAPH = evolve(zoo.log_system(), 4300, record_edges=False)
    return _LOG_GRAPH


def test_criterion_08_log_sandwich(criterion):
    with criterion(8, "chained doubling counts sit between log2(d)/2 and log2(d)", budget=300.0):
        graph = _log_graph()
        assert not graph.truncated
        assert graph.horizon >= 2000
        counts = growth_series(graph).counts
        bad = [
            d
            for d in range(1, graph.horizon + 1)
            if not (0.5 * math.log2(d) <= counts[d] <= math.log2(d))
        ]
        burn_in = max(bad) + 1 if bad else 1
        assert burn_in <= 32


# ---------------------------------------------------------------------------
# 9: staircase prediction for the chained incrementer


def test_criterion_09_enchained_staircase(criterion):
    with criterion(9, "chained incrementer counts follow the measured staircase", budget=60.0):
        stepper = build_incrementer()
        measurement = validate_t_halter(stepper, range(1, 13))
        assert measurement.ok
        predicted = expected_growth(measurement, 240, start_input=1)
        measured = layer_counts(enchain(stepper, start_input=1), 240)
        assert len(measured) == 241
        assert measured == predicted


# ---------------------------------------------------------------------------
# 10: binary reduction preserves the states graph


def _random_small_system(rng: Random):
    alpha = "".join(rng.sample("ABC", rng.randint(1, 3)))
    rules = []
    for _ in range(rng.randint(1, 3)):
        lhs = "".join(rng.choice(alpha) for _ in range(rng.randint(1, 2)))
        rhs = lhs
        while rhs == lhs:
            rhs = "".join(rng.choice(alpha) for _ in range(rng.randint(0, 3)))
        rules.append((lhs, rhs))
    init = "".join(rng.choice(alpha) for _ in range(rng.randint(1, 3)))
    return make_system(rules, init, alphabet=alpha)


def _codeword_boundaries(s: str) -> set[int] | None:
    """Start offsets of the a·b^i·a codewords tiling s, or None if untileable."""
    out: set[int] = set()
    i = 0
    while i < len(s):
        out.add(i)
        if s[i] != "a":
            return None
        j = i + 1
        while j < len(s) and s[j] == "b":
            j += 1
        if j >= len(s) or s[j] != "a":
            return None
        i = j + 1
    return out


def test_criterion_10_binary_reduction(criterion):
    with criterion(10, "binary-reduced systems mirror originals codeword-for-codeword", budget=60.0):
        rng = Random(777)
        kept = 0
        tried = 0
        while kept < 5 and tried < 100:
            tried += 1
            original = _random_small_system(rng)
            g = evolve(original, 5, max_states=10_000)
            if g.truncated:
                continue
            reduced = reduce_to_binary(original)
            gr = evolve(reduced.system, 5, max_states=100_000)
            assert not gr.truncated

            ok, witness = layered_isomorphic(g, gr)
            assert ok, f"layer mismatch at {witness}"

            code = {
                sym: reduced.translation[render_glyphs(sym)]
                for sym in original.alphabet.symbols
            }

            def translate(state: str) -> str:
                return "".join(code[ch] for ch in state)

            for d in range(6):
                assert {translate(s) for s in g.layer_strings(d)} == set(
                    gr.layer_strings(d)
                )
            translated_edges = {
                (translate(g.states[e.src]), translate(g.states[e.dst]))
                for e in g.edges
            }
            reduced_edges = {
                (gr.states[e.src], gr.states[e.dst]) for e in gr.edges
            }
            assert translated_edges == reduced_edges

            # Reduced rules must only ever fire on codeword boundaries.
            for state in gr.states:
                bounds = _codeword_boundaries(state)
                assert bounds is not None, state
                for lhs, _ in reduced.system.rules:
                    start = state.find(lhs)
                    while start != -1:
                        assert start in bounds, (state, lhs, start)
                        start = state.find(lhs, start + 1)

            growth_series(g)
            growth_series(gr)
            kept += 1
        assert kept == 5


# ---------------------------------------------------------------------------
# 11: algebraic identities of the sum/product combinators


def test_criterion_11_semiring_identities(criterion):
    with criterion(11, "sum/product identities on the stock operands", budget=120.0):
        m1 = make_system([("AB", "BA"), ("B", "AAB")], "AB")
        m2 = make_system([("CD", "CDD"), ("C", "CD")], "CDC")
        m3 = make_system([("P", "Q"), ("Q", "R"), ("Q", "S")], "P")

        for name, operands in [
            ("sum-comm", (m1, m2)),
            ("sum-assoc", (m1, m2, m3)),
            ("sum-neutral", (m1,)),
            ("prod-comm", (m1, m2)),
            ("prod-assoc", (m1, m2, m3)),
            ("prod-neutral", (m1,)),
        ]:
            report = verify_semiring_identity(name, *operands, horizon=5)
            assert report.holds, name

        # Annihilation is not an identity: the empty-growth system is not
        # absorbing under the product, and the graphs part at layer 1.
        annihilation = verify_semiring_identity("annihilation", m1, horizon=5)
        assert not annihilation.holds
        assert annihilation.counterexample_layer == 1

        # Distributivity is not an identity either, and the growth laws of
        # criterion 4 say by how much.  A sum counts [1] + (b_d + c_d) and a
        # product convolves, so s(p(m1, m2), p(m1, m3)) holds exactly a_d
        # (m1's count) more states at each d >= 1 than p(m1, s(m2, m3)): m1's
        # own expansion is counted once per summand.
        distributivity = verify_semiring_identity("distributivity", m1, m2, m3, horizon=5)
        assert not distributivity.holds
        assert distributivity.counterexample_layer == 1
        left = product_systems(m1, sum_systems(m2, m3).system)
        right = sum_systems(product_systems(m1, m2).system, product_systems(m1, m3).system)
        assert left.growth_law == right.growth_law == "exact"
        gap = [
            r - l
            for l, r in zip(layer_counts(left.system, 5), layer_counts(right.system, 5))
        ]
        assert gap == [0] + layer_counts(m1, 5)[1:]


# ---------------------------------------------------------------------------
# 12: the classifier names every zoo entry correctly


def test_criterion_12_classifier_zoo(criterion):
    with criterion(12, "growth classifier names all zoo entries", budget=600.0):
        def report_for(name: str):
            entry = ZOO[name]
            if name == "log_system":
                graph = _log_graph()
            else:
                graph = evolve(entry.build(), entry.classify_horizon, record_edges=False)
            assert not graph.truncated
            return classify(growth_series(graph))

        for name, kind, parameter, tol in [
            ("chain", "Fin", None, None),
            ("constant", "Bnd", None, None),
            ("polynomial", "Pol", 2.0, 0.3),
            ("exponential", "Exp", 3.0, 0.15),
            ("intermediate", "Int", None, None),
            ("inverse_polynomial", "InvPol", None, None),
            ("log_system", "InvExp", None, None),
        ]:
            report = report_for(name)
            assert report.upper_class.kind == kind, name
            assert report.lower_class.kind == kind, name
            assert report.regular == "regular", name
            if parameter is not None:
                assert report.upper_class.parameter == pytest.approx(parameter, abs=tol)

        composite = report_for("oscillating_composite")
        assert composite.regular == "oscillating"
        assert composite.upper_class.kind == "Pol"
        assert composite.upper_class.parameter == pytest.approx(2.0, abs=0.3)
        assert composite.lower_class.kind == "Pol"
        assert composite.lower_class.parameter == pytest.approx(1.0, abs=0.3)


# ---------------------------------------------------------------------------
# 13: the combinatorial ceiling held across everything above


def test_criterion_13_ceiling_invariant(criterion):
    with criterion(13, "no layer ever exceeded |alphabet| ** max length"):
        assert _SERIES, "no growth series was computed before the audit"
        violations = [v for series in _SERIES for v in series.ceiling_violations]
        assert violations == [], f"ceiling violations recorded: {violations}"
