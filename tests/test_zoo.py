"""Zoo builders: frozen layer counts, closed forms, and classifier verdicts."""

from __future__ import annotations

import math
from pathlib import Path

import pytest

from multiway import zoo
from multiway.analysis import classify
from multiway.core import MultiwaySystem, evolve, growth_series, make_system
from multiway.rulefiles import format_system
from multiway.tm import build_binary_counter, enchain
from multiway.zoo import ZOO

# every entry's default system as a rule file, headed by its name
ZOO_SYSTEMS = Path(__file__).parent / "data" / "zoo_systems.txt"


def layer_counts(system: MultiwaySystem, horizon: int) -> list[int]:
    return [len(layer) for layer in evolve(system, horizon).layers]


def _traversal_count(d: int) -> int:
    """How many shuttle traversals complete within d layers (see zoo.intermediate)."""
    j, total = 0, 1
    while total <= d:
        j += 1
        total += j
    return j


def test_chain_counts():
    assert layer_counts(zoo.chain(3), 5) == [1, 1, 1, 0, 0, 0]
    assert layer_counts(zoo.chain(1), 2) == [1, 0, 0]


@pytest.mark.parametrize("length", [0, 27])
def test_chain_length_validation(length):
    with pytest.raises(ValueError, match="1..26"):
        zoo.chain(length)


def test_constant_counts():
    assert layer_counts(zoo.constant(), 10) == [1] * 11


@pytest.mark.parametrize("width", [2, 3, 4])
def test_polynomial_counts_are_binomials(width):
    counts = layer_counts(zoo.polynomial(width), 12)
    assert counts == [math.comb(d + width - 1, width - 1) for d in range(13)]


@pytest.mark.parametrize("branching", [2, 3])
def test_exponential_counts_are_powers(branching):
    counts = layer_counts(zoo.exponential(branching), 8)
    assert counts == [branching**d for d in range(9)]


def test_traversal_count():
    assert [_traversal_count(d) for d in range(8)] == [0, 1, 2, 2, 3, 3, 3, 4]
    # The j-th traversal completes at layer 1 + j(j-1)/2.
    for j in range(1, 10):
        boundary = 1 + j * (j - 1) // 2
        assert _traversal_count(boundary) == j
        assert _traversal_count(boundary - 1) == j - 1


def test_intermediate_counts():
    assert layer_counts(zoo.intermediate(3), 7) == [1, 3, 9, 9, 27, 27, 27, 81]
    for branching, horizon in ((2, 16), (3, 11)):
        counts = layer_counts(zoo.intermediate(branching), horizon)
        assert counts == [branching ** _traversal_count(d) for d in range(horizon + 1)]


def test_inverse_polynomial_counts():
    counts = layer_counts(zoo.inverse_polynomial(), 29)
    assert counts[:8] == [1, 2, 3, 3, 4, 4, 4, 5]
    assert counts[1:] == [1 + _traversal_count(d) for d in range(1, 30)]


def test_burst_counts():
    assert layer_counts(zoo.burst(3, 4), 6) == [1, 3, 9, 27, 81, 0, 0]
    assert layer_counts(zoo.burst(2, 2), 4) == [1, 2, 4, 0, 0]


def test_burst_validation():
    with pytest.raises(ValueError, match="1..26"):
        zoo.burst(branching=0)
    with pytest.raises(ValueError, match="lifetime"):
        zoo.burst(lifetime=0)


@pytest.mark.parametrize(
    "build, args",
    [(zoo.exponential, (0,)), (zoo.intermediate, (27,)), (zoo.burst, (0, 4)), (zoo.burst, (0, 0))],
)
def test_branching_validation(build, args):
    # burst checks branching before lifetime
    with pytest.raises(ValueError, match=r"^branching must be in 1\.\.26$"):
        build(*args)


def test_zoo_rule_files_are_byte_stable():
    emitted = "".join(format_system(entry.build(), header=[name]) for name, entry in ZOO.items())
    assert emitted == ZOO_SYSTEMS.read_text(encoding="utf-8")


def test_shuttle_rules_in_order():
    shuttle = [("TL", "TaR"), ("RT", "LaT"), ("Ra", "aR"), ("aL", "La")]
    assert zoo.intermediate(3) == make_system(
        shuttle
        + [("TL", "TbR"), ("RT", "LbT"), ("Rb", "bR"), ("bL", "Lb")]
        + [("TL", "TcR"), ("RT", "LcT"), ("Rc", "cR"), ("cL", "Lc")],
        "TLT",
        alphabet="TLRabc",
    )
    taps = [("TL", "[z]"), ("RT", "[z]"), ("[z]", "[z][z]")]
    assert zoo.inverse_polynomial() == make_system(shuttle + taps, "TLT", alphabet="TLRa[z]")


def test_log_system_is_the_chained_counter():
    assert zoo.log_system() == enchain(build_binary_counter(), start_input=0)


def test_composite_early_counts():
    counts = layer_counts(zoo.oscillating_composite(), 23)
    assert counts == [1, 3, 4, 5, 6, 8, 10, 11, 12, 14, 14, 13, 14, 15, 16, 17, 18, 20, 22, 25, 28, 32, 38, 35]


def test_composite_spikes_and_troughs():
    counts = layer_counts(zoo.oscillating_composite(), 250)
    # Surveyor spikes peak right before each incrementer restart ...
    assert counts[85] == 262
    assert counts[114] == 424
    assert counts[147] == 653
    assert counts[184] == 966
    # ... and the troughs fall back to the linear baseline plus the machine.
    assert counts[240] == 242


def test_composite_classifies_oscillating():
    entry = ZOO["oscillating_composite"]
    graph = evolve(entry.build(), entry.classify_horizon, record_edges=False)
    report = classify(growth_series(graph))
    assert report.regular == "oscillating"
    assert report.upper_class.kind == "Pol"
    assert report.upper_class.parameter == pytest.approx(2.0, abs=0.3)
    assert report.lower_class.kind == "Pol"
    assert report.lower_class.parameter == pytest.approx(1.0, abs=0.3)


# (entry name, expected kind, expected parameter, tolerance kwargs)
CHEAP_VERDICTS = [
    ("chain", "Fin", None, {}),
    ("constant", "Bnd", None, {}),
    ("polynomial", "Pol", 2.0, {"abs": 0.3}),
    ("exponential", "Exp", 3.0, {"rel": 0.05}),
    ("intermediate", "Int", None, {}),
    ("inverse_polynomial", "InvPol", 0.5, {"abs": 0.15}),
    ("burst", "Fin", None, {}),
]


@pytest.mark.parametrize("name,kind,parameter,tol", CHEAP_VERDICTS)
def test_classifier_verdicts(name, kind, parameter, tol):
    entry = ZOO[name]
    graph = evolve(entry.build(), entry.classify_horizon)
    report = classify(growth_series(graph))
    assert report.upper_class.kind == kind
    assert report.lower_class.kind == kind
    assert report.regular == "regular"
    if parameter is not None:
        assert report.upper_class.parameter == pytest.approx(parameter, **tol)


def test_registry_is_consistent():
    assert len(ZOO) == 9
    for name, entry in ZOO.items():
        assert entry.name == name
        assert isinstance(entry.build(), MultiwaySystem)
        assert entry.classify_horizon >= 8
    assert ZOO["log_system"].expected == "InvExp"
    assert ZOO["oscillating_composite"].expected == "oscillating"
