from __future__ import annotations

import math
from fractions import Fraction
from itertools import accumulate

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multiway.analysis import (
    GrowthClass,
    PiecewiseLinear,
    UNDECIDABILITY_CAVEAT,
    _linreg,
    _max_gap,
    _regularity,
    check_staircase_inversion,
    classify,
    envelopes,
    linear_interpolation,
    occurrence_sequence,
)
from multiway.core import GrowthSeries


def _series(counts):
    return GrowthSeries(list(counts), [0] * len(counts))


# --- envelopes -------------------------------------------------------------


def test_envelopes_worked_example():
    env = envelopes([3, 1, 2, 5, 4, 4, 6])
    assert env.upper == [3, 3, 3, 5, 5, 5, 6]
    assert env.lower == [1, 1, 2, 2, 4, 4, 6]
    assert env.provisional_from == 2


def test_envelopes_flat_series_never_leaves_floor():
    env = envelopes([1, 1, 1, 1])
    assert env.lower == [1, 1, 1, 1]
    assert env.provisional_from is None


def test_envelopes_monotone_series_envelops_itself():
    env = envelopes([1, 2, 4, 8])
    assert env.upper == [1, 2, 4, 8]
    assert env.lower == [1, 2, 4, 8]


def test_envelopes_rejects_empty():
    with pytest.raises(ValueError):
        envelopes([])


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=50), min_size=1, max_size=30))
def test_envelope_sandwich_properties(counts):
    env = envelopes(counts)
    for n in range(len(counts)):
        assert env.upper[n] >= counts[n]
        assert env.upper[n] >= (env.upper[n - 1] if n else 0)
        assert env.lower[n] <= env.lower[n + 1] if n + 1 < len(counts) else True
        # the lower envelope never exceeds any future count (that is the
        # whole point of the suffix condition), except for the floor of 1
        for k in range(n, len(counts)):
            assert env.lower[n] <= max(counts[k], 1)


# --- piecewise linear chains ------------------------------------------------


def test_chain_evaluates_exactly():
    chain = PiecewiseLinear(((0, 0), (2, 1), (6, 2)))
    assert chain(1) == Fraction(1, 2)
    assert chain(Fraction(4)) == Fraction(3, 2)
    assert chain(6) == 2
    assert chain(Fraction(1, 3)) == Fraction(1, 6)


def test_chain_rejects_outside_domain():
    chain = PiecewiseLinear(((0, 0), (2, 1)))
    with pytest.raises(ValueError):
        chain(-1)
    with pytest.raises(ValueError):
        chain(Fraction(5, 2))


def test_chain_requires_increasing_x():
    with pytest.raises(ValueError):
        PiecewiseLinear(((0, 0), (0, 1)))
    with pytest.raises(ValueError):
        PiecewiseLinear(((0, 0),))


def test_chain_invert_swaps_coordinates():
    chain = PiecewiseLinear(((0, 0), (2, 1), (6, 2)))
    inv = chain.invert()
    assert inv.knots == ((0, 0), (1, 2), (2, 6))
    for x in (Fraction(1, 7), 1, Fraction(3, 2), 2):
        assert chain(inv(x)) == x


def test_chain_invert_requires_increasing_y():
    with pytest.raises(ValueError):
        PiecewiseLinear(((0, 1), (1, 1))).invert()


def test_linear_interpolation_builds_from_origin():
    chain = linear_interpolation([5, 7, 9], [1, 3])
    assert chain.knots == ((0, 0), (1, 5), (3, 9))


@pytest.mark.parametrize("indices", [[0], [4], [2, 2], [3, 1]])
def test_linear_interpolation_rejects_bad_indices(indices):
    with pytest.raises(ValueError):
        linear_interpolation([5, 7, 9], indices)


# --- occurrence staircases ---------------------------------------------------


def test_occurrence_sequence_doubling():
    occ = occurrence_sequence([2, 4, 6])
    assert occ.values == [1, 1, 2, 2, 2, 2, 3, 3, 3, 3, 3, 3]
    assert occ.increase_indices == [2, 6, 12]


def test_occurrence_sequence_n_occurs_n_times():
    occ = occurrence_sequence([1, 2, 3])
    assert occ.values == [1, 2, 2, 3, 3, 3]
    assert occ.increase_indices == [1, 3, 6]


def test_occurrence_sequence_truncated_length():
    occ = occurrence_sequence([2, 4, 6], length=4)
    assert occ.values == [1, 1, 2, 2]
    assert occ.increase_indices == [2]


@pytest.mark.parametrize("f, length", [([0, 1], None), ([], None), ([2, 2], 5)])
def test_occurrence_sequence_rejects(f, length):
    with pytest.raises(ValueError):
        occurrence_sequence(f, length)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(min_value=1, max_value=9), min_size=1, max_size=8))
def test_occurrence_blocks_have_the_right_lengths(f):
    occ = occurrence_sequence(f)
    totals = list(accumulate(f))
    assert len(occ.values) == totals[-1]
    for n, t in enumerate(totals, start=1):
        assert occ.values[t - 1] == n  # value n at its block end
        assert occ.values.count(n) == f[n - 1]  # block length f(n)
    assert occ.increase_indices == totals


# --- the exact chain identity ------------------------------------------------


@pytest.mark.parametrize(
    "f",
    [[2, 4, 6, 8], [1, 2, 3, 4, 5], [3, 1, 4, 1, 5], [1, 1, 1, 1, 1, 1], [7]],
)
def test_chain_identity_residual_is_exactly_zero(f):
    holds, residual = check_staircase_inversion(f)
    assert holds
    assert residual == 0


@settings(max_examples=50, deadline=None)
@given(st.lists(st.integers(min_value=1, max_value=9), min_size=1, max_size=30))
def test_chain_identity_on_random_positive_sequences(f):
    holds, residual = check_staircase_inversion(f)
    assert holds and residual == 0


def test_chain_identity_negative_control():
    # Knotting the staircase at block *starts* instead of block ends breaks
    # the identity: for f = (2, 4) the mismatch at x = 2 is exactly 1/2.
    occ = occurrence_sequence([2, 4])
    wrong = linear_interpolation(occ.values, [1, 3])
    totals = linear_interpolation([2, 6], [1, 2])
    rhs = totals.invert()
    assert abs(wrong(2) - rhs(2)) == Fraction(1, 2)


def test_max_gap_is_taken_over_both_chains_knots():
    # The staircase of f = (2, 4) knotted at block starts against block ends:
    # the largest gap, 3/4 at x = 3, sits on a knot of the first chain only,
    # so comparing at one chain's knots alone would miss it.
    occ = occurrence_sequence([2, 4])
    starts = linear_interpolation(occ.values, [1, 3, 6])
    ends = linear_interpolation(occ.values, [2, 6])
    assert _max_gap(starts, ends) == Fraction(3, 4)
    assert _max_gap(ends, starts) == Fraction(3, 4)
    assert _max_gap(starts, starts) == 0


# --- classification ----------------------------------------------------------


def test_classify_needs_eight_layers():
    with pytest.raises(ValueError):
        classify(_series([1] * 7))


def test_classify_finite():
    report = classify(_series([1, 2, 3, 0, 0, 0, 0, 0]))
    assert report.upper_class == GrowthClass("Fin")
    assert report.lower_class == GrowthClass("Fin")
    assert report.regular == "regular"
    assert report.caveat == UNDECIDABILITY_CAVEAT


def test_classify_bounded():
    report = classify(_series([1, 2, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4]))
    assert report.upper_class.kind == "Bnd"
    assert report.regular == "regular"


def test_classify_polynomial():
    counts = [max(1, d * d) for d in range(64)]
    report = classify(_series(counts))
    assert report.upper_class.kind == "Pol"
    assert report.upper_class.parameter == pytest.approx(2.0, abs=0.1)
    assert report.regular == "regular"
    assert report.fits["upper:power"] >= 0.98


def test_classify_sublinear_power():
    counts = [max(1, round(math.sqrt(d))) for d in range(256)]
    report = classify(_series(counts))
    assert report.upper_class.kind == "InvPol"
    assert report.upper_class.parameter == pytest.approx(0.5, abs=0.15)


def test_classify_exponential():
    report = classify(_series([2**d for d in range(24)]))
    assert report.upper_class.kind == "Exp"
    assert report.upper_class.parameter == pytest.approx(2.0, rel=0.02)
    assert report.regular == "regular"


def test_classify_exponential_of_sqrt():
    counts = [max(1, round(2 ** math.sqrt(d))) for d in range(64)]
    report = classify(_series(counts))
    assert report.upper_class.kind == "Int"


def test_classify_logarithmic():
    counts = [max(1, int(math.log2(d + 2))) for d in range(512)]
    report = classify(_series(counts))
    assert report.upper_class.kind == "InvExp"
    assert report.lower_class.kind == "InvExp"
    assert report.regular == "regular"
    assert report.fits["upper:logarithmic"] > report.fits["upper:power"]


def test_classify_squared_log():
    counts = [max(1, int(math.log2(d + 2)) ** 2) for d in range(512)]
    report = classify(_series(counts))
    assert report.upper_class.kind == "InvInt"


def test_classify_oscillating_between_line_and_square():
    counts = [(d + 1) ** 2 if d % 8 == 0 else d + 1 for d in range(64)]
    report = classify(_series(counts))
    assert report.upper_class.kind == "Pol"
    assert report.lower_class.kind == "Pol"
    assert report.upper_class.parameter - report.lower_class.parameter > 0.5
    assert report.regular == "oscillating"


@pytest.mark.parametrize(
    "upper, lower, verdict",
    [
        (GrowthClass("Exp", 1.5), GrowthClass("Pol", 2.0), "oscillating"),
        (GrowthClass("Pol", 2.0), GrowthClass("Pol", 1.4), "oscillating"),
        (GrowthClass("Pol", 2.0), GrowthClass("Pol", 1.6), "regular"),
        (GrowthClass("Pol", 2.0), GrowthClass("Unknown"), "undetermined"),
    ],
)
def test_envelopes_of_different_kinds_or_degrees_oscillate(upper, lower, verdict):
    assert _regularity(upper, lower) == verdict


def test_a_growth_class_prints_its_kind_and_fitted_parameter():
    assert str(GrowthClass("Fin")) == "Fin"
    assert str(GrowthClass("Pol", 1.0012)) == "Pol(1)"
    assert str(GrowthClass("Exp", 2.71828)) == "Exp(2.72)"


def test_classify_flat_lower_envelope_is_undetermined():
    # isolated spikes that die back down: the lower envelope never leaves
    # the floor, no increasing model fits either envelope over the window,
    # and the comparison stays open
    counts = [1] * 64
    counts[2], counts[3], counts[40] = 2, 50, 51
    report = classify(_series(counts))
    assert report.lower_class.kind == "Unknown"
    assert report.upper_class.kind == "Unknown"
    assert report.regular == "undetermined"


def test_report_exposes_provisional_tail():
    report = classify(_series([1, 2, 4, 8, 16, 32, 64, 128]))
    assert report.provisional_tail == report.envelopes.provisional_from == 1


# --- least-squares fit -----------------------------------------------------


def _exact_linreg(xs, ys):
    """Slope, intercept and r² from the normal equations, in exact rationals."""
    n = len(xs)
    sx, sy = sum(map(Fraction, xs)), sum(map(Fraction, ys))
    sxx = sum(Fraction(x) * x for x in xs)
    sxy = sum(Fraction(x) * y for x, y in zip(xs, ys))
    slope = (n * sxy - sx * sy) / (n * sxx - sx * sx)
    intercept = (sy - slope * sx) / n
    ss_res = sum((y - slope * x - intercept) ** 2 for x, y in zip(xs, ys))
    ss_tot = sum((y - sy / n) ** 2 for y in ys)
    r2 = Fraction(1) if ss_tot == 0 else 1 - ss_res / ss_tot
    return slope, intercept, r2


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.integers(-10_000, 10_000), min_size=2, max_size=40, unique=True).flatmap(
        lambda xs: st.tuples(
            st.just(xs),
            st.lists(st.integers(-10**6, 10**6), min_size=len(xs), max_size=len(xs)),
        )
    )
)
def test_linreg_matches_exact_normal_equations(points):
    xs, ys = points
    slope, intercept, r2 = _linreg([float(x) for x in xs], [float(y) for y in ys])
    want_slope, want_intercept, want_r2 = _exact_linreg(xs, ys)
    # zero-valued results are compared on the scale of the data
    y_scale = max(map(abs, ys)) or 1
    slope_scale = y_scale / (max(xs) - min(xs))
    intercept_scale = y_scale + abs(want_slope) * max(map(abs, xs))
    assert slope == pytest.approx(float(want_slope), rel=1e-9, abs=1e-9 * slope_scale)
    assert intercept == pytest.approx(float(want_intercept), rel=1e-9, abs=1e-9 * intercept_scale)
    assert r2 == pytest.approx(float(want_r2), rel=1e-9, abs=1e-9)


def test_linreg_flat_line_fits_exactly():
    assert _linreg([2.0, 3.0, 5.0, 8.0], [7.0, 7.0, 7.0, 7.0]) == (0.0, 7.0, 1.0)
