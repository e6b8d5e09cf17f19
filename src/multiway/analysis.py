"""Growth-series analysis: monotone envelopes, exact linear chains, classification."""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from random import Random
from statistics import fmean, linear_regression
from typing import Callable, Iterable, Sequence

from .core import GrowthSeries

UNDECIDABILITY_CAVEAT = (
    "Growth-class verdicts are finite-horizon extrapolations; whether a "
    "system's growth function equals any conjectured function is undecidable "
    "in general."
)

# classifier tuning, fixed up front
MIN_LAYERS = 8
BURN_IN_FRACTION = 0.2
R2_THRESHOLD = 0.98
POLY_EXPONENT_SPLIT = 0.75  # power-law exponent below this reads as sub-linear
OSCILLATION_DEGREE_GAP = 0.5


# ---------------------------------------------------------------------------
# Envelopes


@dataclass
class Envelopes:
    """Monotone upper/lower envelopes of a count series.

    ``upper[n]`` is the running maximum.  ``lower[n]`` is the largest count
    at or before n that no later count (within the window) undercuts, with
    floor 1.  Lower values above 1 depend on layers beyond the horizon, so
    they are provisional from ``provisional_from`` on (None when the whole
    lower envelope sits at the floor).
    """

    upper: list[int]
    lower: list[int]
    provisional_from: int | None


def envelopes(counts: Sequence[int]) -> Envelopes:
    if not counts:
        raise ValueError("empty series")
    upper = list(accumulate(counts, max))
    suffix_min = list(accumulate(reversed(counts), min))[::-1]
    lower: list[int] = []
    best = 1
    for c, tail_min in zip(counts, suffix_min):
        if c == tail_min:  # nothing later undercuts this count
            best = max(best, c)
        lower.append(best)
    provisional_from = next((i for i, v in enumerate(lower) if v > 1), None)
    return Envelopes(upper, lower, provisional_from)


# ---------------------------------------------------------------------------
# Exact piecewise-linear chains


@dataclass(frozen=True)
class PiecewiseLinear:
    """Piecewise-linear function through knots, exact over the rationals."""

    knots: tuple[tuple[Fraction, Fraction], ...]

    def __post_init__(self) -> None:
        knots = tuple((Fraction(x), Fraction(y)) for x, y in self.knots)
        if len(knots) < 2:
            raise ValueError("need at least two knots")
        for (x0, _), (x1, _) in zip(knots, knots[1:]):
            if x1 <= x0:
                raise ValueError("knot x-coordinates must be strictly increasing")
        object.__setattr__(self, "knots", knots)

    @property
    def domain(self) -> tuple[Fraction, Fraction]:
        return self.knots[0][0], self.knots[-1][0]

    def __call__(self, x: Fraction | int) -> Fraction:
        x = Fraction(x)
        lo, hi = self.domain
        if not lo <= x <= hi:
            raise ValueError(f"{x} outside domain [{lo}, {hi}]")
        xs = [k[0] for k in self.knots]
        i = min(bisect_right(xs, x), len(xs) - 1) - 1
        (x0, y0), (x1, y1) = self.knots[i], self.knots[i + 1]
        return y0 + (y1 - y0) * (x - x0) / (x1 - x0)

    def invert(self) -> PiecewiseLinear:
        """Swap coordinates; requires strictly increasing y."""
        for (_, y0), (_, y1) in zip(self.knots, self.knots[1:]):
            if y1 <= y0:
                raise ValueError("not invertible: y-coordinates must be strictly increasing")
        return PiecewiseLinear(tuple((y, x) for x, y in self.knots))


def linear_interpolation(
    values: Sequence[int | Fraction], indices: Iterable[int]
) -> PiecewiseLinear:
    """Chain from (0, 0) through (i, values[i-1]) for each 1-based index i."""
    knots: list[tuple[Fraction, Fraction]] = [(Fraction(0), Fraction(0))]
    last = 0
    for i in indices:
        if not 1 <= i <= len(values):
            raise ValueError(f"index {i} outside 1..{len(values)}")
        if i <= last:
            raise ValueError("indices must be strictly increasing")
        last = i
        knots.append((Fraction(i), Fraction(values[i - 1])))
    return PiecewiseLinear(tuple(knots))


# ---------------------------------------------------------------------------
# Occurrence staircases


@dataclass
class OccurrenceSequence:
    """Staircase where the value n fills one block of length f(n).

    ``values`` is 1-indexed conceptually (``values[0]`` is position 1).
    ``increase_indices`` lists the positions where a block completes — the
    running totals of f — which are exactly the knots that make the chain
    identity of :func:`check_staircase_inversion` exact.
    """

    values: list[int]
    increase_indices: list[int]


def occurrence_sequence(f: Sequence[int], length: int | None = None) -> OccurrenceSequence:
    """Occurrence staircase of a positive integer sequence.

    Position i carries the value n with F(n-1) < i <= F(n), where F is the
    running total of f.  ``length`` defaults to F(len(f)), i.e. all complete
    blocks; asking beyond that is an error since the continuation is unknown.
    """
    f = list(f)
    if not f:
        raise ValueError("empty sequence")
    if any(v < 1 for v in f):
        raise ValueError("sequence values must be positive")
    totals = list(accumulate(f))
    if length is None:
        length = totals[-1]
    if not 0 <= length <= totals[-1]:
        raise ValueError(f"length must be within 0..{totals[-1]}")
    values = [bisect_left(totals, i) + 1 for i in range(1, length + 1)]
    increase_indices = [t for t in totals if t <= length]
    return OccurrenceSequence(values, increase_indices)


def check_staircase_inversion(
    f: Sequence[int], samples: int = 1000, seed: int = 0
) -> tuple[bool, Fraction]:
    """Exact equality of the two chain constructions for a positive sequence.

    Builds (a) the chain through the occurrence staircase of f at its
    block-end positions and (b) the inverse of the chain through the running
    totals of f at every index, then compares the two functions at random
    rational points of the shared domain.  Returns (equal, worst absolute
    difference); equality here is exact, not approximate.
    """
    f = list(f)
    occ = occurrence_sequence(f)
    lhs = linear_interpolation(occ.values, occ.increase_indices)
    totals = list(accumulate(f))
    rhs = linear_interpolation(totals, range(1, len(totals) + 1)).invert()
    if lhs.domain != rhs.domain:
        raise AssertionError("chain domains diverge; sequence not positive?")
    hi = int(totals[-1])
    rng = Random(seed)
    residual = Fraction(0)
    for _ in range(samples):
        den = rng.randint(1, 997)
        x = Fraction(rng.randint(0, hi * den), den)
        residual = max(residual, abs(lhs(x) - rhs(x)))
    return residual == 0, residual


# ---------------------------------------------------------------------------
# Classification


@dataclass(frozen=True)
class GrowthClass:
    """A growth-class verdict; ``parameter`` is the fitted exponent or base."""

    kind: str
    parameter: float | None = None

    def __str__(self) -> str:
        if self.parameter is None:
            return self.kind
        return f"{self.kind}({self.parameter:.3g})"


@dataclass
class ClassificationReport:
    envelopes: Envelopes
    upper_class: GrowthClass
    lower_class: GrowthClass
    regular: str  # "regular" | "oscillating" | "undetermined"
    fits: dict[str, float]
    caveat: str = UNDECIDABILITY_CAVEAT

    @property
    def provisional_tail(self) -> int | None:
        return self.envelopes.provisional_from


# (model name, coordinate transform of one point, growth class named by the
# fitted slope); a straight line in the transformed coordinates means the
# model matches
_MODELS: list[tuple[str, Callable, Callable[[float], GrowthClass]]] = [
    (
        "power",
        lambda x, y: (math.log(x), math.log(y)),
        lambda b: GrowthClass("Pol" if b >= POLY_EXPONENT_SPLIT else "InvPol", b),
    ),
    ("exponential", lambda x, y: (x, math.log(y)), lambda b: GrowthClass("Exp", math.exp(b))),
    (
        "root-exponential",
        lambda x, y: (math.sqrt(x), math.log(y)),
        lambda b: GrowthClass("Int", math.exp(b)),
    ),
    ("logarithmic", lambda x, y: (math.log(x), y), lambda b: GrowthClass("InvExp")),
    ("log-squared", lambda x, y: (math.log(x) ** 2, y), lambda b: GrowthClass("InvInt")),
    ("log-log", lambda x, y: (math.log(math.log(x)), y), lambda b: GrowthClass("InvSupExp")),
]


def _linreg(X: Sequence[float], Y: Sequence[float]) -> tuple[float, float, float]:
    """Least-squares line through (X, Y): slope, intercept and r².

    X must hold at least two distinct values.  When Y has no spread
    (``ss_tot == 0``) the flat line fits it exactly and r² is 1.
    """
    slope, intercept = linear_regression(X, Y)
    mean_y = fmean(Y)
    ss_res = math.fsum((y - (slope * x + intercept)) ** 2 for x, y in zip(X, Y))
    ss_tot = math.fsum((y - mean_y) ** 2 for y in Y)
    r2 = 1.0 if ss_tot == 0 else 1.0 - ss_res / ss_tot
    return slope, intercept, r2


def _fit_points(env: Sequence[int]) -> list[tuple[int, int]]:
    """The envelope's increase knots within the fit window, as fit data.

    Fitting the raw staircase punishes slowly-growing series (long flat
    blocks drag every model's score down), and resampling between knots
    manufactures points that blur the models together; each completed step
    of the staircase is one honest observation.  The window starts at the
    first increase at or past the burn-in, so a flat lead-in does not bias
    the slope, and always includes the final layer.  For ``len(env) >=
    MIN_LAYERS`` the window start lies below ``len(env) - 1``, so there are
    always at least two distinct x.
    """
    h = len(env)
    start = max(2, math.ceil(BURN_IN_FRACTION * h))
    increases = [i for i in range(1, h) if env[i] > env[i - 1]]
    w0 = next((i for i in increases if i >= start), start)
    if w0 >= h - 1:
        w0 = start
    knot_x = [w0] + [i for i in increases if w0 < i < h - 1] + [h - 1]
    return [(x, env[x]) for x in knot_x]


def _fit_envelope(env: Sequence[int], fits: dict[str, float], prefix: str) -> GrowthClass:
    points = _fit_points(env)
    ranked: list[tuple[float, Callable[[float], GrowthClass], float]] = []
    for name, transform, named_class in _MODELS:
        X, Y = zip(*(transform(x, y) for x, y in points))
        slope, _, r2 = _linreg(X, Y)
        fits[f"{prefix}:{name}"] = r2
        if slope > 1e-9:  # growth classes are all increasing; flat is not a model
            ranked.append((r2, named_class, slope))
    # the first model with the best score wins ties; with no model, none passes
    r2, named_class, slope = max(ranked, key=lambda fit: fit[0], default=(-math.inf, None, 0.0))
    return GrowthClass("Unknown") if r2 < R2_THRESHOLD else named_class(slope)


def _regularity(upper: GrowthClass, lower: GrowthClass) -> str:
    if upper.kind == "Unknown" or lower.kind == "Unknown":
        return "undetermined"
    if upper.kind != lower.kind:
        return "oscillating"
    if upper.kind in ("Pol", "InvPol"):
        assert upper.parameter is not None and lower.parameter is not None
        if abs(upper.parameter - lower.parameter) > OSCILLATION_DEGREE_GAP:
            return "oscillating"
    return "regular"


def classify(series: GrowthSeries) -> ClassificationReport:
    """Classify the growth of a finite-horizon series.

    Short-circuits: any empty layer means the system dies (Fin); an upper
    envelope constant over the trailing half of the window means bounded
    (Bnd).  Otherwise each envelope's increase knots are fitted against the
    candidate models (power, exponential, exponential-in-sqrt, logarithmic,
    squared-log, iterated-log) by least squares in transformed coordinates;
    the best score above ``R2_THRESHOLD`` wins, else Unknown.  A window with
    almost no increases carries no model information and comes out Unknown
    (flat) or defaults to the first adequate model.  The verdicts for the
    two envelopes agree for regular growth and diverge for oscillating
    growth; any Unknown makes the comparison undetermined.

    Raises ValueError when fewer than ``MIN_LAYERS`` layers are present.
    """
    counts = series.counts
    h = len(counts)
    if h < MIN_LAYERS:
        raise ValueError(f"need at least {MIN_LAYERS} layers to classify, got {h}")
    env = envelopes(counts)
    fits: dict[str, float] = {}
    if 0 in counts:
        cls = GrowthClass("Fin")
        return ClassificationReport(env, cls, cls, "regular", fits)
    tail = env.upper[h - math.ceil(h / 2) :]
    if all(v == tail[0] for v in tail):
        cls = GrowthClass("Bnd")
        return ClassificationReport(env, cls, cls, "regular", fits)
    upper_class = _fit_envelope(env.upper, fits, "upper")
    lower_class = _fit_envelope(env.lower, fits, "lower")
    return ClassificationReport(env, upper_class, lower_class, _regularity(upper_class, lower_class), fits)
