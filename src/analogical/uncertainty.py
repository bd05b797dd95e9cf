"""Uncertainty measures over outcome distributions.

Three summary numbers for a discrete distribution p:

* entropy ``H = -sum p_i log2 p_i`` in bits,
* disagreement ``Q = 1 - sum p_i^2``, the chance two independent draws
  differ,
* agreement ``Z = sum p_i^2 = 1 - Q``, the chance they agree.

Disagreement and agreement stay exact when fed exact rationals: sums of
squares of Fraction values are Fraction values.  Entropy is a float.

For a distribution over a continuum there is no finite outcome list; the
analogue of Z is the agreement density ``Z' = integral f(x)^2 dx``,
estimated here from a tabulated density by trapezoidal quadrature.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from numbers import Rational

import numpy as np

from .core import _read_text

_SUM_TOL = 1e-12


class InvalidDistributionError(ValueError):
    """Raised when probabilities are negative or do not sum to 1."""


def _validated(probabilities: dict) -> dict:
    """The one rule for a distribution, here and in ``OutcomeDistribution``: each p in [0, 1], summing to 1.

    Exact inputs (all Fraction or int) are checked exactly, in integers first;
    float input allows ``_SUM_TOL`` (1e-12) of rounding.  No value is converted
    to float before it has passed, so huge exact values cannot overflow.
    """
    if not probabilities:
        raise InvalidDistributionError("distribution has no outcomes")
    exact = all(isinstance(p, Rational) for p in probabilities.values())
    if exact:
        # in integers over the lcm of the denominators: none negative, and summing to it
        common = math.lcm(*(p.denominator for p in probabilities.values()))
        scaled = [p.numerator * (common // p.denominator) for p in probabilities.values()]
        if min(scaled) >= 0 and sum(scaled) == common:
            return probabilities
    tolerance = 0 if exact else _SUM_TOL
    for label, p in probabilities.items():
        if not 0 <= p <= 1 + tolerance:
            raise InvalidDistributionError(f"probability for {label!r} is outside [0, 1]")
    total = sum(probabilities.values())
    if not abs(total - 1) <= tolerance:
        # an exact sum can round to 1.0 as a float; say which side of 1 it lies on
        said = ("more" if total > 1 else "less") + " than 1" if exact else f"{float(total)!r}, not 1"
        raise InvalidDistributionError(f"probabilities sum to {said}")
    return probabilities


def entropy(probabilities: dict) -> float:
    """Shannon entropy in bits; zero-probability outcomes contribute nothing."""
    _validated(probabilities)
    h = 0.0
    for p in probabilities.values():
        p = float(p)
        if p > 0.0:
            h -= p * math.log2(p)
    return h


def disagreement(probabilities: dict):
    """Probability that two independent draws give different outcomes.

    Returns a Fraction when given Fractions, a float when given floats.
    """
    _validated(probabilities)
    return 1 - sum(p * p for p in probabilities.values())


def agreement(probabilities: dict):
    """Probability that two independent draws agree: sum of squared masses."""
    _validated(probabilities)
    return sum(p * p for p in probabilities.values())


@dataclass(eq=False)
class TabulatedDensity:
    """A probability density sampled on a strictly increasing grid.

    Grid and values must be finite, and the values nonnegative, integrating
    to 1 within ``tol`` under the trapezoid rule on the same grid.
    """

    grid: np.ndarray
    values: np.ndarray
    tol: float = 1e-6

    def __post_init__(self):
        self.grid = np.asarray(self.grid, dtype=float)
        self.values = np.asarray(self.values, dtype=float)
        if self.grid.ndim != 1 or self.values.ndim != 1:
            raise InvalidDistributionError("grid and values must be one-dimensional")
        if self.grid.size != self.values.size:
            raise InvalidDistributionError(
                f"grid has {self.grid.size} points but values has {self.values.size}"
            )
        if self.grid.size < 2:
            raise InvalidDistributionError("need at least two grid points")
        # NaN fails every comparison below, so it would pass them all
        if not (np.isfinite(self.grid).all() and np.isfinite(self.values).all()):
            raise InvalidDistributionError("grid points and density values must be finite")
        if not np.all(np.diff(self.grid) > 0):
            raise InvalidDistributionError("grid must be strictly increasing")
        if np.any(self.values < 0):
            raise InvalidDistributionError("density values must be nonnegative")
        mass = float(np.trapezoid(self.values, self.grid))
        if abs(mass - 1.0) > self.tol:
            raise InvalidDistributionError(
                f"density integrates to {mass!r}, not 1 (tol {self.tol})"
            )


def agreement_density(density: TabulatedDensity) -> float:
    """Z' = integral of the squared density, by trapezoidal quadrature."""
    return float(np.trapezoid(density.values ** 2, density.grid))


def read_density_file(path) -> TabulatedDensity:
    """Load a two-column text file of grid points and density values.

    Blank lines and lines starting with ``#`` are ignored; each remaining
    line must hold exactly two numbers separated by whitespace.
    """
    grid = []
    values = []
    # text mode folds \r\n and \r into \n; splitlines() would also split on \x0c, \x85 and others
    for lineno, raw in enumerate(_read_text(path, InvalidDistributionError).split("\n"), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 2:
            raise InvalidDistributionError(
                f"line {lineno}: expected two columns, got {len(parts)}"
            )
        try:
            grid.append(float(parts[0]))
            values.append(float(parts[1]))
        except ValueError:
            raise InvalidDistributionError(
                f"line {lineno}: could not parse {line!r} as two numbers"
            ) from None
    return TabulatedDensity(np.array(grid), np.array(values))
