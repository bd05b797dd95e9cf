"""Entropy, disagreement, agreement, and the squared-density quadrature."""

import codecs
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given as hgiven
from hypothesis import strategies as st

from analogical import (
    InvalidDistributionError,
    OutcomeDistribution,
    TabulatedDensity,
    agreement,
    agreement_density,
    disagreement,
    entropy,
    read_density_file,
)


EPS = Fraction(1, 10**30)


@pytest.mark.parametrize(
    "probabilities, valid",
    [
        ({}, False),
        ({"a": Fraction(-1, 4), "b": Fraction(5, 4)}, False),
        ({"a": -0.25, "b": 1.25}, False),
        ({"a": Fraction(1, 2), "b": Fraction(3, 2)}, False),
        ({"a": 0.5, "b": 1.5}, False),
        ({"a": Fraction(1, 3) + EPS, "b": Fraction(2, 3)}, False),
        ({"a": Fraction(1, 3) - EPS, "b": Fraction(2, 3)}, False),
        ({"a": Fraction(1, 3) + EPS, "b": Fraction(2, 3) - EPS}, True),
        ({"a": 0.7, "b": 0.2, "c": 0.1}, True),
        ({"c": 0.1, "b": 0.2, "a": 0.7}, True),
        ({"a": 0.25 + 1e-13, "b": 0.75}, True),
        ({"b": 0.75, "a": 0.25 + 1e-13}, True),
        ({"a": 0.25 - 1e-13, "b": 0.75}, True),
        ({"b": 0.75, "a": 0.25 - 1e-13}, True),
        ({"a": 0.25 + 1e-9, "b": 0.75}, False),
        ({"a": 0.25 - 1e-9, "b": 0.75}, False),
    ],
    ids=[
        "empty", "negative", "negative-float", "over-1", "over-1-float",
        "exact-sum-over", "exact-sum-under", "exact-sum-1", "0.7-0.2-0.1", "0.1-0.2-0.7",
        "float-over", "float-over-reversed", "float-under", "float-under-reversed",
        "float-over-1e-9", "float-under-1e-9",
    ],
)
def test_one_rule_for_a_distribution(probabilities, valid):
    # OutcomeDistribution and the measures accept the same inputs and refuse the rest alike
    def refusal(check):
        try:
            check(probabilities)
        except InvalidDistributionError as exc:
            return str(exc)
        return None

    said = refusal(OutcomeDistribution)
    assert (said is None) == valid, said
    for measure in (entropy, disagreement, agreement):
        assert refusal(measure) == said, measure.__name__


def test_entropy_known_values():
    assert entropy({"a": 0.5, "b": 0.5}) == 1.0
    assert abs(entropy({o: 0.25 for o in "abcd"}) - 2.0) < 1e-12
    assert entropy({"a": 1.0}) == 0.0
    assert entropy({"a": 1.0, "b": 0.0}) == 0.0  # zero mass contributes nothing


def test_entropy_worked_distribution():
    probs = {"y": Fraction(4, 13), "x": Fraction(9, 13)}
    assert abs(entropy(probs) - 0.8904916402194913) < 1e-12


def test_disagreement_agreement_exact_rationals():
    probs = {"y": Fraction(4, 13), "x": Fraction(9, 13)}
    q = disagreement(probs)
    z = agreement(probs)
    assert q == Fraction(72, 169)
    assert z == Fraction(97, 169)
    assert q + z == 1
    assert isinstance(q, Fraction) and isinstance(z, Fraction)


def test_disagreement_uniform_two():
    assert disagreement({"a": Fraction(1, 2), "b": Fraction(1, 2)}) == Fraction(1, 2)
    assert agreement({"a": Fraction(1, 2), "b": Fraction(1, 2)}) == Fraction(1, 2)


def test_point_mass_measures():
    assert entropy({"x": Fraction(1)}) == 0.0
    assert disagreement({"x": Fraction(1)}) == 0
    assert agreement({"x": Fraction(1)}) == 1


def brute_force_two_draw_difference(probs: dict) -> float:
    # probability that two independent draws land on different labels
    labels = list(probs)
    return sum(
        probs[a] * probs[b]
        for a in labels
        for b in labels
        if a != b
    )


def test_disagreement_matches_two_draw_oracle():
    rng = random.Random(2024)
    for _ in range(100):
        size = rng.randint(1, 6)
        raw = [rng.random() + 1e-9 for _ in range(size)]
        total = sum(raw)
        probs = {f"o{i}": value / total for i, value in enumerate(raw)}
        # renormalize the largest entry so the sum is exactly 1.0
        drift = 1.0 - sum(probs.values())
        biggest = max(probs, key=probs.get)
        probs[biggest] += drift
        assert abs(disagreement(probs) - brute_force_two_draw_difference(probs)) < 1e-12


@hgiven(
    st.lists(st.integers(min_value=1, max_value=50), min_size=1, max_size=6)
)
def test_agreement_plus_disagreement_is_one_exact(weights):
    total = sum(weights)
    probs = {f"o{i}": Fraction(w, total) for i, w in enumerate(weights)}
    assert agreement(probs) + disagreement(probs) == 1
    assert isinstance(agreement(probs), Fraction)


def test_validation_errors():
    with pytest.raises(InvalidDistributionError):
        entropy({})
    with pytest.raises(InvalidDistributionError):
        entropy({"a": -0.1, "b": 1.1})
    with pytest.raises(InvalidDistributionError):
        disagreement({"a": 0.6, "b": 0.6})


def test_exact_inputs_validated_exactly():
    near_one = {"a": Fraction(1, 2), "b": Fraction(5000000000001, 10000000000000)}
    with pytest.raises(InvalidDistributionError):
        agreement(near_one)
    with pytest.raises(InvalidDistributionError):
        entropy({"a": Fraction("1e400")})
    with pytest.raises(InvalidDistributionError):
        entropy({"a": Fraction(3, 2), "b": Fraction(-1, 2)})
    assert agreement({"a": Fraction(1, 3), "b": 0, "c": Fraction(2, 3)}) == Fraction(5, 9)


def test_exact_sum_error_says_which_side_of_1():
    # float(1 + 10^-400) == 1.0, so an exact sum is not printed as a float
    for probs, said in (
        ({"x": Fraction("1e-400"), "y": 1}, "more than 1"),
        ({"x": Fraction(1, 3), "y": Fraction(2, 3) - Fraction("1e-400")}, "less than 1"),
    ):
        with pytest.raises(InvalidDistributionError, match=f"^probabilities sum to {said}$"):
            entropy(probs)
    with pytest.raises(InvalidDistributionError, match=r"^probabilities sum to 1\.2, not 1$"):
        entropy({"x": 0.6, "y": 0.6})


def test_float_inputs_keep_tolerance():
    assert abs(entropy({"a": 0.1 + 0.2, "b": 0.7}) - entropy({"a": 0.3, "b": 0.7})) < 1e-12
    with pytest.raises(InvalidDistributionError):
        entropy({"a": float("nan"), "b": 1.0})


# --- densities -----------------------------------------------------------------

def triangular_density(points: int = 10001) -> TabulatedDensity:
    grid = np.linspace(0.0, 1.0, points)
    return TabulatedDensity(grid, 2.0 * grid)


def test_triangular_agreement_density():
    # integral of (2x)^2 on [0, 1] is 4/3
    assert abs(agreement_density(triangular_density()) - 4.0 / 3.0) < 1e-6


def test_uniform_agreement_density():
    density = TabulatedDensity(np.linspace(0, 1, 101), np.ones(101))
    assert abs(agreement_density(density) - 1.0) < 1e-12


def test_density_validation():
    with pytest.raises(InvalidDistributionError):
        TabulatedDensity(np.array([0.0]), np.array([1.0]))
    with pytest.raises(InvalidDistributionError):
        TabulatedDensity(np.array([0.0, 0.0, 1.0]), np.ones(3))
    with pytest.raises(InvalidDistributionError):
        TabulatedDensity(np.array([0.0, 1.0]), np.array([2.0, -0.5]))
    with pytest.raises(InvalidDistributionError):
        TabulatedDensity(np.array([0.0, 1.0]), np.array([3.0, 3.0]))
    for grid, values in ((np.ones((2, 2)), np.ones(4)), (np.array([0.0, 1.0]), np.ones((1, 2)))):
        with pytest.raises(InvalidDistributionError, match=r"^grid and values must be one-dimensional$"):
            TabulatedDensity(grid, values)
    with pytest.raises(InvalidDistributionError, match=r"^grid has 3 points but values has 2$"):
        TabulatedDensity(np.array([0.0, 1.0, 2.0]), np.array([1.0, 1.0]))
    # a loose tolerance accepts the same mass mismatch
    TabulatedDensity(np.array([0.0, 1.0]), np.array([3.0, 3.0]), tol=2.5)


def test_density_rejects_non_finite():
    grid = np.array([0.0, 1.0, 2.0])
    # NaN fails every comparison, so each check on its own would let it pass
    with pytest.raises(InvalidDistributionError, match="finite"):
        TabulatedDensity(grid, np.array([np.nan, 1.0, 0.0]))
    with pytest.raises(InvalidDistributionError, match="finite"):
        TabulatedDensity(grid, np.array([0.0, np.inf, 0.0]), tol=np.inf)
    with pytest.raises(InvalidDistributionError):
        TabulatedDensity(np.array([0.0, 1.0, np.nan]), np.array([0.0, 1.0, 0.0]))
    with pytest.raises(InvalidDistributionError):
        TabulatedDensity(np.array([0.0, 1.0, np.inf]), np.array([1.0, 0.0, 0.0]))


def test_read_density_file(tmp_path):
    path = tmp_path / "density.txt"
    grid = np.linspace(0.0, 1.0, 1001)
    lines = ["# x f(x)"]
    lines += [f"{x} {2.0 * x}" for x in grid]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    density = read_density_file(path)
    assert abs(agreement_density(density) - 4.0 / 3.0) < 1e-5


def test_read_density_file_ignores_byte_order_mark(tmp_path):
    text = b"0 0\n1 1\n2 0\n"
    plain, bom = tmp_path / "plain.txt", tmp_path / "bom.txt"
    plain.write_bytes(text)
    bom.write_bytes(codecs.BOM_UTF8 + text)
    a, b = read_density_file(plain), read_density_file(bom)
    assert np.array_equal(a.grid, b.grid) and np.array_equal(a.values, b.values)


def test_read_density_file_rejects_bad_lines(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("0.0 1.0 extra\n", encoding="utf-8")
    with pytest.raises(InvalidDistributionError):
        read_density_file(path)
    path.write_text("0.0 one\n1.0 1.0\n", encoding="utf-8")
    with pytest.raises(InvalidDistributionError):
        read_density_file(path)
