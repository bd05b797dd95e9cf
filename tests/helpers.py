"""Shared test helpers: random instances and frozen expected values.

The matrices below were derived by hand from the bundled 6-exemplar
dataset with given context (o, m, a) and are frozen here as the oracle
for both engines.  Row/column index j refers to exemplar j (1-based).
"""

import random
from fractions import Fraction

import numpy as np

from analogical import Dataset

FEATURE_POOL = ("a", "b", "c")
OUTCOME_POOL = ("x", "y", "z")


def random_instance(rng: random.Random, max_m: int = 8, max_n: int = 4,
                    max_outcomes: int = 3):
    """One random (dataset, given) pair with small, engine-friendly sizes."""
    m = rng.randint(1, max_m)
    n = rng.randint(1, max_n)
    labels = OUTCOME_POOL[: rng.randint(1, max_outcomes)]
    pairs = [
        (tuple(rng.choice(FEATURE_POOL) for _ in range(n)), rng.choice(labels))
        for _ in range(m)
    ]
    given = tuple(rng.choice(FEATURE_POOL) for _ in range(n))
    return Dataset.from_pairs(pairs), given


def two_step_by_verdicts(aset) -> dict:
    """Two-step probabilities from a walk over every mask's verdict: the oracle for the lattice pass.

    A homogeneous supracontext with k members is selected with probability
    k^2 / total, then each outcome within it with probability k * count / k^2.
    """
    probs = {o: Fraction(0) for o in aset.outcome_counts}
    for v in aset.verdicts:
        if not v.homogeneous or v.k == 0:
            continue
        select = Fraction(v.k * v.k, aset.total_pointers)
        for o in set(v.member_outcomes):
            probs[o] += select * Fraction(v.k * v.member_outcomes.count(o), v.k * v.k)
    return probs


def pair_block(m: int, members) -> np.ndarray:
    """m x m matrix with ones exactly on members x members."""
    out = np.zeros((m, m), dtype=np.uint8)
    if members:
        idx = np.asarray(members) - 1
        out[np.ix_(idx, idx)] = 1
    return out


# difference vectors of the bundled dataset against (o, m, a), exemplar order
EXPECTED_D = ["001", "110", "101", "100", "001", "111"]

EXPECTED_V2 = np.array(
    [
        [0, 1, 1, 1, 0, 1],
        [1, 0, 1, 1, 1, 1],
        [1, 1, 0, 1, 1, 1],
        [1, 1, 1, 0, 1, 1],
        [0, 1, 1, 1, 0, 1],
        [1, 1, 1, 1, 1, 0],
    ],
    dtype=np.uint8,
)

EXPECTED_W2 = np.array(
    [
        [0, 1, 1, 1, 1, 1],
        [1, 0, 0, 0, 0, 0],
        [1, 0, 0, 0, 0, 0],
        [1, 0, 0, 0, 0, 0],
        [1, 0, 0, 0, 0, 0],
        [1, 0, 0, 0, 0, 0],
    ],
    dtype=np.uint8,
)

EXPECTED_P2 = np.array(
    [
        [0, 1, 1, 1, 0, 1],
        [1, 0, 0, 0, 0, 0],
        [1, 0, 0, 0, 0, 0],
        [1, 0, 0, 0, 0, 0],
        [0, 0, 0, 0, 0, 0],
        [1, 0, 0, 0, 0, 0],
    ],
    dtype=np.uint8,
)

# per-mask expectations, in the canonical mask order
EXPECTED_MEMBERS = {
    "111": (),
    "110": (1, 5),
    "101": (),
    "011": (4,),
    "100": (1, 5),
    "010": (1, 3, 4, 5),
    "001": (2, 4),
    "000": (1, 2, 3, 4, 5, 6),
}

EXPECTED_HOMOGENEOUS = {
    "111": True,
    "110": True,
    "101": True,
    "011": True,
    "100": True,
    "010": False,
    "001": True,
    "000": False,
}

EXPECTED_A2_ONES = {
    "111": 0,
    "110": 4,
    "101": 0,
    "011": 1,
    "100": 4,
    "010": 0,
    "001": 4,
    "000": 0,
}

EXPECTED_H2_010 = pair_block(6, ())
for _j, _jp in ((1, 3), (1, 4), (3, 1), (4, 1)):
    EXPECTED_H2_010[_j - 1, _jp - 1] = 1

EXPECTED_COUNTS = {"y": 4, "x": 9}
EXPECTED_TOTAL = 13
