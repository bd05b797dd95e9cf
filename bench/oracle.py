"""Reference computations the benchmark checks the program against.

Nothing here imports the ``analogical`` package.  The pointer counts come
from a different algorithm than the package's lattice walk: exemplars are
bucketed by difference vector, and every supracontext mask is decided by
the plurality rule over the buckets, in numpy.  The gate counts come from
a closed form in m, n and the outcome-code width, not from running gates.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np


@dataclass(frozen=True)
class Reference:
    """Expected pointer counts for one (dataset, given context) pair.

    ``homogeneous`` and ``members`` are indexed by the mask's integer value,
    leftmost feature most significant; ``members`` is the count k.
    """

    counts: dict[str, int]
    total: int
    homogeneous: np.ndarray
    members: np.ndarray
    subcontexts: int

    @property
    def probabilities(self) -> dict[str, Fraction]:
        return {o: Fraction(c, self.total) for o, c in self.counts.items()}


def difference_codes(contexts: Sequence[Sequence[str]], given: Sequence[str]) -> np.ndarray:
    """Mismatch bits of every exemplar packed into an int, leftmost bit highest."""
    n = len(given)
    mismatch = np.array(contexts, dtype=object) != np.array(given, dtype=object)
    weights = 1 << np.arange(n - 1, -1, -1, dtype=np.int64)
    return mismatch.astype(np.int64) @ weights


def pointer_counts(
    contexts: Sequence[Sequence[str]], outcomes: Sequence[str], given: Sequence[str]
) -> Reference:
    """Per-outcome pointer counts and their total, by the plurality rule.

    A supracontext is heterogeneous iff its members span two or more
    subcontexts and two or more outcomes; each homogeneous one with k
    members adds k pointers per member, k^2 in all.
    """
    n, m = len(given), len(contexts)
    if m * m << n >= 1 << 62:
        raise OverflowError(f"m={m}, n={n} may overflow int64 pointer sums")
    labels = list(dict.fromkeys(outcomes))
    label_index = {o: i for i, o in enumerate(labels)}
    buckets, bucket_of = np.unique(difference_codes(contexts, given), return_inverse=True)
    per_bucket = np.zeros((len(buckets), len(labels)), dtype=np.int64)
    np.add.at(per_bucket, (bucket_of, [label_index[o] for o in outcomes]), 1)

    masks = np.arange(1 << n, dtype=np.int64)
    inside = (masks[:, None] & buckets[None, :]) == 0
    per_outcome = inside.astype(np.int64) @ per_bucket
    k = per_outcome.sum(axis=1)
    homogeneous = (inside.sum(axis=1) <= 1) | ((per_outcome > 0).sum(axis=1) <= 1)
    counts = (k[:, None] * per_outcome)[homogeneous].sum(axis=0)
    return Reference(
        counts={o: int(c) for o, c in zip(labels, counts)},
        total=int((k * k)[homogeneous].sum()),
        homogeneous=homogeneous,
        members=k,
        subcontexts=len(buckets),
    )


# --- closed-form gate counts -------------------------------------------------

GATE_STEPS = ("pair_arrays", "containment", "heterogeneity", "negate", "sweep", "analogy")


def _xor_comparator(width: int) -> Counter:
    return Counter(cnot=4 * width + 1, **{"not": 2 * width}, ccnot=2 * width)


def _inclusion_comparator(width: int) -> Counter:
    return Counter(cnot=1, **{"not": 2 * width}, ccnot=4 * width)


def _times(c: Counter, k: int) -> Counter:
    return Counter({op: k * v for op, v in c.items()})


def outcome_code_width(outcome_count: int) -> int:
    """Bits of the fixed-width outcome code: enough for every label, at least one."""
    return max(1, (outcome_count - 1).bit_length())


def gate_tally(m: int, n: int, w: int) -> dict[str, Counter]:
    """Primitive gates of one full circuit run, per step and per op.

    Per exemplar pair the pair arrays use one xor comparator of width n
    (V2), one of width w (W2) and one Toffoli (P2).  Per mask, C2 takes
    2m + 2m^2 inclusion comparators of width n plus m^2 Toffolis; H2 takes
    m^2 Toffolis; H2 is negated and restored with 2m^2 NOTs; the sweep and
    its reverse take 2m^2 Toffolis; A2 takes m^2 Toffolis.
    """
    pairs = m * m
    masks = 1 << n
    per_mask = {
        "containment": _times(_inclusion_comparator(n), 2 * m + 2 * pairs)
        + Counter(ccnot=pairs),
        "heterogeneity": Counter(ccnot=pairs),
        "negate": Counter(**{"not": 2 * pairs}),
        "sweep": Counter(ccnot=2 * pairs),
        "analogy": Counter(ccnot=pairs),
    }
    tally = {
        "pair_arrays": _times(_xor_comparator(n) + _xor_comparator(w), pairs)
        + Counter(ccnot=pairs)
    }
    tally.update({step: _times(c, masks) for step, c in per_mask.items()})
    return tally


def gate_ops(tally: dict[str, Counter]) -> Counter:
    """Sum a per-step tally into counts per op (not, cnot, ccnot)."""
    return sum(tally.values(), Counter())
