"""Homogeneity criteria, pointer counting, and the outcome distribution."""

import pickle
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given as hgiven
from hypothesis import settings
from hypothesis import strategies as st

from analogical import (
    AnalogicalSet,
    Dataset,
    GateTrace,
    InvalidDistributionError,
    NoAnalogicalSupportError,
    OutcomeDistribution,
    analogical_set,
    bits_to_int,
    bits_to_str,
    contained_exemplars,
    difference_vector,
    is_homogeneous_determinism,
    is_homogeneous_disagreement,
    is_homogeneous_plurality,
    is_homogeneous_pointer,
    iter_masks,
    most_likely_outcome,
    pointer_heterogeneity_matrix,
    predict_distribution,
    run_qam_circuit,
    sample_outcome,
    to_analogical_set,
    two_step_distribution,
)
from analogical import core, gates, homogeneity
from analogical.core import encode
from analogical.homogeneity import _ExplainLattice, _pointer_sums
from helpers import (
    EXPECTED_COUNTS,
    EXPECTED_HOMOGENEOUS,
    EXPECTED_MEMBERS,
    EXPECTED_P2,
    EXPECTED_TOTAL,
    pair_block,
    random_instance,
    two_step_by_verdicts,
)

ALL_CRITERIA = (
    is_homogeneous_pointer,
    is_homogeneous_plurality,
    is_homogeneous_determinism,
    is_homogeneous_disagreement,
)


def brute_force_disagreement_verdict(ds, given, mask) -> bool:
    """Independent oracle: enumerate ordered member pairs with plain loops."""
    members = [
        e for e in ds.exemplars
        if all(not (mb and db) for mb, db in zip(mask, difference_vector(e.context, given)))
    ]
    d_supra = 0
    d_sub = 0
    for a in members:
        for b in members:
            if a.outcome != b.outcome:
                d_supra += 1
                if difference_vector(a.context, given) == difference_vector(b.context, given):
                    d_sub += 1
    return d_supra == d_sub


# --- worked dataset ----------------------------------------------------------

def test_heterogeneity_matrix(worked):
    ds, given = worked
    np.testing.assert_array_equal(pointer_heterogeneity_matrix(ds, given), EXPECTED_P2)


def test_worked_verdicts_all_criteria(worked):
    ds, given = worked
    for mask in iter_masks(ds.n):
        expected = EXPECTED_HOMOGENEOUS[bits_to_str(mask)]
        for crit in ALL_CRITERIA:
            assert crit(ds, given, mask) == expected, (bits_to_str(mask), crit.__name__)


def test_worked_members_and_counts(worked):
    ds, given = worked
    aset = analogical_set(ds, given)
    for v in aset.verdicts:
        key = bits_to_str(v.mask)
        assert v.members == EXPECTED_MEMBERS[key]
        assert v.homogeneous == EXPECTED_HOMOGENEOUS[key]
    assert aset.outcome_counts == EXPECTED_COUNTS
    assert aset.total_pointers == EXPECTED_TOTAL


def test_worked_distribution_exact(worked):
    ds, given = worked
    dist = predict_distribution(analogical_set(ds, given))
    assert dist.probabilities == {"y": Fraction(4, 13), "x": Fraction(9, 13)}
    assert most_likely_outcome(dist) == "x"


def test_mask_110_disagreement_counts(worked):
    # both members share subcontext 001, so the two cross-outcome ordered
    # pairs disagree in the supracontext and in the subcontext alike
    ds, given = worked
    members = contained_exemplars(ds, given, (1, 1, 0))
    assert members == (1, 5)
    assert brute_force_disagreement_verdict(ds, given, (1, 1, 0))
    assert is_homogeneous_disagreement(ds, given, (1, 1, 0))


def test_pointer_matrix_of_verdicts(worked):
    ds, given = worked
    aset = analogical_set(ds, given)
    by_mask = {bits_to_str(v.mask): v for v in aset.verdicts}
    np.testing.assert_array_equal(by_mask["110"].pointers, pair_block(6, (1, 5)))
    np.testing.assert_array_equal(by_mask["010"].pointers, pair_block(6, ()))
    assert by_mask["110"].pointer_count == 4
    assert by_mask["011"].pointer_count == 1
    assert by_mask["010"].pointer_count == 0


# --- small structural cases ---------------------------------------------------

def test_single_exemplar_all_masks_homogeneous():
    ds = Dataset.from_pairs([(("a", "b"), "x")])
    given = ("a", "c")
    for mask in iter_masks(ds.n):
        for crit in ALL_CRITERIA:
            assert crit(ds, given, mask)
    dist = predict_distribution(analogical_set(ds, given))
    assert dist.probabilities == {"x": Fraction(1)}


def test_empty_supracontext_homogeneous():
    ds = Dataset.from_pairs([(("a",), "x"), (("b",), "y")])
    # mask 1 with given "c" contains nobody
    for crit in ALL_CRITERIA:
        assert crit(ds, ("c",), (1,))


def test_same_subcontext_two_outcomes_is_homogeneous():
    # one subcontext, several outcomes: deterministic by subcontext count
    ds = Dataset.from_pairs([(("a",), "x"), (("a",), "y")])
    for mask in iter_masks(1):
        for crit in ALL_CRITERIA:
            assert crit(ds, ("a",), mask)


def test_two_subcontexts_two_outcomes_is_heterogeneous():
    ds = Dataset.from_pairs([(("a",), "x"), (("b",), "y")])
    for crit in ALL_CRITERIA:
        assert not crit(ds, ("a",), (0,))


def test_heterogeneity_injection():
    # flipping one exemplar's outcome to a fresh label makes the all-inclusive
    # mask heterogeneous whenever several subcontexts exist
    rng = random.Random(1234)
    flipped = 0
    for _ in range(200):
        ds, given = random_instance(rng)
        zero_mask = (0,) * ds.n
        d_vectors = {difference_vector(e.context, given) for e in ds.exemplars}
        if len(d_vectors) < 2:
            continue
        uniform = Dataset.from_pairs([(e.context, "same") for e in ds.exemplars])
        for crit in ALL_CRITERIA:
            assert crit(uniform, given, zero_mask)
        pairs = [(e.context, "same") for e in ds.exemplars]
        victim = next(
            i for i, e in enumerate(ds.exemplars)
            if difference_vector(e.context, given) != difference_vector(ds.exemplars[0].context, given)
        )
        pairs[victim] = (pairs[victim][0], "flipped")
        broken = Dataset.from_pairs(pairs)
        for crit in ALL_CRITERIA:
            assert not crit(broken, given, zero_mask)
        flipped += 1
    assert flipped > 50


def test_oracles_read_no_encoding(worked, monkeypatch):
    # the per-mask oracles are what encode's fast path is tested against, so none may call it
    ds, given = random_instance(random.Random(5))
    expected = [brute_force_disagreement_verdict(ds, given, mask) for mask in iter_masks(ds.n)]
    assert set(expected) == {True, False}

    def refuse(*args):
        raise AssertionError("an oracle called encode")

    monkeypatch.setattr(core, "encode", refuse)
    monkeypatch.setattr(homogeneity, "encode", refuse)
    for mask in iter_masks(worked[0].n):
        for crit in ALL_CRITERIA:
            assert crit(*worked, mask) == EXPECTED_HOMOGENEOUS[bits_to_str(mask)], crit.__name__
    for mask, want in zip(iter_masks(ds.n), expected):
        for crit in ALL_CRITERIA:
            assert crit(ds, given, mask) == want, (bits_to_str(mask), crit.__name__)


# --- random agreement properties ----------------------------------------------

def test_four_criteria_agree_and_match_oracle():
    rng = random.Random(99)
    for _ in range(300):
        ds, given = random_instance(rng)
        for mask in iter_masks(ds.n):
            verdicts = {crit(ds, given, mask) for crit in ALL_CRITERIA}
            assert len(verdicts) == 1
            assert verdicts.pop() == brute_force_disagreement_verdict(ds, given, mask)


def test_support_always_exists():
    # the most specific nonempty supracontext around any single exemplar is
    # homogeneous, so total pointers are never zero
    rng = random.Random(7)
    for _ in range(300):
        ds, given = random_instance(rng)
        aset = analogical_set(ds, given)
        assert aset.total_pointers >= 1
        assert sum(aset.outcome_counts.values()) == aset.total_pointers


def test_one_step_equals_two_step():
    rng = random.Random(41)
    for _ in range(300):
        ds, given = random_instance(rng)
        aset = analogical_set(ds, given)
        assert predict_distribution(aset).probabilities == two_step_distribution(aset).probabilities


# --- both engines' lazy verdicts against the per-mask oracles ---------------

# each engine hands out its verdicts through the same lazy sequence; a gate
# run whose trace is truncated must read back exactly like an untraced one
ENGINES = {
    "fast": analogical_set,
    "gates": lambda ds, given: to_analogical_set(run_qam_circuit(ds, given), ds),
    "gates-truncated-trace": lambda ds, given: to_analogical_set(
        run_qam_circuit(ds, given, trace=GateTrace(max_steps=10)), ds
    ),
}


def _oracle_instances(rng: random.Random, count: int):
    """Random instances up to n=6 and 3 outcomes, each with a duplicated
    exemplar, plus single-exemplar datasets."""
    for _ in range(count):
        ds, given = random_instance(rng, max_m=10, max_n=6)
        pairs = [(e.context, e.outcome) for e in ds.exemplars]
        yield Dataset.from_pairs(pairs + [rng.choice(pairs)]), given
        yield Dataset.from_pairs(pairs[:1]), given


@pytest.mark.parametrize("engine", ENGINES.values(), ids=ENGINES)
def test_lazy_verdicts_match_per_mask_oracles(engine):
    rng = random.Random(2007)
    for ds, given in _oracle_instances(rng, 60):
        aset = engine(ds, given)
        record, fast = aset.verdicts, analogical_set(ds, given).verdicts
        # both engines build the same lattice record
        for name in ("d", "homogeneous", "k"):
            assert np.array_equal(getattr(record, name), getattr(fast, name))
        squares = record.k[record.homogeneous].astype(np.int64) ** 2
        assert int(squares.sum()) == aset.total_pointers
        verdicts = list(aset.verdicts)
        assert [v.mask for v in verdicts] == list(iter_masks(ds.n))
        counts = {o: 0 for o in ds.outcome_order}
        total = 0
        for i, v in enumerate(verdicts):
            members = contained_exemplars(ds, given, v.mask)
            assert v.members == members
            assert len(members) == record.k[bits_to_int(v.mask)]
            assert v.member_outcomes == tuple(ds.exemplars[j - 1].outcome for j in members)
            assert v.homogeneous == is_homogeneous_pointer(ds, given, v.mask)
            assert aset.verdicts[i] == v == aset.verdicts[i - len(verdicts)]
            if v.homogeneous:
                total += v.k * v.k
                for o in v.member_outcomes:
                    counts[o] += v.k
        assert aset.outcome_counts == counts
        assert aset.total_pointers == total
        assert aset.verdicts == tuple(verdicts)


@pytest.mark.parametrize("engine", ENGINES.values(), ids=ENGINES)
def test_lazy_verdicts_sequence_protocol(worked, engine):
    ds, given = worked
    verdicts = engine(ds, given).verdicts
    assert len(verdicts) == 8
    assert [bits_to_str(v.mask) for v in verdicts[1:3]] == ["110", "101"]
    assert bits_to_str(verdicts[-1].mask) == "000"
    assert verdicts[np.int64(2)] == verdicts[2]
    assert pickle.loads(pickle.dumps(verdicts)) == verdicts
    with pytest.raises(IndexError):
        verdicts[8]
    with pytest.raises(IndexError, match="index -9 out of range"):
        verdicts[-9]
    with pytest.raises(TypeError):
        verdicts[1.5]


def test_wide_lattice_without_the_walk():
    # n=20: 2^20 supracontexts, beyond what a per-mask walk finishes quickly
    rng = random.Random(20)
    ds = Dataset.from_pairs(
        [(tuple(rng.choice("ab") for _ in range(20)), rng.choice("xy")) for _ in range(20)]
    )
    given = tuple(rng.choice("ab") for _ in range(20))
    aset = analogical_set(ds, given)
    assert aset.total_pointers >= 1
    assert sum(aset.outcome_counts.values()) == aset.total_pointers
    assert len(aset.verdicts) == 1 << 20
    for i in (0, 12345, -1):
        v = aset.verdicts[i]
        assert v.members == contained_exemplars(ds, given, v.mask)


@st.composite
def _small_instances(draw):
    """A dataset of at most 8 exemplars over at most 5 features, and a given context."""
    symbols = st.tuples(*[st.sampled_from("abc")] * draw(st.integers(1, 5)))
    pairs = draw(st.lists(st.tuples(symbols, st.sampled_from("xyz")), min_size=1, max_size=8))
    return Dataset.from_pairs(pairs), draw(symbols)


@pytest.mark.parametrize("engine", ["fast", "gates"])
@settings(max_examples=150, deadline=None)
@hgiven(_small_instances(), st.randoms(use_true_random=False))
def test_count_relations(engine, instance, rng):
    # a feature every exemplar matches doubles every supracontext, one every
    # exemplar misses adds only empty ones, and a repeated exemplar doubles every
    # k; permuting the features, the given's with them, or the exemplars moves no pointer
    ds, given = instance
    counts = ENGINES[engine](ds, given).outcome_counts
    pairs = [(e.context, e.outcome) for e in ds.exemplars]
    order = rng.sample(range(ds.n), ds.n)
    for new_pairs, new_given, factor in (
        ([(c + ("a",), o) for c, o in pairs], given + ("a",), 2),
        ([(c + ("b",), o) for c, o in pairs], given + ("a",), 1),
        (pairs + pairs, given, 4),
        ([(tuple(c[i] for i in order), o) for c, o in pairs], tuple(given[i] for i in order), 1),
        (rng.sample(pairs, len(pairs)), given, 1),
    ):
        aset = ENGINES[engine](Dataset.from_pairs(new_pairs), new_given)
        assert aset.outcome_counts == {o: factor * count for o, count in counts.items()}


# --- two-step prediction off the lattice record ----------------------------------

@pytest.mark.parametrize("cells", [1, 5, homogeneity._PASS_CELLS])
@pytest.mark.parametrize("engine", ENGINES.values(), ids=ENGINES)
def test_two_step_pass_matches_the_verdict_walk(engine, cells, monkeypatch):
    # a tiny cell budget splits even the smallest lattice into several chunks
    monkeypatch.setattr(homogeneity, "_PASS_CELLS", cells)
    squares = []

    def recording(k, per_outcome, max_k):
        counts, square = _pointer_sums(k, per_outcome, max_k)
        squares.append(square)
        return counts, square

    monkeypatch.setattr(homogeneity, "_pointer_sums", recording)
    rng = random.Random(2113)
    for ds, given in _oracle_instances(rng, 40):
        aset = engine(ds, given)
        squares.clear()
        probs = two_step_distribution(aset).probabilities
        assert probs == two_step_by_verdicts(aset)
        assert list(probs) == list(ds.outcome_order)
        # the pass's own sum of k^2 is the engine's pointer total
        assert sum(squares) == aset.total_pointers
        record = aset.verdicts
        masks = np.count_nonzero(record.homogeneous & (record.k > 0))
        assert len(squares) == -(-masks // max(1, cells // ds.m))


@pytest.mark.parametrize("engine", ENGINES.values(), ids=ENGINES)
def test_two_step_builds_no_per_mask_verdict(engine, monkeypatch):
    def refuse(self, mask):
        raise AssertionError("two-step prediction built a per-mask verdict")

    monkeypatch.setattr(homogeneity._LatticeVerdicts, "_verdict", refuse)
    rng = random.Random(2114)
    for ds, given in _oracle_instances(rng, 10):
        aset = engine(ds, given)
        assert two_step_distribution(aset).probabilities == predict_distribution(aset).probabilities


def test_two_step_refuses_a_hand_built_verdict_sequence(worked):
    ds, given = worked
    aset = analogical_set(ds, given)
    by_hand = AnalogicalSet(
        verdicts=tuple(aset.verdicts),
        outcome_counts=aset.outcome_counts,
        total_pointers=aset.total_pointers,
    )
    with pytest.raises(TypeError, match="lattice record"):
        two_step_distribution(by_hand)


def test_two_step_on_an_all_heterogeneous_record_raises(worked):
    # no engine builds one (the most specific non-empty mask is homogeneous), so by hand
    ds, given = worked
    record = analogical_set(ds, given).verdicts
    flags = np.zeros_like(record.homogeneous)
    none = AnalogicalSet(
        verdicts=homogeneity._LatticeVerdicts(ds, record.d, lambda: (flags, record.k)),
        outcome_counts={o: 0 for o in ds.outcome_order},
        total_pointers=0,
    )
    with pytest.raises(NoAnalogicalSupportError):
        two_step_distribution(none)


def int64_yates(ds, given):
    """Outcome counts, total, flags and unzeroed k (indexed by c = NOT mask) from plain int64 passes."""
    d_ints, outcomes = encode(ds, given)
    sums = np.zeros((len(ds.outcome_order) + 1, 1 << ds.n), dtype=np.int64)
    np.add.at(sums, (outcomes, d_ints), 1)
    sums[-1, d_ints] = 1
    for bit in range(ds.n):
        halves = sums.reshape(len(sums), -1, 2, 1 << bit)
        halves[:, :, 1, :] += halves[:, :, 0, :]
    per_outcome, subcontexts = sums[:-1], sums[-1]
    k = per_outcome.sum(axis=0)
    homogeneous = (subcontexts <= 1) | (per_outcome.max(axis=0) == k)
    kept = np.where(homogeneous, k, 0)
    counts = dict(zip(ds.outcome_order, (int(row @ kept) for row in per_outcome)))
    return counts, int(kept @ kept), homogeneous, k


@pytest.mark.parametrize("seed", range(36))
def test_narrow_zeta_matches_int64_yates(seed):
    rng = random.Random(seed)
    n = seed % 12 + 1  # odd and even n: the two halves of the passes differ by one bit
    labels = "wxyz"[: rng.randint(1, 4)]
    pairs = [
        (tuple(rng.choice("abc"[: rng.randint(2, 3)]) for _ in range(n)), rng.choice(labels))
        for _ in range(rng.randint(1, 40))
    ]
    ds = Dataset.from_pairs(pairs)
    given = tuple(rng.choice("ab") for _ in range(n))
    counts, total, homogeneous, k = int64_yates(ds, given)
    aset = analogical_set(ds, given)
    assert aset.outcome_counts == counts
    assert aset.total_pointers == total
    # the record is indexed by mask = 2^n - 1 - c
    assert np.array_equal(aset.verdicts.k, k[::-1])
    assert np.array_equal(aset.verdicts.homogeneous, homogeneous[::-1])
    positions = range(1 << n) if n <= 8 else rng.sample(range(1 << n), 64)
    for i in positions:
        v = aset.verdicts[i]
        assert v.homogeneous == bool(homogeneous[(1 << n) - 1 - bits_to_int(v.mask)])


# --- the lattice record on first read -------------------------------------------

def _record_instance(n: int, m: int = 24):
    rng = random.Random(f"record:{n}:{m}")
    pairs = [(tuple(rng.choice("ab") for _ in range(n)), rng.choice("xyz")) for _ in range(m)]
    return Dataset.from_pairs(pairs), tuple(rng.choice("ab") for _ in range(n))


def _refuse(*args):
    raise AssertionError("the mask-order record was built")


# n=5 sums its 2^5 pointer products in one chunk; n=15 its 2^15 in two chunks of 2^14
@pytest.mark.parametrize("n", [5, 15])
def test_predict_builds_no_record(n, monkeypatch):
    monkeypatch.setattr(homogeneity, "_mask_order", _refuse)
    monkeypatch.setattr(gates, "_lattice_arrays", _refuse)
    ds, given = _record_instance(n)
    for engine in ("fast", "gates") if n <= 6 else ("fast",):
        aset = ENGINES[engine](ds, given)
        assert predict_distribution(aset).probabilities
        assert aset.verdicts.d is not None and len(aset.verdicts) == 1 << n


RECORD_READS = {
    "two-step": lambda ds, given, aset: two_step_distribution(aset),
    "explain": lambda ds, given, aset: list(_ExplainLattice(ds, given, aset.verdicts)),
    "index": lambda ds, given, aset: aset.verdicts[3],
}


@pytest.mark.parametrize("read", RECORD_READS)
@pytest.mark.parametrize("engine, n", [("fast", 5), ("fast", 15), ("gates", 5)])
def test_first_read_builds_the_record_once(engine, n, read, monkeypatch):
    builds = []

    def counting(build):
        def wrapper(*args):
            builds.append(build)
            return build(*args)
        return wrapper

    monkeypatch.setattr(homogeneity, "_mask_order", counting(homogeneity._mask_order))
    monkeypatch.setattr(gates, "_lattice_arrays", counting(gates._lattice_arrays))
    ds, given = _record_instance(n)
    aset = ENGINES[engine](ds, given)
    assert not builds
    RECORD_READS[read](ds, given, aset)
    assert len(builds) == 1
    _, _, homogeneous, k = int64_yates(ds, given)
    assert np.array_equal(aset.verdicts.homogeneous, homogeneous[::-1])
    assert np.array_equal(aset.verdicts.k, k[::-1])
    assert len(builds) == 1


@pytest.mark.parametrize("engine", ["fast", "gates"])
def test_record_pickles_before_and_after_first_read(engine):
    ds, given = _record_instance(5)
    unread, read = (ENGINES[engine](ds, given).verdicts for _ in range(2))
    assert read[0].mask == (1,) * 5
    clones = [pickle.loads(pickle.dumps(record)) for record in (unread, read)]
    for clone in clones:
        assert clone == read == unread
        assert np.array_equal(clone.homogeneous, read.homogeneous)
        assert np.array_equal(clone.k, read.k)


@pytest.mark.parametrize("m", [255, 256, 65535, 65536])
def test_identical_exemplars_do_not_wrap_at_chunk_edges(m):
    # 2^17 entries sum in two chunks of 2^16: a chunk totals m^2 * 2^16, just
    # under 2^32 at m = 255 and exactly 2^32 at m = 256, where a uint32 sum wraps
    n = 17
    ds = Dataset.from_pairs([(("a",) * n, "x")] * m)
    aset = analogical_set(ds, ("a",) * n)
    assert aset.total_pointers == m * m << n
    assert aset.outcome_counts == {"x": m * m << n}


@pytest.mark.parametrize("m", [255, 256, 65535, 65536])
def test_identical_exemplars_fill_the_row_type(m):
    # every mask holds all m exemplars: k(c) = m, one past the uint8/uint16 maximum at 256/65536
    n = 3
    ds = Dataset.from_pairs([(("a", "b", "a"), "x")] * m)
    aset = analogical_set(ds, ("a", "b", "a"))
    assert aset.total_pointers == m * m * (1 << n)
    assert aset.outcome_counts == {"x": m * m * (1 << n)}
    assert aset.verdicts[0].homogeneous and aset.verdicts[-1].homogeneous


def test_lattice_memory_stays_narrow():
    # int64 rows, or full-size int64 copies of them, peak at about 2.6 MiB here
    rng = random.Random(16)
    n = 16
    ds = Dataset.from_pairs(
        [(tuple(rng.choice("ab") for _ in range(n)), rng.choice("xyz")) for _ in range(40)]
    )
    given = tuple(rng.choice("ab") for _ in range(n))
    analogical_set(ds, given)  # the dataset's codes are built once, on the first call
    tracemalloc.start()
    try:
        predict_distribution(analogical_set(ds, given))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the passes hold 4 rows of 2^16 bytes and their transposed copy: 512 KiB
    assert peak < 564 << 10


def test_pointer_sums_exact_past_int64():
    # k^2 of one supracontext alone exceeds 2^63, so an int64 dot would wrap
    big = 3_040_000_000
    k = np.array([big, 1], dtype=np.int64)
    per_outcome = np.array([[big, 0], [0, 1]], dtype=np.int64)
    assert int(k @ k) != big * big + 1
    assert _pointer_sums(k, per_outcome, big) == ([big * big, 1], big * big + 1)
    # below the bound the int64 path gives the same sums
    assert _pointer_sums(k // 1000, per_outcome // 1000, big // 1000) == (
        [(big // 1000) ** 2, 0],
        (big // 1000) ** 2,
    )


# --- distribution mechanics -----------------------------------------------------

def test_distribution_validation():
    with pytest.raises(ValueError, match=r"^distribution has no outcomes$"):
        OutcomeDistribution({})
    with pytest.raises(ValueError, match=r"^probabilities sum to less than 1$"):
        OutcomeDistribution({"x": Fraction(1, 2)})
    with pytest.raises(ValueError, match=r"^probability for 'x' is outside \[0, 1\]$"):
        OutcomeDistribution({"x": Fraction(3, 2), "y": Fraction(-1, 2)})
    # float input is checked too, allowing 1e-12 of rounding in its sum
    with pytest.raises(ValueError, match=r"^probabilities sum to 0\.75, not 1$"):
        OutcomeDistribution({"x": 0.5, "y": 0.25})
    OutcomeDistribution({"x": 0.5, "y": 0.5})


def test_distribution_check_is_exact():
    eps = Fraction(1, 10**30)
    OutcomeDistribution({"x": Fraction(1, 3) + eps, "y": Fraction(2, 3) - eps})
    OutcomeDistribution({"x": 1, "y": Fraction(0)})
    with pytest.raises(ValueError, match=r"^probabilities sum to "):
        OutcomeDistribution({"x": Fraction(1, 3), "y": Fraction(2, 3) - eps})
    with pytest.raises(ValueError, match=r"^probabilities sum to "):
        OutcomeDistribution({"x": Fraction(1, 3) + eps, "y": Fraction(2, 3)})
    with pytest.raises(ValueError, match=r"^probability for 'x' is outside \[0, 1\]$"):
        OutcomeDistribution({"x": 1 + eps, "y": -eps})


def test_no_support_raises():
    empty = AnalogicalSet(verdicts=(), outcome_counts={"x": 0}, total_pointers=0)
    with pytest.raises(NoAnalogicalSupportError):
        predict_distribution(empty)
    with pytest.raises(NoAnalogicalSupportError):
        two_step_distribution(empty)


def test_most_likely_tie_break_lexicographic():
    dist = OutcomeDistribution({"b": Fraction(1, 2), "a": Fraction(1, 2)})
    assert most_likely_outcome(dist) == "a"


def test_sampling_deterministic_and_supported(worked):
    ds, given = worked
    dist = predict_distribution(analogical_set(ds, given))
    first = sample_outcome(dist, 424242)
    assert first in {"x", "y"}
    assert all(sample_outcome(dist, 424242) == first for _ in range(5))
    point = OutcomeDistribution({"only": Fraction(1)})
    assert sample_outcome(point, 0) == "only"


def test_sampling_refuses_probabilities_that_are_not_exact():
    dist = OutcomeDistribution({"a": 0.5, "b": 0.5})
    with pytest.raises(InvalidDistributionError, match=r"^a draw needs exact probabilities"):
        sample_outcome(dist, 1)


def test_sampling_exact_small_distribution():
    # denominator 3: over seeds the draw follows the cumulative thirds
    dist = OutcomeDistribution({"a": Fraction(1, 3), "b": Fraction(2, 3)})
    draws = [sample_outcome(dist, seed) for seed in range(3000)]
    counts = {o: draws.count(o) for o in ("a", "b")}
    assert counts["a"] + counts["b"] == 3000
    assert 800 < counts["a"] < 1200
