"""Dataset parsing, difference vectors, masks, and bit helpers."""

import codecs
import pickle
import random
import re
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given as hgiven
from hypothesis import strategies as st

from analogical import (
    DEFAULT_N_CAP,
    Dataset,
    DatasetFormatError,
    Exemplar,
    InvalidDistributionError,
    LatticeSizeError,
    analogical_set,
    bits_to_int,
    bits_to_str,
    build_containment_array,
    check_lattice_size,
    contained_exemplars,
    contains,
    difference_vector,
    int_to_bits,
    iter_masks,
    load_dataset,
    parse_dataset,
    pointer_heterogeneity_matrix,
    predict_distribution,
    read_density_file,
    run_qam_circuit,
    serialize_dataset,
    str_to_bits,
)
from analogical.core import _mask_chunks, encode, mask_at, mask_ints
from helpers import EXPECTED_D


# --- parsing ----------------------------------------------------------------

def test_worked_example_shape(worked):
    ds, given = worked
    assert ds.m == 6
    assert ds.n == 3
    assert given == ("o", "m", "a")
    assert ds.outcome_order == ("y", "x")
    assert ds.outcome_alphabet == frozenset({"x", "y"})
    assert ds.exemplars[0].context == ("o", "m", "s")
    assert ds.exemplars[0].outcome == "y"
    assert ds.exemplars[5].context == ("g", "f", "r")
    assert [e.index for e in ds.exemplars] == [1, 2, 3, 4, 5, 6]


def test_parse_skips_comments_and_blanks():
    ds = parse_dataset("# header\n\ny\ta b\n  \nx\tc d\n")
    assert ds.m == 2
    assert ds.exemplars[1].context == ("c", "d")


def test_parse_multiple_spaces_between_features():
    ds = parse_dataset("y\ta  b\n")
    assert ds.exemplars[0].context == ("a", "b")


@pytest.mark.parametrize(
    "text",
    [
        "",                      # no data lines
        "# only comments\n",
        "y a b\n",               # missing tab
        "y\ta b\nx\tc\n",        # inconsistent feature count
        "\ta b\n",               # empty outcome
        "y\t\n",                 # no features
        "y\t  \n",               # whitespace-only features
    ],
)
def test_parse_rejects_malformed(text):
    with pytest.raises(DatasetFormatError):
        parse_dataset(text)


def test_parse_error_names_line():
    with pytest.raises(DatasetFormatError, match="line 3"):
        parse_dataset("# c\ny\ta b\nx c d\n")


def test_round_trip(worked):
    ds, _ = worked
    assert parse_dataset(serialize_dataset(ds)) == ds


_TOKENS = st.text(min_size=1, max_size=4).filter(lambda t: not any(c.isspace() for c in t))


@hgiven(st.integers(min_value=1, max_value=4).flatmap(lambda n: st.lists(
    st.tuples(
        st.lists(_TOKENS, min_size=n, max_size=n),
        _TOKENS.filter(lambda t: not t.startswith(("#", "\ufeff"))),
    ),
    min_size=1,
    max_size=6,
)))
def test_round_trip_generated(pairs):
    ds = Dataset.from_pairs(pairs)
    assert parse_dataset(serialize_dataset(ds)) == ds


def test_serialize_rejects_unrepresentable():
    ds = Dataset.from_pairs([(("a",), "#odd")])
    with pytest.raises(ValueError):
        serialize_dataset(ds)
    ds = Dataset.from_pairs([(("a b",), "y")])
    with pytest.raises(ValueError):
        serialize_dataset(ds)
    # an empty feature would vanish from the text and re-parse with one feature fewer
    ds = Dataset.from_pairs([(("", "a"), "x"), (("", "b"), "y")])
    with pytest.raises(ValueError, match="token '' is empty"):
        serialize_dataset(ds)


def test_serialize_rejects_leading_byte_order_mark(tmp_path):
    # load_dataset reads utf-8-sig, so a first outcome's leading U+FEFF would be lost
    ds = Dataset.from_pairs([(("a",), "\ufeffx"), (("b",), "y")])
    with pytest.raises(ValueError, match=r"'\\ufeffx'"):
        serialize_dataset(ds)
    # past the first line the mark is an ordinary character and round-trips
    later = Dataset.from_pairs([(("a",), "y"), (("b",), "\ufeffx")])
    path = tmp_path / "later.tsv"
    path.write_text(serialize_dataset(later), encoding="utf-8")
    assert load_dataset(path) == later


def test_from_pairs_rejects_empty():
    with pytest.raises(DatasetFormatError):
        Dataset.from_pairs([])


@pytest.mark.parametrize(
    "exemplars, message",
    [
        ([Exemplar((), "y", 1)], "exemplars must have at least one feature"),
        ([Exemplar(("a",), "y", 1), Exemplar(("a", "b"), "x", 2)], "exemplar 2 has 2 features, expected 1"),
        ([Exemplar(("a",), "y", 1), Exemplar(("b",), "x", 3)], "exemplar at position 2 carries index 3"),
        ([Exemplar(("a",), "", 1)], "exemplar 1 has an empty outcome label"),
    ],
)
def test_dataset_checks_exemplars_built_directly(exemplars, message):
    with pytest.raises(DatasetFormatError, match=f"^{re.escape(message)}$"):
        Dataset(tuple(exemplars))


def test_load_dataset_ignores_byte_order_mark(tmp_path):
    text = "x\ta b\ny\ta c\nx\tb b\n"
    plain, bom = tmp_path / "plain.tsv", tmp_path / "bom.tsv"
    plain.write_bytes(text.encode("utf-8"))
    bom.write_bytes(codecs.BOM_UTF8 + text.encode("utf-8"))
    ds = load_dataset(bom)
    assert ds == load_dataset(plain)
    assert ds.outcome_order == ("x", "y")


@pytest.mark.parametrize("lead", [b"", b"0 1\n" * 3000], ids=["short", "past-a-read-chunk"])
def test_text_readers_word_bad_bytes_alike(tmp_path, lead):
    path = tmp_path / "bad.txt"
    path.write_bytes(lead + b"0 1\n\xff 1\n")
    said = f"{path}: not UTF-8 text (invalid start byte at byte {len(lead) + 4})"
    with pytest.raises(DatasetFormatError) as dataset_error:
        load_dataset(path)
    with pytest.raises(InvalidDistributionError) as density_error:
        read_density_file(path)
    assert str(dataset_error.value) == str(density_error.value) == said


# --- difference vectors and containment --------------------------------------

def test_worked_difference_vectors(worked):
    ds, given = worked
    got = [bits_to_str(difference_vector(e.context, given)) for e in ds.exemplars]
    assert got == EXPECTED_D


def test_difference_vector_of_self_is_zero():
    assert difference_vector(("a", "b"), ("a", "b")) == (0, 0)


def test_difference_vector_length_mismatch():
    with pytest.raises(ValueError):
        difference_vector(("a",), ("a", "b"))


# --- encode -------------------------------------------------------------------

# "a" is a prefix of "ab"; the int 1 and the string "1" are different symbols
SYMBOLS = ("a", "ab", "b", "1", 1, 2)
UNSEEN = ("zz", 3)  # given symbols that no exemplar uses


def encode_oracle(ds, given):
    return (
        [bits_to_int(difference_vector(e.context, given)) for e in ds.exemplars],
        [ds.outcome_order.index(e.outcome) for e in ds.exemplars],
    )


@pytest.mark.parametrize("seed", range(80))
def test_encode_matches_per_exemplar_oracle(seed):
    rng = random.Random(seed)
    n = rng.randint(1, 7)
    pairs = [
        (tuple(rng.choice(SYMBOLS) for _ in range(n)), rng.choice("xyz"))
        for _ in range(rng.randint(1, 12))
    ]
    pairs += rng.choices(pairs, k=rng.randint(1, 4))  # duplicate exemplars
    rng.shuffle(pairs)
    ds = Dataset.from_pairs(pairs)
    given = [rng.choice(SYMBOLS + UNSEEN) for _ in range(n)]
    expected = encode_oracle(ds, given)
    for form in (given, tuple(given)):
        d_ints, outcomes = encode(ds, form)
        assert (d_ints.tolist(), outcomes.tolist()) == expected
        assert d_ints.dtype.kind == outcomes.dtype.kind == "i"


def test_encode_given_as_str():
    ds = Dataset.from_pairs([(("a", "b"), "x"), (("ab", "b"), "y"), (("a", "a"), "x")])
    for given in ("ab", ["a", "b"], ("a", "b")):
        d_ints, outcomes = encode(ds, given)
        assert d_ints.tolist() == [0b00, 0b10, 0b01]
        assert outcomes.tolist() == [0, 1, 0]
    assert encode(ds, "zb")[0].tolist() == encode_oracle(ds, "zb")[0] == [0b10, 0b10, 0b11]


def test_encode_packs_past_int64():
    n = 70
    ds = Dataset.from_pairs([(("a",) * n, "x"), (("b",) * n, "y")])
    given = ("b",) + ("a",) * (n - 1)
    assert encode(ds, given)[0].tolist() == encode_oracle(ds, given)[0] == [1 << 69, (1 << 69) - 1]


def test_int_and_str_features_differ():
    ds = Dataset.from_pairs([(("a", 1), "x"), (("a", "1"), "y"), (("b", 2), "y")])
    given = ("a", "1")
    assert encode(ds, given)[0].tolist() == [0b01, 0b00, 0b11]
    # were 1 and "1" coerced to one string, exemplars 1 and 2 would share a
    # subcontext, and x would get 1/2
    dist = predict_distribution(analogical_set(ds, given))
    assert dist.probabilities == {"x": Fraction(0), "y": Fraction(1)}


NAN = float("nan")  # one object: a dict finds it by identity, but NAN != NAN
CACHED_SYMBOLS = ("a", "b", "1", 1, 1.0, True, NAN)


@pytest.mark.parametrize("n", [1, 3, 8, 70])
@pytest.mark.parametrize("seed", range(6))
def test_encode_cache_matches_fresh_copy_and_oracle(seed, n):
    rng = random.Random(f"{seed}:{n}")
    pairs = [
        (tuple(rng.choice(CACHED_SYMBOLS) for _ in range(n)), rng.choice("xyz"))
        for _ in range(rng.randint(1, 10))
    ]
    ds = Dataset.from_pairs(pairs)
    for _ in range(12):
        given = tuple(rng.choice(CACHED_SYMBOLS + UNSEEN) for _ in range(n))
        d_ints, outcomes = encode(ds, given)
        fresh = encode(Dataset(ds.exemplars), given)
        assert d_ints.tolist() == fresh[0].tolist()
        assert outcomes.tolist() == fresh[1].tolist()
        assert (d_ints.tolist(), outcomes.tolist()) == encode_oracle(ds, given)
        assert not outcomes.flags.writeable


def test_encode_nan_matches_nothing():
    ds = Dataset.from_pairs([((NAN, "a"), "x"), ((NAN, "b"), "y"), (("c", "a"), "x")])
    for _ in range(3):
        assert encode(ds, (NAN, "a"))[0].tolist() == [0b10, 0b11, 0b10]
        assert encode_oracle(ds, (NAN, "a"))[0] == [0b10, 0b11, 0b10]


@pytest.mark.parametrize("symbols, code_type", [(255, np.uint8), (256, np.uint16)])
def test_unseen_symbol_code_at_the_narrow_type_boundary(symbols, code_type):
    # the first position holds every symbol, so the code past the last one is 255 or 256
    alphabet = [NAN] + [f"s{i}" for i in range(symbols - 1)]
    ds = Dataset.from_pairs([((a, "s0"), "xy"[i % 2]) for i, a in enumerate(alphabet)])
    for given in (("unseen", "s0"), (NAN, "s1"), (f"s{symbols - 2}", "unseen"), ("s0", NAN)):
        d_ints, outcomes = encode(ds, given)
        assert (d_ints.tolist(), outcomes.tolist()) == encode_oracle(ds, given)
    assert ds._codes.cells.dtype == code_type and len(ds._codes.keys) == symbols


def test_encode_equal_numbers_match_but_not_their_string():
    ds = Dataset.from_pairs([((1,), "x"), ((1.0,), "y"), ((True,), "x"), (("1",), "y")])
    assert encode(ds, ("1",))[0].tolist() == [1, 1, 1, 0]
    for number in (1, 1.0, True):
        assert encode(ds, (number,))[0].tolist() == [0, 0, 0, 1]
        assert encode_oracle(ds, (number,))[0] == [0, 0, 0, 1]


def test_encode_cache_leaves_dataset_value_unchanged():
    pairs = [(("a", "b"), "x"), (("b", "b"), "y"), (("a", "c"), "x")]
    ds = Dataset.from_pairs(pairs)
    before = (repr(ds), hash(ds), pickle.dumps(ds))
    expected = encode(ds, ("a", "b"))[0].tolist()
    assert "_codes" in vars(ds)
    assert (repr(ds), hash(ds), pickle.dumps(ds)) == before
    assert ds == Dataset.from_pairs(pairs)
    clone = pickle.loads(pickle.dumps(ds))
    assert clone == ds and hash(clone) == hash(ds)
    assert "_codes" not in vars(clone)
    assert encode(clone, ("a", "b"))[0].tolist() == expected
    assert clone.outcome_order == ds.outcome_order == ("x", "y")


@pytest.mark.parametrize("given", [("o",), ("o", "m"), ("o", "m", "a", "x"), "om"])
@pytest.mark.parametrize(
    "call",
    [
        encode,
        analogical_set,
        pointer_heterogeneity_matrix,
        run_qam_circuit,
        lambda ds, given: build_containment_array(ds, given, (1, 0, 1)),
    ],
    ids=["encode", "analogical_set", "pointer_heterogeneity_matrix", "run_qam_circuit",
         "build_containment_array"],
)
def test_wrong_length_given_raises(worked, call, given):
    ds, _ = worked
    with pytest.raises(ValueError, match="length mismatch"):
        call(ds, given)


@hgiven(
    st.integers(min_value=1, max_value=6).flatmap(
        lambda n: st.tuples(
            st.lists(st.integers(0, 1), min_size=n, max_size=n),
            st.lists(st.integers(0, 1), min_size=n, max_size=n),
        )
    )
)
def test_contains_matches_bitwise_and(pair):
    mask, d = pair
    assert contains(mask, d) == (bits_to_int(mask) & bits_to_int(d) == 0)


def test_contains_length_mismatch():
    with pytest.raises(ValueError, match=r"^length mismatch: 2 vs 3$"):
        contains((0, 1), (0, 1, 1))


def test_contains_extremes():
    assert contains((0, 0, 0), (1, 1, 1))
    assert contains((1, 1, 1), (0, 0, 0))
    assert not contains((1, 0, 0), (1, 0, 1))


def test_contained_exemplars_worked(worked):
    ds, given = worked
    assert contained_exemplars(ds, given, str_to_bits("010")) == (1, 3, 4, 5)
    assert contained_exemplars(ds, given, str_to_bits("111")) == ()
    assert contained_exemplars(ds, given, str_to_bits("000")) == (1, 2, 3, 4, 5, 6)


# --- masks and bit helpers ----------------------------------------------------

def test_iter_masks_order_n3():
    got = [bits_to_str(mask) for mask in iter_masks(3)]
    assert got == ["111", "110", "101", "011", "100", "010", "001", "000"]


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_iter_masks_count_and_sort_key(n):
    masks = list(iter_masks(n))
    assert len(masks) == 2 ** n
    assert len(set(masks)) == 2 ** n
    keys = [(-sum(mask), -bits_to_int(mask)) for mask in masks]
    assert keys == sorted(keys)


@pytest.mark.parametrize("n", [0, 1, 2, 3, 6])
def test_mask_at_matches_iter_masks(n):
    assert [mask_at(n, i) for i in range(2 ** n)] == list(iter_masks(n))
    for bad in (-1, 2 ** n):
        with pytest.raises(IndexError):
            mask_at(n, bad)


@pytest.mark.parametrize("n", range(17))
def test_mask_ints_match_iter_masks(n):
    # the order iter_masks documents, pinned by its sort key and by mask_at,
    # not by the generator that mask_ints and iter_masks share; from n = 13 a
    # mask has a high part above its 12 low bits, and the chunks still join in order
    chunks = list(_mask_chunks(n))
    assert all(chunk.dtype == np.min_scalar_type(2**n - 1) and 0 < len(chunk) <= 924 for chunk in chunks)
    order = np.concatenate(chunks).tolist()
    assert order == sorted(range(2**n), key=lambda v: (-v.bit_count(), -v))
    assert order == [bits_to_int(mask_at(n, i)) for i in range(2**n)]
    assert mask_ints(n).tolist() == order and mask_ints(n).dtype == chunks[0].dtype


@pytest.mark.parametrize("n", [3, 13])
def test_mask_ints_hands_out_fresh_arrays(n):
    # the low-part table is built once per n; what a caller changes must not reach it
    order = mask_ints(n).tolist()
    mask_ints(n)[:] = 0
    for chunk in _mask_chunks(n):
        chunk[:] = 0
    assert mask_ints(n).tolist() == order


def test_mask_functions_name_a_negative_n():
    for call in (iter_masks, mask_ints, lambda n: mask_at(n, 0)):
        with pytest.raises(ValueError, match="n = -1"):
            call(-1)


def test_mask_ints_peak_stays_near_its_result():
    # the result and its chunks, which are joined once
    for n in (16, 18):
        mask_ints(n)
        tracemalloc.start()
        try:
            masks = mask_ints(n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.5 * masks.nbytes, (n, peak, masks.nbytes)


@hgiven(st.integers(min_value=1, max_value=16).flatmap(
    lambda n: st.integers(min_value=0, max_value=2 ** n - 1).map(lambda v: (n, v))
))
def test_bits_int_round_trip(case):
    n, value = case
    bits = int_to_bits(value, n)
    assert len(bits) == n
    assert bits_to_int(bits) == value
    assert str_to_bits(bits_to_str(bits)) == bits


def test_str_to_bits_rejects_other_chars():
    with pytest.raises(ValueError):
        str_to_bits("012")


# --- size cap -----------------------------------------------------------------

def test_lattice_cap_default_boundary():
    check_lattice_size(DEFAULT_N_CAP)
    with pytest.raises(LatticeSizeError):
        check_lattice_size(DEFAULT_N_CAP + 1)


def test_lattice_cap_custom():
    check_lattice_size(3, n_cap=3)
    with pytest.raises(LatticeSizeError):
        check_lattice_size(3, n_cap=2)
