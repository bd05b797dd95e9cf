"""Exemplar datasets, difference vectors, and the supracontext mask lattice.

An exemplar is a feature vector tagged with an outcome label.  To predict
the outcome of a *given context*, every exemplar is compared against the
given context position by position, producing a difference vector of
match/mismatch bits.  A supracontext mask selects the variables that must
match the given context; an exemplar belongs to that supracontext exactly
when its difference vector is zero on every selected variable.  Exemplars
sharing an identical difference vector form one subcontext.

Feature comparison is exact symbol equality per position.  There is no
similarity metric, feature weighting, or missing-value handling.

:func:`encode` alone turns a given context into what the engines and reports
read; the per-exemplar functions below stay as the oracles it is tested against.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from functools import cache, cached_property
from importlib.resources import files
from itertools import chain, count
from math import comb
from typing import Iterable, Iterator, Sequence

import numpy as np

FeatureVector = tuple[str, ...]
Bits = tuple[int, ...]

# The fast engine's subset sums take O((outcomes + 1) * n * 2^n) time and
# about (outcomes + 1) * 2 * w * 2^n bytes, rows of w bytes (1 up to m = 255)
# plus one transposed copy: 128 MiB at n = 24 with 3 outcomes and m <= 255.
# The fast engine's lattice record keeps the flags and k in its transposed
# order, 2^n * (1 + w) bytes (32 MiB at n = 24); the gate engine's keeps the
# flag and C2 diagonal blocks, (m + 1) * 2^n / 8 bytes.  Either record puts the
# flags and k in mask order, 2^n * (1 + w) bytes, only on its first read by
# two-step prediction, explain or a library caller; prediction reads neither.  The gate
# engine holds C2, H2, A2 and its sweep register as 4 * m^2 + 1 rows of 2^n
# bits each, plus about 4n + 5 words of m * 2^n bits for the (mask, j') lanes
# of its containment scan.  Reports hold one mask at a time.  Refuse larger n by default.
DEFAULT_N_CAP = 24

WORKED_EXAMPLE_GIVEN: FeatureVector = ("o", "m", "a")


class DatasetFormatError(ValueError):
    """Dataset text does not follow the expected line format."""


class LatticeSizeError(ValueError):
    """A 2^n lattice enumeration would exceed the configured variable cap."""


@dataclass(frozen=True)
class Exemplar:
    """One data item: a feature vector plus its outcome label.

    ``index`` is the 1-based position within the dataset; duplicates of
    (context, outcome) are allowed as distinct exemplars.
    """

    context: FeatureVector
    outcome: str
    index: int


@dataclass(frozen=True)
class Dataset:
    """An ordered collection of exemplars sharing one variable count."""

    exemplars: tuple[Exemplar, ...]

    def __post_init__(self) -> None:
        if not self.exemplars:
            raise DatasetFormatError("empty dataset: at least one exemplar is required")
        n = len(self.exemplars[0].context)
        if n < 1:
            raise DatasetFormatError("exemplars must have at least one feature")
        for pos, e in enumerate(self.exemplars, 1):
            if len(e.context) != n:
                raise DatasetFormatError(
                    f"exemplar {pos} has {len(e.context)} features, expected {n}"
                )
            if e.index != pos:
                raise DatasetFormatError(
                    f"exemplar at position {pos} carries index {e.index}"
                )
            if not e.outcome:
                raise DatasetFormatError(f"exemplar {pos} has an empty outcome label")

    @classmethod
    def from_pairs(cls, pairs: Iterable[tuple[Sequence[str], str]]) -> "Dataset":
        """Build a dataset from (context, outcome) pairs, assigning indices 1..m."""
        exemplars = tuple(
            Exemplar(tuple(ctx), outcome, i) for i, (ctx, outcome) in enumerate(pairs, 1)
        )
        return cls(exemplars)

    @property
    def m(self) -> int:
        return len(self.exemplars)

    @property
    def n(self) -> int:
        return len(self.exemplars[0].context)

    @property
    def outcome_alphabet(self) -> frozenset[str]:
        return frozenset(e.outcome for e in self.exemplars)

    @property
    def outcome_order(self) -> tuple[str, ...]:
        """Outcome labels in order of first appearance; fixes report ordering."""
        return self._codes.outcome_order

    @cached_property
    def _codes(self) -> "_Codes":
        # built on the first encoding, not at construction, so parsing costs no more
        return _Codes(self.exemplars)

    def __getstate__(self) -> dict:
        # the codes are derived from the exemplars; a pickle carries only the fields
        return {k: v for k, v in self.__dict__.items() if k != "_codes"}


class _Codes:
    """A dataset's symbols and outcomes as small ints, for :func:`encode`.

    ``symbols`` maps each symbol to its first-seen code, and ``keys`` lists
    the symbols by code; ``cells`` holds every exemplar's codes, (n, m), in
    the narrowest unsigned type that holds ``len(keys)``, the code of a given
    symbol no exemplar has; ``outcomes`` holds each exemplar's position in
    ``outcome_order``.  Symbols share a code when a dict would merge them:
    equal by ``==`` with equal hashes, or the same object.
    """

    def __init__(self, exemplars: Sequence[Exemplar]) -> None:
        # one dict lookup per cell or label: one not seen yet takes the next code
        self.symbols, order = defaultdict(count().__next__), defaultdict(count().__next__)
        cells = map(self.symbols.__getitem__, chain.from_iterable(e.context for e in exemplars))
        m, n = len(exemplars), len(exemplars[0].context)
        cells = np.fromiter(cells, np.intp, m * n).reshape(m, n).T
        self.cells = np.ascontiguousarray(cells, np.min_scalar_type(len(self.symbols)))
        labels = map(order.__getitem__, (e.outcome for e in exemplars))
        self.outcomes = np.fromiter(labels, np.intp, m)
        self.symbols.default_factory = None
        self.keys, self.outcome_order = tuple(self.symbols), tuple(order)
        # encode hands these arrays out; no caller may change them
        self.cells.flags.writeable = self.outcomes.flags.writeable = False

    def given(self, given: Sequence[str]) -> np.ndarray:
        """Each given symbol's code, or ``len(keys)`` where no exemplar's symbol ``==`` it."""
        unseen = len(self.keys)
        codes = [self.symbols.get(s, unseen) for s in given]
        # a dict finds a self-unequal symbol (NaN) by identity, where == finds nothing
        codes = [c if c < unseen and self.keys[c] == s else unseen for c, s in zip(codes, given)]
        return np.array(codes, dtype=self.cells.dtype)


def parse_dataset(text: str) -> Dataset:
    """Parse dataset text into a :class:`Dataset`.

    One exemplar per non-empty, non-comment line.  A data line is
    ``<outcome><TAB><f1> <f2> ... <fn>``; lines starting with ``#`` are
    ignored.  Input order becomes exemplar indices 1..m.
    """
    pairs: list[tuple[tuple[str, ...], str]] = []
    n: int | None = None
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        outcome, tab, feature_part = line.partition("\t")
        if not tab:
            raise DatasetFormatError(
                f"line {lineno}: expected '<outcome><TAB><features>', got {line!r}"
            )
        outcome = outcome.strip()
        features = tuple(feature_part.split())
        if n is None:
            n = len(features)
        elif len(features) != n:
            raise DatasetFormatError(
                f"line {lineno}: expected {n} features, got {len(features)}"
            )
        pairs.append((features, outcome))
    if not pairs:
        raise DatasetFormatError("empty dataset: no data lines found")
    return Dataset.from_pairs(pairs)


def serialize_dataset(ds: Dataset) -> str:
    """Render a dataset back to its text form (inverse of :func:`parse_dataset`)."""
    lines = []
    for e in ds.exemplars:
        tokens = (e.outcome, *e.context)
        for t in tokens:
            if not t:
                raise ValueError(f"token {t!r} is empty and cannot be serialized")
            if any(c.isspace() for c in t):
                raise ValueError(f"token {t!r} contains whitespace and cannot be serialized")
        if e.outcome.startswith("#"):
            raise ValueError(
                f"outcome {e.outcome!r} starts with '#' and would re-parse as a comment"
            )
        if e.index == 1 and e.outcome.startswith("\ufeff"):
            raise ValueError(
                f"outcome {e.outcome!r} starts the text with a byte-order mark, "
                "which load_dataset drops"
            )
        lines.append(f"{e.outcome}\t{' '.join(e.context)}")
    return "\n".join(lines) + "\n"


def _read_text(path, error: type[ValueError]) -> str:
    """The file's text; bytes that are not UTF-8 raise ``error``, saying where."""
    # utf-8-sig drops a leading byte-order mark, which would join the first token (a dataset's first label)
    with open(path, "r", encoding="utf-8-sig") as fh:
        try:
            return fh.read()
        except UnicodeDecodeError as exc:
            raise error(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None


def load_dataset(path) -> Dataset:
    return parse_dataset(_read_text(path, DatasetFormatError))


def worked_example_text() -> str:
    """Text of the bundled six-exemplar demonstration dataset."""
    return files("analogical").joinpath("data/worked_example.tsv").read_text("utf-8")


def load_worked_example() -> tuple[Dataset, FeatureVector]:
    """The bundled demonstration dataset and its canonical given context."""
    return parse_dataset(worked_example_text()), WORKED_EXAMPLE_GIVEN


def difference_vector(e: Sequence[str], given: Sequence[str]) -> Bits:
    """Per-variable mismatch bits: bit i is 1 iff ``e[i] != given[i]``."""
    if len(e) != len(given):
        raise ValueError(f"length mismatch: {len(e)} vs {len(given)}")
    return tuple(0 if a == b else 1 for a, b in zip(e, given))


def contains(mask: Sequence[int], d: Sequence[int]) -> bool:
    """True iff an exemplar with difference vector ``d`` lies in the supracontext.

    The mask selects variables that must match the given context, so
    containment means ``mask AND d`` is all zeros.
    """
    if len(mask) != len(d):
        raise ValueError(f"length mismatch: {len(mask)} vs {len(d)}")
    return not any(mb and db for mb, db in zip(mask, d))


def contained_exemplars(ds: Dataset, given: Sequence[str], mask: Sequence[int]) -> tuple[int, ...]:
    """1-based indices of exemplars contained in the supracontext, ascending."""
    return tuple(
        e.index
        for e in ds.exemplars
        if contains(mask, difference_vector(e.context, given))
    )


def bits_to_int(bits: Sequence[int]) -> int:
    """Pack bits into an integer, leftmost bit most significant."""
    value = 0
    for b in bits:
        value = (value << 1) | (b & 1)
    return value


def encode(ds: Dataset, given: Sequence[str]) -> tuple[np.ndarray, np.ndarray]:
    """Packed difference vectors and outcome positions, aligned with ``ds.exemplars``.

    Vectors pack as :func:`bits_to_int` packs them; outcomes index ``ds.outcome_order``.
    Features compare with ``==``, as in :func:`difference_vector`: each given
    symbol is looked up once in the dataset's symbol codes, which are built on
    the dataset's first encoding, so symbols must be hashable.  The outcome
    array is the dataset's own and read-only.
    """
    given = tuple(given)
    if len(given) != ds.n:
        raise ValueError(f"length mismatch: {ds.n} vs {len(given)}")
    codes = ds._codes
    weights, packed = _weights(ds.n)
    differs = codes.cells != codes.given(given)[:, None]
    return np.einsum("i,ij->j", weights, differs).astype(packed), codes.outcomes


@cache
def _weights(n: int) -> tuple[np.ndarray, type]:
    """Bit i's weight 2^(n - 1 - i), read-only, in the narrowest type that holds their sum, and the packed ints' type."""
    weights = np.array([1 << i for i in reversed(range(n))], np.min_scalar_type((1 << n) - 1))
    weights.flags.writeable = False
    # past 62 features the packed ints outgrow int64 and stay Python ints
    return weights, np.int64 if n < 63 else object


def int_to_bits(value: int, n: int) -> Bits:
    return tuple((value >> (n - 1 - i)) & 1 for i in range(n))


def bits_to_str(bits: Sequence[int]) -> str:
    return "".join(str(b) for b in bits)


def str_to_bits(text: str) -> Bits:
    if not all(c in "01" for c in text):
        raise ValueError(f"not a bit string: {text!r}")
    return tuple(int(c) for c in text)


@cache
def _low_parts(n: int) -> tuple[np.ndarray, ...]:
    """Per count c, the low ``min(n, 12)``-bit parts with c bits set, descending, in n's mask type; built once per n."""
    values = np.arange((1 << min(n, 12)) - 1, -1, -1, dtype=np.min_scalar_type((1 << n) - 1))
    return tuple(values[np.bitwise_count(values) == rest] for rest in range(min(n, 12) + 1))


def _mask_chunks(n: int) -> Iterator[np.ndarray]:
    """The :func:`iter_masks` order in arrays of at most C(12, 6) = 924 mask ints, of the narrowest unsigned type.

    Per selected count, most first, and per high part above the low ``min(n, 12)`` bits,
    descending: that part over each low part holding the rest of the count, descending.
    """
    if n < 0:
        raise ValueError(f"a mask lattice needs 0 or more variables, got n = {n}")
    low, table = min(n, 12), _low_parts(n)
    return (
        high << low | table[selected - high.bit_count()]
        for selected in range(n, -1, -1)
        for high in range((1 << n - low) - 1, -1, -1)
        if 0 <= selected - high.bit_count() <= low
    )


def iter_masks(n: int) -> Iterator[Bits]:
    """All 2^n supracontext masks, most specific first.

    Ordered by descending count of selected variables, ties by descending
    binary value; for n=3 this yields 111, 110, 101, 011, 100, 010, 001, 000.
    """
    chunks, shifts = _mask_chunks(n), np.arange(n - 1, -1, -1)
    # a chunk's bits at once, as int_to_bits gives one mask's
    return (tuple(bits) for chunk in chunks for bits in (chunk[:, None] >> shifts & 1).tolist())


def mask_ints(n: int) -> np.ndarray:
    """The masks of :func:`iter_masks`, in its order, as :func:`bits_to_int` packs them, in one array."""
    return np.concatenate(list(_mask_chunks(n)))


def mask_at(n: int, index: int) -> Bits:
    """The mask at position ``index`` of :func:`iter_masks`, without walking to it."""
    if n < 0:
        raise ValueError(f"a mask lattice needs 0 or more variables, got n = {n}")
    if not 0 <= index < 1 << n:
        raise IndexError(f"mask index {index} out of range for {n} variables")
    selected = n
    while index >= comb(n, selected):
        index -= comb(n, selected)
        selected -= 1
    bits = []
    for i in range(n):
        # masks left in this block that select i: the other selected - 1
        # positions come from the n - i - 1 positions after i
        with_i = comb(n - i - 1, selected - 1) if selected else 0
        if index < with_i:
            bits.append(1)
            selected -= 1
        else:
            bits.append(0)
            index -= with_i
    return tuple(bits)


def check_lattice_size(n: int, n_cap: int = DEFAULT_N_CAP) -> None:
    """Refuse lattice walks whose 2^n cost exceeds the cap."""
    if n > n_cap:
        raise LatticeSizeError(
            f"{n} variables means 2^{n} supracontexts; raise the cap "
            f"(currently {n_cap}) to force the enumeration"
        )
