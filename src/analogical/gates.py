"""Reversible-gate engine over classical bit registers.

This engine reproduces the pointer-counting prediction with nothing but
reversible gates (NOT, CNOT, Toffoli) acting on registers of classical
bits.  Pair arrays V2 (subcontext difference), W2 (outcome difference),
and P2 (both differ) are built once; then, for every supracontext mask,
the circuit builds the containment array C2, the heterogeneity array H2,
scans the negated H2 for zeros to decide homogeneity, conditionally
copies C2 into the analogy array A2, and uncomputes every scratch
register back to its preset.

Each per-mask circuit applies the identical operator sequence from
beginning to end: the homogeneity scan never exits early, because a
heterogeneous supracontext must run the same gates as a homogeneous one.
Since no gate depends on the data, all 2^n per-mask circuits run as one
bit-sliced circuit, mask int l in "lane" l, and each gate acts on all lanes
at once.  The comparators' registers are lists of Python ints holding one
bit per lane: NOT is ``x ^= ALL``, CNOT ``t ^= c`` and Toffoli
``t ^= a & b``, where ALL = 2^L - 1 for L lanes.  C2, H2, A2 and the sweep
register F are (entry x block) numpy arrays instead: row k holds entry k's
L lanes in a block of B = ceil(L / 8) bytes, lane l in bit l % 8 of byte
l // 8, as 64-bit words where a block is whole words (n >= 6).  ALL as
one block has its bits from L up at 0, and every gate XORs
into its target ALL or its controls' AND, so those padding bits stay 0
everywhere.  Registers shared by every mask (D, P2) are broadcast to 0 or
ALL.  The gate sequence, and so every per-mask gate count, is the one a
single mask would run.  The run keeps its outputs as blocks: pointer counts
are popcounts of the A2 blocks, flags and member counts (the C2 diagonal)
are read off them into the lattice record both engines share, and a mask's
matrices are read from its lane only when a caller asks for them.

The loops over the m^2 entries after the containment scan are one numpy
operation each.  H2 = C2 AND P2 (a Toffoli per entry), both negations of
H2, and A2 = C2 AND flag (a Toffoli per entry, all controlled by F(m^2))
each write only their own entry and read nothing that the loop writes, so
their gates commute and run at once: ``H2 ^= C2 & P2``, ``H2 ^= ALL`` and
``A2 ^= C2 & F(m^2)``.  The sweep is a chain, step k applying F(k) ^=
H(k-1) AND F(k-1) for k = 1..m^2.  Forward, F(1..m^2) start at their
preset 0, so it leaves the prefix AND F(k) = F(0) AND H(0) AND ... AND
H(k-1), one ``np.bitwise_and.accumulate``.  The inverse runs k from m^2 down to 1,
and step k reads F(k-1), which the loop writes only after step k: every
step reads F as the inverse found it, so it is one
``F[1:] ^= H & F[:-1]``.  The restoration check ORs F's blocks.

Two more loops run as lanes the same way.  The m^2 comparators behind V2
(and W2) each have fresh scratch and write only their own entry, so they
run as one comparator over m^2 pair lanes: lane j*m + j' holds D[j] (O[j])
as u, D[j'] (O[j']) as v and V2(j, j') (W2(j, j')) as the flag.  D and O
are (m x n) and (m x width) bit arrays, one row per exemplar, and a pair
word is integer arithmetic on a column of them: bit i's v word is column i
as an m-bit int times the repunit (2^(m^2) - 1) / (2^m - 1), that is, the
column in every block of m lanes, and its u word has bit j of the column in
every lane of block j.  V2 and W2 are words of m^2 one-lane entries, unpacked
once into block registers of one lane, shared by every mask, and
P2 = V2 AND W2 is the entrywise loop of H2 = C2 AND P2.  The containment
scan runs its rows j as lanes.  A row j (test D[j] into Y, the inner loop
over j', test again) reads only S and D, returns Y, and with it Z, to the
values it found (the comparator is a palindrome, so its second
application undoes the first flip), and writes only row j of C2, so the
rows commute and run side by side on copies of Y.  Within a row,
iteration j' (test D[j'] into Z, Toffoli Y and Z into C2(j, j'), test
again) writes only C2(j, j'), and its test reads only S, D[j'] and Z and
returns Z.  So the Z that iteration j' sees after its first test is the
same in every row: one test of D[j'] shared by all rows gives every
(j, j') item the Z the serial loop gives it, and the window's Toffolis
into C2 are the outer AND of Y(j) and Z(j').  The scan's words are runs
of blocks of B bytes, one block per exemplar holding its L mask lanes as a
row of C2 does: S, Y, Z and ALL repeat in every block, and block b of D's
word i is ALL where D[b]'s bit i is set, all built once per scan from
S's words and D's bit array.  A window of rows runs its Y tests on
(j, mask) words and its Z tests on (j', mask) words, cut from those by a
shift and a mask, then flips its C2 rows at once, block j of Y AND block
j' of Z into row (j, j'); the restoration check ORs the blocks.  Each
mask sees the serial loop's gates and final registers, and a shared Z test
counts once per row of the window.

Each loop over items (pairs, masks, rows of the scan, and j' within them)
has one body, which runs a window of items side by side; an untraced run
makes one window per loop, and so six comparator calls in all: V2, W2,
and the scan's two Y and two Z tests.  A comparator's gates are
statements on its local lists of words.  With a :class:`GateTrace`
attached the items run in windows of one item of the same code, on plain
0/1 bits: a mask window's blocks are one byte holding one lane.  The
comparators then hand each gate to the trace as they apply it, and the
array loops record, from their target's blocks before and after, one gate
per entry in the serial loop's order.  A window's registers take the names
of its first item's, and a word cut from a register records that
register's indices, so every recorded step is the one the serial circuit
applies.  From the step that truncates the trace on, gates only add to
``trace.tally``: the rest of the running comparator or array loop in one
step per op, and the items left in one window as an untraced run would
run them, each gate once per item.  Every run takes all masks in one
window, tallied once per mask left, after the masks that ran alone, in
:func:`iter_masks` order, while the trace recorded; each of those must
read the same in its lane.  Results do not depend on the lane width.

Matrix registers are kept flat in row-major order: entry (j, j') of an
m x m array lives at position k = (j - 1) * m + j', with j, j' and k
1-based.  All composite operators (the register comparator behind V2/W2,
the containment test, the homogeneity scan) are exact palindromes around
one flag-flipping gate, so applying the same gate sequence again is the
inverse.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from functools import cache, cached_property
from typing import Iterator, Sequence

import numpy as np

from .core import (
    DEFAULT_N_CAP,
    Bits,
    Dataset,
    _mask_chunks,
    check_lattice_size,
    encode,
    int_to_bits,
)
from .homogeneity import AnalogicalSet, _LatticeVerdicts

_fresh = itertools.count()


@dataclass(frozen=True)
class GateStep:
    """One applied primitive: controls first, target last, with target snapshots."""

    op: str  # "not" | "cnot" | "ccnot"
    operands: tuple[tuple[str, int], ...]
    target_before: int
    target_after: int


class GateTrace:
    """Ordered log of applied primitives, replayable forward and backward.

    Registers are snapshotted when first tracked; :meth:`replay` reapplies
    every step to the snapshots and yields the final state, while
    :meth:`replay_inverse` applies the steps in reverse order (every
    primitive is its own inverse) and restores the initial state.  Capture
    is bounded by ``max_steps``; a truncated trace refuses to replay.
    ``tally`` counts every applied primitive by op and keeps counting past
    ``max_steps``, so it always holds the full gate count of the run.
    """

    def __init__(self, max_steps: int = 200_000):
        self.max_steps = max_steps
        self.steps: list[GateStep] = []
        self.truncated = False
        self.initial: dict[str, Bits] = {}
        self.tally: Counter[str] = Counter()

    def track(self, name: str, bits: Sequence[int]) -> None:
        """Snapshot register ``name`` as ``bits``, unless it is tracked already."""
        if name not in self.initial:
            self.initial[name] = tuple(bits)

    def record(self, op: str, operands: tuple[tuple[str, int], ...], before: int, after: int) -> None:
        self.tally[op] += 1
        if len(self.steps) >= self.max_steps:
            self.truncated = True
            return
        self.steps.append(GateStep(op, operands, before, after))

    def _apply(self, state: dict[str, list[int]], step: GateStep) -> None:
        target_name, target_idx = step.operands[-1]
        controls = step.operands[:-1]
        if all(state[name][idx] for name, idx in controls):
            state[target_name][target_idx] ^= 1

    def replay(self) -> dict[str, list[int]]:
        if self.truncated:
            raise RuntimeError("trace was truncated at max_steps and cannot replay")
        state = {name: list(bits) for name, bits in self.initial.items()}
        for step in self.steps:
            self._apply(state, step)
        return state

    def replay_inverse(self, state: dict[str, list[int]] | None = None) -> dict[str, list[int]]:
        if self.truncated:
            raise RuntimeError("trace was truncated at max_steps and cannot replay")
        if state is None:
            state = self.replay()
        else:
            state = {name: list(bits) for name, bits in state.items()}
        for step in reversed(self.steps):
            self._apply(state, step)
        return state


def _recording(trace) -> bool:
    """Whether ``trace`` takes steps: it is there and not truncated."""
    return trace is not None and not trace.truncated


# --- composite comparators --------------------------------------------------
#
# Both IDENTITY and INCLUSION share one reversible skeleton: compute one
# scratch bit per position (XOR of the operands for identity, AND for
# inclusion), negate the scratch, sweep an AND chain seeded by the ancilla
# across it, flip the flag off the chain end, then uncompute everything.
# The gate sequence is an exact palindrome around the flag flip, so running
# it a second time is the inverse.  Every gate acts on all lanes of its
# target word at once; ``ones`` is ALL, the word with every lane set.

def _comparator_apply(
    mode: str,
    u: Sequence[int],
    v: Sequence[int],
    ancilla: int,
    flag: int,
    ones: int,
    trace,
    names: tuple[str, str, str, int],
) -> tuple[int, int]:
    """Apply the comparator skeleton to the lane words ``u`` and ``v``; returns the flag and ancilla words after it.

    mode "xor": a lane's flag flips iff u == v (bitwise equal) in that lane.
    mode "and": a lane's flag flips iff u AND v is all zeros in that lane.
    Scratch and chain words are fresh, used, and uncomputed; the chain's
    seed slot holds the ancilla and is never written.  While ``trace``
    records, each gate goes to it as it is applied, operands named by
    ``names`` (the registers of u, v and the flag, and the flag's index) and
    by fresh scratch and chain registers.  Every gate it does not record,
    from a cut on or all of them for a trace truncated already, is added to
    its tally at the end, once per item of the window.
    """
    n = len(u)
    if len(v) != n:
        raise ValueError(f"length mismatch: {len(u)} vs {len(v)}")
    uid = next(_fresh)
    s, c = [0] * n, [ancilla] + [0] * n
    xor = mode == "xor"
    un, vn, fn, fi = names
    live = _recording(trace)
    if trace is not None:
        seen = dict(trace.tally)
    if live:
        sn, cn = f"cmp{uid}.scratch", f"cmp{uid}.chain"
        for name, bits in ((un, u), (vn, v), (fn, (flag,)), (sn, s), (cn, c)):
            trace.track(name, bits)

    def rec(op: str, operands, before: int, after: int) -> bool:
        # hands one gate to the trace; returns whether the trace still records
        trace.record(op, operands, before, after)
        return not trace.truncated

    up, down = range(n), range(n - 1, -1, -1)
    for step, order in ((0, up), (1, up), (2, up), (3, up), (2, down), (1, up), (0, down)):
        if step == 0 and xor:  # scratch ^= u, then ^= v; the mirror undoes v first
            (a, an), (b, bn) = ((u, un), (v, vn)) if order is up else ((v, vn), (u, un))
            for i in order:
                s[i] ^= a[i]
                if live:
                    live = rec("cnot", ((an, i), (sn, i)), s[i] ^ a[i], s[i])
                s[i] ^= b[i]
                if live:
                    live = rec("cnot", ((bn, i), (sn, i)), s[i] ^ b[i], s[i])
        elif step == 0:  # scratch ^= u AND v
            for i in order:
                s[i] ^= u[i] & v[i]
                if live:
                    live = rec("ccnot", ((un, i), (vn, i), (sn, i)), s[i] ^ (u[i] & v[i]), s[i])
        elif step == 1:  # NOT on every scratch position
            for i in order:
                s[i] ^= ones
                if live:
                    live = rec("not", ((sn, i),), s[i] ^ ones, s[i])
        elif step == 2:  # the AND chain seeded by the ancilla
            for i in order:
                c[i + 1] ^= s[i] & c[i]
                if live:
                    live = rec("ccnot", ((sn, i), (cn, i), (cn, i + 1)), c[i + 1] ^ (s[i] & c[i]), c[i + 1])
        else:  # the flag flips off the chain's end
            flag ^= c[n]
            if live:
                live = rec("cnot", ((cn, n), (fn, fi)), flag ^ c[n], flag)

    if any(s) or any(c[1:]):
        raise AssertionError(f"comparator scratch not uncomputed for cmp{uid}.scratch")
    if trace is not None:
        per_gate = getattr(trace, "per_gate", 1)
        totals = {"cnot": 4 * n + 1, "not": 2 * n, "ccnot": 2 * n} if xor else {"ccnot": 4 * n, "not": 2 * n, "cnot": 1}
        for op, total in totals.items():  # less what record() tallied
            trace.tally[op] += total * per_gate - (trace.tally[op] - seen.get(op, 0))
    return flag, c[0]


def _compare(mode: str, names: tuple[str, str, str], u, v, ancilla: int, flag: int, trace) -> tuple[int, int]:
    """One comparator on plain bits, registers named by ``names`` (a prefix, u's, v's); returns (flag, ancilla)."""
    shapes = tuple(np.shape(x) for x in (u, v, flag, ancilla))
    if len(shapes[0]) != 1 or len(shapes[1]) != 1 or shapes[2:] != ((), ()):
        raise ValueError(f"expected two bit vectors, a flag bit and an ancilla bit, got shapes {shapes}")
    uid = next(_fresh)
    regs = [f"{names[0]}{uid}.{name}" for name in (*names[1:], "flag", "ancilla")]
    checked = (_register(name, bits, None).rows[:, 0].tolist() for name, bits in zip(regs, (u, v, flag, ancilla)))
    u, v, (flag,), (ancilla,) = checked
    return _comparator_apply(mode, u, v, ancilla, flag, 1, trace, (*regs[:3], 0))


def gate_identity(u, v, ancilla: int = 1, flag: int = 1, trace: GateTrace | None = None) -> tuple[int, int]:
    """Reversible comparator: flag flips iff u equals v bitwise.

    With the presets (ancilla 1, flag 1) the returned flag is 0 when the
    registers are equal and 1 when they differ.  Returns (flag, ancilla);
    the ancilla always comes back restored.
    """
    return _compare("xor", ("id", "u", "v"), u, v, ancilla, flag, trace)


def gate_inclusion(mask, d, ancilla: int = 1, flag: int = 0, trace: GateTrace | None = None) -> tuple[int, int]:
    """Reversible containment test: flag flips iff mask AND d is all zeros.

    With the presets (ancilla 1, flag 0) the returned flag is 1 exactly
    when an exemplar with difference vector ``d`` lies in the supracontext
    selected by ``mask``.  Returns (flag, ancilla).
    """
    return _compare("and", ("incl", "mask", "d"), mask, d, ancilla, flag, trace)


# the containment circuit is its own mirror image, so running it again undoes it
gate_inclusion_inverse = gate_inclusion


# --- circuit steps ------------------------------------------------------------
#
# One register-level implementation per step.  The full pipeline runs each
# step on every mask at once; the public builders below run it on one lane,
# on registers that :func:`_register` makes from their bits and tracks.

def _pack_lanes(bits: np.ndarray) -> list[int]:
    """Pack a (lanes, k) 0/1 array into k lane words, bit l of word i holding entry (l, i)."""
    packed = np.packbits(bits, axis=0, bitorder="little")
    size = 8 * len(packed)  # bits per word
    words = int.from_bytes(packed.T.tobytes(), "little")
    return [words >> size * i & (1 << size) - 1 for i in range(bits.shape[1])]


def _unpack_blocks(rows: np.ndarray, lanes: int) -> np.ndarray:
    """Unpack (entries, B) blocks into an (entries, lanes) 0/1 array: entry (k, l) is lane l of block k."""
    return np.unpackbits(rows, axis=-1, count=lanes, bitorder="little")


def _bit_array(values: np.ndarray, width: int) -> np.ndarray:
    """Each value's ``width`` bits, most significant first, as :func:`int_to_bits` gives them, one row per value."""
    return (values[:, None] >> np.arange(width - 1, -1, -1) & 1).astype(np.uint8)


def _repunit(count: int, stride: int) -> int:
    """The word with bits 0, stride, ..., (count - 1) * stride set."""
    return ((1 << count * stride) - 1) // ((1 << stride) - 1)


@cache
def _lattice_s_words(n: int) -> tuple[int, ...]:
    """S over all 2^n masks, lane l running mask int l: word i holds every mask's bit i, most significant first."""
    lanes = np.arange(1 << n, dtype=np.min_scalar_type((1 << n) - 1))
    return tuple(_word(np.packbits(lanes & (1 << (n - 1 - i)), bitorder="little")) for i in range(n))


def _tile(word: int, size: int, count: int) -> int:
    """``count`` copies of ``word``, each a block of ``size`` bytes."""
    return int.from_bytes(word.to_bytes(size, "little") * count, "little")


def _split(word: int, size: int, count: int) -> np.ndarray:
    """The ``count`` blocks of ``size`` bytes of ``word`` as a (count, size) uint8 array."""
    return np.frombuffer(word.to_bytes(size * count, "little"), np.uint8).reshape(count, size)


def _word(blocks: np.ndarray) -> int:
    """The word whose bytes, lowest first, are those of ``blocks``; undoes :func:`_split`."""
    return int.from_bytes(blocks.tobytes(), "little")


class _LaneTally:
    """Stands in for a truncated trace while the items left of a step run as lanes.

    Every item runs the same gates, so one gate on the lane words is one gate
    per item: the steps add each gate to the trace's tally ``per_gate`` times.
    """

    truncated = True

    def __init__(self, trace: "GateTrace | _LaneTally", items: int):
        self.tally = trace.tally
        self.per_gate = items * getattr(trace, "per_gate", 1)


def _run_items(count: int, run, trace: GateTrace | None) -> None:
    """Run items 0..count-1 of a step; ``run(start, stop, trace)`` runs a window of them side by side.

    Without a trace the items run in one window.  While ``trace`` records,
    each item runs in a window of one item of the same code, which records
    exactly the steps the serial circuit applies to it; once the trace is
    truncated the items left run in one window and their gates go to
    ``trace.tally`` once per item.
    """
    start = 0
    while _recording(trace) and start < count:
        run(start, start + 1, trace)
        start += 1
    if start < count:
        run(start, count, None if trace is None else _LaneTally(trace, count - start))


class _Blocks:
    """A named register of entries, each a block of B bytes holding the entry's L mask lanes.

    ``rows`` is an (entries, B) uint8 array, or an (entries, B / 8) uint64
    array of the same bytes where a block is whole words: lane l of entry k
    is bit l % 8 of byte l // 8 of row k, and the bits from L up stay 0.
    """

    __slots__ = ("name", "rows")

    def __init__(self, name: str, rows: np.ndarray):
        self.name = name
        self.rows = rows

    @property
    def bits(self) -> Bits:
        """The entries as lane words; with one lane, as plain bits."""
        return tuple(_block_words(self.rows))


def _block_words(blocks: np.ndarray) -> list[int]:
    """The lane word of every block of ``blocks``, whose last axis is the block."""
    data, size = blocks.tobytes(), blocks.shape[-1] * blocks.itemsize
    return [int.from_bytes(data[i:i + size], "little") for i in range(0, len(data), size)]


def _xor_gates(op: str, operands, rows: np.ndarray, flip: np.ndarray, entries: Sequence[int], trace) -> None:
    """``rows ^= flip``: one ``op`` gate per entry of ``entries``, each acting on every lane at once.

    The blocks of ``rows`` are a register's entries, or the items of a
    containment-scan window, whose ``entries`` is then its first entry.  A
    recording trace takes the gates in order, ``operands(k)`` naming entry
    k's controls and target, with the target block's lane word before and
    after; the gates from its cut on, and all of them for a truncated trace
    or a :class:`_LaneTally` for every item, go to its tally in one step.
    """
    if not _recording(trace):
        rows ^= flip
        if trace is not None:
            trace.tally[op] += len(entries) * getattr(trace, "per_gate", 1)
        return
    before = _block_words(rows)
    rows ^= flip
    for i, (k, b, a) in enumerate(zip(entries, before, _block_words(rows))):
        if trace.truncated:
            trace.tally[op] += len(entries) - i
            return
        trace.record(op, operands(k), b, a)


def _containment_scan(
    s_words: Sequence[int],
    d_bits: np.ndarray,
    y: int,
    z: int,
    c2: _Blocks,
    ones: int,
    trace,
    names: tuple[str, str, str, str] = ("S", "D", "Y", "Z"),
) -> int:
    """Fill C2 via nested containment tests, uncomputing each test after use.

    ``s_words`` are S's lane words, row j - 1 of the (m, n) bit array
    ``d_bits`` is exemplar j's difference vector D[j], shared by every lane,
    and ``y`` and ``z`` are the Y and Z flags' lane words, which the tests
    flip in copies.  ``names`` are S's, D's, Y's and Z's register names.
    C2(j, j') becomes 1 iff both difference vectors are in the supracontext.
    A window of rows j runs its Y tests as (j, mask) lanes.  The inner test
    of D[j'] into Z reads only S, D[j'] and Z and returns Z, so it is the
    same in every row: the window runs it once per j', as (j', mask) lanes,
    and each of its gates counts once per row (see the module docstring).
    Each word is a run of blocks of B bytes, one block per exemplar,
    holding its mask lanes, so a window's Toffolis into C2 flip the C2 rows
    of its (j, j') items.  Returns the word of lanes in which an ancilla or
    a copy of either flag did not come back to 0 (0 when every lane is
    restored from presets of 0).
    """
    m = len(d_bits)
    size = (ones.bit_length() + 7) // 8  # bytes per block of mask lanes
    s_name, d_name, y_name, z_name = names
    # the scan's words of m blocks: S, Y, Z and ALL repeat one block, and D's
    # word i holds ALL in block b where D[b + 1]'s bit i is set
    s_tiles = [_tile(w, size, m) for w in s_words]
    d_tiles = _block_words(np.multiply.outer(d_bits.T, _split(ones, size, 1)[0]).reshape(d_bits.shape[1], -1))
    y_tile, z_tile, all_tile = (_tile(w, size, m) for w in (y, z, ones))
    # the C2 rows' own words: bytes, or 64-bit words where a block is whole words
    c2_grid, dtype = c2.rows.reshape(m, m, -1), c2.rows.dtype
    bad = 0

    def test(flag: int, start: int, stop: int, name: str, trace) -> tuple[int, int]:
        # the containment test of exemplars start..stop-1 into the copies of a flag
        # in their blocks; returns the copies and the lanes whose ancilla missed ALL
        s_t, d_t, all_t = s_tiles, d_tiles, all_tile
        if stop - start < m:
            all_t &= (1 << 8 * size * (stop - start)) - 1
            s_t, d_t = [w & all_t for w in s_tiles], [w >> 8 * size * start & all_t for w in d_tiles]
        regs = (s_name, f"{d_name}[{start + 1}]", name, 0)
        flag, ancilla = _comparator_apply("and", s_t, d_t, all_t, flag & all_t, all_t, trace, regs)
        return flag, all_t ^ ancilla

    def run_rows(first: int, last: int, trace) -> None:
        nonlocal bad
        y_t, bad_y = test(y_tile, first, last, y_name, trace)
        y_blocks = _split(y_t, size, last - first).view(dtype)[:, None]

        def run(start: int, stop: int, trace) -> None:
            nonlocal bad
            z_t, bad_z = test(z_tile, start, stop, z_name, trace)
            # C2(j, j') ^= Y(j) AND Z(j'): block j of Y against block j' of Z
            flip = y_blocks & _split(z_t, size, stop - start).view(dtype)
            operands = lambda k: ((y_name, 0), (z_name, 0), (c2.name, k))
            _xor_gates("ccnot", operands, c2_grid[first:last, start:stop], flip, (first * m + start,), trace)
            # the same test again, which returns Z's copies to their preset in every restored lane
            z_t, bad_again = test(z_t, start, stop, z_name, trace)
            bad |= bad_z | bad_again | z_t

        _run_items(m, run, trace)
        y_t, bad_again = test(y_t, first, last, y_name, trace)
        bad |= bad_y | bad_again | y_t

    _run_items(m, run_rows, trace)
    # a lane is bad if it is bad in any block
    return _word(np.bitwise_or.reduce(_split(bad, size, m).view(dtype)))


def _pair_array(reg: str, out: str, bits: np.ndarray, trace: GateTrace | None) -> int:
    """Register ``out`` (preset 1) after flipping entry (j, j') iff rows j and j' of ``bits`` are equal.

    One comparator per ordered pair: V2 from D, W2 from O.  A window of
    pairs runs as the lanes of one comparator: lane k - start carries pair
    k = j * m + j', with register ``reg``'s row j as u, its row j' as v and
    out(j, j') as the flag.  The result is a word whose bit k is entry k.
    Bit i's v word over all m^2 pairs is column i of ``bits`` in every block
    of m lanes, and its u word is bit j of the column in every lane of
    block j; a window cuts its lanes from both.
    """
    m = len(bits)
    block, rows = (1 << m) - 1, _repunit(m, m)
    # times a repunit of stride m - 1, bit j < m - 1 of a column lands on bits j + b * (m - 1),
    # one per b < m: no two coincide, and b = j is bit j * m, the first lane of block j
    spread = _repunit(m, m - 1) if m > 1 else 0
    columns = _pack_lanes(bits)
    v_words = [col * rows for col in columns]
    u_words = [(((col & block >> 1) * spread & rows) | (col >> m - 1) << m * (m - 1)) * block for col in columns]
    word = (1 << m * m) - 1

    def run(start: int, stop: int, trace) -> None:
        nonlocal word
        ones = (1 << stop - start) - 1
        flag, u, v = word, u_words, v_words
        if stop - start < m * m:
            flag = word >> start & ones
            u, v = ([w >> start & ones for w in words] for words in (u_words, v_words))
        names = (f"{reg}[{start // m + 1}]", f"{reg}[{start % m + 1}]", out, start)
        after, _ = _comparator_apply("xor", u, v, ones, flag, ones, trace, names)
        word ^= (after ^ flag) << start

    _run_items(m * m, run, trace)
    return word


def _and_entries(a: _Blocks, b: _Blocks, out: _Blocks, trace: GateTrace | None) -> None:
    """out ^= a AND b, one Toffoli per entry (P2 from V2 and W2, H2 from C2 and P2)."""
    operands = lambda k: ((a.name, k), (b.name, k), (out.name, k))
    _xor_gates("ccnot", operands, out.rows, a.rows & b.rows, range(len(out.rows)), trace)


def _negate(reg: _Blocks, all_lanes: np.ndarray, trace: GateTrace | None) -> None:
    """NOT on every entry; ``all_lanes`` is ALL as one block."""
    _xor_gates("not", lambda k: ((reg.name, k),), reg.rows, all_lanes, range(len(reg.rows)), trace)


def _sweep(h: _Blocks, f: _Blocks, trace: GateTrace | None, inverse: bool = False) -> None:
    """F(k) ^= H(k-1) AND F(k-1) for k = 1..m^2 (``inverse``: k = m^2 down to 1), one Toffoli each.

    Forward, F(1..m^2) must start at 0, and the chain leaves the prefix AND of
    F(0) and H; in reverse every step reads F as the sweep found it (see the
    module docstring).
    """
    operands = lambda k: ((h.name, k - 1), (f.name, k - 1), (f.name, k))
    if inverse:
        # rows m^2 down to 1, reversed views so that the trace records them in loop order
        flip = (h.rows & f.rows[:-1])[::-1]
        _xor_gates("ccnot", operands, f.rows[:0:-1], flip, range(len(h.rows), 0, -1), trace)
    else:
        flip = np.bitwise_and.accumulate(h.rows, axis=0) & f.rows[0]
        _xor_gates("ccnot", operands, f.rows[1:], flip, range(1, len(f.rows)), trace)


def _analogy(c2: _Blocks, flag: _Blocks, flag_idx: int, a2: _Blocks, trace: GateTrace | None) -> None:
    """A2 ^= C2 AND flag, one Toffoli per entry, all controlled by entry ``flag_idx`` of ``flag``."""
    operands = lambda k: ((c2.name, k), (flag.name, flag_idx), (a2.name, k))
    _xor_gates("ccnot", operands, a2.rows, c2.rows & flag.rows[flag_idx], range(len(a2.rows)), trace)


def _register(name: str, bits, trace: GateTrace | None) -> _Blocks:
    """A one-lane register of the caller's ``bits``, entries in row-major order; raises unless each is 0 or 1."""
    flat = np.ravel(bits)
    stray = flat[(flat != 0) & (flat != 1)]
    if stray.size:
        raise ValueError(f"register {name!r}: bit value {stray[0].item()!r} is not 0 or 1")
    reg = _Blocks(name, flat.astype(np.uint8).reshape(-1, 1))
    if trace is not None:
        trace.track(name, reg.bits)
    return reg


def _side(matrix) -> int:
    """The side of a square matrix; raises unless ``matrix`` is one."""
    shape = np.shape(matrix)
    if len(shape) != 2 or shape[0] != shape[1]:
        raise ValueError(f"expected a square bit matrix, got shape {shape}")
    return shape[0]


def build_containment_array(
    ds: Dataset, given: Sequence[str], mask: Sequence[int], trace: GateTrace | None = None
) -> np.ndarray:
    """C2 for one supracontext: C2(j, j') = contained(j) AND contained(j')."""
    d_ints, _ = encode(ds, given)
    pfx = f"cont{next(_fresh)}."
    s = _register(pfx + "S", mask, trace)
    d_bits = _bit_array(d_ints, ds.n)
    for j, row in enumerate(d_bits, 1):
        _register(f"{pfx}D[{j}]", row, trace)
    y, z, c2 = (_register(pfx + name, [0] * size, trace) for name, size in (("Y", 1), ("Z", 1), ("C2", ds.m * ds.m)))
    _containment_scan(s.bits, d_bits, 0, 0, c2, 1, trace, (s.name, pfx + "D", y.name, z.name))
    return c2.rows.reshape(ds.m, ds.m)


def build_heterogeneity_array(c2, p2, trace: GateTrace | None = None) -> np.ndarray:
    """H2 = C2 AND P2 elementwise, via one Toffoli per entry."""
    uid = next(_fresh)
    m, c2_reg = _side(c2), _register(f"het{uid}.C2", c2, trace)
    m2, p2_reg = _side(p2), _register(f"het{uid}.P2", p2, trace)
    if m != m2:
        raise ValueError(f"dimension mismatch: {m}x{m} vs {m2}x{m2}")
    h2 = _register(f"het{uid}.H2", [0] * (m * m), trace)
    _and_entries(c2_reg, p2_reg, h2, trace)
    return h2.rows.reshape(m, m)


def gate_ones(h_negated, trigger: int = 1, trace: GateTrace | None = None) -> tuple[int, np.ndarray]:
    """Conjunction sweep over an already-negated H2, with no early exit.

    Chains F(k) = h_negated(k) AND F(k-1) across all m^2 positions in
    row-major order, F(0) being the trigger.  The final bit is 1 exactly
    when every bit of ``h_negated`` is 1, i.e. when the original H2 held
    no heterogeneous pointer.  Returns (final flag, F as an m x m matrix).
    """
    uid = next(_fresh)
    m, h = _side(h_negated), _register(f"ones{uid}.H", h_negated, trace)
    f = _register(f"ones{uid}.F", [trigger] + [0] * (m * m), trace)
    _sweep(h, f, trace)
    return int(f.rows[m * m, 0]), f.rows[1:].reshape(m, m)


def gate_ones_inverse(h_negated, f, trigger: int = 1, trace: GateTrace | None = None) -> tuple[int, np.ndarray]:
    """Undo :func:`gate_ones` given the same negated H2 and the F state it left.

    Raises ``ValueError`` unless ``f`` has the shape of ``h_negated``.
    """
    uid = next(_fresh)
    m, h = _side(h_negated), _register(f"ones{uid}.H", h_negated, trace)
    if np.shape(f) != (m, m):
        raise ValueError(f"dimension mismatch: H is {m}x{m}, F has shape {np.shape(f)}")
    f_reg = _register(f"ones{uid}.F", np.append(trigger, f), trace)
    _sweep(h, f_reg, trace, inverse=True)
    return int(f_reg.rows[0, 0]), f_reg.rows[1:].reshape(m, m)


def build_analogy_array(c2, homog_flag, trace: GateTrace | None = None) -> np.ndarray:
    """A2 = C2 when the homogeneity flag is set, all zeros otherwise."""
    uid = next(_fresh)
    m, c2_reg = _side(c2), _register(f"ana{uid}.C2", c2, trace)
    if np.ndim(homog_flag):
        raise ValueError(f"expected one homogeneity flag, got shape {np.shape(homog_flag)}")
    flag = _register(f"ana{uid}.flag", homog_flag, trace)
    a2 = _register(f"ana{uid}.A2", [0] * (m * m), trace)
    _analogy(c2_reg, flag, 0, a2, trace)
    return a2.rows.reshape(m, m)


# --- the full pipeline ------------------------------------------------------

@dataclass(frozen=True, eq=False)
class SupracontextCircuitResult:
    """Per-mask circuit outputs; the flag uses 1 = homogeneous.  Equal only to itself."""

    mask: Bits
    c2: np.ndarray
    h2: np.ndarray
    homogeneous: bool
    a2: np.ndarray
    ancillas_restored: bool


@dataclass(frozen=True, eq=False)
class CircuitRun:
    """Shared pair arrays plus every mask's circuit outputs as blocks of lanes.

    Lane l belongs to mask int l.  ``blocks`` is one (3 * m * m + 2, B)
    uint8 array, row k holding its entry's lanes in B = ceil(L / 8) bytes
    (see :class:`_Blocks`): the m * m rows of C2, then of H2, then of A2,
    then the flag row (lane l set: mask int l is homogeneous) and the
    not-restored row (lane l set: an ancilla or flag of mask int l missed
    its preset).  :meth:`lanes` reads them one mask at a time, in
    :func:`iter_masks` order, and :attr:`results` keeps what it reads.  A
    run is equal only to itself: its numpy fields have no truth value.
    """

    d: np.ndarray  # :func:`encode`'s difference vectors, as loaded into D
    v2: np.ndarray
    w2: np.ndarray
    p2: np.ndarray
    n: int  # features; lane l runs the mask whose int is l
    blocks: np.ndarray

    def lanes(self) -> Iterator[tuple[int, np.ndarray, np.ndarray, bool, np.ndarray, bool]]:
        """Each mask in :func:`iter_masks` order, read off its lane in one step.

        Yields its int, its m x m C2 and H2, its flag, its A2 and its restored bit.
        """
        m = len(self.p2)
        # a chunk of mask ints at a time: a table of 2^n of them would outweigh the lane read
        for lane in itertools.chain.from_iterable(map(np.ndarray.tolist, _mask_chunks(self.n))):
            bits = (self.blocks[:, lane >> 3] >> (lane & 7)) & 1
            c2, h2, a2 = bits[:-2].reshape(3, m, m)
            yield lane, c2, h2, bool(bits[-2]), a2, not bits[-1]

    @cached_property
    def results(self) -> tuple[SupracontextCircuitResult, ...]:
        return tuple([SupracontextCircuitResult(int_to_bits(lane, self.n), *out) for lane, *out in self.lanes()])


def _supracontext_circuits(
    pfx: str,
    s_words: Sequence[int],
    ones: int,
    d_bits: np.ndarray,
    p2: _Blocks,
    trace: GateTrace | None,
) -> np.ndarray:
    """Run the per-mask circuit once over the lanes of ``ones``, S holding ``s_words``.

    Per lane: C2 through nested containment tests, H2 = C2 AND P2, negate
    H2, sweep for the homogeneity flag, conditionally copy C2 into A2,
    then reverse the sweep and the negation so every scratch register
    ends at its preset.  Registers are named ``pfx`` + their name, and D's
    rows are ``d_bits``.  Returns one (3 * m * m + 2, B) array: the blocks
    of C2, H2 and A2, then the flag block and the not-restored block.
    """
    m2 = len(p2.rows)
    size = (ones.bit_length() + 7) // 8
    # the registers hold 64-bit words where a block is whole words (n >= 6)
    all_lanes = _split(ones, size, 1)[0].view(np.uint64 if size % 8 == 0 else np.uint8)
    out = np.zeros((3 * m2 + 2, len(all_lanes)), all_lanes.dtype)
    c2, h2, a2 = (_Blocks(pfx + name, out[i * m2:(i + 1) * m2]) for i, name in enumerate(("C2", "H2", "A2")))
    f = _Blocks(pfx + "F", np.zeros((m2 + 1, len(all_lanes)), all_lanes.dtype))
    f.rows[0] = all_lanes
    if _recording(trace):
        for name, bits in ((pfx + "S", s_words), (pfx + "Y", (0,)), (pfx + "Z", (0,))):
            trace.track(name, bits)
        for reg in (c2, h2, f, a2):
            trace.track(reg.name, reg.bits)

    bad = _containment_scan(s_words, d_bits, 0, 0, c2, ones, trace, (pfx + "S", "D", pfx + "Y", pfx + "Z"))
    _and_entries(c2, _Blocks(p2.name, p2.rows * all_lanes), h2, trace)
    _negate(h2, all_lanes, trace)
    _sweep(h2, f, trace)
    out[-2] = f.rows[m2]
    _analogy(c2, f, m2, a2, trace)
    _sweep(h2, f, trace, inverse=True)
    _negate(h2, all_lanes, trace)
    out[-1] = _split(bad, size, 1)[0].view(out.dtype) | (f.rows[0] ^ all_lanes) | np.bitwise_or.reduce(f.rows[1:])
    return out.view(np.uint8)


def run_qam_circuit(
    ds: Dataset,
    given: Sequence[str],
    *,
    n_cap: int = DEFAULT_N_CAP,
    trace: GateTrace | None = None,
) -> CircuitRun:
    """Run the full gate pipeline over all 2^n supracontexts.

    Builds V2 and W2 once over m^2 pair lanes and P2 = V2 AND W2 entrywise,
    then runs the per-mask circuit on all masks at once, lane l running mask
    int l.  With a ``trace`` the pairs and the masks run in windows of one
    item of the same code, masks in :func:`iter_masks` order, so the trace
    records every gate on plain bits, until it is truncated: the items left
    then run as one window with no trace, and ``trace.tally`` adds theirs.
    All masks then run in one window, lane l running mask int l: raises
    ``AssertionError`` if a mask that ran alone reads otherwise there.
    """
    check_lattice_size(ds.n, n_cap)
    m = ds.m
    d_ints, outcomes = encode(ds, given)
    d_bits = _bit_array(d_ints, ds.n)
    # each outcome's index in a fixed-width binary code, first appearance first
    o_bits = _bit_array(outcomes, max(1, int(outcomes.max()).bit_length()))
    if _recording(trace):
        for reg, bits in (("D", d_bits), ("O", o_bits)):
            for j, row in enumerate(bits.tolist(), 1):
                trace.track(f"{reg}[{j}]", row)
        for name, preset in (("V2", 1), ("W2", 1), ("P2", 0)):
            trace.track(name, (preset,) * (m * m))

    v2, w2 = _pair_array("D", "V2", d_bits, trace), _pair_array("O", "W2", o_bits, trace)
    # V2, W2 and P2 at its preset 0 as one-lane block registers, one row of m^2 entries each
    size = (m * m + 7) // 8
    pairs = _unpack_blocks(_split(v2 | w2 << 8 * size, size, 3), m * m)
    v2, w2, p2 = (_Blocks(name, rows) for name, rows in zip(("V2", "W2", "P2"), pairs[:, :, None]))
    _and_entries(v2, w2, p2, trace)

    recorded = []  # (mask int, its blocks) for each mask that ran in a lane of its own
    if _recording(trace):  # while the trace records, the masks run one lane each, named after them
        for lane in itertools.chain.from_iterable(map(np.ndarray.tolist, _mask_chunks(ds.n))):
            pfx = f"m{lane:0{ds.n}b}."
            recorded.append((lane, _supracontext_circuits(pfx, int_to_bits(lane, ds.n), 1, d_bits, p2, trace)))
            if not _recording(trace):
                break
    # then every mask runs in one window, its gates tallied once per mask that did not run alone
    tally = None if trace is None else _LaneTally(trace, (1 << ds.n) - len(recorded))
    blocks = _supracontext_circuits("m.", _lattice_s_words(ds.n), (1 << (1 << ds.n)) - 1, d_bits, p2, tally)
    for lane, out in recorded:
        if not np.array_equal(out[:, 0], blocks[:, lane >> 3] >> (lane & 7) & 1):
            raise AssertionError(f"mask {lane:0{ds.n}b} ran differently in its own lane and in the lattice window")
    return CircuitRun(d_ints, *pairs.reshape(3, m, m), ds.n, blocks)


def to_analogical_set(run: CircuitRun, ds: Dataset) -> AnalogicalSet:
    """Read the circuit's blocks back into the pointer-counting vocabulary.

    Outcome o's pointer count is the number of set lanes in the A2 blocks of
    the columns j' with outcome o.  Lane l is mask int l, so the lattice
    record takes the flag block and the lane counts of the C2 diagonal
    blocks (each mask's k) as they are.  Raises ``ValueError`` when ``run``
    was not made from a dataset of the same shape.
    """
    m, n = len(run.p2), run.n
    if (m, n) != (ds.m, ds.n):
        raise ValueError(
            f"circuit run is for {m} exemplars and {n} features, dataset has {ds.m} and {ds.n}"
        )
    # every bit from lane L up is 0, so a block's popcount is its count of set
    # lanes; it is counted over 64-bit words where the block is whole words
    a2 = run.blocks[2 * m * m:-2]
    a2 = a2.view(np.uint64) if a2.shape[1] % 8 == 0 else a2
    columns = np.bitwise_count(a2).reshape(m, m, -1).sum(axis=(0, 2), dtype=np.int64)
    # float64 sums are exact here: a total past 2^53 needs more blocks than memory holds
    per_outcome = np.bincount(ds._codes.outcomes, columns, len(ds.outcome_order))
    counts = dict(zip(ds.outcome_order, per_outcome.astype(np.int64).tolist()))
    homogeneous = _unpack_blocks(run.blocks[-2], 1 << n).view(bool)
    k = _unpack_blocks(run.blocks[: m * m : m + 1], 1 << n).sum(axis=0, dtype=np.min_scalar_type(m))
    return AnalogicalSet(
        verdicts=_LatticeVerdicts(ds, run.d, homogeneous, k),
        outcome_counts=counts,
        total_pointers=sum(counts.values()),
    )
