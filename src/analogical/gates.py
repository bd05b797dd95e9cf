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
at once.  The comparators' registers are Python ints holding one bit per
lane: NOT is ``x ^= ALL``, CNOT ``t ^= c`` and Toffoli ``t ^= a & b``,
where ALL = 2^L - 1 for L lanes.  C2, H2, A2 and the sweep register F are
(entry x block) uint8 arrays instead: row k holds entry k's L lanes in a
block of B = ceil(L / 8) bytes, lane l in bit l % 8 of byte l // 8.  ALL
as one block has its bits from L up at 0, and every gate XORs into its
target ALL or its controls' AND, so those padding bits stay 0 everywhere.
Registers shared by every mask (D, P2) are broadcast to 0 or ALL.  The
gate sequence, and so every per-mask gate count, is the one a single mask
would run.  The run keeps its outputs as blocks: pointer counts are
popcounts of the A2 blocks, flags and member counts (the C2 diagonal) are
read off them into the lattice record both engines share, and a mask's
matrices are read from its lane only when a caller asks for them.

The loops over the m^2 entries after the containment scan are one numpy
operation each.  H2 = C2 AND P2 (a Toffoli per entry), both negations of
H2, and A2 = C2 AND flag (a Toffoli per entry, all controlled by F(m^2))
each write only their own entry and read nothing that the loop writes, so
their gates commute and run at once: ``H2 ^= C2 & P2``, ``H2 ^= ALL`` and
``A2 ^= C2 & F(m^2)``.  The sweep is a chain, step k applying F(k) ^=
H(k-1) AND F(k-1) for k = 1..m^2.  Forward, F(1..m^2) start at their
preset 0, so it leaves the prefix AND F(k) = F(0) AND H(0) AND ... AND
H(k-1), one ``np.bitwise_and.accumulate``, over 64-bit words where a
block is whole words (n >= 6).  The inverse runs k from m^2 down to 1,
and step k reads F(k-1), which the loop writes only after step k: every
step reads F as the inverse found it, so it is one
``F[1:] ^= H & F[:-1]``.  The restoration check ORs F's blocks.

Two more loops run as lanes the same way.  The m^2 comparators behind V2
(and W2) each have fresh scratch and write only their own entry, so they
run as one comparator over m^2 pair lanes: lane j*m + j' holds D[j] (O[j])
as u, D[j'] (O[j']) as v and V2(j, j') (W2(j, j')) as the flag.  V2, W2
and P2 are block registers of one lane, shared by every mask, and
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
row of C2 does: S is copied into every block and D[b] fills block b.  A
window of rows runs its Y tests on (j, mask) words and its Z tests on
(j', mask) words, then flips its C2 rows at once, block j of Y AND block
j' of Z into row (j, j'); the restoration checks are the OR of the blocks.
Each mask sees the serial loop's gates and final registers, and a shared
Z test counts once per row of the window.

Each loop over items (pairs, masks, rows of the scan, and j' within them)
has one body, which runs a window of items side by side; an untraced run
makes one window per loop, and so six comparator calls in all: V2, W2,
and the scan's two Y and two Z tests.  With a :class:`GateTrace` attached
the items run in windows of one item of the same code, on plain 0/1 bits:
a mask window's blocks are one byte holding one lane.  The array loops
then record, from their target's blocks before and after, one gate per
entry in the serial loop's order.  A window's registers take the names of
its first item's, and a word cut from a register records that register's
indices (``_Lanes.offset``), so every recorded step is the one the serial
circuit applies.  Once the trace is truncated the items left run in one
window as an untraced run would, and ``trace.tally`` counts each of their
gates once per item, an array loop's m^2 gates in one step.  Only a run
whose trace records when the masks start takes them in :func:`iter_masks`
order, and its windows' outputs go to their masks' lanes; any other run
takes every mask in one window.  Results do not depend on the lane width.

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
    bits_to_str,
    check_lattice_size,
    encode,
    int_to_bits,
    mask_ints,
)
from .homogeneity import AnalogicalSet, _LatticeVerdicts

_fresh = itertools.count()


class _Lanes:
    """A named register of lane words: bit l of every word belongs to lane l.

    ``offset`` is added to every index a gate records, so a word cut from
    entries start.. of another register records the entries' own indices.
    """

    __slots__ = ("name", "_bits", "offset")

    def __init__(self, name: str, words: Sequence[int], offset: int = 0):
        self.name = name
        self._bits = list(words)
        self.offset = offset

    @property
    def bits(self) -> Bits:
        return tuple(self._bits)

    def __len__(self) -> int:
        return len(self._bits)

    def __getitem__(self, i: int) -> int:
        return self._bits[i]

    def __iter__(self) -> Iterator[int]:
        return iter(self._bits)


class BitRegister(_Lanes):
    """A named, fixed-length register of classical bits (strictly 0 or 1)."""

    __slots__ = ()

    def __init__(self, name: str, bits: Sequence[int]):
        checked = []
        for b in bits:
            if b != 0 and b != 1:
                raise ValueError(f"register {name!r}: bit value {b!r} is not 0 or 1")
            checked.append(int(b))
        super().__init__(name, checked)

    @classmethod
    def zeros(cls, name: str, length: int) -> "BitRegister":
        return cls(name, [0] * length)

    def __setitem__(self, i: int, value: int) -> None:
        if value != 0 and value != 1:
            raise ValueError(f"register {self.name!r}: bit value {value!r} is not 0 or 1")
        self._bits[i] = int(value)

    def __repr__(self) -> str:
        return f"BitRegister({self.name!r}, {bits_to_str(self._bits)})"


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

    def track(self, reg: _Lanes | _Blocks) -> None:
        if reg.name not in self.initial:
            self.initial[reg.name] = reg.bits

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


# --- primitive gates -------------------------------------------------------
#
# Every primitive acts on all lanes of its target word at once.  ``ones`` is
# ALL, the word with every lane set, so NOT flips each lane.

def _not(reg: _Lanes, i: int, ones: int, trace: GateTrace | None) -> None:
    before = reg._bits[i]
    reg._bits[i] = before ^ ones
    if trace is not None:
        trace.record("not", ((reg.name, reg.offset + i),), before, before ^ ones)


def _cnot(creg: _Lanes, ci: int, treg: _Lanes, ti: int, trace: GateTrace | None) -> None:
    before = treg._bits[ti]
    after = before ^ creg._bits[ci]
    treg._bits[ti] = after
    if trace is not None:
        trace.record("cnot", ((creg.name, creg.offset + ci), (treg.name, treg.offset + ti)), before, after)


def _ccnot(
    areg: _Lanes, ai: int,
    breg: _Lanes, bi: int,
    treg: _Lanes, ti: int,
    trace: GateTrace | None,
) -> None:
    before = treg._bits[ti]
    after = before ^ (areg._bits[ai] & breg._bits[bi])
    treg._bits[ti] = after
    if trace is not None:
        operands = ((areg.name, areg.offset + ai), (breg.name, breg.offset + bi), (treg.name, treg.offset + ti))
        trace.record("ccnot", operands, before, after)


def _not_all(reg: _Lanes, ones: int, trace: GateTrace | None) -> None:
    for i in range(len(reg)):
        _not(reg, i, ones, trace)


def _check_bit(value: int, what: str) -> int:
    if value != 0 and value != 1:
        raise ValueError(f"{what} must be 0 or 1, got {value!r}")
    return int(value)


def gate_not(r) -> BitRegister:
    """NOT applied to every bit; involutive."""
    reg = r if isinstance(r, BitRegister) else BitRegister(f"r{next(_fresh)}", r)
    return BitRegister(reg.name, [b ^ 1 for b in reg])


def gate_ccnot(a: int, b: int, target: int) -> int:
    """Toffoli on plain bits: flip target iff both controls are 1."""
    a = _check_bit(a, "control a")
    b = _check_bit(b, "control b")
    target = _check_bit(target, "target")
    return target ^ (a & b)


# --- composite comparators --------------------------------------------------
#
# Both IDENTITY and INCLUSION share one reversible skeleton: compute one
# scratch bit per position (XOR of the operands for identity, AND for
# inclusion), negate the scratch, sweep an AND chain seeded by the ancilla
# across it, flip the flag off the chain end, then uncompute everything.
# The gate sequence is an exact palindrome around the flag flip, so running
# it a second time is the inverse.

def _comparator_apply(
    mode: str,
    u: _Lanes,
    v: _Lanes,
    ancilla: int,
    flag_reg: _Lanes,
    flag_idx: int,
    ones: int,
    trace: GateTrace | None,
) -> int:
    """Apply the comparator skeleton in every lane; returns the ancilla word after the op.

    mode "xor": a lane's flag flips iff u == v (bitwise equal) in that lane.
    mode "and": a lane's flag flips iff u AND v is all zeros in that lane.
    Scratch and chain registers are created fresh, used, and uncomputed;
    the chain's seed slot holds the ancilla and is never written.
    """
    if len(u) != len(v):
        raise ValueError(f"length mismatch: {len(u)} vs {len(v)}")
    n = len(u)
    uid = next(_fresh)
    scratch = _Lanes(f"cmp{uid}.scratch", [0] * n)
    chain = _Lanes(f"cmp{uid}.chain", [ancilla] + [0] * n)
    if trace is not None:
        trace.track(u)
        trace.track(v)
        trace.track(flag_reg)
        trace.track(scratch)
        trace.track(chain)

    if mode == "xor":
        for i in range(n):
            _cnot(u, i, scratch, i, trace)
            _cnot(v, i, scratch, i, trace)
    else:
        for i in range(n):
            _ccnot(u, i, v, i, scratch, i, trace)
    _not_all(scratch, ones, trace)
    for i in range(n):
        _ccnot(scratch, i, chain, i, chain, i + 1, trace)
    _cnot(chain, n, flag_reg, flag_idx, trace)
    for i in reversed(range(n)):
        _ccnot(scratch, i, chain, i, chain, i + 1, trace)
    _not_all(scratch, ones, trace)
    if mode == "xor":
        for i in reversed(range(n)):
            _cnot(v, i, scratch, i, trace)
            _cnot(u, i, scratch, i, trace)
    else:
        for i in reversed(range(n)):
            _ccnot(u, i, v, i, scratch, i, trace)

    if any(scratch._bits) or any(chain._bits[1:]):
        raise AssertionError(f"comparator scratch not uncomputed for {scratch.name}")
    return chain._bits[0]


def _as_register(bits_or_reg, name: str) -> BitRegister:
    if isinstance(bits_or_reg, BitRegister):
        return bits_or_reg
    return BitRegister(name, bits_or_reg)


def gate_identity(u, v, ancilla: int = 1, flag: int = 1, trace: GateTrace | None = None) -> tuple[int, int]:
    """Reversible comparator: flag flips iff u equals v bitwise.

    With the presets (ancilla 1, flag 1) the returned flag is 0 when the
    registers are equal and 1 when they differ.  Returns (flag, ancilla);
    the ancilla always comes back restored.
    """
    uid = next(_fresh)
    u_reg = _as_register(u, f"id{uid}.u")
    v_reg = _as_register(v, f"id{uid}.v")
    flag_reg = BitRegister(f"id{uid}.flag", [_check_bit(flag, "flag")])
    ancilla_out = _comparator_apply(
        "xor", u_reg, v_reg, _check_bit(ancilla, "ancilla"), flag_reg, 0, 1, trace
    )
    return flag_reg[0], ancilla_out


def gate_inclusion(mask, d, ancilla: int = 1, flag: int = 0, trace: GateTrace | None = None) -> tuple[int, int]:
    """Reversible containment test: flag flips iff mask AND d is all zeros.

    With the presets (ancilla 1, flag 0) the returned flag is 1 exactly
    when an exemplar with difference vector ``d`` lies in the supracontext
    selected by ``mask``.  Returns (flag, ancilla).
    """
    uid = next(_fresh)
    mask_reg = _as_register(mask, f"incl{uid}.mask")
    d_reg = _as_register(d, f"incl{uid}.d")
    flag_reg = BitRegister(f"incl{uid}.flag", [_check_bit(flag, "flag")])
    ancilla_out = _comparator_apply(
        "and", mask_reg, d_reg, _check_bit(ancilla, "ancilla"), flag_reg, 0, 1, trace
    )
    return flag_reg[0], ancilla_out


def gate_inclusion_inverse(mask, d, ancilla: int, flag: int, trace: GateTrace | None = None) -> tuple[int, int]:
    """Undo :func:`gate_inclusion`: restores (ancilla, flag) to their presets.

    The containment circuit is its own mirror image, so the inverse applies
    the same gate sequence; flipping the flag by the same condition twice
    cancels.
    """
    return gate_inclusion(mask, d, ancilla, flag, trace)


# --- circuit steps ------------------------------------------------------------
#
# One register-level implementation per step.  The full pipeline runs each
# step on every mask at once; the public builders below run the same step on
# a single lane.

def _pack_lanes(bits) -> list[int]:
    """Pack a (lanes, k) 0/1 array into k lane words, bit l of word i holding entry (l, i)."""
    packed = np.packbits(np.asarray(bits, dtype=np.uint8).T, axis=1, bitorder="little")
    return [int.from_bytes(row.tobytes(), "little") for row in packed]


def _unpack_blocks(rows: np.ndarray, lanes: int) -> np.ndarray:
    """Unpack (entries, B) blocks into an (entries, lanes) 0/1 array: entry (k, l) is lane l of block k."""
    return np.unpackbits(rows, axis=-1, count=lanes, bitorder="little")


def _bit_rows(values: np.ndarray, width: int) -> list[list[int]]:
    """Each value's ``width`` bits, most significant first, as :func:`int_to_bits` gives them."""
    return ((values[:, None] >> np.arange(width - 1, -1, -1)) & 1).tolist()


def _s_words(ints: np.ndarray, n: int) -> list[int]:
    """S over one lane per mask int of ``ints``: word i holds each mask's bit i, most significant first."""
    return [_word(np.packbits(ints & (1 << (n - 1 - i)), bitorder="little")) for i in range(n)]


@cache
def _lattice_s_words(n: int) -> tuple[int, ...]:
    """S over all 2^n masks, lane l running mask int l: n words of 2^n bits, built once per n."""
    return tuple(_s_words(np.arange(1 << n, dtype=np.min_scalar_type((1 << n) - 1)), n))


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
    per item: :meth:`record` adds it to the trace's tally that many times.
    """

    truncated = True

    def __init__(self, trace: "GateTrace | _LaneTally", items: int):
        self.tally = trace.tally
        self.per_gate = items * getattr(trace, "per_gate", 1)

    def track(self, reg) -> None:
        pass

    def record(self, op: str, operands, before: int, after: int) -> None:
        self.tally[op] += self.per_gate


def _run_items(count: int, run, trace: GateTrace | None) -> None:
    """Run items 0..count-1 of a step; ``run(start, stop, trace)`` runs a window of them side by side.

    Without a trace the items run in one window.  While ``trace`` records,
    each item runs in a window of one item of the same code, which records
    exactly the steps the serial circuit applies to it; once the trace is
    truncated the items left run in one window and their gates go to
    ``trace.tally`` once per item.
    """
    start = 0
    while trace is not None and not trace.truncated and start < count:
        run(start, start + 1, trace)
        start += 1
    if start < count:
        run(start, count, None if trace is None else _LaneTally(trace, count - start))


def _entry_lanes(reg: _Blocks, start: int, stop: int) -> _Lanes:
    """Entries start..stop-1 of a one-lane block register as one word, lane i holding entry start + i."""
    return _Lanes(reg.name, _pack_lanes(reg.rows[start:stop]), start)


def _store_entries(reg: _Blocks, word: _Lanes, stop: int) -> None:
    """Write the lanes of ``word`` back into entries offset..stop-1 of ``reg``; undoes :func:`_entry_lanes`."""
    count = stop - word.offset
    reg.rows[word.offset:stop, 0] = _unpack_blocks(_split(word[0], (count + 7) // 8, 1), count)[0]


class _Blocks:
    """A named register of entries, each a block of B bytes holding the entry's L mask lanes.

    ``rows`` is an (entries, B) uint8 array: lane l of entry k is bit l % 8 of
    byte l // 8 of row k, and the bits from L up stay 0.
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
    return [_word(b) for b in blocks.reshape(-1, blocks.shape[-1])]


def _xor_gates(op: str, operands, rows: np.ndarray, flip: np.ndarray, entries: Sequence[int], trace) -> None:
    """``rows ^= flip``: one ``op`` gate per entry of ``entries``, each acting on every lane at once.

    The blocks of ``rows`` are a register's entries, or the items of a
    containment-scan window, whose ``entries`` is then its first entry.  A
    trace records the gates in order, ``operands(k)`` naming entry k's
    controls and target, with the target block's lane word before and after;
    a truncated trace, or a :class:`_LaneTally` for every item, adds them to
    its tally in one step.
    """
    if trace is None or trace.truncated:
        rows ^= flip
        if trace is not None:
            trace.tally[op] += len(entries) * getattr(trace, "per_gate", 1)
        return
    before = _block_words(rows)
    rows ^= flip
    for k, b, a in zip(entries, before, _block_words(rows)):
        trace.record(op, operands(k), b, a)


def _matrix_register(name: str, matrix, trace: GateTrace | None) -> tuple[_Blocks, int]:
    """A square 0/1 matrix as a one-lane block register, entries in row-major order."""
    arr = np.asarray(matrix)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError(f"expected a square bit matrix, got shape {arr.shape}")
    reg = _Blocks(name, _bit_column(name, arr))
    if trace is not None:
        trace.track(reg)
    return reg, arr.shape[0]


def _bit_column(name: str, arr: np.ndarray) -> np.ndarray:
    """``arr``'s entries in row-major order as an (entries, 1) uint8 array; raises unless each is 0 or 1."""
    flat = arr.reshape(-1)
    stray = flat[(flat != 0) & (flat != 1)]
    if stray.size:
        raise ValueError(f"register {name!r}: bit value {stray[0].item()!r} is not 0 or 1")
    return flat.astype(np.uint8).reshape(-1, 1)


def _containment_scan(
    s_reg: _Lanes,
    d_regs: Sequence[_Lanes],
    y_reg: _Lanes,
    z_reg: _Lanes,
    c2: _Blocks,
    ones: int,
    trace: GateTrace | None,
) -> int:
    """Fill C2 via nested containment tests, uncomputing each test after use.

    ``d_regs`` hold each exemplar's difference bits, shared by every lane.
    C2(j, j') becomes 1 iff both difference vectors are in the supracontext.
    A window of rows j runs its Y tests as (j, mask) lanes.  The inner test
    of D[j'] into Z reads only S, D[j'] and Z and returns Z, so it is the
    same in every row: the window runs it once per j', as (j', mask) lanes,
    and each of its gates counts once per row (see the module docstring).
    Each word is a run of blocks of ``size`` bytes, one block per exemplar,
    holding its mask lanes, so a window's Toffolis into C2 flip the C2 rows
    of its (j, j') items.  Returns the word of lanes in which an ancilla or
    either flag register did not come back to its preset (0 when every lane
    is restored).
    """
    m = len(d_regs)
    size = (ones.bit_length() + 7) // 8  # bytes per block of mask lanes
    # d_blocks[i, b]: the block of exemplar b's difference bit i, ALL or 0
    d_blocks = np.multiply.outer(np.array([d.bits for d in d_regs], np.uint8).T, _split(ones, size, 1)[0])
    c2_grid = c2.rows.reshape(m, m, size)
    bad = 0

    @cache
    def tiled(start: int, stop: int) -> tuple[_Lanes, _Lanes, int]:
        # blocks start..stop-1: S in every block, D[b] in block b
        count = stop - start
        s_t = _Lanes(s_reg.name, [_tile(w, size, count) for w in s_reg])
        return s_t, _Lanes(d_regs[start].name, [_word(b) for b in d_blocks[:, start:stop]]), _tile(ones, size, count)

    def test(reg: _Lanes, start: int, stop: int, trace) -> tuple[_Lanes, int]:
        # the containment test of exemplars start..stop-1 into copies of reg; returns them and the bad lanes
        s_t, d_t, all_t = tiled(start, stop)
        flag = _Lanes(reg.name, [_tile(reg[0], size, stop - start)])
        return flag, all_t ^ _comparator_apply("and", s_t, d_t, all_t, flag, 0, all_t, trace)

    def untest(flag: _Lanes, bad_t: int, start: int, stop: int, trace) -> None:
        # the same test again, which returns flag to its preset in every restored lane
        nonlocal bad
        s_t, d_t, all_t = tiled(start, stop)
        bad_t |= all_t ^ _comparator_apply("and", s_t, d_t, all_t, flag, 0, all_t, trace)
        # the OR of the blocks: a lane is bad if it is bad in any item
        bad |= _word(np.bitwise_or.reduce(_split(bad_t | flag[0], size, stop - start)))

    def run_rows(first: int, last: int, trace) -> None:
        y_t, bad_y = test(y_reg, first, last, trace)
        y = _split(y_t[0], size, last - first)[:, None]

        def run(start: int, stop: int, trace) -> None:
            z_t, bad_z = test(z_reg, start, stop, trace)
            # C2(j, j') ^= Y(j) AND Z(j'): block j of Y against block j' of Z
            flip = y & _split(z_t[0], size, stop - start)
            operands = lambda k: ((y_reg.name, 0), (z_reg.name, 0), (c2.name, k))
            _xor_gates("ccnot", operands, c2_grid[first:last, start:stop], flip, (first * m + start,), trace)
            untest(z_t, bad_z, start, stop, trace)

        _run_items(m, run, trace)
        untest(y_t, bad_y, first, last, trace)

    _run_items(m, run_rows, trace)
    return bad


def _pair_array(regs: Sequence[_Lanes], out_reg: _Blocks, trace: GateTrace | None) -> None:
    """Flip out(j, j') iff regs[j] == regs[j'], one comparator per ordered pair (V2 from D, W2 from O).

    A window of pairs runs as the lanes of one comparator: lane k - start
    carries pair k = j * m + j', with regs[j] as u, regs[j'] as v and
    out(j, j') as the flag.
    """
    m = len(regs)
    bits = np.array([r.bits for r in regs], dtype=np.uint8)

    def run(start: int, stop: int, trace) -> None:
        pairs = np.arange(start, stop)
        u = _Lanes(regs[start // m].name, _pack_lanes(bits[pairs // m]))
        v = _Lanes(regs[start % m].name, _pack_lanes(bits[pairs % m]))
        flag = _entry_lanes(out_reg, start, stop)
        ones = (1 << len(pairs)) - 1
        _comparator_apply("xor", u, v, ones, flag, 0, ones, trace)
        _store_entries(out_reg, flag, stop)

    _run_items(m * m, run, trace)


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
        # the prefix AND runs on 64-bit words where a block is whole words (n >= 6)
        rows, first = h.rows, f.rows[0]
        if rows.shape[1] % 8 == 0:
            rows, first = rows.view(np.uint64), first.view(np.uint64)
        flip = (np.bitwise_and.accumulate(rows, axis=0) & first).view(np.uint8)
        _xor_gates("ccnot", operands, f.rows[1:], flip, range(1, len(f.rows)), trace)


def _analogy(c2: _Blocks, flag: _Blocks, flag_idx: int, a2: _Blocks, trace: GateTrace | None) -> None:
    """A2 ^= C2 AND flag, one Toffoli per entry, all controlled by entry ``flag_idx`` of ``flag``."""
    operands = lambda k: ((c2.name, k), (flag.name, flag_idx), (a2.name, k))
    _xor_gates("ccnot", operands, a2.rows, c2.rows & flag.rows[flag_idx], range(len(a2.rows)), trace)


def build_containment_array(
    ds: Dataset, given: Sequence[str], mask: Sequence[int], trace: GateTrace | None = None
) -> np.ndarray:
    """C2 for one supracontext: C2(j, j') = contained(j) AND contained(j')."""
    d_ints, _ = encode(ds, given)
    uid = next(_fresh)
    pfx = f"cont{uid}."
    s_reg = BitRegister(pfx + "S", mask)
    d_regs = [BitRegister(f"{pfx}D[{j}]", bits) for j, bits in enumerate(_bit_rows(d_ints, ds.n), 1)]
    y_reg = BitRegister.zeros(pfx + "Y", 1)
    z_reg = BitRegister.zeros(pfx + "Z", 1)
    c2 = _Blocks(pfx + "C2", np.zeros((ds.m * ds.m, 1), np.uint8))
    if trace is not None:
        for reg in (s_reg, *d_regs, y_reg, z_reg, c2):
            trace.track(reg)
    _containment_scan(s_reg, d_regs, y_reg, z_reg, c2, 1, trace)
    return c2.rows.reshape(ds.m, ds.m)


def build_heterogeneity_array(c2, p2, trace: GateTrace | None = None) -> np.ndarray:
    """H2 = C2 AND P2 elementwise, via one Toffoli per entry."""
    uid = next(_fresh)
    c2_reg, m = _matrix_register(f"het{uid}.C2", c2, trace)
    p2_reg, m2 = _matrix_register(f"het{uid}.P2", p2, trace)
    if m != m2:
        raise ValueError(f"dimension mismatch: {m}x{m} vs {m2}x{m2}")
    h2 = _Blocks(f"het{uid}.H2", np.zeros((m * m, 1), np.uint8))
    if trace is not None:
        trace.track(h2)
    _and_entries(c2_reg, p2_reg, h2, trace)
    return h2.rows.reshape(m, m)


def _sweep_register(name: str, trigger: int, f: np.ndarray, trace: GateTrace | None) -> _Blocks:
    """F as a one-lane block register: the trigger, then the m^2 entries of ``f``."""
    reg = _Blocks(name, np.vstack((np.array([[_check_bit(trigger, "trigger")]], np.uint8), _bit_column(name, f))))
    if trace is not None:
        trace.track(reg)
    return reg


def gate_ones(h_negated, trigger: int = 1, trace: GateTrace | None = None) -> tuple[int, np.ndarray]:
    """Conjunction sweep over an already-negated H2, with no early exit.

    Chains F(k) = h_negated(k) AND F(k-1) across all m^2 positions in
    row-major order, F(0) being the trigger.  The final bit is 1 exactly
    when every bit of ``h_negated`` is 1, i.e. when the original H2 held
    no heterogeneous pointer.  Returns (final flag, F as an m x m matrix).
    """
    uid = next(_fresh)
    h_reg, m = _matrix_register(f"ones{uid}.H", h_negated, trace)
    f = _sweep_register(f"ones{uid}.F", trigger, np.zeros((m, m), np.uint8), trace)
    _sweep(h_reg, f, trace)
    return int(f.rows[m * m, 0]), f.rows[1:].reshape(m, m)


def gate_ones_inverse(h_negated, f, trigger: int = 1, trace: GateTrace | None = None) -> tuple[int, np.ndarray]:
    """Undo :func:`gate_ones` given the same negated H2 and the F state it left.

    Raises ``ValueError`` unless ``f`` has the shape of ``h_negated``.
    """
    uid = next(_fresh)
    h_reg, m = _matrix_register(f"ones{uid}.H", h_negated, trace)
    f_arr = np.asarray(f)
    if f_arr.shape != (m, m):
        raise ValueError(f"dimension mismatch: H is {m}x{m}, F has shape {f_arr.shape}")
    f_reg = _sweep_register(f"ones{uid}.F", trigger, f_arr, trace)
    _sweep(h_reg, f_reg, trace, inverse=True)
    return int(f_reg.rows[0, 0]), f_reg.rows[1:].reshape(m, m)


def build_analogy_array(c2, homog_flag, trace: GateTrace | None = None) -> np.ndarray:
    """A2 = C2 when the homogeneity flag is set, all zeros otherwise."""
    uid = next(_fresh)
    c2_reg, m = _matrix_register(f"ana{uid}.C2", c2, trace)
    flag = _Blocks(f"ana{uid}.flag", np.array([[_check_bit(int(homog_flag), "flag")]], np.uint8))
    a2 = _Blocks(f"ana{uid}.A2", np.zeros((m * m, 1), np.uint8))
    if trace is not None:
        trace.track(flag)
        trace.track(a2)
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
        m, n = len(self.p2), self.n
        # iter_masks order one int at a time: per count, combinations of bit weights, highest first
        weights = [1 << i for i in range(n - 1, -1, -1)]
        for lane in (sum(w) for count in range(n, -1, -1) for w in itertools.combinations(weights, count)):
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
    d_regs: Sequence[_Lanes],
    p2_reg: _Blocks,
    trace: GateTrace | None,
) -> np.ndarray:
    """Run the per-mask circuit once over the lanes of ``ones``, S holding ``s_words``.

    Per lane: C2 through nested containment tests, H2 = C2 AND P2, negate
    H2, sweep for the homogeneity flag, conditionally copy C2 into A2,
    then reverse the sweep and the negation so every scratch register
    ends at its preset.  Registers are named ``pfx`` + their name.  Returns
    one (3 * m * m + 2, B) array: the blocks of C2, H2 and A2, then the
    flag block and the not-restored block.
    """
    m2 = len(p2_reg.rows)
    size = (ones.bit_length() + 7) // 8
    all_lanes = _split(ones, size, 1)[0]
    out = np.zeros((3 * m2 + 2, size), np.uint8)
    c2, h2, a2 = (_Blocks(pfx + name, out[i * m2:(i + 1) * m2]) for i, name in enumerate(("C2", "H2", "A2")))
    f = _Blocks(pfx + "F", np.zeros((m2 + 1, size), np.uint8))
    f.rows[0] = all_lanes
    s_reg = _Lanes(pfx + "S", s_words)
    y_reg = _Lanes(pfx + "Y", [0])
    z_reg = _Lanes(pfx + "Z", [0])
    if trace is not None:
        for reg in (s_reg, y_reg, z_reg, c2, h2, f, a2):
            trace.track(reg)

    bad = _containment_scan(s_reg, d_regs, y_reg, z_reg, c2, ones, trace)
    _and_entries(c2, _Blocks(p2_reg.name, p2_reg.rows * all_lanes), h2, trace)
    _negate(h2, all_lanes, trace)
    _sweep(h2, f, trace)
    out[-2] = f.rows[m2]
    _analogy(c2, f, m2, a2, trace)
    _sweep(h2, f, trace, inverse=True)
    _negate(h2, all_lanes, trace)
    out[-1] = _split(bad, size, 1)[0] | (f.rows[0] ^ all_lanes) | np.bitwise_or.reduce(f.rows[1:])
    return out


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
    """
    check_lattice_size(ds.n, n_cap)
    m = ds.m
    d_ints, outcomes = encode(ds, given)
    # each outcome's index in a fixed-width binary code, first appearance first
    width = max(1, int(outcomes.max()).bit_length())

    # the engine's own registers hold bits by construction, so they skip BitRegister's check
    d_regs = [_Lanes(f"D[{j}]", bits) for j, bits in enumerate(_bit_rows(d_ints, ds.n), 1)]
    o_regs = [_Lanes(f"O[{j}]", bits) for j, bits in enumerate(_bit_rows(outcomes, width), 1)]
    v2_reg = _Blocks("V2", np.ones((m * m, 1), np.uint8))
    w2_reg = _Blocks("W2", np.ones((m * m, 1), np.uint8))
    p2_reg = _Blocks("P2", np.zeros((m * m, 1), np.uint8))
    if trace is not None:
        for reg in (*d_regs, *o_regs, v2_reg, w2_reg, p2_reg):
            trace.track(reg)

    _pair_array(d_regs, v2_reg, trace)
    _pair_array(o_regs, w2_reg, trace)
    _and_entries(v2_reg, w2_reg, p2_reg, trace)

    lanes = 1 << ds.n
    order = None if trace is None or trace.truncated else mask_ints(ds.n)
    parts = []

    def run_masks(start: int, stop: int, trace: GateTrace | None) -> None:
        ones, first = (1 << (stop - start)) - 1, start if order is None else int(order[start])
        s_words = _lattice_s_words(ds.n) if order is None else _s_words(order[start:stop], ds.n)
        pfx = f"m{first:0{ds.n}b}."  # a window's registers are named after its first mask
        parts.append((stop - start, _supracontext_circuits(pfx, s_words, ones, d_regs, p2_reg, trace)))

    _run_items(lanes, run_masks, trace)
    blocks = parts[0][1]
    if order is not None:  # the windows ran in iter_masks order: their lanes go to the masks'
        bits = np.empty((len(blocks), lanes), np.uint8)
        bits[:, order] = np.hstack([_unpack_blocks(out, count) for count, out in parts])
        blocks = np.packbits(bits, axis=1, bitorder="little")
    v2, w2, p2 = (reg.rows.reshape(m, m) for reg in (v2_reg, w2_reg, p2_reg))
    return CircuitRun(d_ints, v2, w2, p2, ds.n, blocks)


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
    # every bit from lane L up is 0, so a block's popcount is its count of set lanes
    columns = np.bitwise_count(run.blocks[2 * m * m:-2]).sum(axis=1, dtype=np.int64).reshape(m, m).sum(axis=0)
    # float64 sums are exact here: a total past 2^53 needs more blocks than memory holds
    per_outcome = np.bincount(ds._codes.outcomes, columns, len(ds.outcome_order))
    counts = dict(zip(ds.outcome_order, per_outcome.astype(np.int64).tolist()))
    homogeneous = _unpack_blocks(run.blocks[-2], 1 << n) == 1
    k = _unpack_blocks(run.blocks[: m * m : m + 1], 1 << n).sum(axis=0, dtype=np.min_scalar_type(m))
    return AnalogicalSet(
        verdicts=_LatticeVerdicts(ds, run.d, homogeneous, k),
        outcome_counts=counts,
        total_pointers=sum(counts.values()),
    )
