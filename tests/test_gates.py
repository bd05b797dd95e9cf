"""Reversible-gate engine: primitives, composites, traces, and the pipeline."""

import hashlib
import itertools
import random
import re
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import given as hgiven
from hypothesis import settings
from hypothesis import strategies as st

from analogical import (
    Dataset,
    GateTrace,
    analogical_set,
    bits_to_int,
    bits_to_str,
    build_analogy_array,
    build_containment_array,
    build_heterogeneity_array,
    contains,
    gate_identity,
    gate_inclusion,
    gate_inclusion_inverse,
    gate_ones,
    gate_ones_inverse,
    int_to_bits,
    iter_masks,
    load_worked_example,
    predict_distribution,
    run_qam_circuit,
    to_analogical_set,
)
from analogical import core, gates, homogeneity
from analogical.core import mask_at, mask_ints
from analogical.gates import CircuitRun, _Blocks, _containment_scan
from helpers import (
    EXPECTED_A2_ONES,
    EXPECTED_COUNTS,
    EXPECTED_H2_010,
    EXPECTED_MEMBERS,
    EXPECTED_P2,
    EXPECTED_TOTAL,
    EXPECTED_V2,
    EXPECTED_W2,
    pair_block,
    random_instance,
)


# --- composite comparators ------------------------------------------------------

@pytest.mark.parametrize("n", [1, 2, 3])
def test_gate_identity_exhaustive(n):
    for u_val, v_val in itertools.product(range(2 ** n), repeat=2):
        u = int_to_bits(u_val, n)
        v = int_to_bits(v_val, n)
        flag, ancilla = gate_identity(u, v)
        assert ancilla == 1
        assert flag == (0 if u == v else 1)


def test_gate_identity_flag_semantics_is_xor():
    # starting from flag 0 the comparator flips it when the registers match
    flag, _ = gate_identity((1, 0), (1, 0), flag=0)
    assert flag == 1
    flag, _ = gate_identity((1, 0), (0, 1), flag=0)
    assert flag == 0


def test_gate_identity_length_mismatch():
    for call in (gate_identity, gate_inclusion):
        with pytest.raises(ValueError, match=r"^length mismatch: 2 vs 3$"):
            call((0, 1), (0, 1, 1))


def test_comparators_check_every_caller_bit():
    for register, call in (
        (r"id\d+\.u", lambda: gate_identity((0, 2), (0, 1))),
        (r"id\d+\.v", lambda: gate_identity((0, 1), (2, 1))),
        (r"id\d+\.flag", lambda: gate_identity((0, 1), (0, 1), flag=2)),
        (r"id\d+\.ancilla", lambda: gate_identity((0, 1), (0, 1), ancilla=2)),
        (r"incl\d+\.mask", lambda: gate_inclusion((0, 2), (0, 1))),
        (r"incl\d+\.d", lambda: gate_inclusion((0, 1), (0, 2))),
    ):
        with pytest.raises(ValueError, match=rf"^register '{register}': bit value 2 is not 0 or 1$"):
            call()
    # a nested register, or a flag or ancilla with a shape, is refused, not flattened
    for args, shapes in (
        (([[0, 1]], (0, 1)), "((1, 2), (2,), (), ())"),
        (((0, 1), (0, 1), 1, [1]), "((2,), (2,), (1,), ())"),
        (((0, 1), (0, 1), [1, 0]), "((2,), (2,), (), (2,))"),
    ):
        with pytest.raises(ValueError) as raised:
            gate_inclusion(*args)
        assert str(raised.value) == f"expected two bit vectors, a flag bit and an ancilla bit, got shapes {shapes}"


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_gate_inclusion_exhaustive_with_inverse(n):
    for mask_val, d_val in itertools.product(range(2 ** n), repeat=2):
        mask = int_to_bits(mask_val, n)
        d = int_to_bits(d_val, n)
        flag, ancilla = gate_inclusion(mask, d)
        assert ancilla == 1
        assert flag == int(contains(mask, d))
        back_flag, back_ancilla = gate_inclusion_inverse(mask, d, ancilla, flag)
        assert (back_flag, back_ancilla) == (0, 1)
        # a set flag preset toggles the same way
        flag1, _ = gate_inclusion(mask, d, flag=1)
        assert flag1 == 1 ^ int(contains(mask, d))


def test_gate_ones_all_ones_vs_zero():
    m = 3
    all_ones = np.ones((m, m), dtype=np.uint8)
    flag, f_matrix = gate_ones(all_ones)
    assert flag == 1
    np.testing.assert_array_equal(f_matrix, all_ones)

    with_zero = all_ones.copy()
    with_zero[1, 2] = 0
    flag, f_matrix = gate_ones(with_zero)
    assert flag == 0
    # the carry chain dies at the first zero and stays dead: row-major
    # positions before (2,3) hold 1, the rest hold 0
    flat = f_matrix.reshape(-1)
    assert list(flat) == [1] * 5 + [0] * 4


def test_gate_ones_trigger_zero_never_fires():
    flag, f_matrix = gate_ones(np.ones((2, 2), dtype=np.uint8), trigger=0)
    assert flag == 0
    assert f_matrix.sum() == 0


def test_gate_ones_inverse_restores():
    h = np.array([[1, 0], [1, 1]], dtype=np.uint8)
    flag, f_matrix = gate_ones(h)
    trigger, back = gate_ones_inverse(h, f_matrix)
    assert trigger == 1
    assert back.sum() == 0
    assert flag == 0


def test_gate_ones_inverse_rejects_f_of_another_shape():
    h = np.ones((2, 2), dtype=np.uint8)
    for f in (np.zeros((1, 1)), np.zeros((3, 3)), np.zeros(4), np.zeros((2, 3))):
        with pytest.raises(ValueError, match=rf"dimension mismatch: H is 2x2, F has shape {re.escape(str(f.shape))}"):
            gate_ones_inverse(h, f)


# --- array builders on the bundled dataset ---------------------------------------

def test_containment_blocks(worked):
    ds, given = worked
    for mask_str, members in EXPECTED_MEMBERS.items():
        c2 = build_containment_array(ds, given, tuple(int(c) for c in mask_str))
        np.testing.assert_array_equal(c2, pair_block(ds.m, members), err_msg=mask_str)


def test_heterogeneity_block_010(worked):
    ds, given = worked
    c2 = build_containment_array(ds, given, (0, 1, 0))
    h2 = build_heterogeneity_array(c2, EXPECTED_P2)
    np.testing.assert_array_equal(h2, EXPECTED_H2_010)


def test_heterogeneity_dimension_mismatch():
    with pytest.raises(ValueError, match=r"^dimension mismatch: 2x2 vs 3x3$"):
        build_heterogeneity_array(np.zeros((2, 2)), np.zeros((3, 3)))


def test_builders_refuse_a_matrix_that_is_not_square():
    for call in (
        lambda: build_heterogeneity_array(np.zeros((2, 3)), np.zeros((2, 2))),
        lambda: build_heterogeneity_array(np.zeros((2, 2)), np.zeros((2, 3))),
        lambda: gate_ones(np.ones((2, 3))),
        lambda: gate_ones_inverse(np.ones((2, 3)), np.zeros((2, 3))),
        lambda: build_analogy_array(np.zeros((2, 3)), 1),
    ):
        with pytest.raises(ValueError, match=r"^expected a square bit matrix, got shape \(2, 3\)$"):
            call()
    with pytest.raises(ValueError, match=r"^expected a square bit matrix, got shape \(4,\)$"):
        build_analogy_array([0, 1, 1, 0], 1)


def test_builders_name_the_register_of_a_stray_bit(worked):
    ds, given = worked
    c2 = build_containment_array(ds, given, (0, 1, 0))
    stray = c2.copy()
    stray[2, 1] = 2
    for register, bit, call in (
        (r"cont\d+\.S", "2", lambda: build_containment_array(ds, given, (0, 2, 0))),
        (r"het\d+\.C2", "2", lambda: build_heterogeneity_array(stray, c2)),
        (r"het\d+\.P2", "2", lambda: build_heterogeneity_array(c2, stray)),
        (r"ones\d+\.H", "2", lambda: gate_ones(stray)),
        (r"ones\d+\.F", "2", lambda: gate_ones(c2, trigger=2)),
        (r"ones\d+\.F", "2", lambda: gate_ones_inverse(c2, stray)),
        (r"ones\d+\.F", "2", lambda: gate_ones_inverse(c2, c2, trigger=2)),
        (r"ana\d+\.C2", "2", lambda: build_analogy_array(stray, 1)),
        (r"ana\d+\.flag", "2", lambda: build_analogy_array(c2, 2)),
        # a fractional flag is refused, not truncated to a bit
        (r"ana\d+\.flag", r"0\.5", lambda: build_analogy_array(c2, 0.5)),
        (r"ana\d+\.flag", r"1\.7", lambda: build_analogy_array(c2, 1.7)),
    ):
        with pytest.raises(ValueError, match=rf"^register '{register}': bit value {bit} is not 0 or 1$"):
            call()


def test_analogy_array_gating():
    c2 = pair_block(3, (1, 3))
    for flag in (1, True, np.uint8(1)):
        np.testing.assert_array_equal(build_analogy_array(c2, flag), c2)
    with pytest.raises(ValueError, match=r"^expected one homogeneity flag, got shape \(2,\)$"):
        build_analogy_array(c2, [1, 0])
    assert build_analogy_array(c2, 0).sum() == 0


# --- full pipeline -----------------------------------------------------------------

def test_pipeline_pair_arrays(worked):
    ds, given = worked
    run = run_qam_circuit(ds, given)
    np.testing.assert_array_equal(run.v2, EXPECTED_V2)
    np.testing.assert_array_equal(run.w2, EXPECTED_W2)
    np.testing.assert_array_equal(run.p2, EXPECTED_P2)


def test_pipeline_per_mask_blocks(worked):
    ds, given = worked
    run = run_qam_circuit(ds, given)
    assert len(run.results) == 8
    for r in run.results:
        key = bits_to_str(r.mask)
        np.testing.assert_array_equal(r.c2, pair_block(ds.m, EXPECTED_MEMBERS[key]))
        assert int(r.a2.sum()) == EXPECTED_A2_ONES[key]
        assert r.ancillas_restored
        if key == "010":
            np.testing.assert_array_equal(r.h2, EXPECTED_H2_010)
        if r.homogeneous:
            np.testing.assert_array_equal(r.a2, r.c2)
        else:
            assert r.a2.sum() == 0


def test_pipeline_counts(worked):
    ds, given = worked
    aset = to_analogical_set(run_qam_circuit(ds, given), ds)
    assert aset.outcome_counts == EXPECTED_COUNTS
    assert aset.total_pointers == EXPECTED_TOTAL


def test_pair_arrays_symmetric_zero_diagonal():
    rng = random.Random(5)
    for _ in range(25):
        ds, given = random_instance(rng, max_m=6, max_n=3)
        run = run_qam_circuit(ds, given)
        for matrix in (run.v2, run.w2, run.p2):
            np.testing.assert_array_equal(matrix, matrix.T)
            assert np.diag(matrix).sum() == 0


def test_engines_agree_on_random_instances():
    rng = random.Random(17)
    for _ in range(40):
        ds, given = random_instance(rng, max_m=6, max_n=3)
        run = run_qam_circuit(ds, given)
        fast = analogical_set(ds, given)
        gate = to_analogical_set(run, ds)
        assert gate.outcome_counts == fast.outcome_counts
        assert gate.total_pointers == fast.total_pointers
        for gv, fv in zip(gate.verdicts, fast.verdicts):
            assert (gv.mask, gv.members, gv.homogeneous) == (fv.mask, fv.members, fv.homogeneous)
        assert (
            predict_distribution(gate).probabilities
            == predict_distribution(fast).probabilities
        )


def test_three_outcome_codes_distinct():
    ds = Dataset.from_pairs([(("a",), "x"), (("b",), "y"), (("c",), "z")])
    aset = to_analogical_set(run_qam_circuit(ds, ("a",)), ds)
    fast = analogical_set(ds, ("a",))
    assert aset.outcome_counts == fast.outcome_counts


# --- traces ------------------------------------------------------------------------

def test_trace_replay_and_inverse():
    ds = Dataset.from_pairs([(("a",), "x"), (("b",), "y")])
    trace = GateTrace()
    run = run_qam_circuit(ds, ("a",), trace=trace)
    assert not trace.truncated
    assert len(trace.steps) > 0

    final = trace.replay()
    # the live pair arrays match the replayed flat registers
    assert final["P2"] == [int(b) for b in run.p2.reshape(-1)]
    for r in run.results:
        name = f"m{bits_to_str(r.mask)}.A2"
        assert final[name] == [int(b) for b in r.a2.reshape(-1)]

    back = trace.replay_inverse(final)
    assert back == {name: list(bits) for name, bits in trace.initial.items()}
    # with no state given, the inverse starts from the replayed final state
    assert trace.replay_inverse() == back


def test_trace_truncation_refuses_replay():
    ds = Dataset.from_pairs([(("a",), "x"), (("b",), "y")])
    trace = GateTrace(max_steps=10)
    run_qam_circuit(ds, ("a",), trace=trace)
    assert trace.truncated
    for replay in (trace.replay, trace.replay_inverse):
        with pytest.raises(RuntimeError, match=r"^trace was truncated at max_steps and cannot replay$"):
            replay()


def test_composite_traces_cover_scratch():
    trace = GateTrace()
    flag, ancilla = gate_inclusion((1, 0), (0, 1), trace=trace)
    assert (flag, ancilla) == (1, 1)
    final = trace.replay()
    scratch_names = [name for name in final if ".scratch" in name or ".chain" in name]
    assert scratch_names
    for name in scratch_names:
        # chains keep their ancilla seed; everything else is uncomputed
        body = final[name][1:] if ".chain" in name else final[name]
        assert all(b == 0 for b in body)


_C2_010 = pair_block(6, EXPECTED_MEMBERS["010"])
_H_010 = 1 - EXPECTED_H2_010  # the negated H2 that the sweep reads, four entries 0
_F_010 = gate_ones(_H_010)[1]

# each public builder on the worked example's mask 010: its call with a trace, the
# name of its output register, and that register's bits read off what the call returns
_BUILDERS = {
    "containment": (lambda t: build_containment_array(*load_worked_example(), (0, 1, 0), trace=t), "C2", None),
    "heterogeneity": (lambda t: build_heterogeneity_array(_C2_010, EXPECTED_P2, trace=t), "H2", None),
    "ones": (lambda t: gate_ones(_H_010, trace=t), "F", lambda out: np.append(1, out[1])),
    "ones-inverse": (lambda t: gate_ones_inverse(_H_010, _F_010, trace=t), "F", lambda out: np.append(*out)),
    "analogy": (lambda t: build_analogy_array(_C2_010, 1, trace=t), "A2", None),
    "identity": (lambda t: gate_identity((0, 1, 1), (0, 1, 1), trace=t), "flag", lambda out: out[0]),
}


@pytest.mark.parametrize("builder", list(_BUILDERS))
def test_public_builders_replay_under_a_trace(builder):
    call, register, read = _BUILDERS[builder]
    trace = GateTrace()
    out = call(trace)
    assert not trace.truncated and trace.steps
    final = trace.replay()
    (name,) = [name for name in final if name.endswith("." + register)]
    assert final[name] == np.ravel(out if read is None else read(out)).tolist()
    assert trace.replay_inverse() == {name: list(bits) for name, bits in trace.initial.items()}
    assert trace.tally == Counter(step.op for step in trace.steps)


def test_trace_tally_counts_every_gate(worked):
    ds, given = worked
    full = GateTrace()
    run_qam_circuit(ds, given, trace=full)
    assert not full.truncated
    assert sum(full.tally.values()) == len(full.steps) == 16_044
    assert full.tally == Counter(step.op for step in full.steps)

    cut = GateTrace(max_steps=10)
    run_qam_circuit(ds, given, trace=cut)
    assert cut.truncated
    assert len(cut.steps) == 10
    assert cut.tally == full.tally


# SHA-256 of repr([(op, operands, before, after), ...]) over every step of the
# worked example's full trace, with the scratch-register numbering started at 0
WORKED_TRACE_SHA256 = "185ce2e8b60604294530004c34755c013a9b2fb7487cf7dfe874d30d4ebf454e"

# the same over a duplicated exemplar and 2-bit outcome codes
DUPLICATED = (
    Dataset.from_pairs([
        (("a", "b"), "p"), (("a", "b"), "p"), (("a", "c"), "q"), (("d", "b"), "r"), (("d", "c"), "q"),
    ]),
    ("a", "b"),
)
DUPLICATED_TRACE_SHA256 = "21b5ea6fc54c7b1b25d77361d55873ceccf14c1e74066a501d1859f8246b339e"


def _numbered_trace(ds, given, monkeypatch, **kwargs):
    """Run with a trace, numbering scratch registers from 0 so step operands repeat across runs."""
    monkeypatch.setattr(gates, "_fresh", itertools.count())
    trace = GateTrace(**kwargs)
    return run_qam_circuit(ds, given, trace=trace), trace


def _step_tuples(trace):
    return [(s.op, s.operands, s.target_before, s.target_after) for s in trace.steps]


@pytest.mark.parametrize("instance, steps, sha256", [
    pytest.param(load_worked_example(), 16_044, WORKED_TRACE_SHA256, id="worked"),
    pytest.param(DUPLICATED, 4_695, DUPLICATED_TRACE_SHA256, id="duplicated"),
])
def test_trace_steps_are_pinned(instance, steps, sha256, monkeypatch):
    ds, given = instance
    _, trace = _numbered_trace(ds, given, monkeypatch)
    assert not trace.truncated and len(trace.steps) == steps
    digest = hashlib.sha256(repr(_step_tuples(trace)).encode()).hexdigest()
    assert digest == sha256


def test_truncation_anywhere_keeps_results_steps_and_tally(worked, monkeypatch):
    # cut points inside V2, W2 and P2 (steps 0-1259), inside the first mask's
    # containment scan (1260-2891, 272 steps per row) and sweep (to 3107), and
    # inside later masks; the rows left after a cut in the scan run as one window
    ds, given = worked
    untraced = _circuit_fields(run_qam_circuit(ds, given))
    _, full = _numbered_trace(ds, given, monkeypatch)
    steps = _step_tuples(full)
    for cut in (0, 1, 10, 30, 900, 1249, 1259, 1260, 1261, 1300, 1340, 1500, 2000, 2500,
                3107, 3108, 3200, 5000, 16_043):
        run, trace = _numbered_trace(ds, given, monkeypatch, max_steps=cut)
        assert trace.truncated, cut
        assert _step_tuples(trace) == steps[:cut], cut
        assert trace.tally == full.tally, cut
        assert _circuit_fields(run) == untraced, cut


class _CountingTrace(GateTrace):
    """A trace that counts the gates handed to :meth:`record`."""

    calls = 0

    def record(self, *args) -> None:
        self.calls += 1
        super().record(*args)


def test_truncated_trace_runs_the_rest_untraced(worked):
    ds, given = worked
    untraced = run_qam_circuit(ds, given)
    cut = _CountingTrace(max_steps=10)
    run = run_qam_circuit(ds, given, trace=cut)
    assert _circuit_fields(run) == _circuit_fields(untraced)
    assert to_analogical_set(run, ds).verdicts == to_analogical_set(untraced, ds).verdicts
    assert cut.truncated and len(cut.steps) == 10
    assert sum(cut.tally.values()) == 16_044
    # the pair arrays and the first mask are traced; the other seven masks run as lanes
    assert cut.calls < 16_044 // 4


def test_truncated_trace_stops_recording_at_the_cut(worked):
    ds, given = worked
    full = GateTrace()
    run_qam_circuit(ds, given, trace=full)
    untraced = _circuit_fields(run_qam_circuit(ds, given))
    # in the first pair comparator, in the P2 loop and in mask 0's forward sweep
    for max_steps, target in ((10, "cmp"), (1240, "P2"), (2980, f"m{bits_to_str(mask_at(ds.n, 0))}.F")):
        assert full.steps[max_steps].operands[-1][0].startswith(target)
        cut = _CountingTrace(max_steps=max_steps)
        run = run_qam_circuit(ds, given, trace=cut)
        # the gate after the cut truncates the trace; the rest of the running
        # comparator or array loop, and every item after it, only add to the tally
        assert cut.calls == max_steps + 1, target
        assert cut.tally == full.tally and sum(cut.tally.values()) == 16_044
        assert _circuit_fields(run) == untraced


def test_truncated_trace_skips_the_array_loops_of_a_cut_mask(worked):
    ds, given = worked
    comparator = GateTrace()
    gate_inclusion((0,) * ds.n, (1,) * ds.n, trace=comparator)
    gates_per_test = len(comparator.steps)
    full = GateTrace()
    run_qam_circuit(ds, given, trace=full)
    scan = next(i for i, s in enumerate(full.steps) if s.operands[0][0] == f"m{bits_to_str(mask_at(ds.n, 0))}.S")
    # one gate into the second Z test of item (1, 1): after Y, Z and the Toffoli
    cut_at = scan + 2 * gates_per_test + 2
    cut = _CountingTrace(max_steps=cut_at)
    run = run_qam_circuit(ds, given, trace=cut)
    assert cut.truncated and len(cut.steps) == cut_at
    # the gate after the cut truncates the trace; the rest of that Z test,
    # the Y test that closes row 1 and mask 0's array loops only add to the tally
    assert cut.calls == cut_at + 1
    assert cut.tally == full.tally
    assert _circuit_fields(run) == _circuit_fields(run_qam_circuit(ds, given))


def test_untraced_run_calls_the_comparator_6_times(worked, monkeypatch):
    rng = random.Random(60)
    pairs = [(tuple(rng.choice("abc") for _ in range(8)), rng.choice("pqr")) for _ in range(60)]
    wide = Dataset.from_pairs(pairs), tuple(rng.choice("abc") for _ in range(8))
    calls = []
    apply = gates._comparator_apply
    monkeypatch.setattr(gates, "_comparator_apply", lambda *args: calls.append(args[0]) or apply(*args))
    for ds, given in (worked, wide):
        calls.clear()
        run = run_qam_circuit(ds, given)
        # V2 and W2 once each over m^2 pair lanes; the two Y tests over
        # (j, mask) lanes and the two Z tests over (j', mask) lanes
        assert len(calls) == 6, ds.m
        assert to_analogical_set(run, ds).outcome_counts == analogical_set(ds, given).outcome_counts


def test_readout_rejects_a_dataset_of_another_shape(worked):
    ds, given = worked
    run = run_qam_circuit(ds, given)
    fewer = Dataset.from_pairs([(e.context, e.outcome) for e in ds.exemplars[:4]])
    wider = Dataset.from_pairs([(e.context + ("x",), e.outcome) for e in ds.exemplars])
    for other in (fewer, wider):
        with pytest.raises(ValueError, match=f"6 exemplars and 3 features.*{other.m} and {other.n}"):
            to_analogical_set(run, other)


def test_readback_unpacks_only_the_pair_arrays(worked, monkeypatch):
    ds, given = worked
    run = run_qam_circuit(ds, given)
    unpacked = []
    unpack = gates._unpack_blocks
    monkeypatch.setattr(gates, "_unpack_blocks", lambda rows, lanes: unpacked.append(len(rows)) or unpack(rows, lanes))
    aset = to_analogical_set(run, ds)
    predict_distribution(aset)
    assert aset.outcome_counts == EXPECTED_COUNTS
    assert [v.members for v in aset.verdicts] == [
        EXPECTED_MEMBERS[bits_to_str(v.mask)] for v in aset.verdicts
    ]
    # counts are popcounts of the A2 blocks, and verdicts unpack only the flag
    # block and the m diagonal blocks of C2: no register is unpacked whole
    assert unpacked and max(unpacked) == ds.m
    unpacked.clear()
    # results read each mask from its lane, unpacking no register; a second read reuses them
    assert run.results is run.results
    assert len(run.results) == 8 and max(unpacked, default=0) < ds.m * ds.m


def test_runs_and_results_compare_by_identity(worked):
    ds, given = worked
    first, second = run_qam_circuit(ds, given), run_qam_circuit(ds, given)
    assert (first == first) is True and (first == second) is False
    assert (first.results[0] == first.results[0]) is True
    assert (first.results[0] == second.results[0]) is False
    assert len({first, second, *first.results, *second.results}) == 2 + 2 * len(first.results)


def test_lanes_read_each_mask_from_its_own_lane():
    # random blocks over 1024 lanes: every field a mask reads is its own lane's bit
    m, n = 3, 10
    bits = np.random.default_rng(3).integers(0, 2, (3 * m * m + 2, 1 << n), dtype=np.uint8)
    blocks = np.packbits(bits, axis=1, bitorder="little")
    pairs = np.zeros((m, m), np.uint8)
    run = CircuitRun(np.zeros(m, np.int64), pairs, pairs, pairs, n, blocks)
    read = list(run.lanes())
    assert [lane for lane, *_ in read] == mask_ints(n).tolist()
    for (lane, c2, h2, flag, a2, restored), result in zip(read, run.results):
        column = bits[:, lane]
        assert np.array_equal(np.concatenate([c2, h2, a2]).reshape(-1), column[:-2])
        assert c2.shape == (m, m) and (flag, restored) == (bool(column[-2]), not column[-1])
        assert result.mask == int_to_bits(lane, n) and np.array_equal(result.a2, a2)
        assert (result.homogeneous, result.ancillas_restored) == (flag, restored)
    assert [r.mask for r in run.results] == list(iter_masks(n))


def test_first_lane_reads_the_blocks_in_place():
    # the blocks hold 1.5 MiB at m=8 n=16; reading one lane copies neither them nor a table of 2^n masks
    rng = random.Random(16)
    m, n = 8, 16
    ds = Dataset.from_pairs([(tuple(rng.choice("ab") for _ in range(n)), rng.choice("xyz")) for _ in range(m)])
    run = run_qam_circuit(ds, tuple(rng.choice("ab") for _ in range(n)))
    tracemalloc.start()
    try:
        lane, *_ = next(run.lanes())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert lane == (1 << n) - 1
    assert peak < run.blocks.nbytes / 10


# --- the lane engine -----------------------------------------------------------------

def _lane_instances():
    """Seeded instances covering m=1, duplicates, one outcome and wide outcome codes."""
    rng = random.Random(41)
    yield Dataset.from_pairs([(("a", "b"), "x")]), ("a", "c")
    yield Dataset.from_pairs([(("a", "b"), "x")] * 3 + [(("a", "c"), "y")] * 2), ("a", "b")
    yield Dataset.from_pairs([((c,), "x") for c in "abca"]), ("b",)
    yield Dataset.from_pairs([((c, d), o) for c, d, o in zip("abab", "aabb", "pqrs")]), ("a", "b")
    for _ in range(70):
        yield random_instance(rng, max_m=6, max_n=4)
    for _ in range(30):
        m, n = rng.randint(1, 6), rng.randint(1, 3)
        labels = "pqrst"[: rng.randint(4, 5)]
        pairs = [(tuple(rng.choice("ab") for _ in range(n)), rng.choice(labels)) for _ in range(m)]
        yield Dataset.from_pairs(pairs), tuple(rng.choice("ab") for _ in range(n))


def _circuit_fields(run):
    return (
        [matrix.tolist() for matrix in (run.v2, run.w2, run.p2)],
        [(r.mask, r.c2.tolist(), r.h2.tolist(), r.a2.tolist(), r.homogeneous, r.ancillas_restored)
         for r in run.results],
    )


def test_lanes_match_mask_by_mask():
    instances = list(_lane_instances())
    assert len(instances) >= 100
    assert any(len(ds.outcome_order) >= 4 for ds, _ in instances)
    for ds, given in instances:
        lanes = run_qam_circuit(ds, given)
        # cut in the first pair comparator: every item after it runs as lanes
        cut = run_qam_circuit(ds, given, trace=GateTrace(max_steps=0))
        assert _circuit_fields(lanes) == _circuit_fields(cut)


class _TallyTrace(GateTrace):
    """A trace that counts the gates handed to it but stores none, so it is never truncated."""

    calls = 0

    def record(self, op, operands, before, after) -> None:
        self.calls += 1


def test_a_trace_that_stores_nothing_still_tallies_every_gate(worked):
    ds, given = worked
    trace = _TallyTrace()
    run_qam_circuit(ds, given, trace=trace)
    assert trace.tally == Counter({"cnot": 1320, "not": 4896, "ccnot": 9828})
    assert trace.calls == 16_044 and not trace.truncated


def test_lanes_match_traced_mask_by_mask():
    for ds, given in _lane_instances():
        trace = _TallyTrace()
        one_by_one = run_qam_circuit(ds, given, trace=trace)
        assert not trace.truncated
        assert _circuit_fields(run_qam_circuit(ds, given)) == _circuit_fields(one_by_one)


class _CutTrace(GateTrace):
    """A trace that counts the gates handed to it but stores none, truncated after ``max_steps`` of them."""

    calls = 0

    def record(self, op, operands, before, after) -> None:
        self.calls += 1
        self.truncated = self.calls >= self.max_steps


def test_rows_left_after_a_cut_in_the_scan_match_traced_mask_by_mask():
    for ds, given in _lane_instances():
        full = GateTrace(max_steps=10**7)
        one_by_one = run_qam_circuit(ds, given, trace=full)
        pfx = f"m{bits_to_str(mask_at(ds.n, 0))}."
        scan = next(i for i, s in enumerate(full.steps) if s.operands[0][0] == pfx + "S")
        row = (next(i for i, s in enumerate(full.steps) if s.operands[-1][0] == pfx + "H2") - scan) // ds.m
        # halfway through row 1, and in row 2's first Y test: the rows left
        # run as one window whose Z tests every row shares
        for cut_at in (scan + row // 2, scan + row + 1):
            cut = _CutTrace(max_steps=cut_at)
            run = run_qam_circuit(ds, given, trace=cut)
            assert cut.truncated and cut.tally == full.tally, cut_at
            assert _circuit_fields(run) == _circuit_fields(one_by_one), cut_at


@st.composite
def _small_instances(draw):
    m, n = draw(st.integers(1, 7)), draw(st.integers(1, 4))
    symbols = st.sampled_from("abc")
    context = st.tuples(*[symbols] * n)
    pairs = draw(st.lists(st.tuples(context, st.sampled_from("pqrst")), min_size=m, max_size=m))
    return Dataset.from_pairs(pairs), draw(context)


@settings(max_examples=60, deadline=None)
@hgiven(_small_instances())
def test_random_datasets_match_traced_runs_and_the_fast_engine(instance):
    ds, given = instance
    untraced = run_qam_circuit(ds, given)
    assert _circuit_fields(untraced) == _circuit_fields(run_qam_circuit(ds, given, trace=_TallyTrace()))
    assert to_analogical_set(untraced, ds).outcome_counts == analogical_set(ds, given).outcome_counts


@st.composite
def _pair_lane_instances(draw):
    """m = 1-20 exemplars drawn with repeats from a pool, n = 1-6 features, outcome codes 1-3 bits wide."""
    m, n = draw(st.integers(1, 20)), draw(st.integers(1, 6))
    context = st.tuples(*[st.sampled_from("ab")] * n)
    labels = "pqrstuvw"[: draw(st.integers(1, 8))]
    pool = draw(st.lists(st.tuples(context, st.sampled_from(labels)), min_size=1, max_size=m))
    pairs = [pool[i] for i in draw(st.lists(st.integers(0, len(pool) - 1), min_size=m, max_size=m))]
    return Dataset.from_pairs(pairs), draw(context)


@settings(max_examples=20, deadline=None)
@hgiven(_pair_lane_instances(), st.data())
def test_pair_and_scan_words_match_traced_runs_and_gate_identity(instance, data):
    # V2 and W2 come from column words by arithmetic, over m^2 pair lanes (m^2
    # not always whole bytes), and the scan's words from S and D's bit array:
    # a traced run takes every pair, mask and row in windows of one item
    ds, given = instance
    m, n = ds.m, ds.n
    fields = lambda run: [run.v2.tolist(), run.w2.tolist(), run.p2.tolist(), run.blocks.tolist()]
    untraced = run_qam_circuit(ds, given)
    full = _TallyTrace()
    assert fields(run_qam_circuit(ds, given, trace=full)) == fields(untraced)
    d, outcomes = core.encode(ds, given)
    width = max(1, int(outcomes.max()).bit_length())
    d_regs = [int_to_bits(int(v), n) for v in d]
    o_regs = [int_to_bits(int(v), width) for v in outcomes]
    for j, k in itertools.product(range(m), repeat=2):
        assert untraced.v2[j, k] == gate_identity(d_regs[j], d_regs[k])[0]
        assert untraced.w2[j, k] == gate_identity(o_regs[j], o_regs[k])[0]
    # a cut inside V2, W2 or the first mask's scan: identity comparators of 8n + 1
    # gates, containment tests of 6n + 1, and one Toffoli per entry
    pairs = m * m * (8 * n + 1 + 8 * width + 1 + 1)
    scan = 2 * m * (6 * n + 1) + m * m * (2 * (6 * n + 1) + 1)
    cut = GateTrace(max_steps=data.draw(st.integers(0, pairs + scan - 1)))
    assert fields(run_qam_circuit(ds, given, trace=cut)) == fields(untraced)
    assert cut.truncated and cut.tally == full.tally


def test_untraced_run_builds_as_many_registers_at_any_m(monkeypatch):
    # D and O are bit arrays and the comparators' registers lists of words,
    # so no register object is built per exemplar
    built = []
    for cls in [c for c in vars(gates).values() if isinstance(c, type) and "name" in getattr(c, "__slots__", ())]:
        init = lambda self, *args, _init=cls.__init__: built.append(type(self).__name__) or _init(self, *args)
        monkeypatch.setattr(cls, "__init__", init)
    counts = []
    for m in (6, 60):
        rng = random.Random(m)
        ds = Dataset.from_pairs([(tuple(rng.choice("ab") for _ in range(4)), rng.choice("xyz")) for _ in range(m)])
        built.clear()
        run_qam_circuit(ds, tuple(rng.choice("ab") for _ in range(4)))
        counts.append(len(built))
    assert built and counts[0] == counts[1]


@pytest.mark.parametrize("n, m", [(1, 12), (2, 9), (3, 12), (5, 8), (6, 5), (7, 3), (9, 4)])
def test_blocks_keep_padding_lanes_clear(n, m):
    # L = 2^n lanes in blocks of B = ceil(L / 8) bytes: a partial byte for
    # n = 1 and 2, one full byte for n = 3, and 4, 8, 16 and 64 bytes for
    # n = 5-7 and 9.  From n = 6 the untraced forward sweep runs on 64-bit
    # words, the traced one-lane windows (B = 1) on bytes
    rng = random.Random(100 * n + m)
    pairs = [(tuple(rng.choice("ab") for _ in range(n)), rng.choice("xyz")) for _ in range(m)]
    ds, given = Dataset.from_pairs(pairs), tuple(rng.choice("ab") for _ in range(n))
    lanes = 2 ** n
    fast = analogical_set(ds, given)
    trace = _TallyTrace()
    one_by_one = _circuit_fields(run_qam_circuit(ds, given, trace=trace))
    steps = sum(trace.tally.values())
    # untraced, and cut two fifths of the way in, inside mask 0, 1, 2, 12, 25, 50 and
    # 204 for these n: the masks left then run as lanes, one per mask int
    cut = _CutTrace(max_steps=steps * 2 // 5)
    for run in (run_qam_circuit(ds, given), run_qam_circuit(ds, given, trace=cut)):
        assert _circuit_fields(run) == one_by_one
        assert run.blocks.shape == (3 * m * m + 2, -(-lanes // 8))
        assert not np.unpackbits(run.blocks, axis=-1, bitorder="little")[:, lanes:].any()
        # lane l is mask int l: the flags and the C2 diagonal's lane counts are the fast engine's record
        flags = np.unpackbits(run.blocks[-2], count=lanes, bitorder="little")
        c2 = np.unpackbits(run.blocks[: m * m], axis=-1, count=lanes, bitorder="little")
        assert np.array_equal(flags == 1, fast.verdicts.homogeneous)
        assert np.array_equal(c2[:: m + 1].sum(axis=0), fast.verdicts.k)
        # results keep iter_masks order, each read from its mask's lane
        assert [r.mask for r in run.results] == list(iter_masks(n))
        for r in run.results:
            lane = bits_to_int(r.mask)
            assert r.homogeneous == flags[lane] and np.array_equal(r.c2.reshape(-1), c2[:, lane])
        # pointer counts are popcounts of whole A2 blocks
        assert to_analogical_set(run, ds).outcome_counts == fast.outcome_counts
    assert cut.truncated and cut.tally == trace.tally


@pytest.mark.parametrize("cut", [False, True])
def test_runs_build_no_mask_table(monkeypatch, cut):
    # lane l runs mask int l, so neither the run nor its readback walks
    # iter_masks or keeps a 2^n table of mask tuples (3.4 MB here); nor
    # does a run whose trace is cut before the masks, as `gates --trace` makes
    rng = random.Random(14)
    n = 14
    ds = Dataset.from_pairs([(tuple(rng.choice("ab") for _ in range(n)), o) for o in "xy"])
    given = tuple(rng.choice("ab") for _ in range(n))
    expected = predict_distribution(analogical_set(ds, given))  # also builds the dataset's codes

    def refuse(n):
        raise AssertionError("the mask order walked")

    for module in (core, homogeneity):  # where it is defined, and the one module that imports it
        monkeypatch.setattr(module, "iter_masks", refuse)
    for module in (core, gates):  # the generator behind it, and the module that imports that
        monkeypatch.setattr(module, "_mask_chunks", refuse)
    trace = GateTrace(max_steps=0) if cut else None
    tracemalloc.start()
    try:
        dist = predict_distribution(to_analogical_set(run_qam_circuit(ds, given, trace=trace), ds))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert dist == expected
    assert peak < 1 << 20


def test_a_cut_inside_the_masks_costs_the_memory_of_an_untraced_run():
    # the masks that ran alone keep a column of outputs each, and the rest
    # run in the lattice's one window: no 2^n order array, and no scatter
    rng = random.Random(8)
    m, n = 8, 14
    ds = Dataset.from_pairs([(tuple(rng.choice("ab") for _ in range(n)), rng.choice("xyz")) for _ in range(m)])
    given = tuple(rng.choice("ab") for _ in range(n))
    width = max(1, int(core.encode(ds, given)[1].max()).bit_length())
    pairs = m * m * (8 * n + 1 + 8 * width + 1 + 1)  # the gates of V2, W2 and P2

    def peak(trace):
        tracemalloc.start()
        try:
            run_qam_circuit(ds, given, trace=trace)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    run_qam_circuit(ds, given)  # builds the dataset's codes and the lattice's S words
    untraced = peak(None)
    cut = _CutTrace(max_steps=pairs + 30_000)
    traced = peak(cut)
    alone = {name.split(".")[0] for name in cut.initial if name.startswith("m")}
    assert cut.truncated and len(alone) == 3, alone
    assert traced <= 1.5 * untraced, (traced, untraced)


def test_a_mask_that_reads_otherwise_alone_fails_the_run(worked, monkeypatch):
    ds, given = worked
    circuits = gates._supracontext_circuits

    def flip_one_lane_flags(pfx, s_words, ones, *args):
        out = circuits(pfx, s_words, ones, *args)
        if ones == 1:  # a mask run in a lane of its own
            out[-2, 0] ^= 1
        return out

    monkeypatch.setattr(gates, "_supracontext_circuits", flip_one_lane_flags)
    with pytest.raises(AssertionError, match=f"mask {bits_to_str(mask_at(ds.n, 0))} ran differently"):
        run_qam_circuit(ds, given, trace=GateTrace())
    # untraced, no mask runs alone
    assert to_analogical_set(run_qam_circuit(ds, given), ds).outcome_counts == EXPECTED_COUNTS


def test_lanes_restore_every_ancilla():
    for ds, given in _lane_instances():
        run = run_qam_circuit(ds, given)
        assert len(run.results) == 2 ** ds.n
        assert all(r.ancillas_restored is True for r in run.results)


def test_restoration_check_is_per_lane():
    # three masks over one feature; only lane 1 starts with its Y flag set,
    # so only lane 1 can report a flag that did not return to its preset
    d_bits = np.array([[0]], np.uint8)
    c2_reg = _Blocks("C2", np.zeros((1, 1), np.uint8))
    bad = _containment_scan([0b101], d_bits, 0b010, 0, c2_reg, 0b111, None)
    assert bad == 0b010


def test_containment_lanes_match_the_serial_loop_off_preset():
    # lane 2 starts with Z set, so Z is off its preset after every test there
    def scan(trace):
        s_words, y, z = [0b101, 0b011], 0, 0b100
        c2_reg = _Blocks("C2", np.zeros((4, 1), np.uint8))
        d_bits = np.array([[0, 1], [0, 0]], np.uint8)  # D[1] and D[2]
        bad = _containment_scan(s_words, d_bits, y, z, c2_reg, 0b111, trace)
        # the scan tests copies of Y and Z, so their words are what they were
        return bad, c2_reg.bits, y, z

    trace = _TallyTrace()
    assert scan(None) == scan(trace)
    assert scan(None)[0] == 0b100
    assert not trace.truncated and trace.tally["ccnot"] > 0
