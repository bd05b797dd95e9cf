"""Tests of the benchmark's own reference computations.

Run with ``python3 -m pytest bench``.
"""

import random
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

import oracle
import workloads
from workloads import TallyTrace, generate, predict_text, sample_expected, Shape
from analogical import (
    Dataset,
    GateTrace,
    analogical_set,
    build_analogy_array,
    build_containment_array,
    build_heterogeneity_array,
    gate_identity,
    gate_ones,
    gate_ones_inverse,
    predict_distribution,
    run_qam_circuit,
    sample_outcome,
)

# The paper's worked example, typed in here rather than read from the package.
WORKED_CONTEXTS = [("o", "m", "s"), ("g", "f", "a"), ("c", "m", "s"),
                   ("c", "m", "a"), ("o", "m", "n"), ("g", "f", "r")]
WORKED_OUTCOMES = ["y", "x", "x", "x", "x", "x"]
WORKED_GIVEN = ("o", "m", "a")


def random_instances(count, seed=0, max_m=10, max_n=6):
    rng = random.Random(seed)
    for _ in range(count):
        m, n = rng.randint(1, max_m), rng.randint(1, max_n)
        labels = ["x", "y", "z"][: rng.randint(1, 3)]
        contexts = [tuple(rng.choice("abc") for _ in range(n)) for _ in range(m)]
        outcomes = [rng.choice(labels) for _ in range(m)]
        given = tuple(rng.choice("abc") for _ in range(n))
        yield contexts, outcomes, given


def test_worked_example_by_hand():
    ref = oracle.pointer_counts(WORKED_CONTEXTS, WORKED_OUTCOMES, WORKED_GIVEN)
    assert ref.counts == {"y": 4, "x": 9}
    assert ref.total == 13
    assert ref.probabilities == {"y": Fraction(4, 13), "x": Fraction(9, 13)}


def test_reference_matches_package_on_random_instances():
    for contexts, outcomes, given in random_instances(300):
        ref = oracle.pointer_counts(contexts, outcomes, given)
        aset = analogical_set(Dataset.from_pairs(zip(contexts, outcomes)), given)
        assert aset.outcome_counts == ref.counts
        assert aset.total_pointers == ref.total
        for v in aset.verdicts:
            value = int("".join(map(str, v.mask)), 2)
            assert v.homogeneous == bool(ref.homogeneous[value])
            assert len(v.members) == ref.members[value]


def test_reference_refuses_sizes_that_could_overflow():
    with pytest.raises(OverflowError):
        oracle.pointer_counts([("a",) * 40] * 2**12, ["x"] * 2**12, ("a",) * 40)


def test_worked_example_gate_count():
    ops = oracle.gate_ops(oracle.gate_tally(m=6, n=3, w=1))
    assert ops == Counter({"not": 4896, "cnot": 1320, "ccnot": 9828})
    assert sum(ops.values()) == 16_044


@pytest.mark.parametrize("seed", range(4))
def test_gate_tally_matches_untruncated_trace(seed):
    rng = random.Random(seed)
    inst = generate(Shape(m=rng.randint(2, 6), n=rng.randint(1, 3), symbols=3,
                          outcomes=rng.randint(1, 3)), rng)
    trace = GateTrace(max_steps=10_000_000)
    run_qam_circuit(inst.ds, inst.givens[0], trace=trace)
    assert not trace.truncated
    tally = oracle.gate_tally(inst.shape.m, inst.shape.n,
                              oracle.outcome_code_width(inst.shape.outcomes))
    ops = oracle.gate_ops(tally)
    assert len(trace.steps) == sum(ops.values())
    assert Counter(step.op for step in trace.steps) == ops

    tally_trace = TallyTrace()
    run_qam_circuit(inst.ds, inst.givens[0], trace=tally_trace)
    assert tally_trace.ops == ops


def test_gate_steps_match_public_step_functions():
    m, n, w = 4, 3, 2
    inst = generate(Shape(m=m, n=n, symbols=2, outcomes=3), random.Random(7))
    per_mask = {s: Counter({op: c >> n for op, c in ops.items()})
                for s, ops in oracle.gate_tally(m, n, w).items()}

    def traced(fn, *args):
        trace = GateTrace(max_steps=10_000_000)
        fn(*args, trace=trace)
        assert not trace.truncated
        return Counter(step.op for step in trace.steps)

    c2 = build_containment_array(inst.ds, inst.givens[0], (1, 0, 1))
    p2 = np.ones((m, m), dtype=np.uint8)
    assert traced(build_containment_array, inst.ds, inst.givens[0], (1, 0, 1)) == per_mask["containment"]
    assert traced(build_heterogeneity_array, c2, p2) == per_mask["heterogeneity"]
    assert traced(build_analogy_array, c2, 1) == per_mask["analogy"]
    h = np.ones((m, m), dtype=np.uint8)
    _, f = gate_ones(h)
    assert traced(gate_ones, h) + traced(gate_ones_inverse, h, f) == per_mask["sweep"]
    assert per_mask["negate"] == Counter({"not": 2 * m * m})
    pair = traced(gate_identity, (0,) * n, (1,) * n) + traced(gate_identity, (0,) * w, (1,) * w)
    assert oracle.gate_tally(m, n, w)["pair_arrays"] == Counter(
        {op: m * m * c for op, c in (pair + Counter(ccnot=1)).items()})


def test_predict_text_matches_documented_report():
    ref = oracle.pointer_counts(WORKED_CONTEXTS, WORKED_OUTCOMES, WORKED_GIVEN)
    assert predict_text(ref) == "y 4/13, x 9/13 (13 pointers)\npointers: y 4, x 9\nmost likely: x\n"


def test_sample_rule_matches_package():
    for contexts, outcomes, given in random_instances(50, seed=1):
        ref = oracle.pointer_counts(contexts, outcomes, given)
        if ref.total == 0:
            continue
        dist = predict_distribution(analogical_set(Dataset.from_pairs(zip(contexts, outcomes)), given))
        for seed in range(5):
            assert sample_expected(ref, seed) == sample_outcome(dist, seed)


def test_every_workload_round_passes_its_checks(tmp_path):
    """One round of each probe workload runs clean, apart from the known faults."""
    from tracing import OFF

    for probe in workloads.PROBES:
        state = probe.setup(3, tmp_path)
        for op in probe.round(state, 0):
            try:
                res = op.run(OFF)
                op.check(OFF, res)
            except Exception:
                assert op.fault, op.name
