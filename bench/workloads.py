"""Seeded inputs, operations and output checks of the four workloads.

Every workload loads one dataset and then predicts a fixed seeded
sequence of given contexts, one operation at a time.  An operation's
outputs are checked against :mod:`oracle`, which shares no code with the
package.  Operations come in rounds; a run always ends on a whole round.
"""

from __future__ import annotations

import io
import json
import math
import random
import sys
import tracemalloc
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import analogical  # noqa: E402
from analogical import (  # noqa: E402
    Dataset,
    GateTrace,
    agreement,
    analogical_set,
    difference_vector,
    disagreement,
    entropy,
    is_homogeneous_determinism,
    is_homogeneous_disagreement,
    is_homogeneous_plurality,
    is_homogeneous_pointer,
    iter_masks,
    parse_dataset,
    pointer_heterogeneity_matrix,
    predict_distribution,
    run_qam_circuit,
    to_analogical_set,
    two_step_distribution,
)
from analogical import cli  # noqa: E402

import oracle  # noqa: E402

GIVENS = 16  # given contexts drawn per dataset; operations cycle through them


class CheckFailed(AssertionError):
    """An operation's output disagrees with the independent computation."""


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


# --- inputs -------------------------------------------------------------------

@dataclass(frozen=True)
class Shape:
    m: int  # exemplars
    n: int  # features
    symbols: int  # feature alphabet size
    outcomes: int


LATTICE_WIDE = Shape(m=24, n=15, symbols=2, outcomes=2)
EXEMPLARS_TALL = Shape(m=2000, n=8, symbols=4, outcomes=3)
GATE_CIRCUIT = Shape(m=16, n=6, symbols=2, outcomes=3)
CLI_LARGE = Shape(m=60, n=8, symbols=3, outcomes=3)
CLI_SMALL = Shape(m=12, n=5, symbols=2, outcomes=3)


@dataclass
class Instance:
    """A generated dataset, its text, the package's parse of it, and given contexts."""

    shape: Shape
    contexts: list[tuple[str, ...]]
    outcomes: list[str]
    givens: list[tuple[str, ...]]
    text: str
    ds: Dataset = field(init=False)

    def __post_init__(self) -> None:
        self.ds = parse_dataset(self.text)

    def reference(self, given) -> oracle.Reference:
        return oracle.pointer_counts(self.contexts, self.outcomes, given)


def generate(shape: Shape, rng: random.Random) -> Instance:
    """Uniform random features and outcomes; every outcome label occurs.

    Given contexts are drawn uniformly from the same feature alphabet.
    """
    alphabet = "abcd"[: shape.symbols]
    labels = [f"o{i}" for i in range(shape.outcomes)]
    contexts = [tuple(rng.choice(alphabet) for _ in range(shape.n)) for _ in range(shape.m)]
    outcomes = labels + [rng.choice(labels) for _ in range(shape.m - len(labels))]
    rng.shuffle(outcomes)
    givens = [tuple(rng.choice(alphabet) for _ in range(shape.n)) for _ in range(GIVENS)]
    text = "".join(f"{o}\t{' '.join(c)}\n" for c, o in zip(contexts, outcomes))
    return Instance(shape, contexts, outcomes, givens, text)


# --- operations ---------------------------------------------------------------

@dataclass
class Op:
    """One timed call into the package, with its check and its traced extras.

    ``run`` is the only timed part.  ``check`` raises :class:`CheckFailed`.
    ``layers`` runs only in the traced run: it makes the per-layer calls on
    the same input and returns counts for that operation.  A ``fault`` op
    is a known program fault: its failure counts in ``failed``, not as a
    wrong result.
    """

    name: str
    run: Callable[[Any], Any]
    check: Callable[[Any, Any], None]
    layers: Callable[[Any, Any], dict] | None = None
    fault: bool = False


def lattice_counts(inst: Instance, given, aset) -> dict:
    diffs = {difference_vector(e.context, given) for e in inst.ds.exemplars}
    return {
        "homogeneity.masks": len(aset.verdicts),
        "homogeneity.masks_nonempty": sum(1 for v in aset.verdicts if v.members),
        "homogeneity.masks_homogeneous": sum(
            1 for v in aset.verdicts if v.members and v.homogeneous
        ),
        "homogeneity.subcontexts": len(diffs),
        "homogeneity.total_pointers": aset.total_pointers,
    }


def core_layers(tr, inst: Instance, given, dist) -> None:
    """Per-layer calls every prediction implies, made on their own."""
    with tr.span("core.parse"):
        parse_dataset(inst.text)
    with tr.span("core.difference_vectors"):
        [difference_vector(e.context, given) for e in inst.ds.exemplars]
    with tr.span("core.iter_masks"):
        for _ in iter_masks(inst.shape.n):
            pass
    with tr.span("uncertainty.measures"):
        entropy(dist.probabilities)
        disagreement(dist.probabilities)
        agreement(dist.probabilities)


def predict_fast(tr, inst: Instance, given):
    with tr.span("homogeneity.analogical_set"):
        aset = analogical_set(inst.ds, given)
    with tr.span("homogeneity.distribution"):
        dist = predict_distribution(aset)
    return aset, dist


def fast_layers(tr, inst: Instance, given, aset, dist) -> dict:
    core_layers(tr, inst, given, dist)
    with tr.span("homogeneity.pair_matrix"):
        pointer_heterogeneity_matrix(inst.ds, given)
    return lattice_counts(inst, given, aset)


def check_prediction(tr, inst: Instance, given, aset, dist) -> oracle.Reference:
    ref = inst.reference(given)
    expect(aset.outcome_counts == ref.counts, f"{given}: counts {aset.outcome_counts} != {ref.counts}")
    expect(aset.total_pointers == ref.total, f"{given}: total {aset.total_pointers} != {ref.total}")
    probs = dist.probabilities
    expect(sum(probs.values()) == 1, f"{given}: probabilities sum to {sum(probs.values())}")
    expect(probs == ref.probabilities, f"{given}: probabilities {probs} != counts/total")
    with tr.span("homogeneity.two_step"):
        two_step = two_step_distribution(aset)
    expect(two_step.probabilities == probs, f"{given}: two-step distribution differs")
    return ref


def fast_round(inst: Instance, r: int) -> list[Op]:
    """Four predictions with the fast engine."""
    ops = []
    for i in range(4):
        g = inst.givens[(4 * r + i) % GIVENS]
        ops.append(Op(
            "op.predict",
            run=lambda tr, g=g: predict_fast(tr, inst, g),
            check=lambda tr, res, g=g: check_prediction(tr, inst, g, *res),
            layers=lambda tr, res, g=g: fast_layers(tr, inst, g, *res),
        ))
    return ops


# --- gate engine --------------------------------------------------------------

def predict_gates(tr, inst: Instance, given):
    with tr.span("gates.run"):
        run = run_qam_circuit(inst.ds, given)
    with tr.span("gates.readback"):
        aset = to_analogical_set(run, inst.ds)
    with tr.span("homogeneity.distribution"):
        dist = predict_distribution(aset)
    return run, aset, dist


def check_circuit_mask(mask: str, c2, a2, flag, restored, ref: oracle.Reference) -> None:
    """Ancillas restored, C2 the outer product of its diagonal, A2 = C2 or 0 by the flag."""
    c2, a2 = np.asarray(c2), np.asarray(a2)
    diag = np.diag(c2)
    expect(bool(restored), f"mask {mask}: ancillas not restored")
    expect(np.array_equal(c2, np.outer(diag, diag)), f"mask {mask}: C2 is not diag x diag")
    expect(np.array_equal(a2, c2 if flag else np.zeros_like(c2)), f"mask {mask}: A2 breaks the flag rule")
    value = int(mask, 2)
    expect(bool(flag) == bool(ref.homogeneous[value]), f"mask {mask}: flag {flag} disagrees")
    expect(int(diag.sum()) == int(ref.members[value]), f"mask {mask}: wrong member count")


def check_gates(tr, inst: Instance, given, run, aset, dist) -> None:
    ref = check_prediction(tr, inst, given, aset, dist)
    expect(len(run.results) == 1 << inst.shape.n, "wrong number of masks")
    for r in run.results:
        mask = "".join(str(b) for b in r.mask)
        check_circuit_mask(mask, r.c2, r.a2, r.homogeneous, r.ancillas_restored, ref)


def gate_layers(tr, inst: Instance, given, run, aset, dist) -> dict:
    core_layers(tr, inst, given, dist)
    return lattice_counts(inst, given, aset)


def gate_round(inst: Instance, r: int) -> list[Op]:
    """Two predictions with the reversible-gate engine."""
    ops = []
    for i in range(2):
        g = inst.givens[(2 * r + i) % GIVENS]
        ops.append(Op(
            "op.predict",
            run=lambda tr, g=g: predict_gates(tr, inst, g),
            check=lambda tr, res, g=g: check_gates(tr, inst, g, *res),
            layers=lambda tr, res, g=g: gate_layers(tr, inst, g, *res),
        ))
    return ops


class TallyTrace(GateTrace):
    """A gate trace that counts primitives by op instead of storing them."""

    def __init__(self) -> None:
        super().__init__()
        self.ops: Counter = Counter()

    def record(self, op, operands, before, after) -> None:
        self.ops[op] += 1


def gate_counts(inst: Instance, errors: list[str]) -> dict:
    """Closed-form gate counts; a tally of one real run that differs goes to ``errors``."""
    width = oracle.outcome_code_width(len(set(inst.outcomes)))
    tally = oracle.gate_tally(inst.shape.m, inst.shape.n, width)
    ops = oracle.gate_ops(tally)
    trace = TallyTrace()
    run_qam_circuit(inst.ds, inst.givens[0], trace=trace)
    if trace.ops != ops:
        errors.append(f"gate tally {dict(trace.ops)} != closed form {dict(ops)}")
    out = {"gates.gate_count": sum(ops.values())}
    out.update({f"gates.{op}": ops[op] for op in ("not", "cnot", "ccnot")})
    out.update({f"gates.steps.{s}": sum(tally[s].values()) for s in oracle.GATE_STEPS})
    return out


def _peak_mb(fn, *args) -> float:
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def peaks(inst: Instance, span_names) -> dict:
    """tracemalloc peaks of the calls that the traced run made on ``inst``."""
    calls = {
        "homogeneity.pair_matrix": ("homogeneity.pair_matrix_peak_mb", pointer_heterogeneity_matrix),
        "homogeneity.analogical_set": ("homogeneity.analogical_set_peak_mb", analogical_set),
        "gates.run": ("gates.run_peak_mb", run_qam_circuit),
    }
    return {
        metric: _peak_mb(fn, inst.ds, inst.givens[0])
        for span, (metric, fn) in calls.items()
        if span in span_names
    }


# --- CLI ----------------------------------------------------------------------

BAD_UTF8 = b"o0\t\xff\xfe a\n"  # not valid UTF-8; `predict` should exit 2


@dataclass
class CliFiles:
    large: Instance
    small: Instance
    large_path: str
    small_path: str
    bad_path: str


def call_main(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def predict_text(ref: oracle.Reference) -> str:
    """The `predict` text report, rendered from the reference counts."""
    probs = ref.probabilities
    best = min(probs, key=lambda o: (-probs[o], o))
    return (
        ", ".join(f"{o} {p}" for o, p in probs.items()) + f" ({ref.total} pointers)\n"
        + "pointers: " + ", ".join(f"{o} {c}" for o, c in ref.counts.items()) + "\n"
        + f"most likely: {best}\n"
    )


def sample_expected(ref: oracle.Reference, seed: int) -> str:
    """The documented draw: a uniform slot among lcm(denominators) pointer slots."""
    probs = ref.probabilities
    denom = math.lcm(*(p.denominator for p in probs.values()))
    draw = random.Random(seed).randrange(denom)
    cumulative = 0
    for label, p in probs.items():
        cumulative += p.numerator * (denom // p.denominator)
        if draw < cumulative:
            return label
    raise CheckFailed("probabilities do not sum to 1")


def check_measures(probs: dict[str, Fraction], h: float, q: str, z: str) -> None:
    z_exact = sum(p * p for p in probs.values())
    h_exact = -sum(float(p) * math.log2(p) for p in probs.values() if p)
    expect(math.isclose(h, h_exact, rel_tol=1e-12, abs_tol=1e-12), f"H {h} != {h_exact}")
    expect(q == str(1 - z_exact), f"Q {q} != {1 - z_exact}")
    expect(z == str(z_exact), f"Z {z} != {z_exact}")


def check_ok(res) -> tuple[str, str]:
    code, out, err = res
    expect(code == 0, f"exit {code}: {err.strip()}")
    return out, err


def check_error_exit(res) -> None:
    code, _, err = res
    expect(code == 2 and len(err.splitlines()) == 1 and err.startswith("error:"),
           f"expected exit 2 with one error line, got exit {code}")


def check_explain_text(out: str, inst: Instance, ref: oracle.Reference) -> None:
    lines = out.splitlines()
    masks = [ln for ln in lines if ln.startswith("mask ")]
    expect(len(masks) == 1 << inst.shape.n, f"{len(masks)} mask blocks")
    verdicts = [ln for ln in lines if ln.startswith("  verdict: ")]
    expect(all(ln.endswith(" agree)") for ln in verdicts), "homogeneity criteria disagree")
    homogeneous = sum(ln.endswith("empty, homogeneous, 0 pointers") for ln in masks) + sum(
        ln.startswith("  verdict: homogeneous") for ln in verdicts
    )
    expect(homogeneous == int(ref.homogeneous.sum()), "wrong number of homogeneous masks")
    expect(lines[-2:] == predict_text(ref).splitlines()[:2], "explain summary differs")


def check_explain_json(out: str, inst: Instance, ref: oracle.Reference) -> None:
    report = json.loads(out)
    expect(report["schema_version"] == 1, "schema_version is not 1")
    expect(len(report["masks"]) == 1 << inst.shape.n, "wrong number of masks")
    for block in report["masks"]:
        verdicts = set(block["verdicts"].values())
        expect(verdicts == {block["homogeneous"]}, f"mask {block['mask']}: verdicts disagree")
        expect(block["homogeneous"] == bool(ref.homogeneous[int(block["mask"], 2)]),
               f"mask {block['mask']}: wrong verdict")
    expect(sum(b["pointer_count"] for b in report["masks"]) == report["total_pointers"] == ref.total,
           "per-mask pointer counts do not sum to the total")
    expect(report["pointer_counts"] == ref.counts, "explain pointer counts differ")


def check_gates_json(out: str, inst: Instance, ref: oracle.Reference) -> None:
    report = json.loads(out)
    expect(report["schema_version"] == 1, "schema_version is not 1")
    expect(len(report["masks"]) == 1 << inst.shape.n, "wrong number of masks")
    for b in report["masks"]:
        check_circuit_mask(b["mask"], b["c2"], b["a2"], b["flag"], b["ancillas_restored"], ref)
    expect(report["total_pointers"] == ref.total, "gates total differs")


def check_predict_json(out: str, ref: oracle.Reference) -> None:
    report = json.loads(out)
    expect(report["schema_version"] == 1, "schema_version is not 1")
    expect(report["total_pointers"] == ref.total, "predict total differs")
    expect(report["pointer_counts"] == ref.counts, "predict counts differ")
    expect(report["probabilities"] == {o: str(p) for o, p in ref.probabilities.items()},
           "predict probabilities differ")


def explain_layers(tr, inst: Instance, given) -> dict:
    """The library calls `explain` makes, on the same input."""
    aset, dist = predict_fast(tr, inst, given)
    counts = fast_layers(tr, inst, given, aset, dist)
    with tr.span("homogeneity.criteria"):
        for v in aset.verdicts:
            for criterion in (is_homogeneous_pointer, is_homogeneous_plurality,
                              is_homogeneous_determinism, is_homogeneous_disagreement):
                criterion(inst.ds, given, v.mask)
    return counts


def cli_round(f: CliFiles, r: int) -> list[Op]:
    """The fixed CLI mix, ending with the two known faults."""
    large_g = " ".join(f.large.givens[r % GIVENS])
    small_g = " ".join(f.small.givens[r % GIVENS])
    large = ["--dataset", f.large_path, "--given", large_g]
    small = ["--dataset", f.small_path, "--given", small_g]
    ref = f.large.reference(f.large.givens[r % GIVENS])
    small_ref = f.small.reference(f.small.givens[r % GIVENS])
    probs = ref.probabilities
    gates_text: dict[str, str] = {}

    def measures_inline(tr, res):
        out, _ = check_ok(res)
        h, q, z = (ln.split(" = ", 1)[1] for ln in out.splitlines())
        check_measures(probs, float(h), q, z)

    def measures_json(tr, res):
        report = json.loads(check_ok(res)[0])
        expect(report["probabilities"] == {o: str(p) for o, p in probs.items()}, "measures probabilities")
        check_measures(probs, report["entropy_bits"], report["disagreement"], report["agreement"])

    def predict_gates_small(tr, res):
        gates_text["out"] = check_ok(res)[0]
        expect(gates_text["out"] == predict_text(small_ref), "predict --engine gates differs")

    def predict_fast_small(tr, res):
        out = check_ok(res)[0]
        expect(out == predict_text(small_ref), "predict --engine fast differs")
        expect(out == gates_text.get("out"), "engines' predict text is not byte-identical")

    mix = [
        ("cli.predict", ["predict", *large],
         lambda tr, res: expect(check_ok(res)[0] == predict_text(ref), "predict text differs")),
        ("cli.predict", ["predict", *large, "--format", "json"],
         lambda tr, res: check_predict_json(check_ok(res)[0], ref)),
        ("cli.explain_text", ["explain", *large],
         lambda tr, res: check_explain_text(check_ok(res)[0], f.large, ref)),
        ("cli.explain_json", ["explain", *large, "--format", "json"],
         lambda tr, res: check_explain_json(check_ok(res)[0], f.large, ref)),
        ("cli.sample", ["sample", *large, "--seed", str(r)],
         lambda tr, res: expect(check_ok(res)[0] == sample_expected(ref, r) + "\n", "sample differs")),
        ("cli.measures", ["measures", *(f"{o}:{p}" for o, p in probs.items())], measures_inline),
        ("cli.measures", ["measures", *large, "--format", "json"], measures_json),
        ("cli.gates_json", ["gates", *small, "--format", "json"],
         lambda tr, res: check_gates_json(check_ok(res)[0], f.small, small_ref)),
        ("cli.predict_small_gates", ["predict", *small, "--engine", "gates"], predict_gates_small),
        ("cli.predict_small", ["predict", *small, "--engine", "fast"], predict_fast_small),
    ]
    ops = [
        Op(name, run=lambda tr, argv=argv: call_main(argv), check=check,
           layers=lambda tr, res: {"cli.report_bytes": len(res[1].encode())})
        for name, argv, check in mix
    ]
    ops[3].layers = lambda tr, res: {
        "cli.report_bytes": len(res[1].encode()),
        **explain_layers(tr, f.large, f.large.givens[r % GIVENS]),
    }
    for name, argv in (
        ("cli.fault_utf8", ["predict", "--dataset", f.bad_path, "--given", "a"]),
        ("cli.fault_overflow", ["measures", "x:1e400"]),
    ):
        ops.append(Op(name, run=lambda tr, argv=argv: call_main(argv),
                      check=lambda tr, res: check_error_exit(res), fault=True))
    return ops


# --- workloads ----------------------------------------------------------------

def _rng(label: str, seed: int) -> random.Random:
    return random.Random(f"{label}:{seed}")


def setup_cli(seed: int, workdir: Path, large: Shape = CLI_LARGE, small: Shape = CLI_SMALL,
              label: str = "cli-reports") -> CliFiles:
    rng = _rng(label, seed)
    f = CliFiles(generate(large, rng), generate(small, rng),
                 str(workdir / "large.tsv"), str(workdir / "small.tsv"), str(workdir / "bad.tsv"))
    Path(f.large_path).write_text(f.large.text, encoding="utf-8")
    Path(f.small_path).write_text(f.small.text, encoding="utf-8")
    Path(f.bad_path).write_bytes(BAD_UTF8)
    return f


@dataclass(frozen=True)
class Workload:
    name: str
    setup: Callable[[int, Path], Any]
    round: Callable[[Any, int], list[Op]]
    layer_input: Callable[[Any], Instance]  # the instance the per-layer calls run on


def _generated(name: str, shape: Shape, round_fn, label: str | None = None) -> Workload:
    return Workload(name, lambda seed, _: generate(shape, _rng(label or name, seed)),
                    round_fn, lambda s: s)


WORKLOADS = {
    w.name: w
    for w in (
        _generated("lattice-wide", LATTICE_WIDE, fast_round),
        _generated("exemplars-tall", EXEMPLARS_TALL, fast_round),
        _generated("gate-circuit", GATE_CIRCUIT, gate_round),
        Workload("cli-reports", setup_cli, cli_round, lambda s: s.large),
    )
}

# Layers a workload's own operations do not reach are measured on a small
# probe instance of the CLI's small shape, one round of each operation kind.
PROBES = (
    Workload("probe-cli", lambda seed, wd: setup_cli(seed, wd, CLI_SMALL, CLI_SMALL, "probe"),
             cli_round, lambda s: s.large),
    _generated("probe-gates", CLI_SMALL, gate_round, "probe"),
    _generated("probe-fast", CLI_SMALL, fast_round, "probe"),
)
