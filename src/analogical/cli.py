"""Command-line surface for pointer-based analogical prediction.

Subcommands:

* ``predict``  exact outcome distribution and pointer counts
* ``explain``  per-supracontext blocks: members, subcontexts, verdicts, pointers
* ``gates``    pair arrays and per-mask matrices from the reversible engine
* ``sample``   one seeded draw from the outcome distribution
* ``measures`` entropy, disagreement, and agreement for a distribution

Exit codes: 0 success, 2 file or format problem (also used by argparse for
usage errors), 3 context width over the configured cap, 4 no analogical
support.  Text reports are byte-identical across engines; JSON reports
carry ``"schema_version": 1`` and keep exact rationals as strings.

Reports are streamed to stdout one mask block or record at a time; every
error that maps to an exit code is raised before the first byte.  A JSON
report is byte-identical to ``json.dumps(report, indent=2)`` plus a
newline, with non-ASCII text as ``\\uXXXX`` escapes.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections.abc import Iterator
from fractions import Fraction
from functools import cache
from itertools import chain, product, starmap
from typing import Sequence

import numpy as np

from .core import (
    DEFAULT_N_CAP,
    Dataset,
    DatasetFormatError,
    FeatureVector,
    LatticeSizeError,
    bits_to_str,
    encode,
    load_dataset,
)
from .gates import GateTrace, run_qam_circuit, to_analogical_set
from .homogeneity import (
    AnalogicalSet,
    NoAnalogicalSupportError,
    OutcomeDistribution,
    SupracontextVerdict,
    analogical_set,
    criteria_verdicts,
    most_likely_outcome,
    pointer_heterogeneity_matrix,
    predict_distribution,
    sample_outcome,
)
from .uncertainty import (
    InvalidDistributionError,
    agreement,
    agreement_density,
    disagreement,
    entropy,
    read_density_file,
)

EXIT_OK = 0
EXIT_FORMAT = 2
EXIT_SIZE = 3
EXIT_NO_SUPPORT = 4

# checked in order; the first class the exception is an instance of wins
_EXIT_CODES: dict[type[Exception], int] = {
    DatasetFormatError: EXIT_FORMAT,
    InvalidDistributionError: EXIT_FORMAT,
    OSError: EXIT_FORMAT,
    LatticeSizeError: EXIT_SIZE,
    NoAnalogicalSupportError: EXIT_NO_SUPPORT,
}


def _load(args: argparse.Namespace) -> tuple[Dataset, FeatureVector]:
    ds = load_dataset(args.dataset)
    given = tuple((args.given or "").split())
    if len(given) != ds.n:
        raise DatasetFormatError(
            f"given context has {len(given)} features, dataset has {ds.n}"
        )
    return ds, given


def _build_set(args: argparse.Namespace, ds: Dataset, given: FeatureVector) -> AnalogicalSet:
    if args.engine == "gates":
        run = run_qam_circuit(ds, given, n_cap=args.n_cap)
        return to_analogical_set(run, ds)
    return analogical_set(ds, given, n_cap=args.n_cap)


def _emit(text: str) -> None:
    sys.stdout.write(text if text.endswith("\n") else text + "\n")


# --- JSON writer ------------------------------------------------------------

_json_str = json.encoder.encode_basestring_ascii  # raises TypeError on a non-str key
_INT = frozenset({int})
_STR = frozenset({str})
_SEQUENCE = frozenset({list, tuple})


def _json(obj, nl: str) -> str:
    """``obj`` as ``json.dumps(obj, indent=2)`` renders it at newline-and-indent ``nl``.

    A list of strings, of exact ints, or of equal-length lists of exact ints
    (matrix rows, index pairs) renders with one join and no Python call per
    item.  Any type the json module cannot encode raises TypeError.
    """
    if isinstance(obj, str):
        return _json_str(obj)
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        inner = nl + "  "
        kinds = {*map(type, obj)}
        if kinds == _INT:
            body = map(str, obj)
        elif kinds == _STR:
            body = map(_json_str, obj)
        elif (
            kinds <= _SEQUENCE
            and len(widths := {*map(len, obj)}) == 1
            and {*map(type, chain.from_iterable(obj))} == _INT
        ):
            deeper = inner + "  "
            row = "[" + deeper + ("," + deeper).join(["{}"] * widths.pop()) + inner + "]"
            body = starmap(row.format, obj)
        else:
            body = [_json(item, inner) for item in obj]
        return "[" + inner + ("," + inner).join(body) + nl + "]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        inner = nl + "  "
        items = [_json_str(k) + ": " + _json(v, inner) for k, v in obj.items()]
        return "{" + inner + ("," + inner).join(items) + nl + "}"
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, int):
        return int.__repr__(obj)
    if isinstance(obj, float):
        return json.dumps(obj)
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def _emit_json(report: dict) -> None:
    """Write ``json.dumps(report, indent=2)`` and a newline, one chunk at a time.

    A top-level value that is an iterator is written as a list, one item at
    a time, so its items are built, rendered and dropped one by one.
    """
    write = sys.stdout.write
    sep = "{\n  "
    for key, value in report.items():
        write(sep + _json_str(key) + ": ")
        sep = ",\n  "
        if not isinstance(value, Iterator):
            write(_json(value, "\n  "))
            continue
        opener = "["
        for item in value:
            write(opener + "\n    " + _json(item, "\n    "))
            opener = ","
        write("[]" if opener == "[" else "\n  ]")
    write("{}\n" if sep == "{\n  " else "\n}\n")


# --- shared report pieces ---------------------------------------------------

def _distribution_line(dist: OutcomeDistribution, total: int) -> str:
    parts = ", ".join(f"{o} {p}" for o, p in dist.probabilities.items())
    return f"{parts} ({total} pointers)"


def _counts_line(aset: AnalogicalSet) -> str:
    return "pointers: " + ", ".join(f"{o} {c}" for o, c in aset.outcome_counts.items())


def _probabilities_json(dist: OutcomeDistribution) -> dict[str, str]:
    return {o: str(p) for o, p in dist.probabilities.items()}


def _matrix_text(name: str, matrix: np.ndarray) -> str:
    """``name:`` and then one line per row of a 0/1 matrix, entries separated by spaces."""
    chars = np.full((len(matrix), 2 * matrix.shape[1]), ord(" "), np.uint8)
    chars[:, ::2] = matrix + ord("0")
    chars[:, -1] = ord("\n")
    return f"{name}:\n" + chars.tobytes().decode("ascii")


# --- subcommands ------------------------------------------------------------

def cmd_predict(args: argparse.Namespace) -> int:
    ds, given = _load(args)
    aset = _build_set(args, ds, given)
    dist = predict_distribution(aset)
    if args.format == "json":
        _emit_json(
            {
                "schema_version": 1,
                "command": "predict",
                "given": list(given),
                "total_pointers": aset.total_pointers,
                "pointer_counts": dict(aset.outcome_counts),
                "probabilities": _probabilities_json(dist),
                "most_likely": most_likely_outcome(dist),
            }
        )
    else:
        _emit(
            "\n".join(
                [
                    _distribution_line(dist, aset.total_pointers),
                    _counts_line(aset),
                    f"most likely: {most_likely_outcome(dist)}",
                ]
            )
        )
    return EXIT_OK


def _explain_record(v: SupracontextVerdict, keys: Sequence[str], p2) -> dict:
    """One mask's explain entry: members, subcontexts, the four verdicts, pointers.

    ``keys`` holds each exemplar's difference vector as a bit string and
    ``p2`` the pointer heterogeneity matrix; both are built once per run.
    """
    member_keys = [keys[j - 1] for j in v.members]
    groups: dict[str, list[int]] = {}
    for j, key in zip(v.members, member_keys):
        groups.setdefault(key, []).append(j)
    return {
        "mask": bits_to_str(v.mask),
        "members": list(v.members),
        "member_outcomes": list(v.member_outcomes),
        "subcontexts": groups,
        "homogeneous": v.homogeneous,
        "verdicts": criteria_verdicts(v.members, member_keys, v.member_outcomes, p2),
        "pointer_count": v.pointer_count,
        "pointers": list(product(v.members, repeat=2)) if v.homogeneous else [],
        "offending_pairs": [] if v.homogeneous else _offending_pairs(v.members, p2),
    }


def _offending_pairs(members: Sequence[int], p2: np.ndarray) -> list[list[int]]:
    """The member pairs (a, b), a listed before b, with ``p2[a - 1, b - 1]`` set.

    They come in the order of ``itertools.combinations(members, 2)``: the
    row-major order of the upper triangle of P2's member block.
    """
    js = np.array(members, dtype=np.intp)
    a, b = np.triu(p2[np.ix_(js - 1, js - 1)], 1).nonzero()
    return np.column_stack((js[a], js[b])).tolist()


def _explain_block(rec: dict, labels: Sequence[str]) -> str:
    """The text block of one explain record, blank line included."""
    members = rec["members"]
    if not members:
        return f"mask {rec['mask']}: empty, homogeneous, 0 pointers\n\n"
    word = "member" if len(members) == 1 else "members"
    verdicts = rec["verdicts"]
    agree = "agree" if len(set(verdicts.values())) == 1 else "disagree"
    lines = [
        f"mask {rec['mask']}: {len(members)} {word}",
        "  members: " + ", ".join(f"{j} ({labels[j - 1]})" for j in members),
        "  subcontexts: "
        + ", ".join(
            f"{d} {{{', '.join(str(j) for j in js)}}}" for d, js in rec["subcontexts"].items()
        ),
        f"  verdict: {'homogeneous' if rec['homogeneous'] else 'heterogeneous'} "
        f"({', '.join(verdicts)} {agree})",
    ]
    if rec["homogeneous"]:
        lines.append(f"  pointers ({rec['pointer_count']}):")
        lines.extend(f"    {labels[a - 1]} -> {labels[b - 1]}" for a, b in rec["pointers"])
    else:
        lines.append(
            "  offending pairs: " + ", ".join(f"({a}, {b})" for a, b in rec["offending_pairs"])
        )
        lines.append("  pointers (0): none")
    return "\n".join(lines) + "\n\n"


def cmd_explain(args: argparse.Namespace) -> int:
    ds, given = _load(args)
    aset = _build_set(args, ds, given)
    dist = predict_distribution(aset)
    keys = [format(d, f"0{ds.n}b") for d in encode(ds, given)[0].tolist()]
    p2 = pointer_heterogeneity_matrix(ds, given)
    records = (_explain_record(v, keys, p2) for v in aset.verdicts)

    if args.format == "json":
        _emit_json(
            {
                "schema_version": 1,
                "command": "explain",
                "given": list(given),
                "masks": records,
                "total_pointers": aset.total_pointers,
                "pointer_counts": dict(aset.outcome_counts),
                "probabilities": _probabilities_json(dist),
                "most_likely": most_likely_outcome(dist),
            }
        )
        return EXIT_OK

    labels = [f"{' '.join(e.context)} / {e.outcome}" for e in ds.exemplars]
    write = sys.stdout.write
    write(f"dataset: {ds.m} exemplars, {ds.n} features\ngiven: {' '.join(given)}\n\n")
    for rec in records:
        write(_explain_block(rec, labels))
    write(f"{_distribution_line(dist, aset.total_pointers)}\n{_counts_line(aset)}\n")
    return EXIT_OK


def cmd_gates(args: argparse.Namespace) -> int:
    ds, given = _load(args)
    # a trace that keeps no steps still tallies every gate; report what a default one keeps
    trace = GateTrace(max_steps=0) if args.trace else None
    run = run_qam_circuit(ds, given, n_cap=args.n_cap, trace=trace)
    aset = to_analogical_set(run, ds)
    if trace is not None:
        total, cap = trace.tally.total(), GateTrace().max_steps
        kept, truncated = min(total, cap), total > cap

    if args.format == "json":
        obj = {
            "schema_version": 1,
            "command": "gates",
            "given": list(given),
            "m": ds.m,
            "n": ds.n,
            "v2": run.v2.tolist(),
            "w2": run.w2.tolist(),
            "p2": run.p2.tolist(),
            "masks": (
                {
                    "mask": bits_to_str(r.mask),
                    "c2": r.c2.tolist(),
                    "h2": r.h2.tolist(),
                    "flag": int(r.homogeneous),
                    "a2": r.a2.tolist(),
                    "ancillas_restored": r.ancillas_restored,
                }
                for r in run.results
            ),
            "total_pointers": aset.total_pointers,
        }
        if trace is not None:
            obj["trace_steps"], obj["trace_truncated"] = kept, truncated
        _emit_json(obj)
        return EXIT_OK

    write = sys.stdout.write
    write(f"dataset: {ds.m} exemplars, {ds.n} features\ngiven: {' '.join(given)}\n")
    write(_matrix_text("V2", run.v2) + _matrix_text("W2", run.w2) + _matrix_text("P2", run.p2))
    for r in run.results:
        status = "restored" if r.ancillas_restored else "NOT restored"
        write(
            f"\nmask {bits_to_str(r.mask)}: flag {int(r.homogeneous)} "
            f"({'homogeneous' if r.homogeneous else 'heterogeneous'}), ancillas {status}\n"
            + _matrix_text("C2", r.c2) + _matrix_text("H2", r.h2) + _matrix_text("A2", r.a2)
        )
    write(f"\ntotal pointers: {aset.total_pointers}\n")
    if trace is not None:
        write(f"trace: {kept} steps{' (truncated)' if truncated else ''}\n")
    return EXIT_OK


def cmd_sample(args: argparse.Namespace) -> int:
    ds, given = _load(args)
    aset = _build_set(args, ds, given)
    dist = predict_distribution(aset)
    outcome = sample_outcome(dist, args.seed)
    if args.format == "json":
        _emit_json(
            {
                "schema_version": 1,
                "command": "sample",
                "seed": args.seed,
                "outcome": outcome,
            }
        )
    else:
        _emit(outcome)
    return EXIT_OK


def _parse_inline_distribution(pairs: Sequence[str]) -> dict[str, Fraction]:
    probs: dict[str, Fraction] = {}
    for token in pairs:
        label, sep, value = token.rpartition(":")
        if not sep or not label or not value:
            raise InvalidDistributionError(
                f"expected label:prob, got {token!r}"
            )
        if label in probs:
            raise InvalidDistributionError(f"duplicate outcome label {label!r}")
        try:
            probs[label] = Fraction(value)
        except (ValueError, ZeroDivisionError):
            raise InvalidDistributionError(
                f"could not parse probability {value!r} in {token!r}"
            ) from None
    return probs


def cmd_measures(args: argparse.Namespace) -> int:
    probs = None
    if args.pairs and args.dataset:
        raise InvalidDistributionError(
            "give either inline label:prob pairs or --dataset/--given, not both"
        )
    if args.given is not None and not args.dataset:
        raise InvalidDistributionError("--given needs --dataset")
    if args.pairs:
        probs = _parse_inline_distribution(args.pairs)
    elif args.dataset:
        ds, given = _load(args)
        aset = _build_set(args, ds, given)
        probs = dict(predict_distribution(aset).probabilities)
    elif args.density is None:
        raise InvalidDistributionError(
            "no distribution given: pass label:prob pairs, --dataset/--given, or --density"
        )

    report: dict = {"schema_version": 1, "command": "measures"}
    lines = []
    if probs is not None:
        h = entropy(probs)
        q = disagreement(probs)
        z = agreement(probs)
        report["probabilities"] = {o: str(p) for o, p in probs.items()}
        report["entropy_bits"] = h
        report["disagreement"] = str(q)
        report["agreement"] = str(z)
        lines.append(f"H = {h}")
        lines.append(f"Q = {q}")
        lines.append(f"Z = {z}")
    if args.density is not None:
        zp = agreement_density(read_density_file(args.density))
        report["agreement_density"] = zp
        lines.append(f"Z' = {zp}")

    if args.format == "json":
        _emit_json(report)
    else:
        _emit("\n".join(lines))
    return EXIT_OK


# --- argument parsing -------------------------------------------------------

def _add_common(sub: argparse.ArgumentParser, *, dataset_required: bool = True) -> None:
    sub.add_argument("--dataset", required=dataset_required, help="path to a dataset file")
    sub.add_argument(
        "--given",
        required=dataset_required,
        help='given context as one quoted argument, e.g. "o m a"',
    )
    sub.add_argument(
        "--format", choices=("text", "json"), default="text", help="output format"
    )
    sub.add_argument(
        "--n-cap",
        type=int,
        default=DEFAULT_N_CAP,
        help=f"refuse datasets with more features than this (default {DEFAULT_N_CAP})",
    )


def _add_engine(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "--engine",
        choices=("fast", "gates"),
        default="fast",
        help="prediction engine (default fast)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="analogical",
        description="Outcome prediction by counting pointers inside homogeneous supracontexts.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    p = subparsers.add_parser("predict", help="print the exact outcome distribution")
    _add_common(p)
    _add_engine(p)
    p.set_defaults(func=cmd_predict)

    p = subparsers.add_parser(
        "explain", help="per-supracontext members, subcontexts, verdicts, and pointers"
    )
    _add_common(p)
    _add_engine(p)
    p.set_defaults(func=cmd_explain)

    p = subparsers.add_parser(
        "gates", help="dump the reversible-engine pair arrays and per-mask matrices"
    )
    _add_common(p)
    p.add_argument(
        "--trace", action="store_true", help="capture the gate trace and report its length"
    )
    p.set_defaults(func=cmd_gates)

    p = subparsers.add_parser("sample", help="draw one outcome with a fixed seed")
    _add_common(p)
    _add_engine(p)
    p.add_argument("--seed", type=int, required=True, help="seed for the draw")
    p.set_defaults(func=cmd_sample)

    p = subparsers.add_parser(
        "measures", help="entropy, disagreement, and agreement of a distribution"
    )
    p.add_argument(
        "pairs",
        nargs="*",
        metavar="label:prob",
        help='inline distribution, e.g. "y:4/13 x:9/13"',
    )
    _add_common(p, dataset_required=False)
    _add_engine(p)
    p.add_argument(
        "--density",
        help="two-column text file tabulating a density; adds the Z' line",
    )
    p.set_defaults(func=cmd_measures)

    return parser


# built on the first call of main and reused, as parsing leaves no state in the parser
_parser = cache(build_parser)


def main(argv: Sequence[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except tuple(_EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for cls, code in _EXIT_CODES.items() if isinstance(exc, cls))


if __name__ == "__main__":
    sys.exit(main())
