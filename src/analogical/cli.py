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
from collections.abc import Iterable, Iterator
from fractions import Fraction
from functools import cache
from itertools import chain, compress, product, repeat
from typing import Sequence

import numpy as np

from .core import (
    DEFAULT_N_CAP,
    Dataset,
    DatasetFormatError,
    FeatureVector,
    LatticeSizeError,
    load_dataset,
)
from .gates import GateTrace, run_qam_circuit, to_analogical_set
from .homogeneity import (
    AnalogicalSet,
    NoAnalogicalSupportError,
    OutcomeDistribution,
    analogical_set,
    most_likely_outcome,
    predict_distribution,
    sample_outcome,
    _ExplainLattice,
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


def _json(obj, nl: str) -> str:
    """``obj`` as ``json.dumps(obj, indent=2)`` renders it at newline-and-indent ``nl``.

    A list of strings or of exact ints renders with one join and no Python
    call per item.  Any type the json module cannot encode raises TypeError.
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


class _Rendered:
    """A list for :func:`_emit_json` whose items arrive as JSON text, at the items' indent."""

    def __init__(self, items: Iterable[str]) -> None:
        self.items = items


def _emit_json(report: dict) -> None:
    """Write ``json.dumps(report, indent=2)`` and a newline, one chunk at a time.

    A top-level :class:`_Rendered` value is written as a list, one item at a
    time, so its items are built, rendered and dropped one by one.
    """
    write = sys.stdout.write
    sep = "{\n  "
    for key, value in report.items():
        write(sep + _json_str(key) + ": ")
        sep = ",\n  "
        if not isinstance(value, _Rendered):
            write(_json(value, "\n  "))
            continue
        opener = "["
        for item in value.items:
            write(opener + "\n    " + item)
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


@cache
def _matrix_template(m: int, nl: str | None) -> tuple[np.ndarray, np.ndarray]:
    """An m x m zero matrix as ASCII bytes, and the offsets of its m * m digits.

    With ``nl`` None it is one line per row, entries separated by spaces;
    otherwise it is the matrix as :func:`_json` renders it at ``nl``.
    """
    text = ("0 " * (m - 1) + "0\n") * m if nl is None else _json([[0] * m] * m, nl)
    chars = np.frombuffer(text.encode("ascii"), np.uint8)
    return chars, np.flatnonzero(chars == ord("0"))


def _matrix(matrix: np.ndarray, nl: str | None = None) -> str:
    """A square 0/1 matrix rendered as its :func:`_matrix_template`, each entry added to its digit."""
    template, digits = _matrix_template(len(matrix), nl)
    chars = template.copy()
    chars[digits] += matrix.reshape(-1)
    return chars.tobytes().decode("ascii")


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


# --- explain ----------------------------------------------------------------

_CRITERIA = ("pointer", "plurality", "determinism", "disagreement")
# an entry's verdicts object, by the 4-bit code of the verdicts in _CRITERIA order
_VERDICTS_JSON = [
    _json(dict(zip(_CRITERIA, bits)), "\n      ") for bits in product((False, True), repeat=4)
]
_ITEM = "\n        "  # newline and indent of an item of a list in an explain entry
_NEXT = "," + _ITEM


def _in_product_order(firsts: list[str], seconds: list[str]) -> str:
    """Each first piece, then each second piece after it: one join per first piece."""
    return "".join(chain.from_iterable(zip(firsts, map(str.join, firsts, repeat(seconds)))))


def _explain_text(lattice: _ExplainLattice, ds: Dataset) -> Iterator[str]:
    """Each mask's text block, blank line included."""
    labels = [f"{' '.join(e.context)} / {e.outcome}" for e in ds.exemplars]
    members = [f"{j} ({label})" for j, label in enumerate(labels, 1)]
    subcontexts = [
        f"{key} {{{', '.join(map(str, js))}}}" for key, js in zip(lattice.keys, lattice.groups)
    ]
    sources, targets = [f"    {label} -> " for label in labels], [f"{label}\n" for label in labels]
    # a pair is "(a, " then "b), "; the last ", " is cut
    numbers = range(1, ds.m + 1)
    ends = np.array([f"({j}, " for j in numbers] + [f"{j}), " for j in numbers], dtype=object)
    for mask, member_flags, sub_flags, k, homogeneous, code, offending in lattice:
        if not k:
            yield f"mask {mask}: empty, homogeneous, 0 pointers\n\n"
            continue
        head = (
            f"mask {mask}: {k} {'member' if k == 1 else 'members'}\n"
            f"  members: {', '.join(compress(members, member_flags))}\n"
            f"  subcontexts: {', '.join(compress(subcontexts, sub_flags))}\n"
            f"  verdict: {'homogeneous' if homogeneous else 'heterogeneous'} "
            f"({', '.join(_CRITERIA)} {'agree' if code in (0, 15) else 'disagree'})\n"
        )
        if homogeneous:
            pointers = _in_product_order(
                list(compress(sources, member_flags)), list(compress(targets, member_flags))
            )
            yield f"{head}  pointers ({k * k}):\n{pointers}\n"
        else:
            pairs = "".join(ends[offending].ravel().tolist())[:-2]
            yield f"{head}  offending pairs: {pairs}\n  pointers (0): none\n\n"


def _json_items(items: str, brackets: str = "[]") -> str:
    """An explain entry's list, or object, of ``items``, each rendered and followed by ``_NEXT``."""
    if not items:
        return brackets
    return brackets[0] + _ITEM + items[: -len(_NEXT)] + "\n      " + brackets[1]


def _explain_json(lattice: _ExplainLattice, ds: Dataset) -> Iterator[str]:
    """Each mask's entry as ``json.dumps(indent=2)`` renders it in the report's mask list."""
    numbers = [f"{j}{_NEXT}" for j in range(1, ds.m + 1)]
    outcomes = [_json_str(e.outcome) + _NEXT for e in ds.exemplars]
    subcontexts = [
        f'"{key}": {_json(js, _ITEM)}{_NEXT}' for key, js in zip(lattice.keys, lattice.groups)
    ]
    # a pair is its first number's piece then its second's
    firsts = [f"[{_ITEM}  {j},{_ITEM}  " for j in range(1, ds.m + 1)]
    seconds = [f"{j}{_ITEM}]{_NEXT}" for j in range(1, ds.m + 1)]
    ends = np.array(firsts + seconds, dtype=object)
    for mask, member_flags, sub_flags, k, homogeneous, code, offending in lattice:
        pointers = pairs = ""
        if homogeneous:
            pointers = _in_product_order(
                list(compress(firsts, member_flags)), list(compress(seconds, member_flags))
            )
        else:
            pairs = "".join(ends[offending].ravel().tolist())
        groups = "".join(compress(subcontexts, sub_flags))
        yield (
            f'{{\n      "mask": "{mask}",'
            f'\n      "members": {_json_items("".join(compress(numbers, member_flags)))},'
            f'\n      "member_outcomes": {_json_items("".join(compress(outcomes, member_flags)))},'
            f'\n      "subcontexts": {_json_items(groups, "{}")},'
            f'\n      "homogeneous": {"true" if homogeneous else "false"},'
            f'\n      "verdicts": {_VERDICTS_JSON[code]},'
            f'\n      "pointer_count": {k * k if homogeneous else 0},'
            f'\n      "pointers": {_json_items(pointers)},'
            f'\n      "offending_pairs": {_json_items(pairs)}\n    }}'
        )


def cmd_explain(args: argparse.Namespace) -> int:
    ds, given = _load(args)
    aset = _build_set(args, ds, given)
    dist = predict_distribution(aset)
    lattice = _ExplainLattice(ds, given, aset.verdicts)

    if args.format == "json":
        _emit_json(
            {
                "schema_version": 1,
                "command": "explain",
                "given": list(given),
                "masks": _Rendered(_explain_json(lattice, ds)),
                "total_pointers": aset.total_pointers,
                "pointer_counts": dict(aset.outcome_counts),
                "probabilities": _probabilities_json(dist),
                "most_likely": most_likely_outcome(dist),
            }
        )
        return EXIT_OK

    write = sys.stdout.write
    write(f"dataset: {ds.m} exemplars, {ds.n} features\ngiven: {' '.join(given)}\n\n")
    for block in _explain_text(lattice, ds):
        write(block)
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
        nl = "\n      "  # newline and indent of a key of an entry in the mask list
        masks = (
            f'{{{nl}"mask": "{lane:0{ds.n}b}",{nl}"c2": {_matrix(c2, nl)},{nl}"h2": {_matrix(h2, nl)},'
            f'{nl}"flag": {int(flag)},{nl}"a2": {_matrix(a2, nl)},'
            f'{nl}"ancillas_restored": {"true" if restored else "false"}\n    }}'
            for lane, c2, h2, flag, a2, restored in run.lanes()
        )
        obj = {
            "schema_version": 1,
            "command": "gates",
            "given": list(given),
            "m": ds.m,
            "n": ds.n,
            "v2": run.v2.tolist(),
            "w2": run.w2.tolist(),
            "p2": run.p2.tolist(),
            "masks": _Rendered(masks),
            "total_pointers": aset.total_pointers,
        }
        if trace is not None:
            obj["trace_steps"], obj["trace_truncated"] = kept, truncated
        _emit_json(obj)
        return EXIT_OK

    write = sys.stdout.write
    write(f"dataset: {ds.m} exemplars, {ds.n} features\ngiven: {' '.join(given)}\n")
    write(f"V2:\n{_matrix(run.v2)}W2:\n{_matrix(run.w2)}P2:\n{_matrix(run.p2)}")
    for lane, c2, h2, flag, a2, restored in run.lanes():
        write(
            f"\nmask {lane:0{ds.n}b}: flag {int(flag)} ({'homogeneous' if flag else 'heterogeneous'}), "
            f"ancillas {'restored' if restored else 'NOT restored'}\n"
            f"C2:\n{_matrix(c2)}H2:\n{_matrix(h2)}A2:\n{_matrix(a2)}"
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
