"""CLI reports against the library oracles on random instances, and fuzzed exit codes."""

import io
import json
import random
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from itertools import combinations, product
from pathlib import Path

from hypothesis import given as hgiven
from hypothesis import settings
from hypothesis import strategies as st

import analogical.cli as cli
from analogical import (
    Dataset,
    bits_to_str,
    contained_exemplars,
    difference_vector,
    is_homogeneous_determinism,
    is_homogeneous_disagreement,
    is_homogeneous_plurality,
    is_homogeneous_pointer,
    iter_masks,
    pointer_heterogeneity_matrix,
    serialize_dataset,
)
from helpers import random_instance


def call_main(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue()


def _explain_instances():
    """Random instances up to n=6, each with a duplicated exemplar, plus m=1."""
    rng = random.Random(5)
    for _ in range(30):
        ds, given = random_instance(rng, max_m=8, max_n=6)
        pairs = [(e.context, e.outcome) for e in ds.exemplars]
        yield Dataset.from_pairs(pairs + [rng.choice(pairs)]), given
        yield Dataset.from_pairs(pairs[:1]), given


def test_explain_records_match_oracles(tmp_path):
    path = tmp_path / "ds.tsv"
    explained, sizes, offending_sizes = 0, set(), set()
    for ds, given in _explain_instances():
        path.write_text(serialize_dataset(ds), encoding="utf-8")
        argv = ["explain", "--dataset", str(path), "--given", " ".join(given)]
        code, out = call_main(argv + ["--format", "json"])
        if code == cli.EXIT_NO_SUPPORT:
            continue
        assert code == 0
        explained += 1
        assert out == json.dumps(json.loads(out), indent=2) + "\n"
        p2 = pointer_heterogeneity_matrix(ds, given)
        entries = json.loads(out)["masks"]
        assert len(entries) == 2 ** ds.n
        for entry, mask in zip(entries, iter_masks(ds.n)):
            members = list(contained_exemplars(ds, given, mask))
            homogeneous = is_homogeneous_pointer(ds, given, mask)
            groups = {}
            for j in members:
                d = difference_vector(ds.exemplars[j - 1].context, given)
                groups.setdefault(bits_to_str(d), []).append(j)
            assert entry == {
                "mask": bits_to_str(mask),
                "members": members,
                "member_outcomes": [ds.exemplars[j - 1].outcome for j in members],
                "subcontexts": groups,
                "homogeneous": homogeneous,
                "verdicts": {
                    "pointer": homogeneous,
                    "plurality": is_homogeneous_plurality(ds, given, mask),
                    "determinism": is_homogeneous_determinism(ds, given, mask),
                    "disagreement": is_homogeneous_disagreement(ds, given, mask),
                },
                "pointer_count": len(members) ** 2 if homogeneous else 0,
                "pointers": [list(p) for p in product(members, repeat=2)] if homogeneous else [],
                "offending_pairs": [] if homogeneous else [
                    [a, b] for a, b in combinations(members, 2) if p2[a - 1, b - 1]
                ],
            }
            sizes.add(len(members))
            if not homogeneous:
                offending_sizes.add(len(members))

        for fmt in ("text", "json"):
            outs = {call_main(argv + ["--format", fmt, "--engine", e]) for e in ("fast", "gates")}
            assert len(outs) == 1
    assert explained >= 55
    # masks of 0, 1 and 2 members, and offending pairs among exactly 2
    assert {0, 1, 2} <= sizes and 2 in offending_sizes


# --- fuzzed invocations --------------------------------------------------------------

_FORMATS = [["--format", "json"], ["--format", "text"]]
_ENGINES = [["--engine", "fast"], ["--engine", "gates"]]
_VALID = {
    "predict": _FORMATS + _ENGINES,
    "explain": _FORMATS + _ENGINES,
    "gates": _FORMATS + [["--trace"]],
    "sample": _FORMATS + _ENGINES + [["--seed", "3"], ["--seed", "-7"]],
    "measures": _FORMATS + _ENGINES + [["y:1/2", "x:1/2"], ["x:1"], ["x:0.25", "y:3/4"]],
}
_INVALID = [
    ["--format", "xml"], ["--engine"], ["--seed", "x"], ["--trace"], ["--help"], ["--bogus"],
    ["x:1e400"], ["x:nan"], ["y:"], [":"], ["--n-cap", "-1"], ["--n-cap", "1"],
    ["--dataset", "/no/such/file"], ["frobnicate"],
]


@st.composite
def _invocations(draw):
    """One argv plus the bytes of the file its --dataset and --density point at."""
    n = draw(st.integers(min_value=1, max_value=6))
    context = st.lists(st.sampled_from("ab"), min_size=n, max_size=n).map(" ".join)
    pairs = draw(st.lists(st.tuples(st.sampled_from("xyz"), context), min_size=1, max_size=6))
    data = draw(st.one_of(
        st.just("".join(f"{o}\t{c}\n" for o, c in pairs).encode()),
        st.text(max_size=40).map(str.encode),
        st.binary(max_size=20),
    ))
    given = draw(st.one_of(context, st.text(max_size=10)))
    command = draw(st.sampled_from(sorted(_VALID)))
    # every lattice stays at or under 2^8 masks
    argv = [command, "--n-cap", "8"]
    if command != "measures" or draw(st.booleans()):
        argv += ["--dataset", "DATA", "--given", given]
    if command == "measures" and draw(st.booleans()):
        argv += ["--density", "DATA"]
    if command == "sample":
        argv += ["--seed", "11"]
    options = draw(st.lists(st.sampled_from(_VALID[command]), max_size=3, unique_by=tuple))
    if draw(st.integers(min_value=0, max_value=3)) == 0:
        options.append(draw(st.sampled_from(_INVALID)))
    for option in draw(st.permutations(options)):
        argv += option
    return argv, data


@settings(max_examples=150, deadline=None)
@hgiven(_invocations())
def test_fuzzed_cli_exit_codes(invocation):
    argv, data = invocation
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "data.tsv"
        path.write_bytes(data)
        code, out = call_main([str(path) if a == "DATA" else a for a in argv])
    assert code in {0, 2, 3, 4}, argv
    # reports stream, so every mapped error must come before the first byte
    assert code == 0 or out == "", argv
