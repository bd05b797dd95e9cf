"""End-to-end command-line behavior: outputs, formats, and exit codes."""

import codecs
import json
import os
import random
import tracemalloc
from contextlib import redirect_stdout
from fractions import Fraction

import numpy as np
import pytest

import analogical.cli as cli
import analogical.gates as gates
import analogical.homogeneity as homogeneity
from analogical import (
    Dataset,
    GateTrace,
    NoAnalogicalSupportError,
    analogical_set,
    bits_to_str,
    load_worked_example,
    predict_distribution,
    run_qam_circuit,
    serialize_dataset,
)
from helpers import EXPECTED_HOMOGENEOUS, EXPECTED_MEMBERS, EXPECTED_P2


@pytest.fixture()
def worked_path():
    from importlib.resources import files

    return str(files("analogical").joinpath("data/worked_example.tsv"))


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --- predict -------------------------------------------------------------------

def test_predict_text(worked_path, capsys):
    code, out, err = run_cli(
        capsys, "predict", "--dataset", worked_path, "--given", "o m a"
    )
    assert code == 0
    assert out == (
        "y 4/13, x 9/13 (13 pointers)\n"
        "pointers: y 4, x 9\n"
        "most likely: x\n"
    )


def test_predict_engines_byte_identical(worked_path, capsys):
    outputs = {}
    for fmt in ("text", "json"):
        for engine in ("fast", "gates"):
            code, out, err = run_cli(
                capsys,
                "predict",
                "--dataset", worked_path,
                "--given", "o m a",
                "--engine", engine,
                "--format", fmt,
            )
            assert code == 0
            outputs.setdefault(fmt, set()).add(out)
    assert len(outputs["text"]) == 1
    assert len(outputs["json"]) == 1


def test_predict_json_round_trip(worked_path, capsys):
    code, out, _ = run_cli(
        capsys, "predict", "--dataset", worked_path, "--given", "o m a",
        "--format", "json",
    )
    assert code == 0
    report = json.loads(out)
    assert report["schema_version"] == 1
    assert report["total_pointers"] == 13
    assert report["pointer_counts"] == {"y": 4, "x": 9}
    ds, given = load_worked_example()
    dist = predict_distribution(analogical_set(ds, given))
    rebuilt = {o: Fraction(p) for o, p in report["probabilities"].items()}
    assert rebuilt == dist.probabilities
    assert report["most_likely"] == "x"


def test_predict_single_exemplar(tmp_path, capsys):
    path = tmp_path / "one.tsv"
    path.write_text("w\ta b\n", encoding="utf-8")
    code, out, _ = run_cli(
        capsys, "predict", "--dataset", str(path), "--given", "a c"
    )
    assert code == 0
    # the exemplar sits in masks 10 and 00, one pointer each
    assert out.splitlines()[0] == "w 1 (2 pointers)"
    assert out.splitlines()[2] == "most likely: w"


# --- explain --------------------------------------------------------------------

def test_explain_text_blocks(worked_path, capsys):
    code, out, _ = run_cli(
        capsys, "explain", "--dataset", worked_path, "--given", "o m a"
    )
    assert code == 0
    assert "mask 111: empty, homogeneous, 0 pointers" in out
    assert "mask 101: empty, homogeneous, 0 pointers" in out
    assert "o m s / y -> o m n / x" in out
    assert "offending pairs: (1, 3), (1, 4)" in out
    assert out.rstrip().endswith("pointers: y 4, x 9")


def test_explain_json_round_trip(worked_path, capsys):
    code, out, _ = run_cli(
        capsys, "explain", "--dataset", worked_path, "--given", "o m a",
        "--format", "json",
    )
    assert code == 0
    report = json.loads(out)
    assert report["schema_version"] == 1
    by_mask = {entry["mask"]: entry for entry in report["masks"]}
    assert set(by_mask) == set(EXPECTED_MEMBERS)
    for mask_str, entry in by_mask.items():
        assert tuple(entry["members"]) == EXPECTED_MEMBERS[mask_str]
        assert entry["homogeneous"] == EXPECTED_HOMOGENEOUS[mask_str]
        assert set(entry["verdicts"].values()) == {EXPECTED_HOMOGENEOUS[mask_str]}
    assert by_mask["110"]["pointers"] == [[1, 1], [1, 5], [5, 1], [5, 5]]
    assert by_mask["110"]["subcontexts"] == {"001": [1, 5]}
    assert by_mask["010"]["offending_pairs"] == [[1, 3], [1, 4]]
    assert by_mask["010"]["pointer_count"] == 0
    assert Fraction(report["probabilities"]["y"]) == Fraction(4, 13)


def test_explain_engine_gates_matches_fast(worked_path, capsys):
    reports = []
    for engine in ("fast", "gates"):
        code, out, _ = run_cli(
            capsys, "explain", "--dataset", worked_path, "--given", "o m a",
            "--engine", engine,
        )
        assert code == 0
        reports.append(out)
    assert reports[0] == reports[1]


def test_explain_builds_no_per_mask_verdict(worked_path, capsys, monkeypatch):
    def refuse(self, mask):
        raise AssertionError("explain built a per-mask verdict")

    monkeypatch.setattr(homogeneity._LatticeVerdicts, "_verdict", refuse)
    for engine in ("fast", "gates"):
        for fmt in ("text", "json"):
            code, out, _ = run_cli(
                capsys, "explain", "--dataset", worked_path, "--given", "o m a",
                "--engine", engine, "--format", fmt,
            )
            assert code == 0 and "110" in out, (engine, fmt)


# --- gates ----------------------------------------------------------------------

def test_gates_text(worked_path, capsys):
    code, out, _ = run_cli(
        capsys, "gates", "--dataset", worked_path, "--given", "o m a"
    )
    assert code == 0
    lines = out.splitlines()
    p2_at = lines.index("P2:")
    assert lines[p2_at + 1] == "0 1 1 1 0 1"
    assert "mask 010: flag 0 (heterogeneous), ancillas restored" in lines
    assert "mask 110: flag 1 (homogeneous), ancillas restored" in lines
    assert lines[-1] == "total pointers: 13"


def test_gates_trace_line(worked_path, capsys):
    code, out, _ = run_cli(
        capsys, "gates", "--dataset", worked_path, "--given", "o m a", "--trace"
    )
    assert code == 0
    assert out.splitlines()[-1] == "trace: 16044 steps"


def test_gates_trace_line_truncated(tmp_path, capsys):
    # m=12, n=5: more gates than a default trace keeps
    rng = random.Random(3)
    pairs = [(tuple(rng.choice("ab") for _ in range(5)), rng.choice("xy")) for _ in range(12)]
    given = tuple(rng.choice("ab") for _ in range(5))
    ds = Dataset.from_pairs(pairs)
    path = tmp_path / "wide.tsv"
    path.write_text(serialize_dataset(ds), encoding="utf-8")
    full = GateTrace()
    run_qam_circuit(ds, given, trace=full)
    assert full.truncated and len(full.steps) == 200_000
    argv = ("gates", "--dataset", str(path), "--given", " ".join(given), "--trace")
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert out.splitlines()[-1] == f"trace: {len(full.steps)} steps (truncated)"
    code, out, _ = run_cli(capsys, *argv, "--format", "json")
    report = json.loads(out)
    assert (report["trace_steps"], report["trace_truncated"]) == (len(full.steps), full.truncated)


def test_gates_json(worked_path, capsys):
    code, out, _ = run_cli(
        capsys, "gates", "--dataset", worked_path, "--given", "o m a",
        "--format", "json", "--trace",
    )
    assert code == 0
    report = json.loads(out)
    assert report["schema_version"] == 1
    assert report["m"] == 6 and report["n"] == 3
    np.testing.assert_array_equal(np.array(report["p2"]), EXPECTED_P2)
    by_mask = {entry["mask"]: entry for entry in report["masks"]}
    assert by_mask["110"]["flag"] == 1
    assert by_mask["010"]["flag"] == 0
    assert all(entry["ancillas_restored"] for entry in report["masks"])
    assert report["total_pointers"] == 13
    assert report["trace_steps"] > 0
    assert report["trace_truncated"] is False


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_gates_report_unpacks_no_whole_register(tmp_path, monkeypatch, fmt):
    # m=8, n=14: every mask's C2, H2 and A2 unpacked at once would take 3 MB
    # of bits plus an array object per matrix; the report reads, renders and
    # writes one mask at a time
    rng = random.Random(8)
    m, n = 8, 14
    ds = Dataset.from_pairs([(tuple(rng.choice("ab") for _ in range(n)), rng.choice("xyz")) for _ in range(m)])
    path = tmp_path / "ds.tsv"
    path.write_text(serialize_dataset(ds), encoding="utf-8")
    argv = ["gates", "--dataset", str(path), "--given", " ".join(rng.choice("ab") for _ in range(n)), "--format", fmt]
    unpacked = []
    unpack = gates._unpack_blocks
    # each call's count of blocks: the flag block is one, a whole C2 m * m
    record = lambda rows, lanes: unpacked.append(rows.size // rows.shape[-1]) or unpack(rows, lanes)
    monkeypatch.setattr(gates, "_unpack_blocks", record)
    with open(os.devnull, "w", encoding="ascii") as devnull, redirect_stdout(devnull):
        tracemalloc.start()
        try:
            code = cli.main(argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert code == 0
    assert unpacked and max(unpacked) < m * m
    assert peak < 4 << 20


# --- sample ---------------------------------------------------------------------

def test_sample_deterministic(worked_path, capsys):
    outs = set()
    for _ in range(3):
        code, out, _ = run_cli(
            capsys, "sample", "--dataset", worked_path, "--given", "o m a",
            "--seed", "9",
        )
        assert code == 0
        outs.add(out)
    assert len(outs) == 1
    assert outs.pop().strip() in {"x", "y"}


def test_sample_requires_seed(worked_path, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["sample", "--dataset", worked_path, "--given", "o m a"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_sample_json(worked_path, capsys):
    code, out, _ = run_cli(
        capsys, "sample", "--dataset", worked_path, "--given", "o m a",
        "--seed", "3", "--format", "json",
    )
    assert code == 0
    report = json.loads(out)
    assert report["command"] == "sample"
    assert report["seed"] == 3
    assert report["outcome"] in {"x", "y"}


# --- measures ---------------------------------------------------------------------

def test_measures_inline(capsys):
    code, out, _ = run_cli(capsys, "measures", "y:0.5", "x:0.5")
    assert code == 0
    assert out == "H = 1.0\nQ = 1/2\nZ = 1/2\n"


def test_measures_from_dataset(worked_path, capsys):
    code, out, _ = run_cli(
        capsys, "measures", "--dataset", worked_path, "--given", "o m a"
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[1] == "Q = 72/169"
    assert lines[2] == "Z = 97/169"


def test_measures_point_mass(capsys):
    code, out, _ = run_cli(capsys, "measures", "x:1")
    assert code == 0
    assert out == "H = 0.0\nQ = 0\nZ = 1\n"


def test_measures_json(capsys):
    code, out, _ = run_cli(
        capsys, "measures", "y:4/13", "x:9/13", "--format", "json"
    )
    assert code == 0
    report = json.loads(out)
    assert report["disagreement"] == "72/169"
    assert report["agreement"] == "97/169"
    assert abs(report["entropy_bits"] - 0.8904916402194913) < 1e-12


def test_measures_density(tmp_path, capsys):
    path = tmp_path / "tri.txt"
    xs = [i / 1000 for i in range(1001)]
    path.write_text(
        "\n".join(f"{x} {2 * x}" for x in xs) + "\n", encoding="utf-8"
    )
    code, out, _ = run_cli(capsys, "measures", "--density", str(path))
    assert code == 0
    assert out.startswith("Z' = 1.333")

    code, out, _ = run_cli(
        capsys, "measures", "y:0.5", "x:0.5", "--density", str(path)
    )
    assert code == 0
    assert out.splitlines()[0] == "H = 1.0"
    assert out.splitlines()[3].startswith("Z' = 1.333")


def test_measures_requires_a_source(capsys):
    code, _, err = run_cli(capsys, "measures")
    assert code == cli.EXIT_FORMAT
    assert "no distribution" in err


def test_measures_rejects_two_sources(worked_path, capsys):
    code, _, err = run_cli(
        capsys, "measures", "y:1", "--dataset", worked_path, "--given", "o m a"
    )
    assert code == cli.EXIT_FORMAT


def test_measures_given_needs_a_dataset(tmp_path, capsys):
    path = tmp_path / "density.txt"
    path.write_text("0 0\n1 1\n2 0\n")
    for source in (["x:1/2", "y:1/2"], ["--density", str(path)], []):
        code, out, err = run_cli(capsys, "measures", *source, "--given", "a b")
        assert code == cli.EXIT_FORMAT, source
        assert out == "" and "--given needs --dataset" in err


def test_measures_malformed_pairs(capsys):
    for bad in ("y", "y:", ":0.5", "y:nope", "y:1/0"):
        code, _, err = run_cli(capsys, "measures", bad)
        assert code == cli.EXIT_FORMAT, bad
    code, _, _ = run_cli(capsys, "measures", "y:0.5", "y:0.5")
    assert code == cli.EXIT_FORMAT


def test_measures_bad_sum(capsys):
    code, _, err = run_cli(capsys, "measures", "y:0.5", "x:0.6")
    assert code == cli.EXIT_FORMAT


def test_measures_exact_sum_error_says_which_side_of_1(capsys):
    # the CLI reads every probability exactly; the first two sums round to 1.0 as floats
    for argv, said in (
        (["x:1e-400", "y:1"], "probabilities sum to more than 1"),
        (["x:1/2", "y:4999999999999999999/10000000000000000000"], "probabilities sum to less than 1"),
        (["y:0.5", "x:0.6"], "probabilities sum to more than 1"),
    ):
        assert run_cli(capsys, "measures", *argv) == (cli.EXIT_FORMAT, "", f"error: {said}\n"), argv


def test_measures_exact_inputs_validated_exactly(capsys):
    # 1e400 is out of range; the second pair sums to 1 + 10^-13
    for argv in (["x:1e400"], ["x:1/2", "y:5000000000001/10000000000000"]):
        code, out, err = run_cli(capsys, "measures", *argv)
        assert code == cli.EXIT_FORMAT, argv
        assert out == ""
        assert err.startswith("error:") and len(err.splitlines()) == 1


# --- exit codes --------------------------------------------------------------------

def test_exit_code_missing_file(capsys):
    code, _, err = run_cli(
        capsys, "predict", "--dataset", "/no/such/file", "--given", "a"
    )
    assert code == cli.EXIT_FORMAT
    assert "error:" in err


def test_exit_code_malformed_dataset(tmp_path, capsys):
    path = tmp_path / "bad.tsv"
    path.write_text("y a b\n", encoding="utf-8")
    code, _, err = run_cli(
        capsys, "predict", "--dataset", str(path), "--given", "a b"
    )
    assert code == cli.EXIT_FORMAT


def test_exit_code_dataset_not_utf8(tmp_path, capsys):
    path = tmp_path / "bad.tsv"
    path.write_bytes(b"y\t\xff\xfe a\n")
    code, out, err = run_cli(capsys, "predict", "--dataset", str(path), "--given", "a")
    assert code == cli.EXIT_FORMAT
    assert out == ""
    assert err.startswith("error:") and len(err.splitlines()) == 1


def test_exit_code_density_not_utf8(tmp_path, capsys):
    path = tmp_path / "density.txt"
    path.write_bytes(b"0 1\n\xff 1\n")
    code, out, err = run_cli(capsys, "measures", "--density", str(path))
    assert code == cli.EXIT_FORMAT
    assert out == ""
    assert err.startswith("error:") and len(err.splitlines()) == 1


def test_byte_order_mark_is_ignored(tmp_path, capsys):
    text = b"x\ta b\ny\ta c\nx\tb b\n"
    for name, data in (("plain.tsv", text), ("bom.tsv", codecs.BOM_UTF8 + text)):
        (tmp_path / name).write_bytes(data)
    outputs = [
        run_cli(capsys, "predict", "--dataset", str(tmp_path / name), "--given", "a b")
        for name in ("plain.tsv", "bom.tsv")
    ]
    assert outputs[0] == outputs[1]
    assert outputs[0][1].startswith("x 1, y 0 (")

    density = b"0 0.5\n1 0.5\n2 0.5\n"
    (tmp_path / "density.txt").write_bytes(codecs.BOM_UTF8 + density)
    code, out, err = run_cli(capsys, "measures", "--density", str(tmp_path / "density.txt"))
    assert (code, out, err) == (0, "Z' = 0.5\n", "")


def test_exit_code_density_not_finite(tmp_path, capsys):
    path = tmp_path / "density.txt"
    path.write_text("0 nan\n1 1\n2 0\n", encoding="utf-8")
    code, out, err = run_cli(capsys, "measures", "--density", str(path))
    assert code == cli.EXIT_FORMAT
    assert out == ""
    assert "finite" in err and len(err.splitlines()) == 1


def test_exit_code_given_mismatch(worked_path, capsys):
    code, _, err = run_cli(
        capsys, "predict", "--dataset", worked_path, "--given", "o m"
    )
    assert code == cli.EXIT_FORMAT


def test_exit_code_size_cap(worked_path, capsys):
    code, _, err = run_cli(
        capsys, "predict", "--dataset", worked_path, "--given", "o m a",
        "--n-cap", "2",
    )
    assert code == cli.EXIT_SIZE
    code, _, err = run_cli(
        capsys, "gates", "--dataset", worked_path, "--given", "o m a",
        "--n-cap", "2",
    )
    assert code == cli.EXIT_SIZE


def test_exit_code_no_support(worked_path, capsys, monkeypatch):
    def raiser(_aset):
        raise NoAnalogicalSupportError("no homogeneous supracontext has members")

    monkeypatch.setattr(cli, "predict_distribution", raiser)
    data = ["--dataset", worked_path, "--given", "o m a"]
    for argv in (
        ["predict", *data],
        ["sample", *data, "--seed", "1"],
        # the report streams, so the error must come before its first byte
        ["explain", *data],
        ["explain", *data, "--format", "json"],
        ["measures", *data],
    ):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (cli.EXIT_NO_SUPPORT, ""), argv
        assert err.startswith("error: no homogeneous supracontext")


def test_parser_keeps_no_state_between_calls(worked_path, capsys):
    data = ["--dataset", worked_path, "--given", "o m a"]
    calls = [
        ["predict", *data, "--engine", "gates", "--format", "json"],
        ["predict", *data],
        ["predict", *data, "--format", "xml"],
        ["explain", *data],
    ]

    def run(call, argv):
        try:
            code = call(argv)
        except SystemExit as exc:
            code = exc.code
        return (code, *capsys.readouterr())

    def fresh(argv):
        args = cli.build_parser().parse_args(argv)
        return args.func(args)

    capsys.readouterr()
    expected = [run(fresh, argv) for argv in calls]
    assert [result[0] for result in expected] == [0, 0, 2, 0]
    assert [run(cli.main, argv) for argv in calls] == expected
    assert cli.build_parser() is not cli.build_parser()


def test_unknown_subcommand_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["frobnicate"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_distinct_exit_codes_documented():
    codes = {cli.EXIT_OK, cli.EXIT_FORMAT, cli.EXIT_SIZE, cli.EXIT_NO_SUPPORT}
    assert len(codes) == 4
