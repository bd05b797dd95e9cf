"""Golden digests of CLI stdout: every report stays byte-identical across changes.

Each case runs one subcommand in-process and pins the SHA-256 of its stdout
together with its exit code.  The digests were recorded before the engines
began sharing one lattice record, so any change to a report's bytes, in
either engine or format, fails here.  The ``escaped`` dataset's digests were
recorded before reports were streamed through the JSON writer, so they pin
the escaping of ``json.dumps(indent=2)``: quotes, backslashes, and non-ASCII
and astral-plane text as ``\\uXXXX`` escapes.  The ``measures`` digests were
recorded before reports were written through ``json.dumps`` itself; they pin
the only float fields of any report.
"""

import hashlib
import random
from importlib.resources import files

import pytest

import analogical.cli as cli

GENERATED_SEED = 11


def _generated_text() -> tuple[str, str]:
    """A seeded dataset with m=12, n=5 and 3 outcomes, and its given context."""
    rng = random.Random(GENERATED_SEED)
    outcomes = ["x", "y", "z"] + [rng.choice("xyz") for _ in range(9)]
    rng.shuffle(outcomes)
    lines = [f"{o}\t{' '.join(rng.choice('abc') for _ in range(5))}" for o in outcomes]
    return "\n".join(lines) + "\n", " ".join(rng.choice("abc") for _ in range(5))


# outcome labels and feature symbols that a JSON report must escape
ESCAPED_TEXT = (
    '"q"\ta"b c\\d \u00e9\n'
    'back\\slash\ta"b x \u2603\n'
    '\u00e9\tz c\\d \u00e9\n'
    '\u2603\ta"b c\\d \U0001d11e\n'
    '"q"\tz x \u00e9\n'
    '\u00e9\ta"b x \U0001d11e\n'
    'back\\slash\tz c\\d \u2603\n'
    '\u2603\ta"b c\\d \u00e9\n'
)
ESCAPED_GIVEN = 'a"b c\\d \u00e9'


def _cases():
    for engine in ("fast", "gates"):
        for fmt in ("text", "json"):
            yield f"predict-{fmt}-{engine}", ["predict", "--engine", engine, "--format", fmt]
            yield f"explain-{fmt}-{engine}", ["explain", "--engine", engine, "--format", fmt]
            yield f"sample-{fmt}-{engine}", ["sample", "--engine", engine, "--format", fmt, "--seed", "5"]
    for fmt in ("text", "json"):
        yield f"gates-{fmt}", ["gates", "--format", fmt]
        yield f"gates-{fmt}-trace", ["gates", "--format", fmt, "--trace"]


CASES = dict(_cases())

# (exit code, SHA-256 of stdout) per dataset and case
GOLDEN = {
    ("worked", "predict-text-fast"): (0, "716d78f6dbc3750b52c1559430711c1c5a223dbbd7b213a700a6cbc5d906df5e"),
    ("worked", "explain-text-fast"): (0, "2b93563bee8c765341b537fc68abe2748237b2cb1b67cdd0b7bcb1f280220ca0"),
    ("worked", "sample-text-fast"): (0, "73cb3858a687a8494ca3323053016282f3dad39d42cf62ca4e79dda2aac7d9ac"),
    ("worked", "predict-json-fast"): (0, "4e4f25078f72a85debec35425fa00a9e410e0a78655e357f6b19f9d4f097f25d"),
    ("worked", "explain-json-fast"): (0, "b1e955fd7cb4788012f4e3fb4c1105bdf7973cc87477cfa943014b35fc337e3d"),
    ("worked", "sample-json-fast"): (0, "6b3181092e59e4464b48bb836e1cb2c27bbb10e24e0b4b6763175e7f50e5419f"),
    ("worked", "predict-text-gates"): (0, "716d78f6dbc3750b52c1559430711c1c5a223dbbd7b213a700a6cbc5d906df5e"),
    ("worked", "explain-text-gates"): (0, "2b93563bee8c765341b537fc68abe2748237b2cb1b67cdd0b7bcb1f280220ca0"),
    ("worked", "sample-text-gates"): (0, "73cb3858a687a8494ca3323053016282f3dad39d42cf62ca4e79dda2aac7d9ac"),
    ("worked", "predict-json-gates"): (0, "4e4f25078f72a85debec35425fa00a9e410e0a78655e357f6b19f9d4f097f25d"),
    ("worked", "explain-json-gates"): (0, "b1e955fd7cb4788012f4e3fb4c1105bdf7973cc87477cfa943014b35fc337e3d"),
    ("worked", "sample-json-gates"): (0, "6b3181092e59e4464b48bb836e1cb2c27bbb10e24e0b4b6763175e7f50e5419f"),
    ("worked", "gates-text"): (0, "3c2448b4ae4c9ea74e4d04139d25b296cf1b8f14e40cc1ef7329892817c6fa57"),
    ("worked", "gates-text-trace"): (0, "6f801dc124399c29f860cedf28df8c7beca2722999cd4cafd202508689f91f24"),
    ("worked", "gates-json"): (0, "28f7e485647c1e1727dca190c1783be55dc6022720d7f0a7a1fbebc05732471f"),
    ("worked", "gates-json-trace"): (0, "d776171f112bbce76b6767dc3995fab170a679c1424cb8fc43540fb9c2237003"),
    ("generated", "predict-text-fast"): (0, "2f7a5163053b413949bee5623b081352f77638383f1701ac3caa8cfe440c6ca7"),
    ("generated", "explain-text-fast"): (0, "aae925540675899fcec783f2426e2caf25a095c3c2ba394a35f24f72e4fbf0cd"),
    ("generated", "sample-text-fast"): (0, "c865f6c5ab8d1b0bcd383a5e1e3879d22681c96bf462c269b7581d523fbe70ab"),
    ("generated", "predict-json-fast"): (0, "23659ae9f8b6c0793ef5e7f21c8340c23c32a3e23c672e68beffe25c843395a1"),
    ("generated", "explain-json-fast"): (0, "6faea26a14944c5d0daf9e859d530702499ddaf9cb1e66956ab1b8760e9681ba"),
    ("generated", "sample-json-fast"): (0, "ca0f4549f8d20a8182be3619adc8db7ceaa6c7b2507ab589f3d46ce448436ec6"),
    ("generated", "predict-text-gates"): (0, "2f7a5163053b413949bee5623b081352f77638383f1701ac3caa8cfe440c6ca7"),
    ("generated", "explain-text-gates"): (0, "aae925540675899fcec783f2426e2caf25a095c3c2ba394a35f24f72e4fbf0cd"),
    ("generated", "sample-text-gates"): (0, "c865f6c5ab8d1b0bcd383a5e1e3879d22681c96bf462c269b7581d523fbe70ab"),
    ("generated", "predict-json-gates"): (0, "23659ae9f8b6c0793ef5e7f21c8340c23c32a3e23c672e68beffe25c843395a1"),
    ("generated", "explain-json-gates"): (0, "6faea26a14944c5d0daf9e859d530702499ddaf9cb1e66956ab1b8760e9681ba"),
    ("generated", "sample-json-gates"): (0, "ca0f4549f8d20a8182be3619adc8db7ceaa6c7b2507ab589f3d46ce448436ec6"),
    ("generated", "gates-text"): (0, "556b35b694f36092403ee8c092b2009fa6886a070da6d7a1aa0d1070b81a70d1"),
    ("generated", "gates-text-trace"): (0, "8521996d76bd0edb83b40523d119871ad6ea70a233c65db3e895d3d0f03d7145"),
    ("generated", "gates-json"): (0, "34d4cfbec35d86e093111f446503094f4c93e7156f2f84fd6b1b2d315ea28b8b"),
    ("generated", "gates-json-trace"): (0, "d9c2c22e6fd4090a4afc5e783489ed17ca96b81490a786ee74ef7b1c8141509d"),
    ("escaped", "predict-text-fast"): (0, "669c35f082f1d784b43c1ae286a240ed3bf9103c30eb80d0caec237d903cb50b"),
    ("escaped", "explain-text-fast"): (0, "f259259c99305cc443efb603e27407f40903c033deb154049459e3aa15abf9a3"),
    ("escaped", "sample-text-fast"): (0, "8d502da610b3c153d5aedaaf5323c0d49f61401d4791b4b1ffe9e36c6cbe09a0"),
    ("escaped", "predict-json-fast"): (0, "5a2e779e1f3b6ac47ac7afbe704f08d3a81d8318c2ae8e1ad0e47c1350b87fb5"),
    ("escaped", "explain-json-fast"): (0, "a1eca4bacd936849940b0f80010978ec008b674f8177bb9d7414274ab7977c12"),
    ("escaped", "sample-json-fast"): (0, "03dd0e6becece54f7d32a8b349277fba896d19f38da0363885ea7db37bebc3eb"),
    ("escaped", "predict-text-gates"): (0, "669c35f082f1d784b43c1ae286a240ed3bf9103c30eb80d0caec237d903cb50b"),
    ("escaped", "explain-text-gates"): (0, "f259259c99305cc443efb603e27407f40903c033deb154049459e3aa15abf9a3"),
    ("escaped", "sample-text-gates"): (0, "8d502da610b3c153d5aedaaf5323c0d49f61401d4791b4b1ffe9e36c6cbe09a0"),
    ("escaped", "predict-json-gates"): (0, "5a2e779e1f3b6ac47ac7afbe704f08d3a81d8318c2ae8e1ad0e47c1350b87fb5"),
    ("escaped", "explain-json-gates"): (0, "a1eca4bacd936849940b0f80010978ec008b674f8177bb9d7414274ab7977c12"),
    ("escaped", "sample-json-gates"): (0, "03dd0e6becece54f7d32a8b349277fba896d19f38da0363885ea7db37bebc3eb"),
    ("escaped", "gates-text"): (0, "c194e6fafbc826bdd8ca79b93a306ec8aa6cdaf4b37a5107561fb6250fe8dcb6"),
    ("escaped", "gates-text-trace"): (0, "9486639ed40fe50f6ea4e7270c6ff88213de9e4f291aa0f800c2e41fdc4bc4d7"),
    ("escaped", "gates-json"): (0, "4103a67534ce45e04b0dc1ebfdeaa450e55192ac4fd5441dd4a03830c7e87384"),
    ("escaped", "gates-json-trace"): (0, "beeea8a7a756b9fba141b3e2426359ebd47a8471be8d534fa4d7353589e04584"),
}


@pytest.fixture(scope="module")
def datasets(tmp_path_factory):
    text, given = _generated_text()
    folder = tmp_path_factory.mktemp("golden")
    (folder / "generated.tsv").write_text(text, encoding="utf-8")
    (folder / "escaped.tsv").write_text(ESCAPED_TEXT, encoding="utf-8")
    return {
        "worked": (str(files("analogical").joinpath("data/worked_example.tsv")), "o m a"),
        "generated": (str(folder / "generated.tsv"), given),
        "escaped": (str(folder / "escaped.tsv"), ESCAPED_GIVEN),
    }


@pytest.mark.parametrize("dataset", ["worked", "generated", "escaped"])
@pytest.mark.parametrize("case", CASES)
def test_cli_stdout_matches_golden_digest(datasets, dataset, case, capsys):
    path, given = datasets[dataset]
    code = cli.main([*CASES[case], "--dataset", path, "--given", given])
    digest = hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest()
    assert (code, digest) == GOLDEN[dataset, case]


# a density on [0, 1] whose trapezoid sums are exact in binary: it integrates to 1, Z' = 1.5
DENSITY_TEXT = "# x f(x)\n0 0\n0.25 1\n0.5 2\n0.75 1\n1 0\n"
# labels a JSON report must escape, with entropy 1.5 bits
INLINE_PAIRS = ['a"b:1/2', "\u00e9:1/4", "\u2603\\x:1/4"]

MEASURES_GOLDEN = {
    ("inline", "text"): (0, "5b8dc296f9d53dfff4d40a8bbb603439004d8c43a3400f86ef4b0aa70a78a37f"),
    ("inline", "json"): (0, "5985f686e68809993a45d863d52d3453fa405afd4500dadabc3351695a190852"),
    ("dataset", "text"): (0, "3c2ac21b44920715d55f02101132185ffce6d55aab09e03e4fd0802851ebc34c"),
    ("dataset", "json"): (0, "fbd0ce768b0a3358f44d7e0fd3cb50fdb9cd45c8d62cf5ef93d71c7e0417a018"),
    ("density", "text"): (0, "371db94a3737ccc7d15ff5bd58030c9ae781f336c09fc2846f5b52fb3a8a229e"),
    ("density", "json"): (0, "9ea330eb4ea1a001d6a96025af1cff70e2929148c61f711afd4eb46015d689c0"),
}


@pytest.mark.parametrize("source, fmt", MEASURES_GOLDEN)
def test_measures_stdout_matches_golden_digest(datasets, tmp_path, source, fmt, capsys):
    density = tmp_path / "density.txt"
    density.write_text(DENSITY_TEXT, encoding="utf-8")
    argv = {
        "inline": INLINE_PAIRS,
        "dataset": ["--dataset", datasets["worked"][0], "--given", datasets["worked"][1]],
        "density": ["--density", str(density)],
    }[source]
    code = cli.main(["measures", *argv, "--format", fmt])
    digest = hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest()
    assert (code, digest) == MEASURES_GOLDEN[source, fmt]
