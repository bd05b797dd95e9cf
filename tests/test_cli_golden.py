"""Golden digests of CLI stdout: every report stays byte-identical across changes.

Each case runs one subcommand in-process and pins the SHA-256 of its stdout
together with its exit code.  The digests were recorded before the engines
began sharing one lattice record, so any change to a report's bytes, in
either engine or format, fails here.
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
}


@pytest.fixture(scope="module")
def datasets(tmp_path_factory):
    text, given = _generated_text()
    path = tmp_path_factory.mktemp("golden") / "generated.tsv"
    path.write_text(text, encoding="utf-8")
    return {
        "worked": (str(files("analogical").joinpath("data/worked_example.tsv")), "o m a"),
        "generated": (str(path), given),
    }


@pytest.mark.parametrize("dataset", ["worked", "generated"])
@pytest.mark.parametrize("case", CASES)
def test_cli_stdout_matches_golden_digest(datasets, dataset, case, capsys):
    path, given = datasets[dataset]
    code = cli.main([*CASES[case], "--dataset", path, "--given", given])
    digest = hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest()
    assert (code, digest) == GOLDEN[dataset, case]
