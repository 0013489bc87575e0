"""Golden outputs: the exact bytes of seeded CLI runs.

The sha256 digests were recorded on x86-64 Linux with numpy 2.4, in one
machine class: numpy's AVX-512 dispatch and OpenBLAS's SkylakeX kernel.
Those of ``generate`` and ``simulate`` come from the record-based
implementation that preceded the columnar cohorts, and those of ``estimate``
and ``diagnose``, which read the generated CSVs back, from the record-based
CSV reader and validator that preceded the columnar ones; those of ``fit``,
``sensitivity``, the full-bootstrap ``estimate`` and ``simulate`` with
coverage from the implementation that still accepted a cohort as records,
columns or a ``Cohort``; those of ``--help``, under Python 3.11, from the
parser that still handed argparse each option's type and choices. Any
refactor of generation, fitting, the lab or the parser must keep them; a
change here means the outputs changed, not just the code. Another class
may legitimately differ in the last bits: under OpenBLAS's Haswell kernel
or numpy's AVX2 dispatch, every run that fits a model gets other digests.
The skip below checks only the machine and numpy's version, so on such a
class these tests fail. The last test below reruns the matrix under that
class's settings and shows, from this class, that its outputs differ from
these in numerals only.
"""

import contextlib
import csv
import hashlib
import io
import json
import os
import pickle
import platform
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import attlab
from attlab.cli import main
from attlab.synth import ViolationShift
from attlab.violations import Scenario, ScenarioName, run_suite, standard_scenario, write_suite

pytestmark = pytest.mark.skipif(
    platform.machine() != "x86_64" or not np.__version__.startswith("2.4"),
    reason="digests were recorded on x86-64 with numpy 2.4",
)

GENERATE_SEED_5 = {
    "pre.csv": "bb371c63f87006759be60eda819b021d82d1abfe53c9271bfb2a06d7344b694a",
    "post.csv": "b8ed3460a044e986d926f8ae341821b7a408651cacb43f338cea9de4bbbe779a",
    "truth.json": "9604a4f6859e51b7e69620c5e66a779bc9ae3e13e40bb5b2c5f12122b85f69bb",
}

SIMULATE_ALL_4_SEED_3 = {
    "bias_report.json": "a751d55fad6da4b92d72208fcdec9d669e1a775420e5a2d8669f25b8709e7a5c",
}

SIMULATE_BASELINE_COVERAGE_2_SEED_3 = {
    "bias_report.json": "eee8592f82d1cd5d72253c70d9e8a7a7f871ff476ad57c04700e0364560cf9c7",
    "bias_report.csv": "33d7dab9da899044a7b1477509bb7f15fbde3d918ecaffc197853034f0420bc8",
}

FIT = {
    "model.json": "394e4b29cc9f324a2de3ad4744014defaa99cc521efb41c8f961a974744cd6bb",
}

SENSITIVITY = {
    "sensitivity.json": "1d2075666e61464c05644006993073176baaf64e66a5f80ea3b68cda9b0268b6",
}

ESTIMATE_FULL_200 = {
    "report.json": "b042d3f9792aaa93462b3bb6641b6093a3195e04bf277ae0584b099cd833babc",
}

ESTIMATE_FIXED_3_SCALES = {
    "report.json": "bb3e9108d741a2cbd91659d30a2a8513ec49aeda78652c4c5c5e124bb0214507",
}

DIAGNOSE_200 = {
    "diagnostics.json": "bbe4ec287a9c7a2bf4278143bfe253318e66ffbf18492defd8801df943b0aae1",
    "negative_control_curve.csv": "1f75ed0429e2705b172ff7e0d7303bfac3586bc4d70cb19b869eeb76f88faa4b",
    "dose_transport_curve.csv": "d687d6481dfd1cf5ee980384a1c1196b133a775d0abe7f2105726ba506ff209e",
}


def digests(out, names):
    return {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in names}


def test_generate_seed_5_is_byte_identical(tmp_path):
    assert main(["generate", "--seed", "5", "--out", str(tmp_path), "--quiet"]) == 0
    assert digests(tmp_path, GENERATE_SEED_5) == GENERATE_SEED_5


def test_simulate_all_scenarios_is_byte_identical(tmp_path):
    argv = ["simulate", "--scenario", "all", "--replicates", "4", "--seed", "3", "--out", str(tmp_path), "--quiet"]
    assert main(argv) == 0
    assert digests(tmp_path, SIMULATE_ALL_4_SEED_3) == SIMULATE_ALL_4_SEED_3


def test_simulate_with_coverage_is_byte_identical(tmp_path):
    argv = ["simulate", "--scenario", "baseline", "--with-coverage", "--boot-replicates", "100",
            "--replicates", "2", "--seed", "3", "--out", str(tmp_path), "--quiet"]
    assert main(argv) == 0
    assert digests(tmp_path, SIMULATE_BASELINE_COVERAGE_2_SEED_3) == SIMULATE_BASELINE_COVERAGE_2_SEED_3


@pytest.fixture(scope="module")
def world_seed_5(tmp_path_factory):
    out = tmp_path_factory.mktemp("world_seed_5")
    assert main(["generate", "--seed", "5", "--out", str(out), "--quiet"]) == 0
    return ["--pre", str(out / "pre.csv"), "--post", str(out / "post.csv"), "--seed", "5"]


def test_fit_on_the_seed_5_world_is_byte_identical(tmp_path, world_seed_5):
    assert main(["fit", *world_seed_5[:2], "--out", str(tmp_path), "--quiet"]) == 0
    assert digests(tmp_path, FIT) == FIT


def test_sensitivity_on_the_seed_5_world_is_byte_identical(tmp_path, world_seed_5):
    assert main(["sensitivity", *world_seed_5, "--out", str(tmp_path), "--quiet"]) == 0
    assert digests(tmp_path, SENSITIVITY) == SENSITIVITY


def test_full_bootstrap_estimate_on_the_seed_5_world_is_byte_identical(tmp_path, world_seed_5):
    argv = ["estimate", *world_seed_5, "--bootstrap", "full", "--replicates", "200", "--out", str(tmp_path), "--quiet"]
    assert main(argv) == 0
    assert digests(tmp_path, ESTIMATE_FULL_200) == ESTIMATE_FULL_200


def test_estimate_on_the_seed_5_world_is_byte_identical(tmp_path, world_seed_5):
    argv = ["estimate", *world_seed_5, "--bootstrap", "fixed", "--replicates", "200",
            "--scale", "rd", "--scale", "rr", "--scale", "or", "--out", str(tmp_path), "--quiet"]
    assert main(argv) == 0
    assert digests(tmp_path, ESTIMATE_FIXED_3_SCALES) == ESTIMATE_FIXED_3_SCALES


def test_diagnose_on_the_seed_5_world_is_byte_identical(tmp_path, world_seed_5):
    argv = ["diagnose", *world_seed_5, "--replicates", "200", "--out", str(tmp_path), "--quiet"]
    assert main(argv) == 0
    assert digests(tmp_path, DIAGNOSE_200) == DIAGNOSE_200


# ``attlab --help`` (key "") and each ``attlab <command> --help`` at 80 columns.
HELP = {
    "": "566bc7a9a66a31f7e44b7d21eea7edd9cccc82bc7d13492b0e1cb9940b4324bb",
    "generate": "467206b5df740fc85ebd8c83a9ac026f20419299eb12c58ed744ef0f9c85fad4",
    "fit": "30ffa3171adba636c6a9ed809cf7676c929f51935838fa83ee1b55228c8f25fc",
    "estimate": "b5795010f7e74a00e219870d2ebc650162269fe4bbc6fb4d91dcf97570c93429",
    "diagnose": "c34b549fe827d14b29274858ce9d75614d88b94b9c7445431d2b6b370ac33c55",
    "sensitivity": "871f9a1bc9fc1659f6fe1565b25ec36635b4a1d7914e5d38ee245274daf43033",
    "simulate": "9f0921a74d8336feadb94ed4aef09c65459e1230b1fffcc7bfa8de8784487e27",
}


@pytest.mark.skipif(sys.version_info[:2] != (3, 11), reason="argparse lays out help differently in each Python version")
@pytest.mark.parametrize("command", HELP)
def test_help_is_byte_identical(monkeypatch, capsys, command):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"] if command else ["--help"])
    assert exc.value.code == 0
    assert hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest() == HELP[command]

# --- the byte-identity matrix ------------------------------------------------
# Every command at seeds 1 and 7919 on the default, the shifted and a
# 20-patient development world. For each run the digests pin every file it
# writes, its stdout with the run directory's path removed, its stderr and
# its exit code. They were recorded with the sources that preceded the CLI's
# use of ``errors.checked`` for its options.

SHIFT = ("--dose-drift", "5", "--confounder-strength", "1", "--truncate-organ", "dose_sup_pcm",
         "--truncate-max", "50", "--nonlinearity", "0.8")


def matrix(seed: int, root):
    """Each run of the matrix at ``seed``, by name: its argv, --out aside. The generate runs come first."""
    seeded = ("--seed", str(seed))
    plain, shifted, small = (("--pre", str(root / name / "pre.csv"), "--post", str(root / name / "post.csv"))
                             for name in ("generate", "generate_shifted", "generate_small"))
    return {
        "generate": ("generate", *seeded),
        "generate_shifted": ("generate", *seeded, *SHIFT),
        "generate_small": ("generate", *seeded, "--n-pre", "20", "--n-post", "60"),
        "fit_quadratic": ("fit", *plain[:2], "--spec", "quadratic"),
        "estimate_3_scales": ("estimate", *plain, *seeded, "--scale", "rd", "--scale", "rr", "--scale", "or",
                              "--replicates", "2000"),
        "estimate_fixed_shifted": ("estimate", *shifted, *seeded, "--bootstrap", "fixed"),
        "diagnose": ("diagnose", *plain, *seeded),
        "sensitivity_3_variants": ("sensitivity", *plain, *seeded, "--variant", "linear", "--variant", "quadratic",
                                   "--variant", "interactions", "--bootstrap", "full", "--replicates", "200"),
        "simulate_all": ("simulate", *seeded, "--scenario", "all", "--replicates", "10", "--threads", "1"),
        "simulate_coverage": ("simulate", *seeded, "--scenario", "baseline", "--with-coverage",
                              "--boot-replicates", "200", "--replicates", "8", "--threads", "2"),
        "sensitivity_small": ("sensitivity", *small, *seeded, "--variant", "linear", "--variant", "interactions"),
        "diagnose_small": ("diagnose", *small, *seeded),
    }


def sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def matrix_outputs(seed: int, root) -> dict:
    """Each run's outputs, by name: its exit code, stdout (the run directory's path removed), stderr and every file
    it writes, each file by name as bytes."""
    outputs = {}
    for name, argv in matrix(seed, root).items():
        out = root / name
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main([*argv, "--out", str(out)])
        files = sorted(out.iterdir()) if out.is_dir() else []
        outputs[name] = {"exit": code, "stdout": stdout.getvalue().replace(f"{root}{os.sep}", "").encode(),
                         "stderr": stderr.getvalue().encode(), **{p.name: p.read_bytes() for p in files}}
    return outputs


def run_matrix(seed: int, root) -> dict:
    """Each run's digests, by name: its exit code, stdout, stderr and every file it writes."""
    return {name: {key: value if key == "exit" else sha(value) for key, value in outputs.items()}
            for name, outputs in matrix_outputs(seed, root).items()}


def write_failing_suite(out) -> dict:
    """The digests of ``write_suite`` of a suite whose first scenario fails and whose second runs."""
    failing = Scenario(name=ScenarioName.BASELINE, shift=ViolationShift(), n_replicates=6, seed=5, n_pre=12,
                       n_post=40)
    working = standard_scenario(ScenarioName.MISSPECIFICATION, n_replicates=5, seed=77, n_pre=250, n_post=120)
    result = run_suite([failing, working])
    assert len(result.failures) == 1 and len(result.reports) == 1
    return {path.name: sha(path.read_bytes()) for path in write_suite(result, out).values()}


MATRIX_DIGESTS = {
    1: {
        "generate": {
            "exit": 0,
            "stdout": "376d62d3370d37112d3af267c8e41cf96f8e5150790019c0ee2482fef25cb5f6",
            "stderr": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
            "post.csv": "f9b999a1fbab42ddca1ce3de9cfa802c049377162db030b4a8a26d35b5adace7",
            "pre.csv": "cfc1a47b1f430b8fdf522860156ed19467e11ada02693cab7c4f16f75fc9892b",
            "truth.json": "c9b72cc14f28a7a79cfcb5cb5a169b664aadd7c862d03661012cf94ccdc08065",
        },
        "generate_shifted": {
            "exit": 0,
            "stdout": "a693a098bebb7ad3d49f534d658b98885c087fb9c6db4b7e21b9834f2269f26a",
            "stderr": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
            "post.csv": "e53c7b6b9b5b84cecc9c22cdc0242d2704235c50856a0c5955387db8b1581201",
            "pre.csv": "a7f6ab0c9cff3ab0f5995c8e74f817dea5fa6d32436d129d88064c56cab51099",
            "truth.json": "b5eebbe3aa73e61a864120bc8ca50fe381982f34de3410396bde1b5e9dcd69cd",
        },
        "generate_small": {
            "exit": 0,
            "stdout": "53b457647567672ace01b09ea21ae778e34d492cb24681caa0424072e3d0040a",
            "stderr": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
            "post.csv": "48ca40ca9dd0c969257a8cd5d884957073d86833fee8f02009cd7a014bb03144",
            "pre.csv": "f610a383fb4c699c4f53797b7b325e838b04b138336dbba1d251e85a8874244a",
            "truth.json": "0831a67c9d10b63ab3830b94b606e3509633c4b1263165bbd1452f28b9e70cd8",
        },
        "fit_quadratic": {
            "exit": 0,
            "stdout": "33bcc315fe7cc3d77e7fcb6f2c90118f5a202669af9223e1a1c59865c124346d",
            "stderr": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
            "model.json": "53ec8857cd5297e2519003babb7db34eb607f813327224e4cbf346018bddf2ce",
        },
        "estimate_3_scales": {
            "exit": 0,
            "stdout": "15bb94b1ac57249bf4665fde764b10346510613b22f81ff7cc393738e3204616",
            "stderr": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
            "report.json": "b5808870e902233dab78045c07dc2c308c195ba6ed4bb252f25e4b9f9830b8dd",
        },
        "estimate_fixed_shifted": {
            "exit": 0,
            "stdout": "cb82499f3ea978d8840bf584145deb61d2703335ada9a6a8ccaca09921868f87",
            "stderr": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
            "report.json": "897e1588b0b25235ca02036675596f51161adb0c5ebf8e5a29d5f45376aa084e",
        },
        "diagnose": {
            "exit": 0,
            "stdout": "c77207046496bb6a9a7d9c1733ff214085827ad23c22d2afd00c1073b6954ee5",
            "stderr": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
            "diagnostics.json": "a8bbb9e5ab5c38344893a09cb66eb305e1a23b033faf96632582b74e7cf17364",
            "dose_transport_curve.csv": "4446cfced90ea141b31fd0614344beae202aa8000de5f9b3ee71a1197700378a",
            "negative_control_curve.csv": "0878add593e8a793556385f45c0715c878fd6956627d7cf21dbf3a2a659ca0a7",
        },
        "sensitivity_3_variants": {
            "exit": 0,
            "stdout": "7655729afaaca2735e8a09da5fa04985461b5291878522140892943cf1343901",
            "stderr": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
            "sensitivity.json": "b683aea0b222d88ac14eb676d3510fd0577e93aea306906a9ae5dfae4b62fead",
        },
        "simulate_all": {
            "exit": 0,
            "stdout": "8be872bada579481a25961a6fbcc89dd470602cdca9688983aedcfa9d170b0fd",
            "stderr": "456c9b8fc1b71af731ed5d30ef21cd18d6969ed3032753b2aa4198e658a349c6",
            "bias_report.csv": "91542df1f0cd6e6d8ae0ef43136542e5e624d7e92b820b493926e4d944a540b0",
            "bias_report.json": "12003b7f54eedef888919bf4e7ded3fbe0322f18a33bda63ce42e631ab0cfe72",
        },
        "simulate_coverage": {
            "exit": 0,
            "stdout": "36915f24c0dc80b7acca1034ef68488001c8d0e2df5d4235236b09c7182910cc",
            "stderr": "19369c1107ba0fe042d813e2c1f0217c2ce179a76fea49c9487b924e8e60b984",
            "bias_report.csv": "e255fde78e59d1b57d55e6b9b20effdbee6b8bd0ae59a532bc1f374eb7262328",
            "bias_report.json": "6c1e648b80929823348f955bd6b7553b47f9b2b623b0da9cc3f4362993279278",
        },
        "sensitivity_small": {
            "exit": 0,
            "stdout": "c2f73773bf07b5274b86677bc4af71fb09333c07b4d01917e4dfdcd684b37dc6",
            "stderr": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
            "sensitivity.json": "4216884b21a237cbc92ff6273626c2c062688ed54ad1248de1868135a45fdf52",
        },
        "diagnose_small": {
            "exit": 0,
            "stdout": "71d5e62904eea2aafc61ddd430362a1848668a039f11a6d6cf7c4c85fc1487bb",
            "stderr": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
            "diagnostics.json": "8b2dd02261fdc5fcb70ecacef088712817729eb49ec930100135c4b8cab9eed7",
            "dose_transport_curve.csv": "773fcd67145abfdb01f1f4fb7f27eded6db9a05e0f165fa06e176306ae52eb9c",
            "negative_control_curve.csv": "e52fe572d36c69364195e3bb04e2f17e711607b435edb0ceff5355932bdbd33c",
        },
    },
    7919: {
        "generate": {
            "exit": 0,
            "stdout": "697c50eb97881cdd901022a3787d741223e50f9cc83854f32daed13bd5f6825a",
            "stderr": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
            "post.csv": "b861830fe243472f0d424c99d6b3da7ea6caf93dc2dcef3447f5efbe7d715775",
            "pre.csv": "c1e54e610ac13aa7a8d8dd6170fca5364929c639910a9a43aad12ff9375587a4",
            "truth.json": "ccfeb67db22bad1b2238a1bbe2dfe52934604be4fddab78fd51921a73639506a",
        },
        "generate_shifted": {
            "exit": 0,
            "stdout": "adb81b5dd9f2b5ae7ee837946cb61036b135779d19e8ff0aa254df910133db70",
            "stderr": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
            "post.csv": "cf9e0981917241fcf983f2d64edf67a635be7f55220ef22f8c0d0bedc930f5ca",
            "pre.csv": "abc4dfa27f2553233f62339a08d8c32945d3b123eb79a5fb55f0317b88584f10",
            "truth.json": "3fcf47a9b3ad0d551d99a4ae11832bb851c12fbb347f426def71cb6761381431",
        },
        "generate_small": {
            "exit": 0,
            "stdout": "94bdca8e493a33c4429664580a1bb8bf55ee409d5415f72d01fa70185659e550",
            "stderr": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
            "post.csv": "fbb45118e6a0cee5fa95401ae84c7c4923e56ba36faee1d0b680fa3985aefe80",
            "pre.csv": "0ca0e59e1783d9ab4075c3581627d0d8e9d9d551202ed861422769a78fef3aad",
            "truth.json": "d9923ca0b51be48a9c0fb722bbbf3b641e7676980fabc198b1ed4b9486aae953",
        },
        "fit_quadratic": {
            "exit": 0,
            "stdout": "42a39b9e55cabddf3ef5f0e0b1f9661f75358bcdfcc5d6d306642421e434fecf",
            "stderr": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
            "model.json": "a22aed17345f75abc6b3e2d9108a5348dfdde98af5e1c58dd2988b2f2fbd4d62",
        },
        "estimate_3_scales": {
            "exit": 0,
            "stdout": "af03dcce6cf96304b927b7169f041c021103b9834e03664c6f3652ac65c90b71",
            "stderr": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
            "report.json": "83517cb582e80fd25b976782765d56aceeab86d8c1a4e9ce4eef8a2d6c043c74",
        },
        "estimate_fixed_shifted": {
            "exit": 0,
            "stdout": "9b5fce0c3b91ebaebaeb2f4ffea516ec39f9f1407e122c6c0b86d92170f5a2ff",
            "stderr": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
            "report.json": "5ec18cf28eae7b398fa09e4ce52d8615edc83eaa9f05c2921d180434dbfd2817",
        },
        "diagnose": {
            "exit": 0,
            "stdout": "bd96e7a5a74d2d9bd1e25e1da42bd1e206ab546a1033d94e211232eb94b2022b",
            "stderr": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
            "diagnostics.json": "7391598e2f22804c5e849ede09d31c18014673be2a7a62e8fc4cd3ded29eb21e",
            "dose_transport_curve.csv": "dd37ab41b7033452a921f0d40fe658eacd05ffecc41308c97f0bfcaa002d8793",
            "negative_control_curve.csv": "73f68da757f319635249593b63a860d41a0ee8d190e78aea4ab440395c6be515",
        },
        "sensitivity_3_variants": {
            "exit": 0,
            "stdout": "e6c3b19a768e8674717dd0123f3c6a3b0c2a76ff1f24b3c9f002ed0b717866a7",
            "stderr": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
            "sensitivity.json": "fe2fc8d4bc07ffda36df9a26bc20469f05e93f3b218a7e6f8bc98b4d13da9749",
        },
        "simulate_all": {
            "exit": 0,
            "stdout": "5a40ae606429d7a6154672a12a6b4d6a4636f3d9f00744894ee02cffd646f9e0",
            "stderr": "456c9b8fc1b71af731ed5d30ef21cd18d6969ed3032753b2aa4198e658a349c6",
            "bias_report.csv": "bb7d41ae5eb16aafbb949651861b1c45aaf34083996beab000dc4a87ab855ba4",
            "bias_report.json": "3e9717d9d0dcbe1f44e4a995fee418f2b97faababfbac5169347f2582df38e96",
        },
        "simulate_coverage": {
            "exit": 0,
            "stdout": "545c0dc34b3342423d9f6937a9d2c72ea4cba4efb2790f7b67f1dc4a70fc39fd",
            "stderr": "19369c1107ba0fe042d813e2c1f0217c2ce179a76fea49c9487b924e8e60b984",
            "bias_report.csv": "b5a290599d373e0b2fc7719569262e6c72d87aaeec97d7938435b75f27f3c147",
            "bias_report.json": "7327f960e224805ebd8998f35aabb0bbd77036f58b4fc7e98a1b7b06de904645",
        },
        "sensitivity_small": {
            "exit": 0,
            "stdout": "299a53c093c77bb8afedcde20c8417ad7148e247125ce8f864b732d3c254f70d",
            "stderr": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
            "sensitivity.json": "083e74bf4b0b7da75323a4d663947ca8ea1c63e5af140e9f55654963368651d7",
        },
        "diagnose_small": {
            "exit": 0,
            "stdout": "5d12020d295bc0c6643e308d956b7cb058e03da17ead4907208ec5a392d5aed0",
            "stderr": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
            "diagnostics.json": "022c83e029321896a46fca53cde90e2e5fe3a05d8a2a8290260d9a2b3406ee2b",
            "dose_transport_curve.csv": "b4b5d583d9132b1474870ab382578c31143ec8ed4748e32582f4cfc4ffb2769a",
            "negative_control_curve.csv": "ae7bba4052ccdc01a21d498dbfee16f8eecc63a914167b5e09c1747f85e67c47",
        },
    },
}

FAILING_SUITE = {
    "bias_report.csv": "e2d63f2942ed7bbb7e2fe2dc61a4aeaa1e7aa744ca418bc49098f0a71db81309",
    "bias_report.json": "f3c98b1d4a4a8e511800fd85cf2fdd9570fed551da663c8cebeb9ce665f16376",
}


@pytest.fixture(scope="module", params=sorted(MATRIX_DIGESTS))
def matrix_outcomes(request, tmp_path_factory):
    return request.param, run_matrix(request.param, tmp_path_factory.mktemp(f"matrix_{request.param}"))


@pytest.mark.parametrize("name", list(MATRIX_DIGESTS[1]))
def test_each_matrix_run_is_byte_identical(matrix_outcomes, name):
    seed, outcomes = matrix_outcomes
    assert outcomes[name] == MATRIX_DIGESTS[seed][name]


def test_write_suite_of_a_suite_with_a_failing_scenario_is_byte_identical(tmp_path):
    assert write_failing_suite(tmp_path) == FAILING_SUITE


# --- the same matrix under another kernel class --------------------------------
# The digests above hold in one machine class. Under OpenBLAS's Haswell kernel and numpy's AVX2 dispatch (the
# settings below emulate an x86-64 without AVX-512) a fit's last bits differ. This test reruns the matrix at seed 1
# in a subprocess under both settings and shows the difference is numerical only: every exit code and every byte
# outside numerals is the native run's, and every number lies within its tolerance of the native one.

EMULATED_AVX2 = {"OPENBLAS_CORETYPE": "Haswell", "NPY_DISABLE_CPU_FEATURES": "AVX512_ICL AVX512_SPR X86_V4"}

# A float in a JSON or CSV file may move by this much relative to its native value; the emulation moved none by more
# than 1e-10 at seeds 1 and 7919. A value near 0 gets an absolute floor of ABS_FLOOR times the largest native
# magnitude of the same quantity in that file (its JSON key, or its CSV column): a rounding difference in a sum or
# a fit is relative to the size of what it sums, not of the result.
REL_TOL = 1e-9
ABS_FLOOR = 1e-12

NUMERAL = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")

# Run in the subprocess: report the OpenBLAS core and numpy's X86_V4 dispatch it runs under, then write the
# matrix's outputs (argv: the tests directory, the seed, the output root).
EMULATED_RUN = """
import ctypes, json, pickle, sys
from pathlib import Path
from numpy._core._multiarray_umath import __cpu_features__
sys.path.insert(0, sys.argv[1])
from test_golden import matrix_outputs
core = None
for line in open("/proc/self/maps"):
    if "openblas" in line:
        corename = getattr(ctypes.CDLL(line.split()[-1]), "scipy_openblas_get_corename64_", None)
        if corename is not None:
            corename.argtypes, corename.restype = [], ctypes.c_char_p
            core = corename().decode()
        break
root = Path(sys.argv[3])
(root / "settings.json").write_text(json.dumps({"core": core, "x86_v4": __cpu_features__.get("X86_V4")}))
(root / "outputs.pickle").write_bytes(pickle.dumps(matrix_outputs(int(sys.argv[2]), root)))
"""


def is_integer(numeral: str) -> bool:
    return not any(c in numeral for c in ".eE")


def within(native: float, other: float, scale: float) -> bool:
    return abs(native - other) <= max(REL_TOL * abs(native), ABS_FLOOR * scale)


def json_floats(native, other, key, where: str):
    """(key, native, other, place) for each float of two JSON values, its key the nearest enclosing one; anything
    else must be equal."""
    assert type(native) is type(other), where
    if isinstance(native, dict):
        assert list(native) == list(other), where
        return [f for k in native for f in json_floats(native[k], other[k], k, f"{where}.{k}")]
    if isinstance(native, list):
        assert len(native) == len(other), where
        return [f for i, (a, b) in enumerate(zip(native, other)) for f in json_floats(a, b, key, f"{where}[{i}]")]
    if isinstance(native, float):
        return [(key, native, other, where)]
    assert native == other, where
    return []


def csv_floats(native: str, other: str, where: str):
    """(column, native, other, place) for each cell of two CSV files that holds a float."""
    rows = zip(*(csv.reader(io.StringIO(text)) for text in (native, other)))
    return [(j, float(a), float(b), f"{where} row {i} column {j}") for i, (a_row, b_row) in enumerate(rows)
            for j, (a, b) in enumerate(zip(a_row, b_row)) if NUMERAL.fullmatch(a) and not is_integer(a)]


def assert_numerically_equal(where: str, native: bytes, other: bytes) -> None:
    """``other`` is ``native`` but for numerals: equal bytes elsewhere, equal integers, and each float within its
    tolerance of the native one."""
    native, other = native.decode(), other.decode()
    assert NUMERAL.split(native) == NUMERAL.split(other), f"{where}: the bytes outside numerals differ"
    pairs = list(zip(NUMERAL.findall(native), NUMERAL.findall(other)))
    assert [(a, b) for a, b in pairs if (is_integer(a) or is_integer(b)) and a != b] == [], where
    if where.endswith((".json", ".csv")):
        floats = (json_floats(json.loads(native), json.loads(other), None, where) if where.endswith(".json")
                  else csv_floats(native, other, where))
        scales = {}  # each quantity's largest native magnitude
        for key, a, _, _ in floats:
            scales[key] = max(scales.get(key, 0.0), abs(a))
        assert [(place, a, b) for key, a, b, place in floats if not within(a, b, scales[key])] == [], where
        return
    for a, b in pairs:  # stdout and stderr: a fixed-decimal numeral may move by one unit in its last place
        decimals = len(a.partition(".")[2])
        if "e" in a.lower() or decimals > 6:  # a float's repr
            assert within(float(a), float(b), abs(float(a))), f"{where}: {a} against {b}"
        else:
            assert abs(float(a) - float(b)) <= 10.0 ** -decimals * (1 + REL_TOL), f"{where}: {a} against {b}"


def test_under_another_kernel_class_the_matrix_differs_in_numerals_only(tmp_path):
    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:
        pytest.skip("numpy does not report its CPU features here, so the AVX2 emulation cannot be checked")
    if not __cpu_features__.get("AVX2") or not platform.system() == "Linux":
        pytest.skip("the emulated class needs AVX2, and the OpenBLAS core is read from /proc/self/maps on Linux")
    tests = Path(__file__).resolve().parent
    src = Path(attlab.__file__).resolve().parents[1]
    env = {**os.environ, **EMULATED_AVX2, "PYTHONPATH": os.pathsep.join([str(src), str(tests)])}
    emulated_root = tmp_path / "emulated"
    emulated_root.mkdir()
    run = subprocess.run([sys.executable, "-c", EMULATED_RUN, str(tests), "1", str(emulated_root)], env=env,
                         capture_output=True, text=True, timeout=600)
    assert run.returncode == 0, run.stderr
    settings = json.loads((emulated_root / "settings.json").read_text())
    if settings != {"core": "Haswell", "x86_v4": False}:
        pytest.skip(f"the subprocess could not apply both settings: it ran under {settings}")
    emulated = pickle.loads((emulated_root / "outputs.pickle").read_bytes())
    native = matrix_outputs(1, tmp_path / "native")
    assert list(emulated) == list(native)
    for name, outputs in native.items():
        assert list(emulated[name]) == list(outputs), name
        assert emulated[name]["exit"] == outputs["exit"], name
        for output, data in outputs.items():
            if output != "exit":
                assert_numerically_equal(f"{name}/{output}", data, emulated[name][output])
