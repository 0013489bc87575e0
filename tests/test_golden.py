"""Golden outputs: the exact bytes of seeded CLI runs.

The sha256 digests were recorded on x86-64 Linux with numpy 2.4 and
OpenBLAS: those of ``generate`` and ``simulate`` from the record-based
implementation that preceded the columnar cohorts, and those of ``estimate``
and ``diagnose``, which read the generated CSVs back, from the record-based
CSV reader and validator that preceded the columnar ones. Any refactor of generation, fitting or the lab must keep them;
a change here means the outputs changed, not just the code. A different
platform or BLAS may legitimately differ in the last bits, so the digests
are checked only where they were recorded.
"""

import hashlib
import platform

import numpy as np
import pytest

from attlab.cli import main

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


@pytest.fixture(scope="module")
def world_seed_5(tmp_path_factory):
    out = tmp_path_factory.mktemp("world_seed_5")
    assert main(["generate", "--seed", "5", "--out", str(out), "--quiet"]) == 0
    return ["--pre", str(out / "pre.csv"), "--post", str(out / "post.csv"), "--seed", "5"]


def test_estimate_on_the_seed_5_world_is_byte_identical(tmp_path, world_seed_5):
    argv = ["estimate", *world_seed_5, "--bootstrap", "fixed", "--replicates", "200",
            "--scale", "rd", "--scale", "rr", "--scale", "or", "--out", str(tmp_path), "--quiet"]
    assert main(argv) == 0
    assert digests(tmp_path, ESTIMATE_FIXED_3_SCALES) == ESTIMATE_FIXED_3_SCALES


def test_diagnose_on_the_seed_5_world_is_byte_identical(tmp_path, world_seed_5):
    argv = ["diagnose", *world_seed_5, "--replicates", "200", "--out", str(tmp_path), "--quiet"]
    assert main(argv) == 0
    assert digests(tmp_path, DIAGNOSE_200) == DIAGNOSE_200
