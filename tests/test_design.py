"""The package keeps one representation of patients, a cohort's arrays, and one role decision.

The record types live in the test oracle (``records_oracle.py``) only.
Which period and treatment a group of patients must have is decided by
``records.require_role``; besides ``records``, only the modules that
produce treatment codes (``synth`` and ``selection``) name a treatment.
The package reads JSON only from a command's config file: no command reads
back a file that another wrote. A world carries no effect of its own; its
true effect is ``synth.true_att``. Replicate loops are cut into ranges and
handed to worker processes by ``parallel`` alone. A cohort's period lives in
its ``post`` array only, and no fit or lab setting exists that no command
sets: the IRLS iteration cap is the constant ``glm.MAX_ITER`` and the lab
fits the default ``ModelSpec``. A lab world that fails is the error that
ended it, and the bias report's columns are ``BiasReport``'s fields.
"""

import dataclasses
import inspect
import re
from pathlib import Path

import numpy as np

import attlab
from attlab.glm import fit_logistic, fit_model, fit_stack
from attlab.records import Cohort
from attlab.synth import GeneratedWorld
from attlab.violations import ReplicateOutcome, Scenario

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "attlab"
RECORD_TYPES = ("PatientRecord", "DosePlan", "PotentialOutcomes")
RECORD_TYPE_NAMES = re.compile(rf"\b({'|'.join(RECORD_TYPES)})\b")
TREATMENT_MEMBER = re.compile(r"\bTreatment\.[A-Z]")
TREATMENT_MODULES = {"records.py", "synth.py", "selection.py"}


def test_no_package_file_names_the_record_types():
    offenders = {
        path.name: sorted(set(RECORD_TYPE_NAMES.findall(path.read_text(encoding="utf-8"))))
        for path in sorted(PACKAGE.glob("*.py"))
    }
    assert {name: types for name, types in offenders.items() if types} == {}


def test_a_cohort_has_no_record_view_or_record_constructor():
    assert not hasattr(Cohort, "records")
    assert not hasattr(Cohort, "from_records")


def test_the_package_exports_no_record_type():
    assert [name for name in RECORD_TYPES if hasattr(attlab, name)] == []


def test_only_the_role_check_and_the_treatment_producers_name_a_treatment():
    naming = {path.name for path in PACKAGE.glob("*.py") if TREATMENT_MEMBER.search(path.read_text(encoding="utf-8"))}
    assert naming - TREATMENT_MODULES == set()


def test_only_the_cli_config_reader_reads_json():
    reads = {path.name: path.read_text(encoding="utf-8").count("json.load") for path in PACKAGE.glob("*.py")}
    assert {name: n for name, n in reads.items() if n} == {"cli.py": 1}


def test_a_world_holds_its_cohorts_and_config_only():
    assert [field.name for field in dataclasses.fields(GeneratedWorld)] == ["pre", "post", "config"]


def test_only_the_parallel_module_starts_processes_or_sizes_ranges():
    pools = re.compile(r"\bconcurrent\.futures\b|^RANGES_PER_WORKER\s*=", re.MULTILINE)
    assert {path.name for path in PACKAGE.glob("*.py") if pools.search(path.read_text(encoding="utf-8"))} == {
        "parallel.py"
    }


def test_every_cohort_field_is_an_array(small_world):
    assert {f.name: type(getattr(small_world.post, f.name)) for f in dataclasses.fields(Cohort)} == {
        f.name: np.ndarray for f in dataclasses.fields(Cohort)
    }


def test_the_package_has_no_cohort_label():
    assert not hasattr(attlab, "CohortLabel") and not hasattr(attlab.records, "CohortLabel")


def test_no_fit_takes_an_iteration_cap():
    fits = (fit_logistic, fit_stack, fit_model)
    assert [fn.__name__ for fn in fits if "max_iter" in inspect.signature(fn).parameters] == []


def test_a_scenario_has_no_model_spec():
    assert "spec" not in [f.name for f in dataclasses.fields(Scenario)]


def test_a_failed_world_is_its_error_and_the_bias_report_names_its_columns_once():
    assert {"failed", "error"} & {f.name for f in dataclasses.fields(ReplicateOutcome)} == set()
    assert not hasattr(attlab.violations, "CSV_COLUMNS")
