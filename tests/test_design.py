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
ended it, and the bias report's columns are ``BiasReport``'s fields. The
keys and columns of ``truth.json``, the cohort CSVs and the calibration
blocks are read from the definitions they name, and one function gives
every true risk. Every JSON block is written by ``records.json_bytes`` from
its dataclass's fields; ``model.json`` is the one projection of a result,
``ModelFit.to_json_dict``. What a config field may hold is decided by one
function, ``errors.checked``, to which every config hands its fields; it
also decides what an option may hold, whether from a flag or the config
file, while argparse only splits the command line. An outcome model's terms
are declared once, in the table ``glm.TERMS``, which gives each term's design
columns, their names and what fills them; no term name is taken apart, and
the true nonlinear dose term is the quadratic spec's encoding,
``glm.quadratic_dose``. A cohort is fitted one way, ``glm.fit_models``, of
which ``fit_model`` is the case of one cohort; only ``fit_models`` attaches a
model spec to a fit, and a fit without one is refused as a configuration fault.
"""

import ast
import dataclasses
import inspect
import json
import re
from pathlib import Path

import numpy as np
import pytest

import attlab
import attlab.cli
from attlab.diagnostics import CalibrationBin, CalibrationReport, _calibration_report
from attlab.estimator import BootstrapConfig
from attlab.errors import ConfigurationError
from attlab.glm import ModelSpec, build_design, design_columns, fit_logistic, fit_model, fit_stack, predict_risk
from attlab.records import DOSE_FIELDS, Cohort, json_bytes
from attlab.selection import SelectionRule
from attlab.synth import DoseTruncation, GeneratedWorld, GeneratorConfig, ViolationShift
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


def test_output_keys_and_columns_are_read_from_the_definitions_they_name():
    assert not hasattr(attlab.synth, "TRUE_BETA_ORDER")
    module = ast.parse((PACKAGE / "records.py").read_text(encoding="utf-8"))
    (header,) = [node.value for node in module.body
                 if isinstance(node, ast.Assign) and [ast.unparse(t) for t in node.targets] == ["CSV_HEADER"]]
    typed = [node.value for node in ast.walk(header) if isinstance(node, ast.Constant)]
    assert [text for text in typed if any(dose in text for dose in DOSE_FIELDS)] == []
    for outcomes in (np.r_[np.zeros(10), np.ones(10)], np.zeros(20)):  # AUROC defined, then undefined
        report = _calibration_report(np.linspace(0.1, 0.5, 20), outcomes, n_replicates=100, seed=0)
        block = json.loads(json_bytes(report))
        assert list(block) == [f.name for f in dataclasses.fields(CalibrationReport)]
        assert [list(b) for b in block["curve"]] == [[f.name for f in dataclasses.fields(CalibrationBin)]] * 10
        assert block["auroc"] == report.auroc


def test_one_encoder_writes_every_block_from_its_dataclass():
    defined = {
        f"{path.stem}.{node.name}"
        for path in PACKAGE.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.ClassDef)
        and any(isinstance(f, ast.FunctionDef) and f.name == "to_json_dict" for f in node.body)
    }
    assert defined == {"glm.ModelFit"}
    imports = {
        path.name
        for path in PACKAGE.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.ImportFrom) and "asdict" in [alias.name for alias in node.names]
    }
    assert imports == set()
    assert not hasattr(attlab.cli, "_diagnostics_json")


def test_one_function_gives_every_true_risk():
    source = (PACKAGE / "synth.py").read_text(encoding="utf-8")
    assert [name for name in ("_plan_risk", "latent_risk") if name in source] == []
    assert source.count("expit(") == 1


def test_every_config_hands_its_fields_to_the_one_field_check():
    assert not hasattr(attlab.rng, "check_seed")
    configs = (GeneratorConfig, BootstrapConfig, Scenario, ViolationShift, DoseTruncation, SelectionRule)
    assert [cls.__name__ for cls in configs if "check_fields(self, " not in inspect.getsource(cls.__post_init__)] == []


def test_argparse_only_splits_the_command_line():
    private = re.compile(r"\bargparse\._|\._actions\b")
    assert [path.name for path in PACKAGE.glob("*.py") if private.search(path.read_text(encoding="utf-8"))] == []
    tree = ast.parse((PACKAGE / "cli.py").read_text(encoding="utf-8"))
    calls = [node for node in ast.walk(tree) if isinstance(node, ast.Call) and ast.unparse(node.func).endswith(
        ".add_argument")]
    assert calls
    # A keyword given by name, or a dict key that could reach add_argument through **keywords.
    given = [keyword.arg for call in calls for keyword in call.keywords]
    given += [key.value for node in ast.walk(tree) if isinstance(node, ast.Dict) for key in node.keys
              if isinstance(key, ast.Constant)]
    given += [node.slice.value for node in ast.walk(tree)
              if isinstance(node, ast.Subscript) and isinstance(node.slice, ast.Constant)]
    assert {"type", "choices"} & set(given) == set()


def test_one_table_declares_every_model_term():
    assert not hasattr(attlab.glm, "_KNOWN_TERMS")
    readers = (ModelSpec.__post_init__, design_columns, build_design)
    assert [fn.__qualname__ for fn in readers if not re.search(r"\bTERMS\b", inspect.getsource(fn))] == []
    source = (PACKAGE / "glm.py").read_text(encoding="utf-8")
    tree = ast.parse(source)
    # A term name taken apart: a string method that cuts text, or a slice or index that names a string.
    cuts = [ast.unparse(node) for node in ast.walk(tree) if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in ("split", "rsplit", "partition", "rpartition", "removeprefix", "removesuffix")]
    cuts += [ast.unparse(node) for node in ast.walk(tree) if isinstance(node, ast.Subscript)
             and any(isinstance(c, ast.Constant) and isinstance(c.value, str) for c in ast.walk(node.slice))]
    assert cuts == []
    assert source.count('f"x{') == 1  # a raw design's default column names
    synth = (PACKAGE / "synth.py").read_text(encoding="utf-8")
    assert [name for name in ("QUAD_CENTER_GY", "QUAD_SCALE_GY") if name in synth] == []
    assert "quadratic_dose(" in synth


def test_one_path_fits_a_cohort_and_only_it_attaches_a_spec(small_world):
    assert "spec" not in inspect.signature(fit_logistic).parameters
    calls = {ast.unparse(node.func) for node in ast.walk(ast.parse(inspect.getsource(fit_model)))
             if isinstance(node, ast.Call)}
    assert "fit_models" in calls and {"fit_logistic", "fit_stack", "build_design"} & calls == set()
    assert not hasattr(attlab, "PredictionError") and not hasattr(attlab.errors, "PredictionError")
    X, names = build_design(small_world.pre, ModelSpec())
    fit = fit_logistic(X, small_world.pre.outcome, column_names=names)
    assert fit.spec is None
    with pytest.raises(ConfigurationError, match="^fit carries no model spec; cannot build a design from a cohort$"):
        predict_risk(fit, small_world.post.treated())
    with pytest.raises(ConfigurationError) as refusal:
        fit.to_json_dict()
    assert str(refusal.value) == "a fit without a model spec cannot be saved: model.json names the spec's terms"
