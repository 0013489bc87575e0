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
``glm.quadratic_dose``. A stack of fits becomes reported fits in one step,
``glm._model_fits``, of which ``fit_logistic`` is the stack of one raw design;
the IRLS core only fits, and that step alone inverts the information matrix
for the covariance, so a ``StackedFit`` and a bootstrap refit carry none. The
stacked IRLS, ``glm._irls``, has two callers: that step for reported fits and
``glm._refit_chunks`` for bootstrap refits.
A cohort is fitted one way, ``glm.fit_models``, of which ``fit_model`` is the
case of one cohort; only ``fit_models`` hands that step a model spec, and a fit
without one is refused as a configuration fault. Every CSV file is written by
``records.csv_bytes``, and ``rng`` keeps no state between calls: each pass
builds its own stream states. Each decision of the estimator has one owner:
``records.Cohort.doses`` picks a cohort's doses by plan, ``estimator._group_means``
compares a group's observed outcomes with its predicted ones, and
``estimator.att_from_means`` turns two means into an effect on each scale.
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
from attlab.glm import (
    ModelSpec,
    build_design,
    design_columns,
    fit_logistic,
    fit_model,
    fit_models,
    predict_risk,
)
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
    fits = (fit_logistic, fit_model)
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
        predictions = np.linspace(0.1, 0.5, 20)
        report = _calibration_report(outcomes, float(np.mean(outcomes)), float(np.mean(predictions)), predictions,
                                     n_replicates=100, seed=0)
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
    assert "fit_models" in calls and {"fit_logistic", "_irls", "build_design"} & calls == set()
    assert not hasattr(attlab, "PredictionError") and not hasattr(attlab.errors, "PredictionError")
    X, names = build_design(small_world.pre, ModelSpec())
    fit = fit_logistic(X, small_world.pre.outcome, column_names=names)
    assert fit.spec is None
    with pytest.raises(ConfigurationError, match="^fit carries no model spec; cannot build a design from a cohort$"):
        predict_risk(fit, small_world.post.treated())
    with pytest.raises(ConfigurationError) as refusal:
        fit.to_json_dict()
    assert str(refusal.value) == "a fit without a model spec cannot be saved: model.json names the spec's terms"


def test_one_step_turns_a_stack_of_fits_into_reported_fits():
    assert not hasattr(attlab.glm, "_model_fit")
    for function in (fit_logistic, fit_models):
        calls = {ast.unparse(node.func) for node in ast.walk(ast.parse(inspect.getsource(function)))
                 if isinstance(node, ast.Call)}
        assert "_model_fits" in calls and {"_irls", "ModelFit"} & calls == set(), function.__name__


def test_the_stacked_irls_has_two_callers_and_no_public_wrapper():
    tree = ast.parse((PACKAGE / "glm.py").read_text(encoding="utf-8"))
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    assert "fit_stack" not in functions
    callers = {name for name, function in functions.items() for node in ast.walk(function)
               if isinstance(node, ast.Call) and ast.unparse(node.func) == "_irls"}
    assert callers == {"_model_fits", "_refit_chunks"}
    naming = {path.name for path in PACKAGE.glob("*.py") if re.search(r"\b_irls\b", path.read_text(encoding="utf-8"))}
    assert naming == {"glm.py"}


def test_only_the_reporting_step_inverts_the_information_matrix():
    assert "cov" not in {field.name for field in dataclasses.fields(attlab.glm.StackedFit)}

    def inverts(function):
        return "np.linalg.inv" in {ast.unparse(node) for node in ast.walk(ast.parse(inspect.getsource(function)))}

    assert inverts(attlab.glm._model_fits) and not inverts(attlab.glm._irls)


def test_one_renderer_writes_every_csv_file():
    writers = {path.name for path in PACKAGE.glob("*.py") if "csv.writer(" in path.read_text(encoding="utf-8")}
    assert writers == {"records.py"}
    module = ast.parse((PACKAGE / "records.py").read_text(encoding="utf-8"))
    callers = {node.name for node in module.body if isinstance(node, ast.FunctionDef)
               and "csv.writer(" in ast.unparse(node)}
    assert callers == {"csv_bytes"}


def test_the_stream_module_keeps_no_state_between_calls():
    tree = ast.parse((PACKAGE / "rng.py").read_text(encoding="utf-8"))
    imported = {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import | ast.ImportFrom)
                for alias in node.names} | {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
    assert "functools" not in imported and not hasattr(attlab.rng, "_pcg64_states")
    assert not hasattr(attlab.rng.initial_states, "cache_clear")
    first, second = attlab.rng.initial_states(12, 30), attlab.rng.initial_states(12, 30)
    assert first is not second and not np.shares_memory(first, second)
    assert np.array_equal(first, second) and not first.flags.writeable and not second.flags.writeable


def functions_holding(predicate) -> set[str]:
    """``module.function`` (a method as ``module.Class.method``) of each package function with a node ``predicate``
    accepts; a nested function counts as the function it is in."""
    found = set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        scopes = [(node.name, node) for node in tree.body if isinstance(node, ast.FunctionDef)]
        scopes += [(f"{cls.name}.{node.name}", node) for cls in tree.body if isinstance(cls, ast.ClassDef)
                   for node in cls.body if isinstance(node, ast.FunctionDef)]
        found |= {f"{path.stem}.{name}" for name, scope in scopes if any(map(predicate, ast.walk(scope)))}
    return found


def compares_with(*members):
    """A predicate: the node is a comparison with one of ``members``, given as source text."""
    return lambda node: isinstance(node, ast.Compare) and any(
        ast.unparse(operand) in members for operand in (node.left, *node.comparators))


def test_only_the_cohort_picks_its_doses_by_plan():
    assert functions_holding(compares_with("PlanSource.PHOTON", "PlanSource.PROTON")) == {"records.Cohort.doses"}
    reads = {name for name in functions_holding(lambda node: isinstance(node, ast.Attribute)
                                                and node.attr in ("proton", "has_proton"))}
    assert {name for name in reads if not name.startswith("records.")} == set()


def test_only_the_one_scale_rule_branches_on_a_ratio_scale():
    ratios = compares_with("EffectScale.RISK_RATIO", "EffectScale.ODDS_RATIO")
    assert functions_holding(ratios) == {"estimator.att_from_means"}
    assert "odds" not in vars(attlab.synth)


def test_only_the_group_means_predict_and_average_a_group():
    predicts = functions_holding(lambda node: isinstance(node, ast.Call) and ast.unparse(node.func) == "predict_risk")
    assert predicts == {"estimator._group_means"}
    assert not hasattr(attlab.estimator, "_treated_means")
