import dataclasses
import json
import math
import os
import subprocess
import sys
import time
from importlib import resources
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from attlab.cli import COMMANDS, MANDATORY, OPTIONS, _help, _join_negative_numbers, build_parser, main
from attlab.cli import _resolve_options as resolve_options
from attlab.errors import ConfigurationError, Integer, OneOf, Real
from attlab.records import read_cohort_csv
from attlab.synth import MAX_COHORT_SIZE

from conftest import set_usable_cpus


def run_cli(*argv):
    return main(list(argv))


def read_files(out_dir, names):
    return {name: (out_dir / name).read_bytes() for name in names}


@pytest.fixture(scope="module")
def generated(tmp_path_factory):
    out = tmp_path_factory.mktemp("world")
    code = run_cli(
        "generate", "--seed", "42", "--n-pre", "400", "--n-post", "200", "--out", str(out)
    )
    assert code == 0
    return out


class TestGenerate:
    def test_rerun_is_byte_identical(self, tmp_path):
        args = ("generate", "--seed", "7", "--n-pre", "80", "--n-post", "50")
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert run_cli(*args, "--out", str(out1)) == 0
        assert run_cli(*args, "--out", str(out2)) == 0
        names = ("pre.csv", "post.csv", "truth.json")
        assert read_files(out1, names) == read_files(out2, names)

    def test_zero_n_pre_exits_2_naming_the_field(self, tmp_path, capsys):
        code = run_cli("generate", "--seed", "1", "--n-pre", "0", "--out", str(tmp_path))
        assert code == 2
        assert "n_pre" in capsys.readouterr().err

    def test_default_sizes_give_case_study_like_split(self, tmp_path):
        assert run_cli("generate", "--seed", "42", "--out", str(tmp_path)) == 0
        post = read_cohort_csv(tmp_path / "post.csv")
        n_treated = len(post.treated())
        assert len(post) == 300
        assert 93 - 15 <= n_treated <= 93 + 15

    def test_seed_is_mandatory(self, tmp_path, capsys):
        code = run_cli("generate", "--out", str(tmp_path))
        assert code == 2
        assert "--seed" in capsys.readouterr().err

    def test_a_world_with_no_one_selected_exits_3_and_writes_nothing(self, tmp_path, capsys):
        # The ATT is undefined when nobody is target-treated, as it is for estimate.
        code = run_cli("generate", "--seed", "3", "--n-pre", "50", "--n-post", "60", "--threshold", "0.999",
                       "--out", str(tmp_path))
        assert code == 3
        assert "no target-treated" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []


class TestFit:
    def test_a_cohort_with_no_event_exits_3_and_writes_nothing(self, generated, tmp_path, capsys):
        lines = (generated / "pre.csv").read_text(encoding="utf-8").splitlines()
        no_event = [lines[0]] + [line.rsplit(",", 1)[0] + ",0" for line in lines[1:]]
        (tmp_path / "pre.csv").write_text("\n".join(no_event) + "\n", encoding="utf-8")
        code = run_cli("fit", "--pre", str(tmp_path / "pre.csv"), "--out", str(tmp_path / "out"))
        assert code == 3
        assert "every outcome is 0: the maximum-likelihood estimate does not exist" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_writes_loadable_model(self, generated, tmp_path):
        code = run_cli("fit", "--pre", str(generated / "pre.csv"), "--out", str(tmp_path))
        assert code == 0
        from attlab.glm import fit_model

        model = json.loads((tmp_path / "model.json").read_text(encoding="utf-8"))
        assert set(model) == {"spec", "beta", "cov", "n_obs", "deviance", "converged"}
        assert model["converged"] is True
        assert model["n_obs"] == 400
        pre = read_cohort_csv(generated / "pre.csv")
        assert model["beta"] == fit_model(pre).beta_hat.tolist()

    def test_missing_input_exits_2(self, tmp_path, capsys):
        code = run_cli("fit", "--pre", str(tmp_path / "nope.csv"), "--out", str(tmp_path))
        assert code == 2

    @pytest.mark.parametrize("mangle", [
        lambda lines: lines[:2] + [lines[2].replace(b"pre", b"pr\xff", 1)] + lines[3:],
        lambda lines: lines[:2] + [b"x" * 140_000 + lines[2]] + lines[3:],
    ], ids=["not-utf8", "field-over-limit"])
    def test_unreadable_csv_exits_2_naming_file_and_line(self, generated, tmp_path, capsys, mangle):
        bad = tmp_path / "bad.csv"
        bad.write_bytes(b"\n".join(mangle((generated / "pre.csv").read_bytes().split(b"\n"))))
        assert run_cli("fit", "--pre", str(bad), "--out", str(tmp_path)) == 2
        assert f"{bad} line 3" in capsys.readouterr().err

    def test_config_file_that_is_not_utf8_exits_2(self, generated, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_bytes(b'{"spec": "linear\xff"}')
        code = run_cli("fit", "--pre", str(generated / "pre.csv"), "--config", str(config), "--out", str(tmp_path))
        assert code == 2
        assert "not valid JSON" in capsys.readouterr().err


@pytest.fixture(scope="module")
def report(generated, tmp_path_factory):
    out = tmp_path_factory.mktemp("report")
    code = run_cli(
        "estimate",
        "--pre", str(generated / "pre.csv"),
        "--post", str(generated / "post.csv"),
        "--seed", "9",
        "--replicates", "200",
        "--scale", "rd",
        "--scale", "rr",
        "--out", str(out),
    )
    assert code == 0
    return out, json.loads((out / "report.json").read_text(encoding="utf-8"))


class TestEstimate:
    def test_report_contains_both_scales(self, report):
        _, payload = report
        assert set(payload["estimates"]) == {"rd", "rr"}
        rd = payload["estimates"]["rd"]
        assert rd["ci_low"] <= rd["point"] <= rd["ci_high"]

    def test_report_validates_against_published_schema(self, report):
        import jsonschema

        _, payload = report
        schema = json.loads(
            resources.files("attlab").joinpath("report_schema.json").read_text(encoding="utf-8")
        )
        jsonschema.validate(payload, schema)

    def test_rd_point_consistent_with_means(self, report):
        _, payload = report
        rd = payload["estimates"]["rd"]
        assert rd["point"] == pytest.approx(rd["mean_observed"] - rd["mean_predicted"], abs=1e-12)

    def test_diagnostics_block_present(self, report):
        _, payload = report
        assert payload["diagnostics"]["positivity"]["verdict"] in (
            "no_flags",
            "stochastic_concern",
            "structural_violation",
        )
        assert payload["diagnostics"]["negative_control"] is not None
        assert payload["diagnostics"]["dose_transport"] is not None

    def test_rerun_is_byte_identical(self, generated, tmp_path):
        args = (
            "estimate",
            "--pre", str(generated / "pre.csv"),
            "--post", str(generated / "post.csv"),
            "--seed", "9", "--replicates", "200",
        )
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        assert run_cli(*args, "--out", str(out1)) == 0
        assert run_cli(*args, "--out", str(out2)) == 0
        assert (out1 / "report.json").read_bytes() == (out2 / "report.json").read_bytes()

    def test_no_treated_patients_exits_3(self, generated, tmp_path, capsys):
        post_text = (generated / "post.csv").read_text(encoding="utf-8").splitlines()
        header, rows = post_text[0], post_text[1:]
        neutered = [header] + [r.replace(",post,1,", ",post,0,", 1) for r in rows]
        post_path = tmp_path / "post_none_treated.csv"
        post_path.write_text("\n".join(neutered) + "\n", encoding="utf-8")
        code = run_cli(
            "estimate",
            "--pre", str(generated / "pre.csv"),
            "--post", str(post_path),
            "--seed", "3",
            "--replicates", "150",
            "--out", str(tmp_path),
        )
        assert code == 3
        assert "no treated patients" in capsys.readouterr().err

    def test_schema_violations_exit_2(self, generated, tmp_path, capsys):
        broken = tmp_path / "broken.csv"
        text = (generated / "pre.csv").read_text(encoding="utf-8").splitlines()
        text[1] = text[1].replace(",pre,", ",noperiod,", 1)
        broken.write_text("\n".join(text) + "\n", encoding="utf-8")
        code = run_cli(
            "estimate",
            "--pre", str(broken),
            "--post", str(generated / "post.csv"),
            "--seed", "3",
            "--out", str(tmp_path),
        )
        assert code == 2
        assert "violation" in capsys.readouterr().err


    # The pool maps in this process, so the refits of every range are counted here.
    def test_one_bootstrap_pass_serves_every_scale(self, generated, tmp_path, monkeypatch, in_process_pool):
        import attlab.estimator

        refits = []
        original = attlab.estimator._refit_chunks

        def counted(*args, **kwargs):
            for chunk, stacked in original(*args, **kwargs):
                refits.append(len(stacked.beta))
                yield chunk, stacked

        monkeypatch.setattr(attlab.estimator, "_refit_chunks", counted)
        common = ("estimate", "--pre", str(generated / "pre.csv"), "--post", str(generated / "post.csv"),
                  "--seed", "9", "--replicates", "100")
        assert run_cli(*common, "--scale", "rd", "--scale", "rr", "--scale", "or",
                       "--out", str(tmp_path / "all")) == 0
        assert sum(refits) == 100
        together = json.loads((tmp_path / "all" / "report.json").read_text(encoding="utf-8"))
        for scale in ("rd", "rr", "or"):
            assert run_cli(*common, "--scale", scale, "--out", str(tmp_path / scale)) == 0
            alone = json.loads((tmp_path / scale / "report.json").read_text(encoding="utf-8"))
            assert together["estimates"][scale] == alone["estimates"][scale]


class TestDiagnose:
    @pytest.mark.parametrize("replicates", ["0", "-3"])
    def test_no_calibration_replicates_exit_2(self, generated, tmp_path, capsys, replicates):
        code = run_cli("diagnose", "--pre", str(generated / "pre.csv"), "--post", str(generated / "post.csv"),
                       "--seed", "5", "--replicates", replicates, "--out", str(tmp_path))
        assert code == 2
        err = capsys.readouterr().err
        # The option's own check refuses a negative count; the library's a zero one.
        name, noun = {"0": ("negative_control_check.n_replicates", "a positive"),
                      "-3": ("option --replicates", "a non-negative")}[replicates]
        assert err == f"error: {name} must be {noun} integer, got {replicates}\n"

    def test_writes_reports_and_curves(self, generated, tmp_path):
        code = run_cli(
            "diagnose",
            "--pre", str(generated / "pre.csv"),
            "--post", str(generated / "post.csv"),
            "--seed", "5",
            "--replicates", "150",
            "--out", str(tmp_path),
        )
        assert code == 0
        payload = json.loads((tmp_path / "diagnostics.json").read_text(encoding="utf-8"))
        assert payload["command"] == "diagnose"
        assert (tmp_path / "negative_control_curve.csv").is_file()
        assert (tmp_path / "dose_transport_curve.csv").is_file()


    def test_each_calibration_check_runs_once(self, generated, tmp_path, monkeypatch):
        import attlab.diagnostics as diag

        calls = {"negative_control_check": 0, "dose_transport_check": 0}
        for name in calls:
            original = getattr(diag, name)

            def counted(*args, _name=name, _original=original, **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(diag, name, counted)
        code = run_cli(
            "diagnose",
            "--pre", str(generated / "pre.csv"),
            "--post", str(generated / "post.csv"),
            "--seed", "5",
            "--replicates", "150",
            "--out", str(tmp_path),
        )
        assert code == 0
        assert calls == {"negative_control_check": 1, "dose_transport_check": 1}


class TestSensitivity:
    def test_compares_named_variants(self, generated, tmp_path):
        code = run_cli(
            "sensitivity",
            "--pre", str(generated / "pre.csv"),
            "--post", str(generated / "post.csv"),
            "--seed", "5",
            "--replicates", "150",
            "--variant", "linear",
            "--variant", "quadratic",
            "--out", str(tmp_path),
        )
        assert code == 0
        payload = json.loads((tmp_path / "sensitivity.json").read_text(encoding="utf-8"))
        labels = [row["label"] for row in payload["result"]["rows"]]
        assert labels == ["linear", "quadratic"]
        assert payload["result"]["max_spread"] >= 0.0

    def test_more_than_one_scale_rejected(self, generated, tmp_path, capsys):
        code = run_cli(
            "sensitivity",
            "--pre", str(generated / "pre.csv"),
            "--post", str(generated / "post.csv"),
            "--seed", "5",
            "--scale", "rd",
            "--scale", "rr",
            "--out", str(tmp_path),
        )
        assert code == 2
        assert "--scale" in capsys.readouterr().err
        assert not (tmp_path / "sensitivity.json").exists()

    def test_a_spec_wider_than_the_cohort_fails_in_its_row(self, tmp_path):
        # 20 development patients fit the 9 linear columns but not the 21 interaction ones.
        assert run_cli("generate", "--seed", "1", "--n-pre", "20", "--n-post", "60", "--out", str(tmp_path)) == 0
        cohorts = ("--pre", str(tmp_path / "pre.csv"), "--post", str(tmp_path / "post.csv"), "--seed", "1")
        rows = {}
        for wide in ("interactions", "quadratic"):
            out = tmp_path / wide
            assert run_cli("sensitivity", *cohorts, "--variant", "linear", "--variant", wide, "--out", str(out)) == 0
            rows[wide] = json.loads((out / "sensitivity.json").read_text(encoding="utf-8"))["result"]["rows"]
        linear, interactions = rows["interactions"]
        assert interactions == {"label": "interactions", "estimate": None,
                                "error": "need at least as many rows (20) as columns (21)"}
        assert linear["estimate"] is not None and linear == rows["quadratic"][0]

    def test_duplicate_variants_rejected(self, generated, tmp_path, capsys):
        code = run_cli(
            "sensitivity",
            "--pre", str(generated / "pre.csv"),
            "--post", str(generated / "post.csv"),
            "--seed", "5",
            "--variant", "linear",
            "--variant", "linear",
            "--out", str(tmp_path),
        )
        assert code == 2


class TestSimulate:
    def test_rerun_is_byte_identical(self, tmp_path):
        args = ("simulate", "--scenario", "baseline", "--replicates", "6", "--seed", "7")
        out1, out2 = tmp_path / "s1", tmp_path / "s2"
        assert run_cli(*args, "--out", str(out1)) == 0
        assert run_cli(*args, "--out", str(out2)) == 0
        names = ("bias_report.json", "bias_report.csv")
        assert read_files(out1, names) == read_files(out2, names)

    def test_all_scenarios_give_five_rows(self, tmp_path):
        code = run_cli(
            "simulate", "--scenario", "all", "--replicates", "4", "--seed", "3",
            "--threads", "2", "--out", str(tmp_path),
        )
        assert code == 0
        lines = (tmp_path / "bias_report.csv").read_text(encoding="utf-8").splitlines()
        assert len(lines) == 6  # header + 5 scenarios

    def test_unknown_scenario_exits_2_listing_names(self, tmp_path, capsys):
        assert run_cli("simulate", "--scenario", "bogus", "--seed", "1", "--out", str(tmp_path / "out")) == 2
        err = capsys.readouterr().err
        assert all(name in err for name in OPTIONS["scenario"].kind.values)
        assert not (tmp_path / "out").exists()

    def test_zero_threads_exits_2(self, tmp_path, capsys):
        code = run_cli("simulate", "--scenario", "baseline", "--replicates", "2", "--seed", "1",
                       "--threads", "0", "--out", str(tmp_path))
        assert code == 2
        assert "threads" in capsys.readouterr().err

    def test_a_failed_scenario_gets_its_line_and_exit_3(self, tmp_path, monkeypatch, capsys):
        import attlab.violations
        from attlab.errors import ScenarioError

        run_scenario = attlab.violations.run_scenario

        def failing(scenario, **kwargs):
            if scenario.name.value == "ignorability_confounder":
                raise ScenarioError("scenario ignorability_confounder: 3/4 replicates failed (first error: x)")
            return run_scenario(scenario, **kwargs)

        monkeypatch.setattr(attlab.violations, "run_scenario", failing)
        assert run_cli("simulate", "--scenario", "all", "--replicates", "4", "--seed", "3", "--out", str(tmp_path)) == 3
        lines = capsys.readouterr().out.splitlines()
        assert ("ignorability_confounder    FAILED: scenario ignorability_confounder: 3/4 replicates failed "
                "(first error: x)") in lines
        assert len((tmp_path / "bias_report.csv").read_text(encoding="utf-8").splitlines()) == 5

    def test_threads_do_not_change_output(self, tmp_path):
        base = ("simulate", "--scenario", "misspecification", "--replicates", "6", "--seed", "2")
        out1, out2 = tmp_path / "t1", tmp_path / "t8"
        assert run_cli(*base, "--threads", "1", "--out", str(out1)) == 0
        assert run_cli(*base, "--threads", "8", "--out", str(out2)) == 0
        names = ("bias_report.json", "bias_report.csv")
        assert read_files(out1, names) == read_files(out2, names)


# Argument lists, the file each writes, and the pools each starts on 2 CPUs:
# one per full bootstrap, and none for a fixed-model bootstrap or a
# calibration check.
POOLED = [
    (("estimate", "--bootstrap", "full", "--scale", "rd", "--scale", "rr", "--scale", "or"), "report.json", [2]),
    (("estimate", "--bootstrap", "fixed"), "report.json", []),
    (("diagnose",), "diagnostics.json", []),
    (("sensitivity", "--bootstrap", "full", "--variant", "linear", "--variant", "quadratic"), "sensitivity.json",
     [2, 2]),
    (("sensitivity", "--bootstrap", "fixed"), "sensitivity.json", []),
]


class TestWorkers:
    @staticmethod
    def run(argv, generated, out):
        return run_cli(*argv, "--pre", str(generated / "pre.csv"), "--post", str(generated / "post.csv"),
                       "--seed", "4", "--replicates", "150", "--out", str(out))

    @pytest.mark.parametrize("argv, name, pools", POOLED)
    def test_only_full_bootstraps_start_a_pool(self, generated, tmp_path, monkeypatch, in_process_pool, argv, name,
                                               pools):
        set_usable_cpus(monkeypatch, 2)
        assert self.run(argv, generated, tmp_path) == 0
        assert in_process_pool == pools

    @pytest.mark.parametrize("argv, name", [(argv, name) for argv, name, pools in POOLED if pools])
    def test_outputs_do_not_depend_on_the_usable_cpus(self, generated, tmp_path, monkeypatch, capsys, argv, name):
        outputs = []
        for cpus in (1, 2):
            set_usable_cpus(monkeypatch, cpus)
            out = tmp_path / f"cpus{cpus}"
            assert self.run(argv, generated, out) == 0
            outputs.append(((out / name).read_bytes(), capsys.readouterr().out.replace(str(out), "OUT")))
        assert outputs[0] == outputs[1]


class TestConfigFile:
    def test_config_file_supplies_flags_and_cli_overrides(self, tmp_path):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"seed": 11, "n_pre": 60, "n_post": 40}), encoding="utf-8")
        out1 = tmp_path / "c1"
        assert run_cli("generate", "--config", str(config), "--out", str(out1)) == 0
        pre = read_cohort_csv(out1 / "pre.csv")
        assert len(pre) == 60

        out2 = tmp_path / "c2"
        assert run_cli("generate", "--config", str(config), "--n-pre", "30", "--out", str(out2)) == 0
        pre2 = read_cohort_csv(out2 / "pre.csv")
        assert len(pre2) == 30

    # An integer of more digits than int() reads, and arrays nested deeper than the JSON reader recurses.
    @pytest.mark.parametrize("text", ['{"seed": 1' + "0" * 5000 + "}", "[" * 100_000 + "]" * 100_000],
                             ids=["long-integer", "deep-nesting"])
    def test_config_file_that_json_cannot_read_exits_2(self, tmp_path, capsys, text):
        config = tmp_path / "config.json"
        config.write_text(text, encoding="utf-8")
        assert run_cli("generate", "--config", str(config), "--out", str(tmp_path / "out")) == 2
        assert f"error: config file {config} is not valid JSON: " in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_missing_config_file_exits_2(self, tmp_path, capsys):
        config = tmp_path / "none.json"
        assert run_cli("generate", "--config", str(config), "--out", str(tmp_path / "out")) == 2
        assert capsys.readouterr().err == f"error: config file not found: {config}\n"
        assert not (tmp_path / "out").exists()

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        config = tmp_path / "bad.json"
        config.write_text(json.dumps({"seed": 1, "bogus_key": 2}), encoding="utf-8")
        code = run_cli("generate", "--config", str(config), "--out", str(tmp_path))
        assert code == 2
        assert "bogus_key" in capsys.readouterr().err

    def test_mistyped_config_value_rejected(self, tmp_path, capsys):
        config = tmp_path / "typed.json"
        config.write_text(json.dumps({"seed": "forty-two"}), encoding="utf-8")
        code = run_cli("generate", "--config", str(config), "--out", str(tmp_path))
        assert code == 2
        assert "seed" in capsys.readouterr().err

    def run_with_config(self, tmp_path, values, *argv):
        config = tmp_path / "choice.json"
        config.write_text(json.dumps(values), encoding="utf-8")
        return run_cli(*argv, "--config", str(config), "--out", str(tmp_path / "out"))

    def test_config_scale_outside_choices_exits_2(self, generated, tmp_path, capsys):
        code = self.run_with_config(tmp_path, {"scale": ["xx"]}, "estimate", "--pre", str(generated / "pre.csv"),
                                    "--post", str(generated / "post.csv"), "--seed", "1", "--replicates", "100")
        assert code == 2
        err = capsys.readouterr().err
        assert "--scale" in err and "'xx'" in err and "or, rd, rr" in err

    def test_config_scale_given_as_a_string_exits_2(self, generated, tmp_path, capsys):
        code = self.run_with_config(tmp_path, {"scale": "rd"}, "estimate", "--pre", str(generated / "pre.csv"),
                                    "--post", str(generated / "post.csv"), "--seed", "1", "--replicates", "100")
        assert code == 2
        err = capsys.readouterr().err
        assert "--scale" in err and "list" in err

    def test_config_spec_outside_choices_exits_2(self, generated, tmp_path, capsys):
        code = self.run_with_config(tmp_path, {"spec": "bogus"}, "fit", "--pre", str(generated / "pre.csv"))
        assert code == 2
        err = capsys.readouterr().err
        assert "--spec" in err and "interactions, linear, quadratic" in err

    @pytest.mark.parametrize("values,flag", [
        ({"scale": []}, "--scale"),
        ({"bootstrap": "both"}, "--bootstrap"),
    ])
    def test_config_sensitivity_choices_exit_2(self, generated, tmp_path, capsys, values, flag):
        code = self.run_with_config(tmp_path, values, "sensitivity", "--pre", str(generated / "pre.csv"),
                                    "--post", str(generated / "post.csv"), "--seed", "1")
        assert code == 2
        assert flag in capsys.readouterr().err

    def test_config_scenario_outside_choices_exits_2(self, tmp_path, capsys):
        code = self.run_with_config(tmp_path, {"scenario": "nope"}, "simulate", "--seed", "1")
        assert code == 2
        assert "--scenario" in capsys.readouterr().err

    def test_config_truncate_organ_outside_choices_exits_2(self, tmp_path, capsys):
        code = self.run_with_config(tmp_path, {"truncate_organ": "tongue", "truncate_max": 50.0},
                                    "generate", "--seed", "1")
        assert code == 2
        assert "--truncate-organ" in capsys.readouterr().err

    def test_valid_config_choices_are_accepted(self, generated, tmp_path):
        code = self.run_with_config(tmp_path, {"spec": "quadratic"}, "fit", "--pre", str(generated / "pre.csv"))
        assert code == 0

    def test_config_out_that_is_not_a_path_exits_2(self, generated, tmp_path, capsys):
        config = tmp_path / "out.json"
        config.write_text(json.dumps({"out": 5}), encoding="utf-8")
        assert run_cli("fit", "--pre", str(generated / "pre.csv"), "--config", str(config)) == 2
        assert "option --out must be a str, got 5" in capsys.readouterr().err

    def test_config_pre_that_is_not_a_path_exits_2(self, tmp_path, capsys):
        assert self.run_with_config(tmp_path, {"pre": 123}, "fit") == 2
        assert "option --pre must be a str, got 123" in capsys.readouterr().err

    def test_config_with_coverage_string_exits_2(self, tmp_path, capsys):
        code = self.run_with_config(tmp_path, {"with_coverage": "false"}, "simulate", "--seed", "1",
                                    "--replicates", "2")
        assert code == 2
        assert "option --with-coverage must be a bool, got 'false'" in capsys.readouterr().err

    def test_config_quiet_string_exits_2(self, tmp_path, capsys):
        assert self.run_with_config(tmp_path, {"quiet": "no"}, "generate", "--seed", "1") == 2
        assert "option --quiet must be a bool, got 'no'" in capsys.readouterr().err


def every_option():
    """(command, dest) for every option of every subcommand."""
    return [
        pytest.param(name, dest, id=f"{name}--{dest.replace('_', '-')}")
        for name, command in COMMANDS.items()
        for dest in command.defaults()
    ]


def flag(dest):
    return "--" + dest.replace("_", "-")


def wrong_kind(dest):
    """A JSON value that the option ``dest`` cannot take."""
    option = OPTIONS[dest]
    if option.kind is bool:
        return "true"
    if option.repeats:
        return option.kind.values[0]  # one value, not a list
    return "1" if isinstance(option.kind, Integer) else "1.5" if isinstance(option.kind, Real) else 5


@pytest.mark.parametrize("command, dest", every_option())
def test_config_value_of_the_wrong_kind_exits_2_naming_the_flag(tmp_path, capsys, command, dest):
    config = tmp_path / "wrong.json"
    config.write_text(json.dumps({dest: wrong_kind(dest)}), encoding="utf-8")
    code = run_cli(command, "--config", str(config), "--out", str(tmp_path / "out"))
    assert code == 2
    assert f"option {flag(dest)} " in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


# Config-file values from every stratum: boundaries, floats where an integer belongs, bools, strings,
# None, NaN, infinities, huge integers, lists and dicts. Each option's own kind adds its good values.
JSON_STRATA = [0, 1, -1, 7919, 0.0, -0.0, 1.5, 2.0, -0.5, 5e-324, 1.7976931348623157e308, True, False, "", "x", "1",
               "rd", "linear", None, math.nan, math.inf, -math.inf, 2**64, 10**400, -10**400, [], [1], ["rd"],
               [None], [[]], {}, {"seed": 1}]


def good_json(dest):
    """A strategy for JSON values of the kind of one value of the option ``dest``."""
    kind = OPTIONS[dest].kind
    if kind is bool:
        return st.booleans()
    if isinstance(kind, OneOf):
        return st.sampled_from(kind.values)
    if isinstance(kind, Integer):
        return st.integers(0, 2**80)
    if isinstance(kind, Real):
        return st.floats(allow_nan=False, allow_infinity=False)
    return st.text(max_size=4)


def of_kind(dest, value) -> bool:
    """Whether ``value`` is of the option ``dest``'s kind, decided apart from the package's rule."""
    if OPTIONS[dest].repeats:
        return type(value) is list and len(value) > 0 and all(of_kind_one(dest, item) for item in value)
    return of_kind_one(dest, value)


def of_kind_one(dest, value) -> bool:
    kind = OPTIONS[dest].kind
    if kind is bool:
        return type(value) is bool
    if isinstance(kind, OneOf):
        return type(value) is str and value in kind.values
    if isinstance(kind, Integer):
        return type(value) is int and value >= 0
    if isinstance(kind, Real):
        return type(value) in (int, float) and abs(value) <= sys.float_info.max  # NaN is not
    return type(value) is str


def parses_as_a_number(text) -> bool:
    for read in (int, float):
        try:
            read(text)
            return True
        except ValueError:
            pass
    return False


# Non-finite and overflowing numbers: the config file's JSON literal and the flag's text for each.
NON_FINITE = [("NaN", "nan"), ("Infinity", "inf"), ("-Infinity", "-inf"), ("1e400", "1e400"), ("-1e400", "-1e400")]


def spelled(dest):
    """A strategy for (JSON literal, flag text) pairs that say one value of the option ``dest``, or its refusal.

    Numbers for a number kind: ints, finite floats and ``NON_FINITE``, where
    a text that ``int`` or ``float`` reads is no string. Strings for every
    kind but a switch, which takes no text. The text "--" is left out: argparse
    reads ``--flag=--`` as no value at all (see the double-dash test below).
    """
    kind = OPTIONS[dest].kind
    texts = (st.text(max_size=4) | st.sampled_from(kind.values)) if isinstance(kind, OneOf) else st.text(max_size=4)
    texts = texts.filter(lambda text: text != "--")
    if not isinstance(kind, (Integer, Real)):
        return texts.map(lambda text: (json.dumps(text), text))
    numbers = (st.integers() | st.sampled_from([2**64, 10**400, -10**400])).map(str) | st.floats(
        allow_nan=False, allow_infinity=False).map(repr)
    return st.one_of(numbers.map(lambda text: (text, text)), st.sampled_from(NON_FINITE),
                     texts.filter(lambda text: not parses_as_a_number(text)).map(lambda text: (json.dumps(text), text)))


@pytest.mark.parametrize("command, dest", every_option())
def test_every_config_value_resolves_to_its_kind_or_is_refused_naming_the_flag(tmp_path_factory, command, dest):
    parser = build_parser()
    option = OPTIONS[dest]
    inputs = [token for other, default in COMMANDS[command].defaults().items()
              if default is MANDATORY and other != dest for token in (f"--{other}", "1")]
    config = tmp_path_factory.mktemp("config") / "config.json"
    item = good_json(dest)
    good = st.lists(item, min_size=1, max_size=3) if option.repeats else item
    strata = st.sampled_from(JSON_STRATA)

    def resolved(*argv):
        """The message of ``dest``'s refusal from ``argv`` and None, or None and the value ``dest`` resolves to."""
        args = parser.parse_args([command, *inputs, *argv])
        try:
            resolve_options(args)
        except ConfigurationError as exc:
            return str(exc), None
        return None, getattr(args, dest)

    @settings(max_examples=40)
    @given(good | strata | st.lists(item | strata, max_size=2))
    def check(value):
        config.write_text(json.dumps({dest: value}), encoding="utf-8")
        refusal, resolved_value = resolved("--config", str(config))
        if refusal is not None:
            assert refusal.startswith(f"option {flag(dest)} must be "), refusal
            assert not of_kind(dest, value)
            return
        assert of_kind(dest, value)
        python_type = {Integer: int, Real: float, OneOf: str}.get(type(option.kind), option.kind)  # else bool or str
        assert all(type(v) is python_type for v in (resolved_value if option.repeats else [resolved_value]))
        assert resolved_value == value or dest == "config"  # the file's --config value is checked, the flag's kept

    check()
    if option.kind is bool or dest == "config":  # a switch takes no text; a --config flag names the file to read
        return

    # The same value as the flag --<flag>=<text>, given once per item of a repeatable option.
    @settings(max_examples=40)
    @given(st.lists(spelled(dest), min_size=1, max_size=3) if option.repeats else spelled(dest))
    def check_flag(spelling):
        items = spelling if option.repeats else [spelling]
        literal = "[" + ", ".join(json_text for json_text, _ in items) + "]" if option.repeats else spelling[0]
        config.write_text(f'{{"{dest}": {literal}}}', encoding="utf-8")
        (flag_refusal, flag_value), (config_refusal, config_value) = (
            resolved(*(f"{flag(dest)}={text}" for _, text in items)), resolved("--config", str(config)))
        assert (flag_refusal, repr(flag_value)) == (config_refusal, repr(config_value)), literal

    check_flag()


def stochastic_argv(command, generated):
    """The arguments, --seed aside, of a small run of a command that takes --seed."""
    cohorts = ("--pre", str(generated / "pre.csv"), "--post", str(generated / "post.csv"))
    return {
        "generate": ("generate", "--n-pre", "60", "--n-post", "40"),
        "estimate": ("estimate", *cohorts, "--replicates", "100"),
        "diagnose": ("diagnose", *cohorts, "--replicates", "100"),
        "sensitivity": ("sensitivity", *cohorts, "--replicates", "100"),
        "simulate": ("simulate", "--scenario", "baseline", "--replicates", "2"),
    }[command]


@pytest.mark.parametrize("source", ["flag", "config"])
@pytest.mark.parametrize("command", ["generate", "estimate", "diagnose", "sensitivity", "simulate"])
def test_negative_seed_exits_2_naming_the_flag(generated, tmp_path, capsys, command, source):
    if source == "flag":
        seed = ("--seed", "-3")
    else:
        config = tmp_path / "seed.json"
        config.write_text(json.dumps({"seed": -3}), encoding="utf-8")
        seed = ("--config", str(config))
    code = run_cli(*stochastic_argv(command, generated), *seed, "--out", str(tmp_path / "out"))
    assert code == 2
    assert "--seed" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


# Refusals that come from the library's field and argument check, each the one line it writes to stderr.
LIBRARY_REFUSALS = {
    "generate --n-pre 0": "GeneratorConfig.n_pre must be a positive integer, got 0",
    "generate --n-post 0": "GeneratorConfig.n_post must be a positive integer, got 0",
    "generate --threshold 1": "GeneratorConfig.selection_threshold must be a real in (0, 1), got 1.0",
    "generate --truncate-organ dose_sup_pcm --truncate-max 90": "truncation bounds must satisfy 0 <= min < max <= 80",
    "estimate --replicates 50": "BootstrapConfig.n_replicates must be an integer >= 100, got 50",
    "sensitivity --replicates 50": "BootstrapConfig.n_replicates must be an integer >= 100, got 50",
    "diagnose --replicates 0": "negative_control_check.n_replicates must be a positive integer, got 0",
    "simulate --replicates 0": "Scenario.n_replicates must be a positive integer, got 0",
    "simulate --threads 0": "run_suite.threads must be a positive integer, got 0",
    "simulate --with-coverage --boot-replicates 50": "BootstrapConfig.n_replicates must be an integer >= 100, got 50",
    "generate --n-pre 100000000000000000000000":
        f"GeneratorConfig.n_pre must be a positive integer <= {MAX_COHORT_SIZE}, got 100000000000000000000000",
    "generate --n-post 100000000000000000000000":
        f"GeneratorConfig.n_post must be a positive integer <= {MAX_COHORT_SIZE}, got 100000000000000000000000",
}


# Refusals of an option's own kind (``cli._option_value``), each the one line it writes to stderr. The
# library keeps the ranges beyond the sign, as "simulate --threads 0" above shows.
OPTION_REFUSALS = {
    "generate --dose-drift nan": "option --dose-drift must be a finite real, got nan",
    "generate --threshold 1e400": "option --threshold must be a finite real, got inf",
    "generate --n-pre -1": "option --n-pre must be a non-negative integer, got -1",
    "simulate --threads -2": "option --threads must be a non-negative integer, got -2",
}


@pytest.mark.parametrize("argv", LIBRARY_REFUSALS)
def test_a_library_refusal_exits_2_with_its_one_line_and_writes_nothing(generated, tmp_path, capsys, argv):
    assert_refused(generated, tmp_path, capsys, argv, LIBRARY_REFUSALS[argv])


@pytest.mark.parametrize("argv", OPTION_REFUSALS)
def test_an_option_refusal_exits_2_with_its_one_line_and_writes_nothing(generated, tmp_path, capsys, argv):
    assert_refused(generated, tmp_path, capsys, argv, OPTION_REFUSALS[argv])


def assert_refused(generated, tmp_path, capsys, argv, message):
    """``argv``, given the cohorts its command reads, --seed 1 and a fresh --out, exits 2 with ``message`` alone."""
    command, *flags = argv.split()
    cohorts = ["--pre", str(generated / "pre.csv"), "--post", str(generated / "post.csv")]
    inputs = cohorts if command in ("estimate", "diagnose", "sensitivity") else []
    code = run_cli(command, *inputs, *flags, "--seed", "1", "--out", str(tmp_path / "out"))
    assert code == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "out").exists()


# A bad value of each kind, as a flag and as its config-file value, and the one line either gives.
FLAG_AND_CONFIG_REFUSALS = [
    ("generate --n-pre 1.5", 1.5, "option --n-pre must be a non-negative integer, got 1.5"),
    ("generate --seed x", "x", "option --seed must be a non-negative integer, got 'x'"),
    ("generate --threshold x", "x", "option --threshold must be a finite real, got 'x'"),
    ("generate --truncate-organ x", "x",
     "option --truncate-organ must be one of dose_sup_pcm, dose_mid_pcm, dose_inf_pcm, dose_oral_cavity, got 'x'"),
    ("simulate --scenario bogus", "bogus", "option --scenario must be one of baseline, ignorability_confounder, "
     "misspecification, positivity_truncation, transportability_drift, all, got 'bogus'"),
    ("estimate --spec x", "x", "option --spec must be one of interactions, linear, quadratic, got 'x'"),
    ("estimate --scale x", ["x"], "option --scale must be one of or, rd, rr, got 'x'"),
    ("estimate --bootstrap x", "x", "option --bootstrap must be one of fixed, full, got 'x'"),
]


@pytest.mark.parametrize("argv, value, message", FLAG_AND_CONFIG_REFUSALS)
def test_a_bad_flag_value_exits_2_with_the_config_files_one_line(generated, tmp_path, capsys, argv, value, message):
    command, given, text = argv.split()
    cohorts = ["--pre", str(generated / "pre.csv"), "--post", str(generated / "post.csv")]
    inputs = cohorts if command == "estimate" else []
    seed = [] if given == "--seed" else ["--seed", "1"]
    config = tmp_path / "config.json"
    config.write_text(json.dumps({given[2:]: value}), encoding="utf-8")
    for source in ([given, text], ["--config", str(config)]):
        assert run_cli(command, *inputs, *seed, *source, "--out", str(tmp_path / "out")) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("text, dest, value", [
    ("--n-pre=007", "n_pre", 7),
    ("--n-pre=1_000", "n_pre", 1000),
    ("--seed= 5", "seed", 5),
    ("--n-post=\u0663\u0660", "n_post", 30),
    ("--threshold=1e-1", "threshold", 0.1),
    ("--threshold=2", "threshold", 2.0),
    ("--dose-drift=-0.0", "dose_drift", -0.0),
    ("--nonlinearity=12345678901234567891", "nonlinearity", 12345678901234567891.0),
    ("--dose-drift=-0", "dose_drift", 0.0),  # the integer 0, as -0 in the config file is
])
def test_a_number_flag_reads_with_int_then_float(text, dest, value):
    args = build_parser().parse_args(["generate", "--seed", "1", text])
    resolve_options(args)
    assert repr(getattr(args, dest)) == repr(value)


def number_options():
    """(command, dest) for every integer or real option of every subcommand."""
    return [param for param in every_option() if isinstance(OPTIONS[param.values[1]].kind, (Integer, Real))]


@pytest.mark.parametrize("text", ["-1e-3", "-1e3", "-inf", "-nan"])
@pytest.mark.parametrize("command, dest", number_options())
def test_a_negative_number_after_a_space_runs_as_after_an_equals_sign(tmp_path, capsys, command, dest, text):
    # argparse alone reads "--dose-drift -1e-3" as a flag that lacks its value.
    small = ["--n-pre", "60", "--n-post", "40"] if command == "generate" else []
    seed = ["--seed", "1"] if COMMANDS[command].seeded else []
    runs = []
    for form, given in (("space", [flag(dest), text]), ("equals", [f"{flag(dest)}={text}"])):
        out = tmp_path / form
        try:
            code = run_cli(command, *seed, *small, *given, "--out", str(out))
        except SystemExit as exc:
            code = exc.code
        std = capsys.readouterr()
        files = {p.name: p.read_bytes() for p in out.iterdir()} if out.exists() else None
        runs.append((code, std.out.replace(str(out), "OUT"), std.err, files))
    assert runs[0] == runs[1]


@pytest.mark.parametrize("argv, joined", [
    (["generate", "--dose-drift", "-1e-3", "--seed", "-1"], ["generate", "--dose-drift=-1e-3", "--seed=-1"]),
    (["simulate", "--threads", "-inf", "--replicates", "-nan"], ["simulate", "--threads=-inf", "--replicates=-nan"]),
    (["generate", "--n-pre", "-1e3", "-1e3"], ["generate", "--n-pre=-1e3", "-1e3"]),
    (["generate", "--", "--n-pre", "-1e3"], ["generate", "--", "--n-pre", "-1e3"]),  # nothing after a bare --
    (["generate", "--dose", "-1e-3"], ["generate", "--dose", "-1e-3"]),  # an abbreviated flag needs =
    (["generate", "--out", "-1e3"], ["generate", "--out", "-1e3"]),  # not a number option
    (["generate", "--n-pre", "-x"], ["generate", "--n-pre", "-x"]),  # not a number
    (["fit", "--seed", "-1e3"], ["fit", "--seed", "-1e3"]),  # not an option of fit
    (["--n-pre", "-1e3"], ["--n-pre", "-1e3"]),  # no command
])
def test_only_a_negative_number_after_a_number_option_is_joined(argv, joined):
    assert _join_negative_numbers(argv) == joined


@pytest.mark.parametrize("flag,value", [
    ("--dose-drift", "inf"),
    ("--dose-drift", "nan"),
    ("--nonlinearity", "nan"),
    ("--confounder-strength", "nan"),
])
def test_non_finite_shift_exits_2_and_writes_nothing(tmp_path, capsys, flag, value):
    code = run_cli("generate", "--seed", "1", "--n-pre", "60", "--n-post", "40", flag, value,
                   "--out", str(tmp_path / "out"))
    assert code == 2
    assert capsys.readouterr().err == f"error: option {flag} must be a finite real, got {value}\n"
    assert not (tmp_path / "out").exists()


# Flags that only some subcommands read: --threads is simulate's, and fit draws nothing at random.
UNREAD_FLAGS = [("generate", "threads"), ("fit", "threads"), ("estimate", "threads"),
                ("diagnose", "threads"), ("sensitivity", "threads"), ("fit", "seed")]


@pytest.mark.parametrize("command,dest", UNREAD_FLAGS)
def test_a_flag_the_command_does_not_read_exits_2(tmp_path, capsys, command, dest):
    with pytest.raises(SystemExit) as exc:
        run_cli(command, f"--{dest}", "1", "--out", str(tmp_path / "out"))
    assert exc.value.code == 2
    config = tmp_path / "unread.json"
    config.write_text(json.dumps({dest: 1}), encoding="utf-8")
    assert run_cli(command, "--config", str(config), "--out", str(tmp_path / "out")) == 2
    assert f"'{dest}' is not a flag of '{command}'" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv", [
    ("estimate", "--threads", "-1"),
    ("fit", "--seed", "-5", "--threads", "99"),
])
def test_reproduced_unread_flags_exit_2(generated, tmp_path, argv):
    cohorts = ("--pre", str(generated / "pre.csv"))
    if argv[0] == "estimate":
        cohorts += ("--post", str(generated / "post.csv"), "--seed", "1", "--replicates", "100")
    with pytest.raises(SystemExit) as exc:
        run_cli(*argv, *cohorts, "--out", str(tmp_path / "out"))
    assert exc.value.code == 2
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command,extra", [
    ("fit", ()),
    ("estimate", ("--replicates", "100")),
    ("diagnose", ("--replicates", "100")),
])
def test_duplicate_record_ids_exit_2(generated, tmp_path, capsys, command, extra):
    lines = (generated / "pre.csv").read_text(encoding="utf-8").splitlines()
    duplicated = tmp_path / "pre.csv"
    duplicated.write_text("\n".join(lines[:3] + [lines[1]] + lines[3:]) + "\n", encoding="utf-8")
    post = () if command == "fit" else ("--post", str(generated / "post.csv"), "--seed", "1")
    code = run_cli(command, "--pre", str(duplicated), *post, *extra, "--out", str(tmp_path / "out"))
    assert code == 2
    assert "pre-0001" in capsys.readouterr().err


def test_python_dash_m_runs_the_cli():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-m", "attlab", "--help"], capture_output=True, text=True,
                          env=env, timeout=60)
    assert done.returncode == 0
    assert "simulate" in done.stdout


@pytest.mark.slow
def test_estimate_ci_covers_generated_truth_across_seeds(tmp_path):
    # End-to-end file contract: the report's own 95% interval contains the
    # truth.json value in at least 93 of 100 seeded pipeline runs.
    covered = 0
    for seed in range(100):
        out = tmp_path / f"w{seed}"
        assert run_cli("generate", "--seed", str(seed), "--out", str(out), "--quiet") == 0
        assert run_cli(
            "estimate",
            "--pre", str(out / "pre.csv"),
            "--post", str(out / "post.csv"),
            "--seed", str(seed + 1000),
            "--replicates", "500",
            "--out", str(out),
            "--quiet",
        ) == 0
        truth = json.loads((out / "truth.json").read_text(encoding="utf-8"))["true_att"]["rd"]
        rd = json.loads((out / "report.json").read_text(encoding="utf-8"))["estimates"]["rd"]
        covered += rd["ci_low"] <= truth <= rd["ci_high"]
    assert covered >= 93


def test_quiet_flag_suppresses_stdout(tmp_path, capsys):
    assert run_cli("generate", "--seed", "3", "--n-pre", "40", "--n-post", "30",
                   "--out", str(tmp_path), "--quiet") == 0
    assert capsys.readouterr().out == ""


def test_stdout_carries_only_the_summary(generated, tmp_path, capsys):
    code = run_cli(
        "estimate",
        "--pre", str(generated / "pre.csv"),
        "--post", str(generated / "post.csv"),
        "--seed", "4", "--replicates", "150",
        "--out", str(tmp_path),
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "ATT (rd)" in out
    assert "{" not in out  # no raw JSON on stdout


# Each subcommand's resolved defaults before the option table: what a run
# that gives only the required options works with.
PARENT_DEFAULTS = {
    "generate": {"n_pre": 750, "n_post": 300, "threshold": 0.10, "dose_drift": 0.0, "confounder_strength": 0.0,
                 "truncate_organ": None, "truncate_max": None, "nonlinearity": 0.0},
    "fit": {"spec": "linear"},
    "estimate": {"spec": "linear", "scale": ["rd"], "bootstrap": "full", "replicates": 2000},
    "diagnose": {"spec": "linear", "replicates": 2000},
    "sensitivity": {"variant": ["linear", "quadratic"], "scale": ["rd"], "bootstrap": "fixed", "replicates": 500},
    "simulate": {"scenario": "all", "replicates": 500, "with_coverage": False, "boot_replicates": 500,
                 "threads": 1},
}
PARENT_REQUIRED = {
    "generate": ("seed",),
    "fit": ("pre",),
    "estimate": ("pre", "post", "seed"),
    "diagnose": ("pre", "post", "seed"),
    "sensitivity": ("pre", "post", "seed"),
    "simulate": ("seed",),
}


@pytest.mark.parametrize("command", sorted(PARENT_DEFAULTS))
def test_resolved_defaults_are_the_parents(monkeypatch, command):
    import attlab.cli

    seen = {}

    def capture(args):
        seen.update(vars(args))
        return 0

    monkeypatch.setitem(attlab.cli.COMMANDS, command, dataclasses.replace(attlab.cli.COMMANDS[command], run=capture))
    given = {dest: 7 if dest == "seed" else f"{dest}.csv" for dest in PARENT_REQUIRED[command]}
    argv = [command, *(a for dest, value in given.items() for a in (f"--{dest}", str(value)))]
    assert run_cli(*argv) == 0
    common = {"config": None, "out": ".", "quiet": False}
    assert seen == {"command": command, **common, **PARENT_DEFAULTS[command], **given}


@pytest.mark.parametrize("command, dest", every_option())
def test_help_ends_with_the_default_or_required(command, dest):
    text = _help(dest, COMMANDS[command].defaults()[dest])
    if dest in PARENT_REQUIRED[command]:
        assert text.endswith(" (required)")
        return
    default = {"config": None, "out": ".", "quiet": False, **PARENT_DEFAULTS[command]}[dest]
    shown = {"scale": "rd", "variant": "linear, quadratic", "config": "none", "quiet": "false",
             "with_coverage": "false", "truncate_organ": "none", "truncate_max": "none"}.get(dest, str(default))
    assert text.endswith(f" (default: {shown})")


def test_help_shows_defaults(capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli("sensitivity", "--help")
    assert exc.value.code == 0
    text = " ".join(capsys.readouterr().out.split())
    assert "(default: linear, quadratic)" in text and "(default: fixed)" in text and "(required)" in text


def test_missing_required_options_are_listed_inputs_first(tmp_path, capsys):
    assert run_cli("estimate", "--out", str(tmp_path / "out")) == 2
    assert "missing required option(s) for 'estimate': --pre, --post, --seed" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["generate", "fit", "simulate"])
def test_an_out_that_is_a_file_exits_2_and_writes_nothing(generated, tmp_path, capsys, command):
    taken = tmp_path / "taken"
    taken.write_bytes(b"keep")
    argv = {
        "generate": ("generate", "--seed", "1", "--n-pre", "60", "--n-post", "40"),
        "fit": ("fit", "--pre", str(generated / "pre.csv")),
        "simulate": ("simulate", "--scenario", "baseline", "--replicates", "2", "--seed", "1"),
    }[command]
    assert run_cli(*argv, "--out", str(taken)) == 2
    err = capsys.readouterr().err
    assert f"output directory {taken} exists and is not a directory" in err
    assert "Traceback" not in err
    assert "running scenario" not in err
    assert taken.read_bytes() == b"keep"
    assert [p.name for p in tmp_path.iterdir()] == ["taken"]


@pytest.mark.parametrize("command,blocked", [
    ("estimate", "report.json"),
    ("diagnose", "negative_control_curve.csv"),
])
def test_an_output_name_that_is_a_directory_exits_2_and_writes_nothing(generated, tmp_path, capsys, command,
                                                                        blocked):
    out = tmp_path / "out"
    (out / blocked).mkdir(parents=True)
    code = run_cli(command, "--pre", str(generated / "pre.csv"), "--post", str(generated / "post.csv"),
                   "--seed", "1", "--replicates", "100", "--out", str(out))
    assert code == 2
    assert f"output file {out / blocked} is a directory" in capsys.readouterr().err
    assert [p.name for p in out.iterdir()] == [blocked]  # diagnose writes no diagnostics.json either
    assert not any((out / blocked).iterdir())


def test_an_unsampleable_truncation_window_exits_2_at_once(tmp_path, capsys):
    started = time.perf_counter()
    code = run_cli("generate", "--seed", "1", "--truncate-organ", "dose_sup_pcm", "--truncate-max", "30",
                   "--out", str(tmp_path / "out"))
    assert time.perf_counter() - started < 1.0
    assert code == 2
    assert "nasopharynx" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_a_narrow_but_sampleable_truncation_window_runs(tmp_path):
    assert run_cli("generate", "--seed", "1", "--truncate-organ", "dose_sup_pcm", "--truncate-max", "38",
                   "--out", str(tmp_path)) == 0
    pre = read_cohort_csv(tmp_path / "pre.csv")
    assert pre.photon[:, 0].max() <= 38.0


@pytest.mark.parametrize("argv,flag", [
    (("generate", "--seed", "1", "--threshold=--"), "--threshold"),
    (("generate", "--seed=--"), "--seed"),
    (("fit", "--pre=--"), "--pre"),
    (("sensitivity", "--variant=--"), "--variant"),
])
def test_a_flag_value_of_double_dash_exits_2_naming_the_flag(tmp_path, capsys, argv, flag):
    # argparse reads "--" after "=" as an empty list of values.
    assert run_cli(*argv, "--out", str(tmp_path / "out")) == 2
    assert f"option {flag} " in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_a_world_without_baseline_risk_exits_3_and_writes_nothing(tmp_path, capsys):
    # With every risk 0 nobody benefits, so nobody is selected and the ATT is undefined.
    code = run_cli("generate", "--seed", "1", "--n-pre", "50", "--n-post", "30", "--nonlinearity=-1e308",
                   "--out", str(tmp_path / "out"))
    assert code == 3
    assert "no target-treated" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()
