import argparse
import dataclasses
import json
import os
import subprocess
import sys
import time
from importlib import resources
from pathlib import Path

import pytest

from attlab.cli import build_parser, main
from attlab.records import read_cohort_csv

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
        assert "at least one bootstrap replicate" in capsys.readouterr().err

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
        with pytest.raises(SystemExit) as exc:
            run_cli("simulate", "--scenario", "bogus", "--seed", "1", "--out", str(tmp_path))
        assert exc.value.code == 2
        assert "baseline" in capsys.readouterr().err

    def test_zero_threads_exits_2(self, tmp_path, capsys):
        code = run_cli("simulate", "--scenario", "baseline", "--replicates", "2", "--seed", "1",
                       "--threads", "0", "--out", str(tmp_path))
        assert code == 2
        assert "threads" in capsys.readouterr().err

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
        assert "option --out must be a string; got 5" in capsys.readouterr().err

    def test_config_pre_that_is_not_a_path_exits_2(self, tmp_path, capsys):
        assert self.run_with_config(tmp_path, {"pre": 123}, "fit") == 2
        assert "option --pre must be a string; got 123" in capsys.readouterr().err

    def test_config_with_coverage_string_exits_2(self, tmp_path, capsys):
        code = self.run_with_config(tmp_path, {"with_coverage": "false"}, "simulate", "--seed", "1",
                                    "--replicates", "2")
        assert code == 2
        assert "option --with-coverage takes true or false; got 'false'" in capsys.readouterr().err

    def test_config_quiet_string_exits_2(self, tmp_path, capsys):
        assert self.run_with_config(tmp_path, {"quiet": "no"}, "generate", "--seed", "1") == 2
        assert "option --quiet takes true or false; got 'no'" in capsys.readouterr().err


def every_option():
    """(command, action) for every option of every subcommand, --help aside."""
    _, commands = build_parser()
    return [
        pytest.param(name, action, id=f"{name}{action.option_strings[0]}")
        for name, parser in commands.items()
        for action in parser._actions
        if not isinstance(action, argparse._HelpAction)
    ]


def wrong_kind(action):
    """A JSON value that the flag ``action`` fills cannot take."""
    if isinstance(action, argparse._StoreTrueAction):
        return "true"
    if isinstance(action, argparse._AppendAction):
        return action.choices[0] if action.choices else "x"  # one value, not a list
    return {int: "1", float: "1.5", None: 5}[action.type]


@pytest.mark.parametrize("command, action", every_option())
def test_config_value_of_the_wrong_kind_exits_2_naming_the_flag(tmp_path, capsys, command, action):
    config = tmp_path / "wrong.json"
    config.write_text(json.dumps({action.dest: wrong_kind(action)}), encoding="utf-8")
    code = run_cli(command, "--config", str(config), "--out", str(tmp_path / "out"))
    assert code == 2
    assert f"option {action.option_strings[0]} " in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


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


@pytest.mark.parametrize("flag,value,field", [
    ("--dose-drift", "inf", "secular_dose_drift"),
    ("--dose-drift", "nan", "secular_dose_drift"),
    ("--nonlinearity", "nan", "nonlinearity_amplitude"),
    ("--confounder-strength", "nan", "unmeasured_confounder_strength"),
])
def test_non_finite_shift_exits_2_and_writes_nothing(tmp_path, capsys, flag, value, field):
    code = run_cli("generate", "--seed", "1", "--n-pre", "60", "--n-post", "40", flag, value,
                   "--out", str(tmp_path / "out"))
    assert code == 2
    assert field in capsys.readouterr().err
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


@pytest.mark.parametrize("command, action", every_option())
def test_help_ends_with_the_default_or_required(command, action):
    if action.dest in PARENT_REQUIRED[command]:
        assert action.help.endswith(" (required)")
        return
    default = {"config": None, "out": ".", "quiet": False, **PARENT_DEFAULTS[command]}[action.dest]
    shown = {"scale": "rd", "variant": "linear, quadratic", "config": "none", "quiet": "false",
             "with_coverage": "false", "truncate_organ": "none", "truncate_max": "none"}.get(action.dest, str(default))
    assert action.help.endswith(f" (default: {shown})")


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
