"""Command-line front end.

Subcommands: ``generate``, ``fit``, ``estimate``, ``diagnose``,
``sensitivity``, ``simulate``. Structured results go to files (JSON for
reports, CSV for tabular outputs); stdout carries only a short human
summary, progress goes to stderr. Every stochastic command requires an
explicit ``--seed`` and produces byte-identical outputs on rerun.

Exit codes: 0 success, 2 input or configuration error, 3 statistical
failure (non-convergence, undefined estimand, unstable bootstrap).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from . import diagnostics as diag
from . import estimator as est
from . import glm
from . import synth
from . import violations as viol
from .errors import ConfigurationError, SchemaError, StatisticalError
from .records import CohortLabel, DOSE_FIELDS, check_out_dir, json_bytes, read_cohort_csv, validate, write_outputs

SCALES = {s.value: s for s in est.EffectScale}
BOOTSTRAP_MODES = {m.value: m for m in est.BootstrapMode}
SCENARIOS = {s.value: s for s in viol.ScenarioName}

# Every option, described once: its argparse keywords and help. Each
# subcommand's table in ``COMMANDS`` names the options it takes and their
# defaults; the parser, the defaults and the required-option check read both.
OPTIONS: dict[str, dict] = {
    "config": {"help": "JSON file supplying any flag; explicit flags override it"},
    "out": {"help": "output directory"},
    "seed": {"type": int, "help": "RNG seed, a non-negative integer"},
    "quiet": {"action": "store_true", "help": "suppress the stdout summary"},
    "n_pre": {"type": int, "help": "pre-introduction cohort size"},
    "n_post": {"type": int, "help": "post-introduction cohort size"},
    "threshold": {"type": float, "help": "selection benefit threshold"},
    "dose_drift": {"type": float, "help": "secular dose drift (Gy)"},
    "confounder_strength": {"type": float, "help": "latent confounder strength"},
    "truncate_organ": {"choices": DOSE_FIELDS, "help": "dose field truncated in the pre cohort, with --truncate-max"},
    "truncate_max": {"type": float, "help": "pre-cohort max dose (Gy) of --truncate-organ"},
    "nonlinearity": {"type": float, "help": "quadratic dose-response amplitude"},
    "pre": {"help": "pre-introduction cohort CSV"},
    "post": {"help": "post-introduction cohort CSV"},
    "spec": {"choices": sorted(glm.NAMED_SPECS), "help": "model spec variant"},
    "variant": {"action": "append", "choices": sorted(glm.NAMED_SPECS), "help": "spec variant to compare, repeatable"},
    "scale": {"action": "append", "choices": sorted(SCALES), "help": "effect scale, repeatable"},
    "bootstrap": {"choices": sorted(BOOTSTRAP_MODES), "help": "bootstrap mode"},
    "replicates": {"type": int, "help": "bootstrap replicates, or for simulate the replicate worlds per scenario"},
    "scenario": {"choices": sorted(SCENARIOS) + ["all"], "help": "scenario name or 'all'"},
    "with_coverage": {"action": "store_true", "help": "also run a full bootstrap per replicate and report CI coverage"},
    "boot_replicates": {"type": int, "help": "bootstrap replicates per world when --with-coverage is set"},
    "threads": {"type": int, "help": "worker processes for the replicate worlds"},
}

# The default of an option that the command line or the config file must supply.
MANDATORY = object()

# The options every subcommand takes before its own; --seed only where it draws at random.
COMMON = {"config": None, "out": ".", "seed": MANDATORY, "quiet": False}


@dataclass(frozen=True)
class Command:
    help: str
    run: Callable[[argparse.Namespace], int]
    options: dict  # its own options, {dest: default or MANDATORY}, in --help order
    seeded: bool = True

    def defaults(self) -> dict:
        """Every option the command takes, ``COMMON`` first, with its default."""
        return {**{d: v for d, v in COMMON.items() if self.seeded or d != "seed"}, **self.options}


def _help(dest: str, default) -> str:
    if default is MANDATORY:
        return f"{OPTIONS[dest]['help']} (required)"
    shown = ", ".join(default) if isinstance(default, list) else "none" if default is None else str(default).lower()
    return f"{OPTIONS[dest]['help']} (default: {shown})"


def build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    parser = argparse.ArgumentParser(
        prog="attlab",
        description="Counterfactual-prediction ATT estimation, diagnostics, and simulation lab.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    commands: dict[str, argparse.ArgumentParser] = {}
    for name, command in COMMANDS.items():
        p = commands[name] = sub.add_parser(name, help=command.help)
        # Every default is None here, so that _apply_config_file sees which flags were given.
        for dest, default in command.defaults().items():
            keywords = {**OPTIONS[dest], "default": None, "help": _help(dest, default)}
            p.add_argument("--" + dest.replace("_", "-"), **keywords)
    return parser, commands


def _apply_config_file(args: argparse.Namespace, parser: argparse.ArgumentParser) -> None:
    actions = {a.dest: a for a in parser._actions if not isinstance(a, argparse._HelpAction)}
    # A flag's value passes the same check as a config value: argparse turns
    # a value of "--" (as in --pre=--) into an empty list.
    for action in actions.values():
        if getattr(args, action.dest) is not None:
            _config_value(action, getattr(args, action.dest))
    if args.config is None:
        return
    path = Path(args.config)
    if not path.is_file():
        raise ConfigurationError(f"config file not found: {path}")
    try:
        with open(path, encoding="utf-8") as fh:
            values = json.load(fh)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ConfigurationError(f"config file {path} is not valid JSON: {exc}")
    if not isinstance(values, dict):
        raise ConfigurationError(f"config file {path} must contain a JSON object")
    for key, value in values.items():
        action = actions.get(key.replace("-", "_"))
        if action is None:
            raise ConfigurationError(f"config file key {key!r} is not a flag of '{args.command}'")
        value = _config_value(action, value)
        if getattr(args, action.dest) is None:
            setattr(args, action.dest, value)


# The JSON values each argparse ``type`` accepts from a config file.
_JSON_KINDS = {int: (int, "an integer"), float: ((int, float), "a number"), str: (str, "a string")}


def _config_value(action: argparse.Action, value):
    """A value for the flag ``action``, from the config file or the command line, as the flag takes it.

    Raises ConfigurationError naming the flag when the value is of the wrong
    kind: a bool for ``store_true``, a non-empty list for ``append``, and
    otherwise the action's ``type`` (int, float or str) and ``choices``.
    """
    flag = action.option_strings[0]
    if isinstance(action, argparse._StoreTrueAction):
        if not isinstance(value, bool):
            raise ConfigurationError(f"option {flag} takes true or false; got {value!r}")
        return value
    if isinstance(action, argparse._AppendAction):
        if not isinstance(value, list) or not value:
            allowed = f" from {', '.join(action.choices)}" if action.choices else ""
            raise ConfigurationError(f"option {flag} takes a non-empty list of values{allowed}; got {value!r}")
        return [_config_scalar(action, flag, item) for item in value]
    return _config_scalar(action, flag, value)


def _config_scalar(action: argparse.Action, flag: str, value):
    kind = action.type or str
    accepted, noun = _JSON_KINDS[kind]
    if isinstance(value, bool) or not isinstance(value, accepted):
        raise ConfigurationError(f"option {flag} must be {noun}; got {value!r}")
    value = kind(value)
    if action.choices is not None and value not in action.choices:
        raise ConfigurationError(f"option {flag} must be one of {', '.join(action.choices)}; got {value!r}")
    return value


def _apply_defaults(args: argparse.Namespace) -> None:
    command = COMMANDS[args.command]
    defaults = command.defaults()
    # The command's own inputs first, then --seed.
    missing = [d for d in (*command.options, *COMMON) if defaults.get(d) is MANDATORY and getattr(args, d) is None]
    if missing:
        flags = ", ".join("--" + d.replace("_", "-") for d in missing)
        raise ConfigurationError(f"missing required option(s) for '{args.command}': {flags}")
    for dest, default in defaults.items():
        if getattr(args, dest) is None:
            setattr(args, dest, default)
    if getattr(args, "seed", 0) < 0:
        raise ConfigurationError(f"option --seed must be a non-negative integer; got {args.seed}")


def _load_cohort(path_str: str, label: CohortLabel):
    path = Path(path_str)
    if not path.is_file():
        raise ConfigurationError(f"input file not found: {path}")
    cohort = read_cohort_csv(path, label)
    problems = validate(cohort)
    if problems:
        raise SchemaError(problems)
    return cohort


def _shift_from_args(args: argparse.Namespace) -> synth.ViolationShift:
    truncation = None
    if args.truncate_organ is not None or args.truncate_max is not None:
        if args.truncate_organ is None or args.truncate_max is None:
            raise ConfigurationError("--truncate-organ and --truncate-max must be given together")
        truncation = synth.DoseTruncation(organ=args.truncate_organ, max_gy=args.truncate_max)
    return synth.ViolationShift(
        secular_dose_drift=args.dose_drift,
        unmeasured_confounder_strength=args.confounder_strength,
        support_truncation=truncation,
        nonlinearity_amplitude=args.nonlinearity,
    )


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def cmd_generate(args: argparse.Namespace) -> int:
    config = synth.GeneratorConfig(
        n_pre=args.n_pre,
        n_post=args.n_post,
        seed=args.seed,
        selection_threshold=args.threshold,
        shift=_shift_from_args(args),
    )
    world = synth.generate(config)
    paths = synth.write_world(world, args.out)
    n_treated = len(world.post.treated())
    print(
        f"generated {len(world.pre)} pre and {len(world.post)} post records "
        f"({n_treated} target-treated); true ATT (RD) = {world.true_att_rd:.4f}"
    )
    print(f"wrote {paths['pre']}, {paths['post']}, {paths['truth']}")
    return 0


def _fit_pre(args: argparse.Namespace):
    pre = _load_cohort(args.pre, CohortLabel.PRE_INTRODUCTION)
    spec = glm.NAMED_SPECS[args.spec]
    fit = glm.fit_model(pre, spec)
    return pre, spec, fit


def cmd_fit(args: argparse.Namespace) -> int:
    _, _, fit = _fit_pre(args)
    path = write_outputs(args.out, {"model.json": json_bytes(fit.to_json_dict())})["model.json"]
    status = "converged" if fit.converged else "did NOT converge"
    print(f"fitted outcome model on {fit.n_obs} records: {status} in {fit.n_iter} iterations, "
          f"deviance {fit.deviance:.4f}")
    for name, value in fit.coefficients().items():
        print(f"  {name:<28s} {value:+.6f}")
    print(f"wrote {path}")
    return 0


DIAGNOSTICS = ("positivity", "negative_control", "dose_transport")


def _diagnostics_block(pre, post, fit, seed: int, n_replicates: int) -> tuple:
    """Positivity, negative-control and dose-transport reports; ``None`` where a check cannot run."""
    treated = post.treated()
    standard = post.standard()
    positivity = diag.positivity_report(pre, treated) if treated else None
    nc = dt = None
    if standard:
        nc = diag.negative_control_check(standard, fit, n_replicates=n_replicates, seed=seed)
    if treated and treated.has_proton.all():
        dt = diag.dose_transport_check(treated, fit, n_replicates=n_replicates, seed=seed)
    return positivity, nc, dt


def _diagnostics_json(reports: tuple) -> dict:
    return {name: None if r is None else r.to_json_dict() for name, r in zip(DIAGNOSTICS, reports)}


def _report(args: argparse.Namespace, pre, post, fit, **blocks) -> dict:
    """An estimate or diagnose report: the run, the cohorts and the model, then ``blocks`` in order."""
    return {"command": args.command, "seed": args.seed, "n_pre": len(pre), "n_post": len(post),
            "n_treated": len(post.treated()), "model": fit.to_json_dict(), **blocks}


def cmd_estimate(args: argparse.Namespace) -> int:
    pre, spec, fit = _fit_pre(args)
    post = _load_cohort(args.post, CohortLabel.POST_INTRODUCTION)
    treated = post.treated()
    mode = BOOTSTRAP_MODES[args.bootstrap]

    config = est.BootstrapConfig(n_replicates=args.replicates, seed=args.seed, mode=mode)
    scales = [SCALES[name] for name in dict.fromkeys(args.scale)]
    estimates = {
        estimate.scale.value: estimate.to_json_dict()
        for estimate in est.bootstrap_ci(pre, treated, spec, scales, config, fit=fit)
    }

    diagnostics = _diagnostics_block(pre, post, fit, args.seed, min(args.replicates, 2000))
    report = _report(args, pre, post, fit, estimates=estimates, diagnostics=_diagnostics_json(diagnostics))
    path = write_outputs(args.out, {"report.json": json_bytes(report)})["report.json"]

    print(f"fitted model on {len(pre)} pre records; {len(treated)} target-treated patients")
    for scale_name, block in estimates.items():
        print(
            f"ATT ({scale_name}): {block['point']:+.4f} "
            f"[95% CI {block['ci_low']:+.4f}, {block['ci_high']:+.4f}] "
            f"({args.bootstrap} bootstrap, {args.replicates} replicates)"
        )
    verdict = report["diagnostics"]["positivity"]
    if verdict is not None:
        print(f"positivity verdict: {verdict['verdict']}")
    nc = report["diagnostics"]["negative_control"]
    if nc is not None:
        print(
            f"negative-control mean difference: {nc['mean_difference']:+.4f} "
            f"[{nc['ci_low']:+.4f}, {nc['ci_high']:+.4f}]"
        )
    print(f"wrote {path}")
    return 0


def cmd_diagnose(args: argparse.Namespace) -> int:
    pre, spec, fit = _fit_pre(args)
    post = _load_cohort(args.post, CohortLabel.POST_INTRODUCTION)
    reports = _diagnostics_block(pre, post, fit, args.seed, args.replicates)
    block = _diagnostics_json(reports)
    files = {"diagnostics.json": json_bytes(_report(args, pre, post, fit, diagnostics=block))}
    for name, calibration in zip(DIAGNOSTICS[1:], reports[1:]):
        if calibration is not None:
            files[f"{name}_curve.csv"] = diag.curve_csv_bytes(calibration)
    written = write_outputs(args.out, files).values()

    if block["positivity"] is not None:
        print(f"positivity verdict: {block['positivity']['verdict']}")
    if block["negative_control"] is not None:
        nc = block["negative_control"]
        print(f"negative-control mean difference: {nc['mean_difference']:+.4f} "
              f"[{nc['ci_low']:+.4f}, {nc['ci_high']:+.4f}] (auroc {nc['auroc']})")
    if block["dose_transport"] is not None:
        dt = block["dose_transport"]
        print(f"dose-transport mean difference: {dt['mean_difference']:+.4f} "
              f"[{dt['ci_low']:+.4f}, {dt['ci_high']:+.4f}]")
    print("wrote " + ", ".join(str(p) for p in written))
    return 0


def cmd_sensitivity(args: argparse.Namespace) -> int:
    pre = _load_cohort(args.pre, CohortLabel.PRE_INTRODUCTION)
    post = _load_cohort(args.post, CohortLabel.POST_INTRODUCTION)
    variants = [(name, glm.NAMED_SPECS[name]) for name in dict.fromkeys(args.variant)]
    if len(variants) < 2:
        raise ConfigurationError("sensitivity needs at least two distinct --variant values")
    scale_names = list(dict.fromkeys(args.scale))
    if len(scale_names) > 1:
        raise ConfigurationError(
            f"sensitivity compares specs on one effect scale; got --scale {', '.join(scale_names)}"
        )
    scale = SCALES[scale_names[0]]
    config = est.BootstrapConfig(
        n_replicates=args.replicates, seed=args.seed, mode=BOOTSTRAP_MODES[args.bootstrap]
    )
    result = est.sensitivity_analysis(pre, post.treated(), variants, scale, bootstrap=config)
    report = {
        "command": "sensitivity",
        "seed": args.seed,
        "scale": scale.value,
        "result": result.to_json_dict(),
    }
    path = write_outputs(args.out, {"sensitivity.json": json_bytes(report)})["sensitivity.json"]
    for row in result.rows:
        if row.estimate is not None:
            print(f"{row.label:<14s} ATT ({scale.value}) = {row.estimate.point:+.4f} "
                  f"[{row.estimate.ci_low:+.4f}, {row.estimate.ci_high:+.4f}]")
        else:
            print(f"{row.label:<14s} failed: {row.error}")
    print(f"max spread across specs: {result.max_spread:.4f}")
    print(f"wrote {path}")
    return 0


def cmd_simulate(args: argparse.Namespace) -> int:
    names = sorted(SCENARIOS) if args.scenario == "all" else [args.scenario]
    bootstrap = None
    if args.with_coverage:
        bootstrap = est.BootstrapConfig(n_replicates=args.boot_replicates, seed=0)
    scenarios = [
        viol.standard_scenario(
            SCENARIOS[name], n_replicates=args.replicates, seed=args.seed, bootstrap=bootstrap
        )
        for name in names
    ]
    result = viol.run_suite(scenarios, threads=args.threads, progress=lambda msg: print(msg, file=sys.stderr))
    paths = viol.write_suite(result, args.out)
    for report in result.reports:
        coverage = "n/a" if report.coverage is None else f"{report.coverage:.3f}"
        nc = "n/a" if report.mean_nc_difference is None else f"{report.mean_nc_difference:+.4f}"
        print(
            f"{report.scenario:<26s} bias {report.mean_bias:+.4f} (sd {report.sd_bias:.4f}), "
            f"coverage {coverage}, nc-diff {nc}"
        )
    for name, message in result.failures:
        print(f"{name:<26s} FAILED: {message}")
    print(f"wrote {paths['json']}, {paths['csv']}")
    return 0 if not result.failures else 3


COMMANDS: dict[str, Command] = {
    "generate": Command("generate synthetic pre/post cohorts with known truth", cmd_generate, {
        "n_pre": 750, "n_post": 300, "threshold": 0.10, "dose_drift": 0.0, "confounder_strength": 0.0,
        "truncate_organ": None, "truncate_max": None, "nonlinearity": 0.0}),
    "fit": Command("fit the outcome model on a pre-introduction cohort", cmd_fit, {
        "pre": MANDATORY, "spec": "linear"}, seeded=False),
    "estimate": Command("fit, estimate the ATT with bootstrap CI, run diagnostics", cmd_estimate, {
        "pre": MANDATORY, "post": MANDATORY, "spec": "linear", "scale": ["rd"], "bootstrap": "full",
        "replicates": 2000}),
    "diagnose": Command("positivity, negative-control, and dose-transport checks", cmd_diagnose, {
        "pre": MANDATORY, "post": MANDATORY, "spec": "linear", "replicates": 2000}),
    "sensitivity": Command("compare ATT estimates across model specs", cmd_sensitivity, {
        "pre": MANDATORY, "post": MANDATORY, "variant": ["linear", "quadratic"], "scale": ["rd"],
        "bootstrap": "fixed", "replicates": 500}),
    "simulate": Command("run the Monte Carlo violation lab", cmd_simulate, {
        "scenario": "all", "replicates": 500, "with_coverage": False, "boot_replicates": 500, "threads": 1}),
}


def main(argv=None) -> int:
    parser, commands = build_parser()
    args = parser.parse_args(argv)
    try:
        _apply_config_file(args, commands[args.command])
        _apply_defaults(args)
        check_out_dir(args.out)
        with open(os.devnull, "w", encoding="utf-8") as devnull:
            with contextlib.redirect_stdout(devnull if args.quiet else sys.stdout):
                return COMMANDS[args.command].run(args)
    except ConfigurationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except StatisticalError as exc:
        print(f"estimation failed: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
