"""Command-line front end.

Subcommands: ``generate``, ``fit``, ``estimate``, ``diagnose``,
``sensitivity``, ``simulate``. Structured results go to files (JSON for
reports, CSV for tabular outputs); stdout carries only a short human
summary, progress goes to stderr. Every stochastic command requires an
explicit ``--seed`` and produces byte-identical outputs on rerun.

Exit codes: 0 success, 2 input, configuration or out-of-memory error, 3
statistical failure (non-convergence, undefined estimand, unstable bootstrap).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
from collections import namedtuple
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from . import diagnostics as diag
from . import estimator as est
from . import glm
from . import parallel
from . import synth
from . import violations as viol
from .errors import ConfigurationError, Integer, OneOf, Real, SchemaError, StatisticalError, checked
from .records import DOSE_FIELDS, Period, check_out_dir, json_bytes, read_cohort_csv, validate, write_outputs

SCALES = {s.value: s for s in est.EffectScale}
BOOTSTRAP_MODES = {m.value: m for m in est.BootstrapMode}
SCENARIOS = {s.value: s for s in viol.ScenarioName}

# Every option, described once: its help, the kind ``errors.checked`` keeps its value as (``Integer(0)``, ``Real()``,
# ``OneOf(...)``, ``bool`` for a switch, ``str`` by default) and whether it repeats. Each subcommand's table in
# ``COMMANDS`` names the options it takes and their defaults; the parser, the value check and the defaults read both.
Option = namedtuple("Option", "help kind repeats", defaults=(str, False))
OPTIONS: dict[str, Option] = {
    "config": Option("JSON file supplying any flag; explicit flags override it"),
    "out": Option("output directory"),
    "seed": Option("RNG seed, a non-negative integer", Integer(0)),
    "quiet": Option("suppress the stdout summary", bool),
    "n_pre": Option("pre-introduction cohort size", Integer(0)),
    "n_post": Option("post-introduction cohort size", Integer(0)),
    "threshold": Option("selection benefit threshold", Real()),
    "dose_drift": Option("secular dose drift (Gy)", Real()),
    "confounder_strength": Option("latent confounder strength", Real()),
    "truncate_organ": Option("dose field truncated in the pre cohort, with --truncate-max", OneOf(DOSE_FIELDS)),
    "truncate_max": Option("pre-cohort max dose (Gy) of --truncate-organ", Real()),
    "nonlinearity": Option("quadratic dose-response amplitude", Real()),
    "pre": Option("pre-introduction cohort CSV"),
    "post": Option("post-introduction cohort CSV"),
    "spec": Option("model spec variant", OneOf(sorted(glm.NAMED_SPECS))),
    "variant": Option("spec variant to compare, repeatable", OneOf(sorted(glm.NAMED_SPECS)), repeats=True),
    "scale": Option("effect scale, repeatable", OneOf(sorted(SCALES)), repeats=True),
    "bootstrap": Option("bootstrap mode", OneOf(sorted(BOOTSTRAP_MODES))),
    "replicates": Option("bootstrap replicates, or for simulate the replicate worlds per scenario", Integer(0)),
    "scenario": Option("scenario name or 'all'", OneOf(sorted(SCENARIOS) + ["all"])),
    "with_coverage": Option("also run a full bootstrap per replicate and report CI coverage", bool),
    "boot_replicates": Option("bootstrap replicates per world when --with-coverage is set", Integer(0)),
    "threads": Option("worker processes for the replicate worlds", Integer(0)),
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
        return f"{OPTIONS[dest].help} (required)"
    shown = ", ".join(default) if isinstance(default, list) else "none" if default is None else str(default).lower()
    return f"{OPTIONS[dest].help} (default: {shown})"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="attlab",
        description="Counterfactual-prediction ATT estimation, diagnostics, and simulation lab.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        # Every default is None here, so that _resolve_options sees which flags were given.
        for dest, default in command.defaults().items():
            option = OPTIONS[dest]
            keywords = {"action": "store_true" if option.kind is bool else "append" if option.repeats else "store"}
            if isinstance(option.kind, OneOf):
                keywords["metavar"] = "{" + ",".join(option.kind.values) + "}"
            p.add_argument("--" + dest.replace("_", "-"), **keywords, default=None, help=_help(dest, default))
    return parser


def _number(text: str):
    """``text`` read with ``int``, else ``float``, as argparse's ``type=`` read it; ``text`` itself if neither can."""
    for read in (int, float):
        with contextlib.suppress(ValueError):
            return read(text)
    return text


def _join_negative_numbers(argv: list[str]) -> list[str]:
    """``argv`` with ``--<flag> <text>`` written ``--<flag>=<text>`` where ``<flag>`` is a number option of the
    command, by its full name, and ``<text>`` a negative number; nothing after a bare ``--`` is joined.

    argparse takes a text that starts with ``-`` for a value only in the forms ``-5`` and ``-.5``: it would read
    ``-1e-3``, ``-inf`` or ``-nan`` as a flag, and the number option before it as given no value.
    """
    command = COMMANDS.get(argv[0]) if argv else None
    if command is None:
        return argv
    numbers = {"--" + d.replace("_", "-") for d in command.defaults() if isinstance(OPTIONS[d].kind, (Integer, Real))}
    joined = argv[:1]
    for i, text in enumerate(argv[1:], 1):
        if text == "--":
            return joined + argv[i:]
        if joined[-1] in numbers and text.startswith("-") and not isinstance(_number(text), str):
            joined[-1] += "=" + text
        else:
            joined.append(text)
    return joined


def _option_value(dest: str, value, from_flag: bool):
    """A value of the option ``dest``, from a flag or the config file, as ``errors.checked`` keeps its kind.

    A flag's text for a number kind is read with ``int``, else ``float``, as argparse's ``type=`` read it, and
    kept as it is if neither can (no number option repeats); a repeatable option takes a non-empty list. A
    refusal reads ``option --<flag> must be <kind>, got <value!r>``.
    """
    kind, name = OPTIONS[dest].kind, "option --" + dest.replace("_", "-")
    if from_flag and isinstance(kind, (Integer, Real)) and isinstance(value, str):
        value = _number(value)
    if not OPTIONS[dest].repeats:
        return checked(value, kind, name)
    if not checked(value, list, name):
        raise ConfigurationError(f"{name} must be a non-empty list, got []")
    return [checked(item, kind, name) for item in value]


def _config_file(path_str: str | None) -> dict:
    """The values of the JSON config file at ``path_str``, in file order; none without a file."""
    if path_str is None:
        return {}
    path = Path(path_str)
    if not path.is_file():
        raise ConfigurationError(f"config file not found: {path}")
    try:
        with open(path, encoding="utf-8") as fh:
            values = json.load(fh)
    except (ValueError, RecursionError) as exc:  # ValueError covers bad UTF-8 and an over-long integer
        raise ConfigurationError(f"config file {path} is not valid JSON: {exc}")
    if not isinstance(values, dict):
        raise ConfigurationError(f"config file {path} must contain a JSON object")
    return values


def _resolve_options(args: argparse.Namespace) -> None:
    """Set every option of ``args``: a given flag's value, else the config file's, else the default.

    Each value is checked (``_option_value``), the given flags' first, then
    the config file's in file order, where a flag's value wins; then every
    mandatory option still missing is named, the command's own inputs first.
    """
    command = COMMANDS[args.command]
    defaults = command.defaults()
    # argparse gave None for each flag not given; a value of "--" (as in --pre=--) it gave as an empty list.
    values = {dest: _option_value(dest, getattr(args, dest), True)
              for dest in defaults if getattr(args, dest) is not None}
    for key, value in _config_file(values.get("config")).items():
        dest = key.replace("-", "_")
        if dest not in defaults:
            raise ConfigurationError(f"config file key {key!r} is not a flag of '{args.command}'")
        values.setdefault(dest, _option_value(dest, value, False))
    missing = [d for d in (*command.options, *COMMON) if defaults.get(d) is MANDATORY and d not in values]
    if missing:
        flags = ", ".join("--" + d.replace("_", "-") for d in missing)
        raise ConfigurationError(f"missing required option(s) for '{args.command}': {flags}")
    for dest, default in defaults.items():
        setattr(args, dest, values.get(dest, default))


def _load_cohort(path_str: str, period: Period):
    path = Path(path_str)
    if not path.is_file():
        raise ConfigurationError(f"input file not found: {path}")
    cohort = read_cohort_csv(path)
    problems = validate(cohort, period)
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
    rd = synth.true_att(world, est.EffectScale.RISK_DIFFERENCE)
    print(
        f"generated {len(world.pre)} pre and {len(world.post)} post records "
        f"({n_treated} target-treated); true ATT (RD) = {rd:.4f}"
    )
    print(f"wrote {paths['pre']}, {paths['post']}, {paths['truth']}")
    return 0


def _fit_pre(args: argparse.Namespace):
    pre = _load_cohort(args.pre, Period.PRE)
    return pre, glm.fit_model(pre, glm.NAMED_SPECS[args.spec])


def cmd_fit(args: argparse.Namespace) -> int:
    _, fit = _fit_pre(args)
    path = write_outputs(args.out, {"model.json": json_bytes(fit.to_json_dict())})["model.json"]
    status = "converged" if fit.converged else "did NOT converge"
    print(f"fitted outcome model on {fit.n_obs} records: {status} in {fit.n_iter} iterations, "
          f"deviance {fit.deviance:.4f}")
    for name, value in fit.coefficients().items():
        print(f"  {name:<28s} {value:+.6f}")
    print(f"wrote {path}")
    return 0


DIAGNOSTICS = ("positivity", "negative_control", "dose_transport")


def _diagnostics_block(pre, post, fit, seed: int, n_replicates: int) -> dict:
    """The reports of ``DIAGNOSTICS`` by name; ``None`` where a check cannot run."""
    treated = post.treated()
    standard = post.standard()
    positivity = diag.positivity_report(pre, treated) if treated else None
    nc = dt = None
    if standard:
        nc = diag.negative_control_check(standard, fit, n_replicates=n_replicates, seed=seed)
    if treated:
        dt = diag.dose_transport_check(treated, fit, n_replicates=n_replicates, seed=seed)
    return dict(zip(DIAGNOSTICS, (positivity, nc, dt)))


def _report(args: argparse.Namespace, pre, post, fit, **blocks) -> dict:
    """An estimate or diagnose report: the run, the cohorts and the model, then ``blocks`` in order."""
    return {"command": args.command, "seed": args.seed, "n_pre": len(pre), "n_post": len(post),
            "n_treated": len(post.treated()), "model": fit.to_json_dict(), **blocks}


def cmd_estimate(args: argparse.Namespace) -> int:
    pre, fit = _fit_pre(args)
    post = _load_cohort(args.post, Period.POST)
    treated = post.treated()
    mode = BOOTSTRAP_MODES[args.bootstrap]

    config = est.BootstrapConfig(n_replicates=args.replicates, seed=args.seed, mode=mode)
    scales = [SCALES[name] for name in dict.fromkeys(args.scale)]
    estimates = est.bootstrap_ci(pre, treated, fit, scales, config, workers=parallel.usable_cpus())
    diagnostics = _diagnostics_block(pre, post, fit, args.seed, min(args.replicates, 2000))
    report = _report(args, pre, post, fit, estimates={e.scale.value: e for e in estimates}, diagnostics=diagnostics)
    path = write_outputs(args.out, {"report.json": json_bytes(report)})["report.json"]

    print(f"fitted model on {len(pre)} pre records; {len(treated)} target-treated patients")
    for estimate in estimates:
        print(
            f"ATT ({estimate.scale.value}): {estimate.point:+.4f} "
            f"[95% CI {estimate.ci_low:+.4f}, {estimate.ci_high:+.4f}] "
            f"({args.bootstrap} bootstrap, {args.replicates} replicates)"
        )
    positivity, nc, _ = diagnostics.values()
    if positivity is not None:
        print(f"positivity verdict: {positivity.verdict.value}")
    if nc is not None:
        print(f"negative-control mean difference: {nc.mean_difference:+.4f} [{nc.ci_low:+.4f}, {nc.ci_high:+.4f}]")
    print(f"wrote {path}")
    return 0


def cmd_diagnose(args: argparse.Namespace) -> int:
    pre, fit = _fit_pre(args)
    post = _load_cohort(args.post, Period.POST)
    diagnostics = _diagnostics_block(pre, post, fit, args.seed, args.replicates)
    files = {"diagnostics.json": json_bytes(_report(args, pre, post, fit, diagnostics=diagnostics))}
    for name in DIAGNOSTICS[1:]:  # the two calibration checks
        if diagnostics[name] is not None:
            files[f"{name}_curve.csv"] = diag.curve_csv_bytes(diagnostics[name])
    written = write_outputs(args.out, files).values()

    positivity, nc, dt = diagnostics.values()
    if positivity is not None:
        print(f"positivity verdict: {positivity.verdict.value}")
    if nc is not None:
        print(f"negative-control mean difference: {nc.mean_difference:+.4f} "
              f"[{nc.ci_low:+.4f}, {nc.ci_high:+.4f}] (auroc {nc.auroc})")
    if dt is not None:
        print(f"dose-transport mean difference: {dt.mean_difference:+.4f} [{dt.ci_low:+.4f}, {dt.ci_high:+.4f}]")
    print("wrote " + ", ".join(str(p) for p in written))
    return 0


def cmd_sensitivity(args: argparse.Namespace) -> int:
    pre = _load_cohort(args.pre, Period.PRE)
    post = _load_cohort(args.post, Period.POST)
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
    result = est.sensitivity_analysis(pre, post.treated(), variants, scale, bootstrap=config,
                                      workers=parallel.usable_cpus())
    report = {
        "command": "sensitivity",
        "seed": args.seed,
        "scale": scale.value,
        "result": result,
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
    boot_replicates = args.boot_replicates if args.with_coverage else None
    scenarios = [
        viol.standard_scenario(
            SCENARIOS[name], n_replicates=args.replicates, seed=args.seed, boot_replicates=boot_replicates
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
    for failure in result.failures:
        print(f"{failure.scenario:<26s} FAILED: {failure.error}")
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
    args = build_parser().parse_args(_join_negative_numbers(sys.argv[1:] if argv is None else list(argv)))
    try:
        _resolve_options(args)
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
    except MemoryError as exc:  # numpy's message names the allocation; a bare MemoryError has none
        print("error: not enough memory" + (f": {exc}" if str(exc) else ""), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
