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
from pathlib import Path

from . import diagnostics as diag
from . import estimator as est
from . import glm
from . import synth
from . import violations as viol
from .errors import ConfigurationError, StatisticalError
from .records import CohortLabel, DOSE_FIELDS, read_cohort_csv, validate

SCALES = {s.value: s for s in est.EffectScale}
BOOTSTRAP_MODES = {m.value: m for m in est.BootstrapMode}
SCENARIOS = {s.value: s for s in viol.ScenarioName}

REQUIRED: dict[str, tuple[str, ...]] = {
    "generate": ("seed",),
    "fit": ("pre",),
    "estimate": ("pre", "post", "seed"),
    "diagnose": ("pre", "post", "seed"),
    "sensitivity": ("pre", "post", "seed"),
    "simulate": ("seed",),
}


def _add_common(p: argparse.ArgumentParser, *, seed: bool = True) -> None:
    p.add_argument("--config", help="JSON file supplying any flag; explicit flags override it")
    p.add_argument("--out", help="output directory (default: current directory)")
    if seed:
        p.add_argument("--seed", type=int, help="RNG seed, a non-negative integer (required)")
    p.add_argument("--quiet", action="store_true", default=None, help="suppress the stdout summary")


def build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    parser = argparse.ArgumentParser(
        prog="attlab",
        description="Counterfactual-prediction ATT estimation, diagnostics, and simulation lab.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    commands: dict[str, argparse.ArgumentParser] = {}

    p = sub.add_parser("generate", help="generate synthetic pre/post cohorts with known truth")
    _add_common(p)
    p.add_argument("--n-pre", type=int, dest="n_pre")
    p.add_argument("--n-post", type=int, dest="n_post")
    p.add_argument("--threshold", type=float, help="selection benefit threshold")
    p.add_argument("--dose-drift", type=float, dest="dose_drift", help="secular dose drift (Gy)")
    p.add_argument(
        "--confounder-strength", type=float, dest="confounder_strength", help="latent confounder strength"
    )
    p.add_argument("--truncate-organ", choices=DOSE_FIELDS, dest="truncate_organ")
    p.add_argument("--truncate-max", type=float, dest="truncate_max", help="pre-cohort max dose (Gy)")
    p.add_argument("--nonlinearity", type=float, help="quadratic dose-response amplitude")
    commands["generate"] = p

    p = sub.add_parser("fit", help="fit the outcome model on a pre-introduction cohort")
    _add_common(p, seed=False)
    p.add_argument("--pre", help="pre-introduction cohort CSV")
    p.add_argument("--spec", choices=sorted(glm.NAMED_SPECS), help="model spec variant")
    commands["fit"] = p

    p = sub.add_parser("estimate", help="fit, estimate the ATT with bootstrap CI, run diagnostics")
    _add_common(p)
    p.add_argument("--pre", help="pre-introduction cohort CSV")
    p.add_argument("--post", help="post-introduction cohort CSV")
    p.add_argument("--spec", choices=sorted(glm.NAMED_SPECS))
    p.add_argument("--scale", action="append", choices=sorted(SCALES), help="effect scale (repeatable)")
    p.add_argument("--bootstrap", choices=sorted(BOOTSTRAP_MODES), help="bootstrap mode")
    p.add_argument("--replicates", type=int, help="bootstrap replicates")
    commands["estimate"] = p

    p = sub.add_parser("diagnose", help="positivity, negative-control, and dose-transport checks")
    _add_common(p)
    p.add_argument("--pre", help="pre-introduction cohort CSV")
    p.add_argument("--post", help="post-introduction cohort CSV")
    p.add_argument("--spec", choices=sorted(glm.NAMED_SPECS))
    p.add_argument("--replicates", type=int, help="bootstrap replicates for calibration CIs")
    commands["diagnose"] = p

    p = sub.add_parser("sensitivity", help="compare ATT estimates across model specs")
    _add_common(p)
    p.add_argument("--pre", help="pre-introduction cohort CSV")
    p.add_argument("--post", help="post-introduction cohort CSV")
    p.add_argument(
        "--variant", action="append", choices=sorted(glm.NAMED_SPECS), help="spec variant (repeatable)"
    )
    p.add_argument("--scale", action="append", choices=sorted(SCALES))
    p.add_argument("--bootstrap", choices=sorted(BOOTSTRAP_MODES))
    p.add_argument("--replicates", type=int)
    commands["sensitivity"] = p

    p = sub.add_parser("simulate", help="run the Monte Carlo violation lab")
    _add_common(p)
    p.add_argument("--scenario", choices=sorted(SCENARIOS) + ["all"], help="scenario name or 'all'")
    p.add_argument("--replicates", type=int, help="replicate worlds per scenario")
    p.add_argument("--with-coverage", action="store_true", dest="with_coverage", default=None,
                   help="also run a full bootstrap per replicate and report CI coverage")
    p.add_argument("--boot-replicates", type=int, dest="boot_replicates",
                   help="bootstrap replicates per world when --with-coverage is set")
    p.add_argument("--threads", type=int, help="worker processes for the replicate worlds")
    commands["simulate"] = p

    return parser, commands


DEFAULTS: dict[str, dict] = {
    "generate": {"n_pre": 750, "n_post": 300, "threshold": 0.10, "dose_drift": 0.0,
                 "confounder_strength": 0.0, "nonlinearity": 0.0},
    "fit": {"spec": "linear"},
    "estimate": {"spec": "linear", "scale": ["rd"], "bootstrap": "full", "replicates": 2000},
    "diagnose": {"spec": "linear", "replicates": 2000},
    "sensitivity": {"variant": ["linear", "quadratic"], "scale": ["rd"], "bootstrap": "fixed",
                    "replicates": 500},
    "simulate": {"scenario": "all", "replicates": 500, "with_coverage": False, "boot_replicates": 500,
                 "threads": 1},
}

COMMON_DEFAULTS = {"out": ".", "quiet": False}


def _apply_config_file(args: argparse.Namespace, parser: argparse.ArgumentParser) -> None:
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
    actions = {a.dest: a for a in parser._actions if not isinstance(a, argparse._HelpAction)}
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
    """A config-file value as the flag ``action`` fills would take it from the command line.

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
    for key, value in {**COMMON_DEFAULTS, **DEFAULTS[args.command]}.items():
        if getattr(args, key, None) is None:
            setattr(args, key, value)
    missing = [d for d in REQUIRED[args.command] if getattr(args, d) is None]
    if missing:
        flags = ", ".join("--" + d.replace("_", "-") for d in missing)
        raise ConfigurationError(f"missing required option(s) for '{args.command}': {flags}")
    if getattr(args, "seed", 0) < 0:
        raise ConfigurationError(f"option --seed must be a non-negative integer; got {args.seed}")


def _out_dir(args: argparse.Namespace) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_json(path: Path, payload: dict) -> None:
    text = json.dumps(payload, indent=2, allow_nan=False) + "\n"
    path.write_text(text, encoding="utf-8")


def _load_cohort(path_str: str, label: CohortLabel):
    path = Path(path_str)
    if not path.is_file():
        raise ConfigurationError(f"input file not found: {path}")
    cohort = read_cohort_csv(path, label)
    problems = validate(cohort)
    if problems:
        from .errors import SchemaError

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
    paths = synth.write_world(world, _out_dir(args))
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
    path = _out_dir(args) / "model.json"
    fit.save(path)
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
    if treated and treated.columns.has_proton.all():
        dt = diag.dose_transport_check(treated, fit, n_replicates=n_replicates, seed=seed)
    return positivity, nc, dt


def _diagnostics_json(reports: tuple) -> dict:
    return {name: None if r is None else r.to_json_dict() for name, r in zip(DIAGNOSTICS, reports)}


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

    report = {
        "command": "estimate",
        "seed": args.seed,
        "n_pre": len(pre),
        "n_post": len(post),
        "n_treated": len(treated),
        "model": fit.to_json_dict(),
        "estimates": estimates,
        "diagnostics": _diagnostics_json(
            _diagnostics_block(pre, post, fit, args.seed, min(args.replicates, 2000))
        ),
    }
    path = _out_dir(args) / "report.json"
    _write_json(path, report)

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
    out = _out_dir(args)
    reports = _diagnostics_block(pre, post, fit, args.seed, args.replicates)
    block = _diagnostics_json(reports)
    report = {
        "command": "diagnose",
        "seed": args.seed,
        "n_pre": len(pre),
        "n_post": len(post),
        "n_treated": len(post.treated()),
        "model": fit.to_json_dict(),
        "diagnostics": block,
    }
    path = out / "diagnostics.json"
    _write_json(path, report)
    written = [path]
    for name, calibration in zip(DIAGNOSTICS[1:], reports[1:]):
        if calibration is not None:
            curve_path = out / f"{name}_curve.csv"
            diag.write_curve_csv(calibration, curve_path)
            written.append(curve_path)

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
    path = _out_dir(args) / "sensitivity.json"
    _write_json(path, report)
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
    paths = viol.write_suite(result, _out_dir(args))
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


COMMANDS = {
    "generate": cmd_generate,
    "fit": cmd_fit,
    "estimate": cmd_estimate,
    "diagnose": cmd_diagnose,
    "sensitivity": cmd_sensitivity,
    "simulate": cmd_simulate,
}


def main(argv=None) -> int:
    parser, commands = build_parser()
    args = parser.parse_args(argv)
    try:
        _apply_config_file(args, commands[args.command])
        _apply_defaults(args)
        if args.quiet:
            with open(os.devnull, "w", encoding="utf-8") as devnull:
                with contextlib.redirect_stdout(devnull):
                    return COMMANDS[args.command](args)
        return COMMANDS[args.command](args)
    except ConfigurationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except StatisticalError as exc:
        print(f"estimation failed: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
