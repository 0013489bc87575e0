"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

The heavy Monte Carlo runs are shared through module-scoped fixtures: the
500-world baseline run (with a 500-replicate full bootstrap per world)
backs the estimator-recovery, coverage, baseline-positivity, and
negative-control criteria at once. Runtimes assume 2 cores.

Run with `pytest tests/test_acceptance.py -v -s` to see the criterion lines.
"""

import numpy as np
import pytest

from attlab.cli import main as cli_main
from attlab.estimator import EffectScale, estimate_att
from attlab.glm import NAMED_SPECS, ModelSpec, fit_logistic, fit_model, log_likelihood, score
from attlab.records import Treatment
from attlab.rng import derive_seed
from attlab.selection import SelectionRule, Strictness, assign
from attlab.synth import GeneratorConfig, ViolationShift, generate, true_att
from attlab.violations import ScenarioName, run_scenario, standard_scenario

from conftest import cohort_of, fixed_risk, make_post_record

ACCEPTANCE_SEED = 2024
THREADS = 2


def check(criterion: int, description: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {criterion:2d}] {status}: {description} ({detail})")
    assert ok, f"criterion {criterion}: {description}: {detail}"


@pytest.fixture(scope="module")
def baseline_500():
    scenario = standard_scenario(
        ScenarioName.BASELINE,
        n_replicates=500,
        seed=ACCEPTANCE_SEED,
        boot_replicates=500,
    )
    return run_scenario(scenario, threads=THREADS)


@pytest.fixture(scope="module")
def drift_500():
    return run_scenario(
        standard_scenario(ScenarioName.TRANSPORTABILITY_DRIFT, n_replicates=500, seed=ACCEPTANCE_SEED),
        threads=THREADS,
    )


@pytest.fixture(scope="module")
def confounder_500():
    return run_scenario(
        standard_scenario(ScenarioName.IGNORABILITY_CONFOUNDER, n_replicates=500, seed=ACCEPTANCE_SEED),
        threads=THREADS,
    )


@pytest.fixture(scope="module")
def truncation_500():
    return run_scenario(
        standard_scenario(ScenarioName.POSITIVITY_TRUNCATION, n_replicates=500, seed=ACCEPTANCE_SEED),
        threads=THREADS,
    )


def test_criterion_01_closed_form_glm():
    X = np.ones((100, 1))
    y = np.r_[np.ones(30), np.zeros(70)]
    intercept = fit_logistic(X, y).beta_hat[0]
    target = float(np.log(0.3 / 0.7))

    X2 = np.column_stack([np.ones(200), np.r_[np.ones(100), np.zeros(100)]])
    y2 = np.r_[np.ones(30), np.zeros(70), np.ones(10), np.zeros(90)]
    slope = fit_logistic(X2, y2).beta_hat[1]
    target_slope = float(np.log((30 * 90) / (70 * 10)))

    ok = abs(intercept - target) < 1e-6 and abs(slope - target_slope) < 1e-6
    check(
        1,
        "closed-form GLM fits",
        ok,
        f"intercept {intercept:.7f} vs {target:.7f}; slope {slope:.7f} vs {target_slope:.7f}",
    )


def test_criterion_02_gradient_oracle():
    rng = np.random.default_rng(ACCEPTANCE_SEED)
    X = np.hstack([np.ones((200, 1)), rng.normal(size=(200, 4))])
    y = (rng.random(200) < 0.4).astype(float)
    h = 1e-5
    worst = 0.0
    for _ in range(3):
        beta = rng.normal(scale=0.5, size=5)
        analytic = score(beta, X, y)
        numeric = np.empty(5)
        for j in range(5):
            e = np.zeros(5)
            e[j] = h
            numeric[j] = (log_likelihood(beta + e, X, y) - log_likelihood(beta - e, X, y)) / (2 * h)
        rel = np.abs(analytic - numeric) / np.maximum(np.abs(numeric), 1e-8)
        worst = max(worst, float(np.max(rel)))
    check(2, "analytic gradient matches finite differences", worst < 1e-4, f"max relative error {worst:.2e}")


def test_criterion_03_oracle_recovery(baseline_500):
    ok = -0.01 < baseline_500.mean_bias < 0.01 and baseline_500.rmse < 0.06
    check(
        3,
        "baseline estimator recovers the synthetic truth",
        ok,
        f"mean bias {baseline_500.mean_bias:+.5f} in (-0.01, 0.01); rmse {baseline_500.rmse:.4f} < 0.06 "
        f"over {baseline_500.n_replicates} worlds",
    )


def test_criterion_04_bootstrap_coverage(baseline_500):
    coverage = baseline_500.coverage
    ok = coverage is not None and 0.925 <= coverage <= 0.975
    check(
        4,
        "full-bootstrap 95% intervals cover the truth",
        ok,
        f"coverage {coverage:.3f} in [0.925, 0.975] over 500 worlds x 500 replicates",
    )


def test_criterion_05_transportability_drift_direction(drift_500):
    ok = drift_500.mean_bias < -0.01 and drift_500.nc_negative_fraction > 0.90
    check(
        5,
        "secular drift overestimates the benefit and the negative control flags it",
        ok,
        f"mean bias {drift_500.mean_bias:+.4f} < -0.01; negative-control negative in "
        f"{drift_500.nc_negative_fraction:.1%} of replicates (> 90%)",
    )


def test_criterion_06_ignorability_confounder_direction(confounder_500):
    ok = confounder_500.mean_bias > 0.01
    check(
        6,
        "latent confounding underestimates the benefit",
        ok,
        f"mean bias {confounder_500.mean_bias:+.4f} > +0.01",
    )


def test_criterion_07_positivity_detection(truncation_500, baseline_500):
    n_ok = truncation_500.n_replicates - truncation_500.n_failed
    flagged = (
        truncation_500.verdict_counts.get("stochastic_concern", 0)
        + truncation_500.verdict_counts.get("structural_violation", 0)
    ) / n_ok
    n_ok_base = baseline_500.n_replicates - baseline_500.n_failed
    clean = baseline_500.verdict_counts.get("no_flags", 0) / n_ok_base
    ok = flagged > 0.95 and clean > 0.90
    check(
        7,
        "support truncation is detected and the baseline stays clean",
        ok,
        f"truncation flagged {flagged:.1%} (> 95%); baseline no-flags {clean:.1%} (> 90%)",
    )


def test_criterion_08_negative_control_near_zero(baseline_500):
    ok = abs(baseline_500.mean_nc_difference) < 0.01
    check(
        8,
        "baseline mean calibration difference is close to zero",
        ok,
        f"|{baseline_500.mean_nc_difference:+.5f}| < 0.01 over {baseline_500.n_replicates} worlds",
    )


def test_criterion_09_selection_rule():
    counts = [len(generate(GeneratorConfig(seed=s)).post.treated()) for s in range(100)]
    mean_count = float(np.mean(counts))

    # Dyadic risks put the benefit exactly on the threshold.
    patient = cohort_of([make_post_record()])
    strict = assign(patient, SelectionRule(risk_fn=fixed_risk(0.500, 0.375), threshold=0.125))
    inclusive = assign(
        patient,
        SelectionRule(risk_fn=fixed_risk(0.500, 0.375), threshold=0.125, strictness=Strictness.INCLUSIVE),
    )
    boundary_ok = strict.tolist() == [Treatment.STANDARD.value] and inclusive.tolist() == [Treatment.TARGET.value]
    ok = 93 - 15 <= mean_count <= 93 + 15 and boundary_ok
    check(
        9,
        "default generator reproduces the case-study selection split",
        ok,
        f"mean treated {mean_count:.1f} in [78, 108] over 100 seeds; boundary strict/inclusive behave",
    )


def test_criterion_10_determinism(tmp_path):
    def run(*argv):
        assert cli_main(list(argv)) == 0

    outputs = {}
    for tag in ("a", "b"):
        base = tmp_path / tag
        run("generate", "--seed", "42", "--out", str(base / "gen"))
        run(
            "estimate",
            "--pre", str(base / "gen" / "pre.csv"),
            "--post", str(base / "gen" / "post.csv"),
            "--seed", "9", "--replicates", "200",
            "--out", str(base / "est"),
        )
        run(
            "diagnose",
            "--pre", str(base / "gen" / "pre.csv"),
            "--post", str(base / "gen" / "post.csv"),
            "--seed", "9", "--replicates", "150",
            "--out", str(base / "diag"),
        )
        run(
            "sensitivity",
            "--pre", str(base / "gen" / "pre.csv"),
            "--post", str(base / "gen" / "post.csv"),
            "--seed", "9", "--replicates", "150",
            "--out", str(base / "sens"),
        )
        threads = "1" if tag == "a" else "8"
        run(
            "simulate", "--scenario", "baseline", "--replicates", "6", "--seed", "7",
            "--threads", threads, "--out", str(base / "sim"),
        )
        outputs[tag] = {
            rel: (base / rel).read_bytes()
            for rel in (
                "gen/pre.csv",
                "gen/post.csv",
                "gen/truth.json",
                "est/report.json",
                "diag/diagnostics.json",
                "sens/sensitivity.json",
                "sim/bias_report.json",
                "sim/bias_report.csv",
            )
        }
    identical = outputs["a"] == outputs["b"]
    check(
        10,
        "stochastic commands are byte-identical across reruns and thread counts",
        identical,
        f"{len(outputs['a'])} artifacts compared, simulate at --threads 1 vs 8",
    )


def test_criterion_11_sensitivity_under_misspecification():
    shift = ViolationShift(nonlinearity_amplitude=0.8)
    linear_bias, quadratic_bias = [], []
    for r in range(200):
        config = GeneratorConfig(seed=derive_seed(ACCEPTANCE_SEED, r), shift=shift)
        world = generate(config)
        treated = world.post.treated()
        truth = true_att(world, EffectScale.RISK_DIFFERENCE)
        for spec, acc in (
            (ModelSpec(), linear_bias),
            (NAMED_SPECS["quadratic"], quadratic_bias),
        ):
            fit = fit_model(world.pre, spec)
            acc.append(estimate_att(treated, fit, EffectScale.RISK_DIFFERENCE) - truth)
    lin = abs(float(np.mean(linear_bias)))
    quad = abs(float(np.mean(quadratic_bias)))
    check(
        11,
        "quadratic spec beats the linear spec under a nonlinear dose-response",
        quad < lin,
        f"|mean bias| quadratic {quad:.4f} < linear {lin:.4f} over 200 worlds",
    )
