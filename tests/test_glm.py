import numpy as np
import pytest

from attlab.errors import (
    CollinearityError,
    ConfigurationError,
    NotConvergedError,
    PredictionError,
    SeparationError,
    StatisticalError,
)
from attlab.glm import (
    NAMED_SPECS,
    ModelFit,
    ModelSpec,
    PlanSource,
    build_design,
    design_columns,
    expit,
    fit_logistic,
    fit_model,
    fit_stack,
    log_likelihood,
    predict_risk,
    score,
    _dependent_columns,
    _refit_chunks,
    _standardize,
)
from attlab.records import LOCATIONS, TumorLocation, json_bytes
from attlab.rng import resample_chunks, substream
from attlab.synth import GeneratorConfig, generate

from conftest import cohort_of, make_post_record, make_record

# Closed-form targets: logit(0.30) and the 2x2-table log odds ratio
# ln((30*90)/(70*10)).
LOGIT_03 = -0.8472978603872034
LOG_OR_2X2 = 1.3499267169490159


def intercept_only(n, events):
    X = np.ones((n, 1))
    y = np.zeros(n)
    y[:events] = 1.0
    return X, y


class TestFitClosedForm:
    def test_intercept_only_30_of_100(self):
        X, y = intercept_only(100, 30)
        fit = fit_logistic(X, y)
        assert fit.converged
        assert fit.beta_hat[0] == pytest.approx(LOGIT_03, abs=1e-6)

    def test_two_by_two_saturated_slope(self):
        # exposed: 30 events / 70 non-events; unexposed: 10 / 90
        X = np.column_stack([np.ones(200), np.r_[np.ones(100), np.zeros(100)]])
        y = np.r_[np.ones(30), np.zeros(70), np.ones(10), np.zeros(90)]
        fit = fit_logistic(X, y)
        assert fit.beta_hat[1] == pytest.approx(LOG_OR_2X2, abs=1e-6)

    def test_mean_fitted_probability_equals_event_rate(self, small_world, small_fit):
        rate = np.mean([r.outcome for r in small_world.pre.records])
        fitted = predict_risk(small_fit, small_world.pre)
        assert np.mean(fitted) == pytest.approx(rate, abs=1e-9)


class TestGradientOracle:
    def test_analytic_gradient_matches_central_differences(self):
        rng = np.random.default_rng(42)
        X = np.hstack([np.ones((200, 1)), rng.normal(size=(200, 4))])
        y = (rng.random(200) < 0.4).astype(float)
        h = 1e-5
        for _ in range(3):
            beta = rng.normal(scale=0.5, size=5)
            analytic = score(beta, X, y)
            numeric = np.empty(5)
            for j in range(5):
                e = np.zeros(5)
                e[j] = h
                numeric[j] = (log_likelihood(beta + e, X, y) - log_likelihood(beta - e, X, y)) / (2 * h)
            rel = np.abs(analytic - numeric) / np.maximum(np.abs(numeric), 1e-8)
            assert np.max(rel) < 1e-4


class TestFitProperties:
    def test_row_permutation_invariance(self, small_world):
        pre = small_world.pre
        spec = ModelSpec()
        X, names = build_design(pre, spec)
        y = np.array([r.outcome for r in pre.records], dtype=float)
        fit = fit_logistic(X, y, column_names=names)
        rng = np.random.default_rng(3)
        perm = rng.permutation(len(pre))
        fit_p = fit_logistic(X[perm], y[perm], column_names=names)
        assert np.max(np.abs(fit.beta_hat - fit_p.beta_hat)) < 1e-10

    def test_local_maximum_against_random_perturbations(self):
        rng = np.random.default_rng(7)
        X = np.hstack([np.ones((150, 1)), rng.normal(size=(150, 3))])
        y = (rng.random(150) < expit(X @ np.array([-0.4, 0.8, -0.5, 0.3]))).astype(float)
        fit = fit_logistic(X, y)
        ll_hat = log_likelihood(fit.beta_hat, X, y)
        for _ in range(1000):
            eps = rng.normal(size=4)
            eps *= 0.1 / np.linalg.norm(eps)
            assert log_likelihood(fit.beta_hat + eps, X, y) <= ll_hat

    def test_matches_brute_force_maximizer_on_small_instance(self):
        from scipy.optimize import minimize

        rng = np.random.default_rng(11)
        X = np.column_stack([np.ones(25), rng.normal(size=25)])
        y = (rng.random(25) < 0.5).astype(float)
        fit = fit_logistic(X, y)
        brute = minimize(
            lambda b: -log_likelihood(b, X, y),
            x0=np.zeros(2),
            method="Nelder-Mead",
            options={"xatol": 1e-8, "fatol": 1e-12, "maxiter": 5000},
        )
        assert np.max(np.abs(fit.beta_hat - brute.x)) < 1e-4

    def test_score_small_at_optimum(self, small_world, small_fit):
        X, _ = build_design(small_world.pre, small_fit.spec)
        y = np.array([r.outcome for r in small_world.pre.records], dtype=float)
        assert np.max(np.abs(score(small_fit.beta_hat, X, y))) < 1e-6


class TestFitErrors:
    def test_collinear_design_names_column(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=80)
        X = np.column_stack([np.ones(80), x, 2.0 * x])
        y = (rng.random(80) < 0.5).astype(float)
        with pytest.raises(CollinearityError) as err:
            fit_logistic(X, y, column_names=["intercept", "a", "a_doubled"])
        assert "a_doubled" in err.value.columns

    def test_complete_separation_raises(self):
        # Tiny covariate scale forces a huge coefficient before saturation.
        x = np.r_[np.zeros(20), np.full(20, 1e-3)]
        X = np.column_stack([np.ones(40), x])
        y = np.r_[np.zeros(20), np.ones(20)]
        with pytest.raises(SeparationError):
            fit_logistic(X, y)

    def test_more_columns_than_rows_rejected(self):
        X = np.ones((3, 4))
        y = np.zeros(3)
        with pytest.raises(ConfigurationError):
            fit_logistic(X, y)

    def test_non_binary_outcomes_rejected(self):
        X = np.ones((4, 1))
        with pytest.raises(ConfigurationError):
            fit_logistic(X, np.array([0.0, 1.0, 2.0, 0.0]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("names,named", [(None, "x1"), (["intercept", "dose"], "dose")])
    def test_non_finite_design_names_the_column(self, bad, names, named):
        rng = np.random.default_rng(1)
        X = np.column_stack([np.ones(50), rng.normal(size=50)])
        X[17, 1] = bad
        y = (rng.random(50) < 0.5).astype(float)
        with pytest.raises(ConfigurationError, match=f"design column {named} holds a non-finite value"):
            fit_logistic(X, y, column_names=names)
        with pytest.raises(ConfigurationError, match=f"design column {named} holds a non-finite value"):
            fit_stack(np.stack([np.nan_to_num(X), X]), np.stack([y, y]), column_names=names)


class TestBuildDesign:
    def test_intercept_only_is_a_column_of_ones(self):
        cohort = cohort_of([make_record(rid=f"r{i}") for i in range(5)])
        X, names = build_design(cohort, ModelSpec(terms=("intercept",)))
        assert X.shape == (5, 1)
        assert np.all(X == 1.0)
        assert names == ["intercept"]

    def test_default_spec_has_nine_columns(self, small_world):
        X, names = build_design(small_world.pre, ModelSpec())
        assert X.shape[1] == 9
        assert len(names) == 9
        assert names[0] == "intercept"

    def test_reference_category_rows_are_all_zero(self):
        rec = make_record(location=TumorLocation.OROPHARYNX)
        X, names = build_design(cohort_of([rec]), ModelSpec())
        loc_cols = [i for i, n in enumerate(names) if n.startswith("loc_")]
        assert len(loc_cols) == 3
        assert np.all(X[0, loc_cols] == 0.0)

    def test_proton_source_requires_proton_plans(self):
        from attlab.errors import MissingPlanError

        mixed = cohort_of([make_post_record(rid="t-1"), make_record(rid="pre-9")])
        with pytest.raises(MissingPlanError) as err:
            build_design(mixed, ModelSpec(), PlanSource.PROTON)
        assert err.value.record_ids == ["pre-9"]

    def test_quadratic_and_interaction_specs_expand(self, small_world):
        X, names = build_design(small_world.pre, ModelSpec.with_quadratic_doses())
        assert X.shape[1] == 13
        Xi, names_i = build_design(small_world.pre, ModelSpec.with_dose_location_interactions())
        assert Xi.shape[1] == 9 + 12
        assert names_i[-1] == "dose_oral_cavity:loc_oral_cavity"

    def test_spec_rejects_duplicates_and_missing_intercept(self):
        with pytest.raises(ConfigurationError):
            ModelSpec(terms=("intercept", "intercept"))
        with pytest.raises(ConfigurationError):
            ModelSpec(terms=("baseline_dysphagia",))


class TestPredict:
    def test_zero_coefficients_predict_half(self):
        spec = ModelSpec()
        fit = ModelFit(
            spec=spec,
            column_names=tuple(design_columns(spec)),
            beta_hat=np.zeros(9),
            cov_hat=np.eye(9),
            n_obs=10,
            deviance=0.0,
            converged=True,
            n_iter=1,
        )
        assert np.all(predict_risk(fit, cohort_of([make_record(rid=f"r{i}") for i in range(4)])) == 0.5)

    def test_intercept_only_fit_predicts_event_rate(self):
        spec = ModelSpec(terms=("intercept",))
        fit = ModelFit(
            spec=spec,
            column_names=("intercept",),
            beta_hat=np.array([LOGIT_03]),
            cov_hat=np.eye(1),
            n_obs=100,
            deviance=0.0,
            converged=True,
            n_iter=1,
        )
        preds = predict_risk(fit, cohort_of([make_record()]))
        assert preds[0] == pytest.approx(0.30, abs=1e-12)

    def test_positive_dose_coefficient_is_monotone(self, small_fit):
        low = make_record(photon=(50.0, 50.0, 40.0, 42.0))
        high = make_record(photon=(60.0, 50.0, 40.0, 42.0))
        p_low, p_high = predict_risk(small_fit, cohort_of([low, high]))
        assert small_fit.coefficients()["dose_sup_pcm"] > 0
        assert p_high > p_low

    def test_unseen_category_raises_prediction_error(self, small_world):
        spec = ModelSpec(locations=(TumorLocation.OROPHARYNX, TumorLocation.NASOPHARYNX, TumorLocation.LARYNX))
        pre = small_world.pre
        fit = fit_model(pre.take(pre.loc_code != LOCATIONS.index(TumorLocation.ORAL_CAVITY)), spec)
        with pytest.raises(PredictionError, match="oral_cavity"):
            predict_risk(fit, cohort_of([make_record(location=TumorLocation.ORAL_CAVITY)]))

    def test_non_converged_fit_refuses_to_predict(self, small_world):
        fit = fit_model(small_world.pre, max_iter=1)
        assert not fit.converged
        with pytest.raises(NotConvergedError):
            predict_risk(fit, small_world.pre)

    def test_predictions_strictly_inside_unit_interval(self, small_world, small_fit):
        preds = predict_risk(small_fit, small_world.pre)
        assert np.all(preds > 0.0) and np.all(preds < 1.0)


class TestModelFitJson:
    def test_round_trip(self, tmp_path, small_fit):
        path = tmp_path / "model.json"
        path.write_bytes(json_bytes(small_fit.to_json_dict()))
        loaded = ModelFit.load(path)
        assert loaded.spec.terms == small_fit.spec.terms
        assert np.array_equal(loaded.beta_hat, small_fit.beta_hat)
        assert np.array_equal(loaded.cov_hat, small_fit.cov_hat)
        assert loaded.n_obs == small_fit.n_obs
        assert loaded.converged == small_fit.converged

    def test_covariance_is_symmetric_psd(self, small_fit):
        cov = small_fit.cov_hat
        assert np.allclose(cov, cov.T, atol=1e-12)
        eigvals = np.linalg.eigvalsh(cov)
        assert np.min(eigvals) > 0.0


def masked_expit(eta):
    """The boolean-mask inverse logit that ``expit`` replaced; kept as its reference."""
    eta = np.asarray(eta, dtype=float)
    out = np.empty_like(eta)
    pos = eta >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-eta[pos]))
    e = np.exp(eta[~pos])
    out[~pos] = e / (1.0 + e)
    return out


def looped_standardize(X):
    """The per-column ``_standardize`` loop that the array version replaced; kept as its reference."""
    n, k = X.shape
    means, scales, intercept_col = np.zeros(k), np.ones(k), None
    for j in range(k):
        col = X[:, j]
        if intercept_col is None and np.all(col == col[0]) and col[0] != 0.0:
            intercept_col = j
            continue
        sd = float(np.std(col))
        if sd > 0.0:
            scales[j] = sd
    if intercept_col is not None:
        for j in range(k):
            if j != intercept_col:
                means[j] = float(np.mean(X[:, j]))
    Xs = (X - means) / scales
    if intercept_col is not None:
        Xs[:, intercept_col] = X[:, intercept_col]
    return Xs, means, scales, intercept_col


class TestArrayReferences:
    def test_expit_is_bit_identical_to_the_masked_version(self):
        rng = np.random.default_rng(8)
        eta = np.concatenate([
            rng.normal(0.0, 30.0, 20000),
            [0.0, -0.0, 800.0, -800.0, np.inf, -np.inf, 1e-300, -1e-300, 36.7, -745.2],
        ])
        assert np.array_equal(expit(eta), masked_expit(eta))

    def test_standardize_is_bit_identical_to_the_column_loop(self, default_world):
        X, _ = build_design(default_world.pre, ModelSpec.with_quadratic_doses())
        rng = np.random.default_rng(4)
        designs = [X, X[:, 1:], np.column_stack([X, np.zeros(len(X)), X[:, 0]])]
        designs += [X[rng.integers(0, len(X), len(X))] for _ in range(50)]
        for design in designs:
            got, want = [a[0] for a in _standardize(design[None])], looped_standardize(design)
            intercept = got[3].nonzero()[0]
            assert (int(intercept[0]) if intercept.size else None) == want[3]
            for a, b in zip(got[:3], want[:3]):
                assert np.array_equal(a, b)


def reference_irls(X, y, names, max_iter=25):
    """The one-design IRLS that the stacked core replaced; kept as its reference.

    Returns (beta, cov, n_iter, converged), or the error the fit raised.
    """
    Xs, means, scales, intercept_col = looped_standardize(X)

    def destandardize(beta_s):
        beta = beta_s / scales
        if intercept_col is not None:
            beta[intercept_col] = beta_s[intercept_col] - float(np.sum(beta_s * means / scales))
        return beta

    def deviance(eta):
        return float(2.0 * np.sum(np.logaddexp(0.0, eta) - y * eta))

    beta_s = np.zeros(X.shape[1])
    eta = Xs @ beta_s
    dev, converged, n_iter = deviance(eta), False, 0
    for n_iter in range(1, max_iter + 1):
        mu = expit(eta)
        w = np.clip(mu * (1.0 - mu), 1e-10, None)
        z = eta + (y - mu) / w
        Xw = Xs * w[:, None]
        A, b = Xs.T @ Xw, Xw.T @ z
        try:
            L = np.linalg.cholesky(A)
        except np.linalg.LinAlgError:
            return CollinearityError(_dependent_columns(A, names))
        if np.min(np.diag(L) ** 2) < 1e-10 * np.max(np.diag(A)):
            return CollinearityError(_dependent_columns(A, names))
        beta_new = np.linalg.solve(L.T, np.linalg.solve(L, b))
        new_eta = Xs @ beta_new
        new_dev = deviance(new_eta)
        halvings = 0
        while new_dev > dev + 1e-12 and halvings < 10:
            beta_new = 0.5 * (beta_s + beta_new)
            new_eta = Xs @ beta_new
            new_dev = deviance(new_eta)
            halvings += 1
        delta_dev = abs(dev - new_dev)
        beta_s, eta, dev = beta_new, new_eta, new_dev
        beta_raw = destandardize(beta_s)
        if np.any(np.abs(eta) > -np.log(1e-10)) and np.max(np.abs(beta_raw)) > 1e3:
            return SeparationError(
                "complete or quasi-complete separation: fitted probabilities reached 0/1 "
                f"with max |coefficient| {np.max(np.abs(beta_raw)):.3g} > 1000"
            )
        if delta_dev < 1e-8 and np.max(np.abs(X.T @ (y - expit(X @ beta_raw)))) < 1e-6:
            converged = True
            break
    beta_raw = destandardize(beta_s)
    mu = expit(X @ beta_raw)
    w = np.clip(mu * (1.0 - mu), 1e-10, None)
    A_raw = (X * w[:, None]).T @ X
    try:
        cov = np.linalg.inv(A_raw)
    except np.linalg.LinAlgError:
        return CollinearityError(_dependent_columns(A_raw, names))
    return beta_raw, cov, n_iter, converged


def looped_fits(designs, outcomes, names):
    """Each design fitted alone by ``fit_logistic``: its fit, or the error it raised."""
    out = []
    for X, y in zip(designs, outcomes):
        try:
            out.append(fit_logistic(X, y, column_names=names))
        except (CollinearityError, SeparationError) as exc:
            out.append(exc)
    return out


def outcome_of(stacked, i):
    """The outcome of row ``i``: converged, not converged, or the class of its error."""
    if stacked.errors[i] is not None:
        return type(stacked.errors[i])
    return "converged" if stacked.converged[i] else "not converged"


def assert_rows_match(stacked, looped):
    for i, ref in enumerate(looped):
        if isinstance(ref, Exception):
            assert type(stacked.errors[i]) is type(ref) and str(stacked.errors[i]) == str(ref)
            assert not stacked.converged[i]
        else:
            assert stacked.errors[i] is None
            assert stacked.converged[i] == ref.converged
            assert np.array_equal(stacked.beta[i], ref.beta_hat)
            assert np.array_equal(stacked.cov[i], ref.cov_hat)
            assert stacked.n_iter[i] == ref.n_iter


def resample(X, y, seed, n_draws):
    n = len(y)
    idx = np.stack([substream(seed, r).integers(0, n, n) for r in range(n_draws)])
    return X[idx], y[idx]


class TestStackedFit:
    @pytest.mark.parametrize("spec_name", sorted(NAMED_SPECS))
    def test_rows_equal_fit_logistic_bit_for_bit(self, default_world, small_world, spec_name):
        for seed, world in ((3, default_world), (5, small_world)):
            X, names = build_design(world.pre, NAMED_SPECS[spec_name])
            designs, outcomes = resample(X, world.pre.outcome.astype(float), seed, 12)
            stacked = fit_stack(designs, outcomes, column_names=names)
            assert_rows_match(stacked, looped_fits(designs, outcomes, names))

    def test_tiny_cohort_rows_of_every_status_equal_the_loop(self):
        # 60 patients, quadratic doses: among 300 resamples some are collinear,
        # some separated, some not converged, and three take their first
        # step-halving in the same iteration.
        world = generate(GeneratorConfig(seed=1, n_pre=60, n_post=30))
        X, names = build_design(world.pre, NAMED_SPECS["quadratic"])
        designs, outcomes = resample(X, world.pre.outcome.astype(float), 4, 300)
        stacked = fit_stack(designs, outcomes, column_names=names)
        outcomes_seen = {outcome_of(stacked, i) for i in range(len(designs))}
        assert outcomes_seen == {"converged", "not converged", CollinearityError, SeparationError}
        assert_rows_match(stacked, looped_fits(designs, outcomes, names))
        for row, (design, outcome) in enumerate(zip(designs, outcomes)):
            want = reference_irls(design, outcome, names)
            if isinstance(want, Exception):
                assert type(stacked.errors[row]) is type(want) and str(stacked.errors[row]) == str(want)
            else:
                assert np.array_equal(stacked.beta[row], want[0]) and np.array_equal(stacked.cov[row], want[1])
                assert (stacked.n_iter[row], stacked.converged[row]) == want[2:]

    @pytest.mark.parametrize("spec_name", sorted(NAMED_SPECS))
    def test_fit_logistic_is_bit_identical_to_the_reference_loop(self, small_world, spec_name):
        X, names = build_design(small_world.pre, NAMED_SPECS[spec_name])
        y = small_world.pre.outcome.astype(float)
        designs, outcomes = resample(X, y, 11, 6)
        small, small_y = resample(X[:70], y[:70], 12, 6)  # small resamples: some fail, some stop early
        for design, outcome, max_iter in [(X, y, 25), *zip(designs, outcomes, [25] * 6),
                                          *zip(small, small_y, [25, 25, 25, 3, 25, 25])]:
            want = reference_irls(design, outcome, names, max_iter)
            if isinstance(want, Exception):
                with pytest.raises(type(want)) as err:
                    fit_logistic(design, outcome, column_names=names, max_iter=max_iter)
                assert str(err.value) == str(want)
                continue
            fit = fit_logistic(design, outcome, column_names=names, max_iter=max_iter)
            assert np.array_equal(fit.beta_hat, want[0]) and np.array_equal(fit.cov_hat, want[1])
            assert (fit.n_iter, fit.converged) == want[2:]

    def test_failed_rows_match_the_loop_and_leave_the_others_unchanged(self, small_world):
        X, names = build_design(small_world.pre, ModelSpec())
        y = small_world.pre.outcome.astype(float)
        n = len(y)
        draws = [substream(7, r).integers(0, n, n) for r in range(3)]
        # No larynx patient: the larynx indicator column is all zeros.
        no_larynx = np.flatnonzero(X[:, names.index("loc_larynx")] == 0.0)
        collinear = no_larynx[substream(7, 4).integers(0, no_larynx.size, n)]
        # Events only above the median dose: the dose separates the outcome.
        dose = X[:, names.index("dose_sup_pcm")]
        split = np.flatnonzero((y == 1.0) == (dose > np.median(dose)))
        separated = split[substream(7, 5).integers(0, split.size, n)]
        idx = np.stack([draws[0], collinear, draws[1], separated, draws[2]])

        stacked = fit_stack(X[idx], y[idx], column_names=names)
        assert [outcome_of(stacked, i) for i in range(len(idx))] == [
            "converged", CollinearityError, "converged", SeparationError, "converged"
        ]
        assert "loc_larynx" in str(stacked.errors[1])
        assert_rows_match(stacked, looped_fits(X[idx], y[idx], names))
        clean = [0, 2, 4]
        alone = fit_stack(X[idx[clean]], y[idx[clean]], column_names=names)
        assert np.array_equal(stacked.beta[clean], alone.beta)
        assert np.array_equal(stacked.cov[clean], alone.cov)

    def test_fit_logistic_keeps_its_errors(self):
        with pytest.raises(ConfigurationError, match="at least as many rows"):
            fit_logistic(np.ones((3, 4)), np.zeros(3))
        with pytest.raises(ConfigurationError, match="column_names length"):
            fit_logistic(np.ones((4, 1)), np.zeros(4), column_names=["a", "b"])

    def test_singular_final_information_fails_a_row_that_converged(self):
        # x varies by a few ulps around 1024: standardized, the IRLS sees a
        # well-conditioned design and converges in 4 iterations, but the raw
        # information matrix at the fit is exactly singular in floating point.
        x = 1024.0 + 2.0**-41 * np.array([0, 1, 2, 3, 0, 1, 2, 3], dtype=float)
        y = np.array([0, 0, 1, 0, 1, 0, 1, 1], dtype=float)
        tiny = np.column_stack([np.ones(8), x])
        spread = np.column_stack([np.ones(8), x - 1024.0])
        stacked = fit_stack(np.stack([tiny, spread]), np.stack([y, y]), column_names=["intercept", "x"])
        assert stacked.converged.tolist() == [False, True]
        assert stacked.n_iter[0] == 4  # the IRLS stopped on convergence, well before MAX_ITER
        assert isinstance(stacked.errors[0], CollinearityError) and stacked.errors[1] is None
        assert "x" in stacked.errors[0].columns
        alone = fit_stack(spread[None], y[None], column_names=["intercept", "x"])
        assert np.array_equal(stacked.beta[1], alone.beta[0]) and np.array_equal(stacked.cov[1], alone.cov[0])
        with pytest.raises(CollinearityError):
            fit_logistic(tiny, y, column_names=["intercept", "x"])


def assert_same_stack(got, want):
    for field in ("beta", "cov", "n_iter", "converged"):
        assert np.array_equal(getattr(got, field), getattr(want, field), equal_nan=field == "cov")
    assert [(type(e), str(e)) for e in got.errors] == [(type(e), str(e)) for e in want.errors]


def caller_stacks(world):
    """(name, designs, outcomes, column names) stacks with one column or one row, and of the default spec."""
    y = world.pre.outcome.astype(float)
    X, names = build_design(world.pre, ModelSpec())
    ones, one = np.ones((len(y), 1)), np.array([[2.0]])
    dose = X[:, [names.index("dose_sup_pcm")]] / 60.0  # one column that standardizing rescales
    return [
        ("intercept-only", *resample(ones, y, 2, 4), ["intercept"]),
        ("one dose column", *resample(dose, y, 2, 4), ["dose"]),
        ("n=k=1", np.stack([one, one]), np.array([[1.0], [0.0]]), ["intercept"]),
        ("default", *resample(X, y, 3, 4), names),
    ]


class TestWorkspace:
    def test_fits_never_write_to_the_callers_arrays(self, small_world):
        for name, designs, outcomes, names in caller_stacks(small_world):
            kept = designs.copy(), outcomes.copy()
            designs.flags.writeable = outcomes.flags.writeable = False  # a write raises
            fit_stack(designs, outcomes, column_names=names)
            try:
                fit_logistic(designs[0], outcomes[0], column_names=names)
            except StatisticalError:
                pass
            chunks = resample_chunks(5, 7, (designs.shape[1],), 3 * designs[0].nbytes)
            for _ in _refit_chunks(designs[0], outcomes[0], chunks, names):
                pass
            assert np.array_equal(designs, kept[0]) and np.array_equal(outcomes, kept[1]), name

    def test_each_chunk_fits_as_fit_stack_fits_it_alone(self, small_world):
        X, names = build_design(small_world.pre, ModelSpec())
        y = small_world.pre.outcome.astype(float)
        n = len(y)
        draws = np.stack([substream(13, r).integers(0, n, n) for r in range(15)])
        # No larynx patient makes a collinear design; events only above the
        # median dose make a separated one.
        no_larynx = np.flatnonzero(X[:, names.index("loc_larynx")] == 0.0)
        dose = X[:, names.index("dose_sup_pcm")]
        split = np.flatnonzero((y == 1.0) == (dose > np.median(dose)))
        collinear = no_larynx[substream(7, 4).integers(0, no_larynx.size, n)]
        separated = split[substream(7, 5).integers(0, split.size, n)]
        chunks = [
            draws[:6],
            np.stack([draws[6], collinear, draws[7], separated, draws[8]]),  # failed rows, then a clean chunk
            draws[9:13],
            draws[13:15],  # a short last chunk
        ]
        fits = list(_refit_chunks(X, y, ((idx,) for idx in chunks), names))
        assert [chunk[0] is idx for (chunk, _), idx in zip(fits, chunks)] == [True] * len(chunks)
        statuses = [outcome_of(fits[1][1], i) for i in range(5)]
        assert statuses == ["converged", CollinearityError, "converged", SeparationError, "converged"]
        for idx, (_, got) in zip(chunks, fits):
            assert_same_stack(got, fit_stack(X[idx], y[idx], column_names=names))

