import numpy as np
import pytest

from attlab.errors import (
    CollinearityError,
    ConfigurationError,
    NotConvergedError,
    PredictionError,
    SeparationError,
)
from attlab.glm import (
    ModelFit,
    ModelSpec,
    PlanSource,
    build_design,
    design_columns,
    expit,
    fit_logistic,
    fit_model,
    log_likelihood,
    predict_risk,
    score,
)
from attlab.records import TumorLocation

from conftest import make_post_record, make_record

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
        fitted = predict_risk(small_fit, small_world.pre.records)
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
        records = list(small_world.pre.records)
        spec = ModelSpec()
        X, names = build_design(records, spec)
        y = np.array([r.outcome for r in records], dtype=float)
        fit = fit_logistic(X, y, column_names=names)
        rng = np.random.default_rng(3)
        perm = rng.permutation(len(records))
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
        X, _ = build_design(small_world.pre.records, small_fit.spec)
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


class TestBuildDesign:
    def test_intercept_only_is_a_column_of_ones(self):
        records = [make_record(rid=f"r{i}") for i in range(5)]
        X, names = build_design(records, ModelSpec(terms=("intercept",)))
        assert X.shape == (5, 1)
        assert np.all(X == 1.0)
        assert names == ["intercept"]

    def test_default_spec_has_nine_columns(self, small_world):
        X, names = build_design(small_world.pre.records, ModelSpec())
        assert X.shape[1] == 9
        assert len(names) == 9
        assert names[0] == "intercept"

    def test_reference_category_rows_are_all_zero(self):
        rec = make_record(location=TumorLocation.OROPHARYNX)
        X, names = build_design([rec], ModelSpec())
        loc_cols = [i for i, n in enumerate(names) if n.startswith("loc_")]
        assert len(loc_cols) == 3
        assert np.all(X[0, loc_cols] == 0.0)

    def test_proton_source_requires_proton_plans(self):
        from attlab.errors import MissingPlanError

        records = [make_post_record(rid="t-1"), make_record(rid="pre-9")]
        with pytest.raises(MissingPlanError) as err:
            build_design(records, ModelSpec(), PlanSource.PROTON)
        assert err.value.record_ids == ["pre-9"]

    def test_quadratic_and_interaction_specs_expand(self, small_world):
        X, names = build_design(small_world.pre.records, ModelSpec.with_quadratic_doses())
        assert X.shape[1] == 13
        Xi, names_i = build_design(small_world.pre.records, ModelSpec.with_dose_location_interactions())
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
        records = [make_record(rid=f"r{i}") for i in range(4)]
        assert np.all(predict_risk(fit, records) == 0.5)

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
        preds = predict_risk(fit, [make_record()])
        assert preds[0] == pytest.approx(0.30, abs=1e-12)

    def test_positive_dose_coefficient_is_monotone(self, small_fit):
        low = make_record(photon=(50.0, 50.0, 40.0, 42.0))
        high = make_record(photon=(60.0, 50.0, 40.0, 42.0))
        p_low, p_high = predict_risk(small_fit, [low, high])
        assert small_fit.coefficients()["dose_sup_pcm"] > 0
        assert p_high > p_low

    def test_unseen_category_raises_prediction_error(self, small_world):
        spec = ModelSpec(locations=(TumorLocation.OROPHARYNX, TumorLocation.NASOPHARYNX, TumorLocation.LARYNX))
        usable = [r for r in small_world.pre.records if r.tumor_location is not TumorLocation.ORAL_CAVITY]
        fit = fit_model(usable, spec)
        with pytest.raises(PredictionError, match="oral_cavity"):
            predict_risk(fit, [make_record(location=TumorLocation.ORAL_CAVITY)])

    def test_non_converged_fit_refuses_to_predict(self, small_world):
        fit = fit_model(small_world.pre.records, max_iter=1)
        assert not fit.converged
        with pytest.raises(NotConvergedError):
            predict_risk(fit, small_world.pre.records)

    def test_predictions_strictly_inside_unit_interval(self, small_world, small_fit):
        preds = predict_risk(small_fit, small_world.pre.records)
        assert np.all(preds > 0.0) and np.all(preds < 1.0)


class TestModelFitJson:
    def test_round_trip(self, tmp_path, small_fit):
        path = tmp_path / "model.json"
        small_fit.save(path)
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
        from attlab.glm import _standardize

        X, _ = build_design(default_world.pre, ModelSpec.with_quadratic_doses())
        rng = np.random.default_rng(4)
        designs = [X, X[:, 1:], np.column_stack([X, np.zeros(len(X)), X[:, 0]])]
        designs += [X[rng.integers(0, len(X), len(X))] for _ in range(50)]
        for design in designs:
            got, want = _standardize(design), looped_standardize(design)
            assert got[3] == want[3]
            for a, b in zip(got[:3], want[:3]):
                assert np.array_equal(a, b)
