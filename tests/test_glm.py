import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import attlab.glm
from attlab.errors import (
    CollinearityError,
    ConfigurationError,
    NotConvergedError,
    SeparationError,
    StatisticalError,
)
from attlab.glm import (
    NAMED_SPECS,
    DEVIANCE_TOL,
    MAX_ITER,
    MAX_STEP_HALVINGS,
    PIVOT_FLOOR,
    ModelFit,
    ModelSpec,
    PlanSource,
    build_design,
    design_columns,
    expit,
    fit_logistic,
    fit_model,
    fit_models,
    log_likelihood,
    predict_design,
    predict_risk,
    score,
    _SATURATED_ETA,
    _check_stack,
    _column_names,
    _dependent_columns,
    _deviance,
    _irls,
    _model_fits,
    _refit_chunks,
    _standardize,
    _start_deviance,
    _Workspace,
)
from attlab.records import DOSE_FIELDS, LOCATIONS, TumorLocation, read_cohort_csv
from attlab.rng import initial_states, resample_chunks, substream
from attlab.synth import GeneratorConfig, generate, generate_range, write_world

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
        rate = np.mean(small_world.pre.outcome)
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
        y = pre.outcome.astype(float)
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
        y = small_world.pre.outcome.astype(float)
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

    def test_a_nearly_dependent_column_is_collinear_though_its_factorization_succeeds(self):
        # x plus noise of 1e-7: the first step's information matrix factors,
        # but its last pivot, about 2e-13, is below PIVOT_FLOOR times its
        # largest diagonal, 2e-9, which the pivot's square root is not.
        rng = np.random.default_rng(0)
        x = rng.normal(size=80)
        X = np.column_stack([np.ones(80), x, x + 1e-7 * rng.normal(size=80)])
        y = (rng.random(80) < 0.5).astype(float)
        Xs = _standardize(X[None], _Workspace(1, *X.shape))[0][0]
        A = Xs.T @ (Xs * 0.25)  # the weights at beta = 0
        pivots = np.diag(np.linalg.cholesky(A)) ** 2
        assert pivots.min() < PIVOT_FLOOR * np.diag(A).max() < np.sqrt(pivots.min())
        with pytest.raises(CollinearityError) as err:
            fit_logistic(X, y, column_names=["intercept", "x", "x_nearly"])
        assert err.value.columns == ["x_nearly"]

    def test_complete_separation_raises(self):
        # Tiny covariate scale forces a huge coefficient before saturation.
        x = np.r_[np.zeros(20), np.full(20, 1e-3)]
        X = np.column_stack([np.ones(40), x])
        y = np.r_[np.zeros(20), np.ones(20)]
        with pytest.raises(SeparationError):
            fit_logistic(X, y)

    @pytest.mark.parametrize("value", [0.0, 1.0])
    def test_outcomes_all_0_or_all_1_have_no_estimate(self, value):
        with pytest.raises(SeparationError, match=f"every outcome is {value:g}: the maximum-likelihood"):
            fit_logistic(np.ones((60, 1)), np.full(60, value))

    def test_the_score_test_decides_a_fit_the_deviance_test_passes(self, monkeypatch):
        # A covariate on a scale of thousands: after 4 iterations the deviance
        # moved by about 1e-9, below DEVIANCE_TOL, while the score's max-norm
        # is 2.4e-6, above SCORE_TOL (1e-6), so a fifth iteration is needed.
        rng = np.random.default_rng(20)
        x = rng.normal(size=200) * 5000.0
        X = np.column_stack([np.ones(200), x])
        y = (rng.random(200) < expit(x / 5000.0)).astype(float)
        monkeypatch.setattr(attlab.glm, "MAX_ITER", 3)
        three = fit_logistic(X, y)
        monkeypatch.setattr(attlab.glm, "MAX_ITER", 4)
        four = fit_logistic(X, y)
        assert abs(three.deviance - four.deviance) < DEVIANCE_TOL
        assert 1e-6 <= np.max(np.abs(score(four.beta_hat, X, y))) < 1e-5
        assert not four.converged
        monkeypatch.undo()
        fit = fit_logistic(X, y)
        assert (fit.n_iter, fit.converged) == (5, True)

    def test_more_columns_than_rows_rejected(self):
        X = np.ones((3, 4))
        y = np.zeros(3)
        with pytest.raises(ConfigurationError):
            fit_logistic(X, y)

    def test_non_binary_outcomes_rejected(self):
        X = np.ones((4, 1))
        with pytest.raises(ConfigurationError, match="^outcomes must be binary 0/1$"):
            fit_logistic(X, np.array([0.0, 1.0, 2.0, 0.0]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("names,named", [(None, "x1"), (["intercept", "dose"], "dose")])
    def test_non_finite_design_names_the_column(self, bad, names, named):
        rng = np.random.default_rng(1)
        X = np.column_stack([np.ones(50), rng.normal(size=50)])
        X[17, 1] = bad
        y = (rng.random(50) < 0.5).astype(float)
        message = rf"^design column {named} holds a non-finite value \(NaN or infinity\)$"
        with pytest.raises(ConfigurationError, match=message):
            fit_logistic(X, y, column_names=names)
        with pytest.raises(ConfigurationError, match=message):
            _model_fits([np.nan_to_num(X), X], [y, y], _column_names(names, 2), None)


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
        X, names = build_design(small_world.pre, NAMED_SPECS["quadratic"])
        assert X.shape[1] == 13
        Xi, names_i = build_design(small_world.pre, NAMED_SPECS["interactions"])
        assert Xi.shape[1] == 9 + 12
        assert names_i[-1] == "dose_oral_cavity:loc_oral_cavity"

    def test_spec_rejects_duplicates_and_missing_intercept(self):
        with pytest.raises(ConfigurationError, match="^duplicate terms in model spec$"):
            ModelSpec(terms=("intercept", "intercept"))
        with pytest.raises(ConfigurationError, match="^model spec must contain an intercept term$"):
            ModelSpec(terms=("baseline_dysphagia",))


def column_definition(name, cohort, doses):
    """The design column called ``name``, recomputed from the cohort's arrays and the plan's ``doses``."""
    def location(column):  # loc_<v>: 1 where the patient's location is <v>
        return (cohort.loc_code == LOCATIONS.index(TumorLocation(column.removeprefix("loc_")))).astype(float)

    if name == "intercept":
        return np.ones(len(cohort))
    if name == "baseline_dysphagia":
        return cohort.dysphagia.astype(float)
    if name.startswith("loc_"):
        return location(name)
    dose, _, by = name.partition(":")
    if dose.endswith("_sq"):
        return ((doses[:, DOSE_FIELDS.index(dose.removesuffix("_sq"))] - 50.0) / 10.0) ** 2
    column = doses[:, DOSE_FIELDS.index(dose)]
    return column * location(by) if by else column


# A spec is the intercept, anywhere, among any ordered subset of the other terms.
OTHER_TERMS = sorted(set(attlab.glm.TERMS) - {"intercept"})
SPECS = st.lists(st.sampled_from(OTHER_TERMS), unique=True).flatmap(
    lambda terms: st.integers(0, len(terms)).map(lambda i: ModelSpec((*terms[:i], "intercept", *terms[i:]))))


class TestDesignColumns:
    def test_the_named_specs_spell_the_documented_terms_and_the_table_holds_no_other(self):
        linear = ("intercept", "baseline_dysphagia", "tumor_location", *DOSE_FIELDS)
        assert NAMED_SPECS["linear"].terms == linear
        assert NAMED_SPECS["quadratic"].terms == (*linear, *(f"{d}_sq" for d in DOSE_FIELDS))
        assert NAMED_SPECS["interactions"].terms == (*linear, *(f"{d}:tumor_location" for d in DOSE_FIELDS))
        assert set(attlab.glm.TERMS) == {term for spec in NAMED_SPECS.values() for term in spec.terms}

    @settings(max_examples=80)
    @given(spec=SPECS, source=st.sampled_from(PlanSource))
    def test_each_named_column_is_its_definition(self, small_world, spec, source):
        cohort = small_world.post if source is PlanSource.PHOTON else small_world.post.treated()
        doses = cohort.photon if source is PlanSource.PHOTON else cohort.proton
        X, names = build_design(cohort, spec, source)
        assert names == design_columns(spec)
        assert X.shape == (len(cohort), len(names))
        for j, name in enumerate(names):
            np.testing.assert_array_equal(X[:, j], column_definition(name, cohort, doses), err_msg=name)

    def test_a_spec_keeps_its_terms_as_a_tuple(self):
        spec = ModelSpec(["intercept", "baseline_dysphagia"])
        assert spec.terms == ("intercept", "baseline_dysphagia")
        assert hash(spec) == hash(ModelSpec(("intercept", "baseline_dysphagia")))

    def test_unknown_terms_are_refused_by_name(self):
        with pytest.raises(ConfigurationError, match="^unknown model terms: dose_sup_pcm_cube, loc_larynx$"):
            ModelSpec(("intercept", "dose_sup_pcm_cube", "loc_larynx"))


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

    def test_non_converged_fit_refuses_to_predict(self, small_world, monkeypatch):
        monkeypatch.setattr(attlab.glm, "MAX_ITER", 1)
        fit = fit_model(small_world.pre)
        assert not fit.converged
        with pytest.raises(NotConvergedError, match="^cannot predict from a non-converged model fit$"):
            predict_risk(fit, small_world.pre)

    def test_predictions_strictly_inside_unit_interval(self, small_world, small_fit):
        preds = predict_risk(small_fit, small_world.pre)
        assert np.all(preds > 0.0) and np.all(preds < 1.0)

    def test_saturated_predictions_are_clipped_to_1e_12_from_either_end(self):
        preds = predict_design(np.array([1.0]), np.array([[-40.0], [40.0]]))
        assert preds.tolist() == [1e-12, 1.0 - 1e-12]


class TestModelFitJson:
    @pytest.mark.parametrize("named", [False, True], ids=["unnamed", "design_names"])
    def test_a_fit_without_a_spec_is_not_saved(self, small_world, named):
        # Its columns are not model terms, so the file could not be read back.
        X, names = build_design(small_world.pre, ModelSpec())
        fit = fit_logistic(X, small_world.pre.outcome, column_names=names if named else None)
        with pytest.raises(ConfigurationError, match="without a model spec"):
            fit.to_json_dict()

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
        X, _ = build_design(default_world.pre, NAMED_SPECS["quadratic"])
        rng = np.random.default_rng(4)
        designs = [X, X[:, 1:], np.column_stack([X, np.zeros(len(X)), X[:, 0]])]
        # A column of zeros is no intercept; a constant column of -1 is one.
        designs += [np.column_stack([np.zeros(len(X)), X]), np.column_stack([-X[:, :1], X[:, 1:]])]
        designs += [X[rng.integers(0, len(X), len(X))] for _ in range(50)]
        for design in designs:
            got = [a[0] for a in _standardize(design[None], _Workspace(1, *design.shape))]
            want = looped_standardize(design)
            intercept = got[3].nonzero()[0]
            assert (int(intercept[0]) if intercept.size else None) == want[3]
            for a, b in zip(got[:3], want[:3]):
                assert np.array_equal(a, b)

    @pytest.mark.parametrize("y", [0.0, 1.0])
    def test_deviance_terms_are_within_2_ulp_of_logaddexp(self, y):
        rng = np.random.default_rng(6)
        eta = np.concatenate([
            np.linspace(-40.0, 40.0, 80001), rng.normal(0.0, 10.0, 20000),
            np.logspace(-15, 3, 500), -np.logspace(-15, 3, 500),
            [0.0, -0.0, _SATURATED_ETA, -_SATURATED_ETA, 700.0, -700.0, 800.0, -800.0],
        ])
        # One term a row: each row's deviance is twice its term, exactly.
        deviance, e = _deviance(eta[:, None], np.full((eta.size, 1), y))
        softplus = np.logaddexp(0.0, eta)
        # Where y * eta cancels most of the term, its ulp is the larger part's.
        ulp = np.spacing(np.maximum(softplus, np.abs(y * eta)))
        assert (np.abs(deviance / 2.0 - (softplus - y * eta)) <= 2.0 * ulp).all()
        assert np.array_equal(e[:, 0], np.exp(-np.abs(eta)))

    def test_a_fit_reports_the_logaddexp_deviance_bit_for_bit(self, tmp_path):
        # The quadratic fit of the seed-7919 world, read back from its CSV:
        # the sum of the vectorized terms differs here in its last bit.
        write_world(generate(GeneratorConfig(seed=7919)), tmp_path)
        pre = read_cohort_csv(tmp_path / "pre.csv")
        fit = fit_model(pre, NAMED_SPECS["quadratic"])
        X, _ = build_design(pre, NAMED_SPECS["quadratic"])
        y = pre.outcome.astype(float)
        eta = X @ fit.beta_hat
        assert fit.deviance == float(2.0 * np.sum(np.logaddexp(0.0, eta) - y * eta))


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


def assert_rows_match(stacked, designs, outcomes, names):
    """Each row of ``stacked``, and of ``_model_fits`` of the same stack, is what ``fit_logistic`` gives it alone.

    Returns the ``_model_fits``.
    """
    reported = _model_fits(list(designs), list(outcomes), names, None)
    for i, ref in enumerate(looped_fits(designs, outcomes, names)):
        if isinstance(ref, Exception):
            assert type(stacked.errors[i]) is type(ref) and str(stacked.errors[i]) == str(ref)
            assert (type(reported[i]), str(reported[i])) == (type(ref), str(ref))
            assert not stacked.converged[i]
        else:
            assert stacked.errors[i] is None
            assert stacked.converged[i] == ref.converged
            assert np.array_equal(stacked.beta[i], ref.beta_hat)
            assert stacked.n_iter[i] == ref.n_iter
            assert_same_model_fit(reported[i], ref)
    return reported


def assert_rows_equal_the_reference(stacked, designs, outcomes, names):
    """Each row of ``stacked``, with its covariance from ``_model_fits`` of the same stack, is ``reference_irls``'s."""
    reported = _model_fits(list(designs), list(outcomes), names, None)
    for row, (design, outcome) in enumerate(zip(designs, outcomes)):
        want = reference_irls(design, outcome, names)
        if isinstance(want, Exception):
            assert type(stacked.errors[row]) is type(want) and str(stacked.errors[row]) == str(want)
            assert (type(reported[row]), str(reported[row])) == (type(want), str(want))
        else:
            assert np.array_equal(stacked.beta[row], want[0]) and np.array_equal(reported[row].cov_hat, want[1])
            assert (stacked.n_iter[row], stacked.converged[row]) == want[2:]


def stacked_irls(designs, outcomes, names):
    """The ``StackedFit`` that ``_model_fits`` reports from: ``_irls`` of a checked stack in a fresh workspace."""
    _check_stack(designs, outcomes, names)
    return _irls(designs, outcomes, _Workspace(*designs.shape), names)


def covariances(designs, outcomes, names, rows):
    """The covariances that ``_model_fits`` of a stack gives its ``rows``, stacked."""
    reported = _model_fits(list(designs), list(outcomes), names, None)
    return np.stack([reported[i].cov_hat for i in rows])


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
            stacked = stacked_irls(designs, outcomes, names)
            assert_rows_match(stacked, designs, outcomes, names)

    def test_tiny_cohort_rows_of_every_status_equal_the_loop(self):
        # 60 patients, quadratic doses: among 300 resamples some are collinear,
        # some separated, some not converged, and three take their first
        # step-halving in the same iteration.
        world = generate(GeneratorConfig(seed=1, n_pre=60, n_post=30))
        X, names = build_design(world.pre, NAMED_SPECS["quadratic"])
        designs, outcomes = resample(X, world.pre.outcome.astype(float), 4, 300)
        stacked = stacked_irls(designs, outcomes, names)
        outcomes_seen = {outcome_of(stacked, i) for i in range(len(designs))}
        assert outcomes_seen == {"converged", "not converged", CollinearityError, SeparationError}
        assert_rows_match(stacked, designs, outcomes, names)
        assert_rows_equal_the_reference(stacked, designs, outcomes, names)

    def test_rows_that_fail_or_halve_in_the_first_step_equal_the_reference_loop(self, monkeypatch):
        # The first step starts at beta = 0 from a closed-form deviance. Its
        # weights, 1/4, bound the curvature everywhere, so a full first step lowers the deviance in
        # exact arithmetic; it can only seem not to by rounding. Here the
        # dose of each pair of patients, one with and one without the event,
        # differs by about 1e-12: the step is tiny, and the deviance sums of
        # 16384 rows differ by more than the 1e-12 tolerance.
        n, names = 2**14, ["intercept", "x"]
        x = np.repeat(substream(21, 0).normal(size=n // 2), 2)
        x[1::2] += 1e-12 * substream(21, 1).normal(size=n // 2)
        spread = substream(21, 2).normal(size=n)
        designs = np.stack([
            np.column_stack([np.ones(n), np.zeros(n)]),  # a column of zeros: collinear at the first step
            np.column_stack([np.ones(n), x]),
            np.column_stack([np.ones(n), spread]),
        ])
        outcomes = np.stack([
            np.tile([0.0, 1.0], n // 2),
            np.tile([0.0, 1.0], n // 2),
            (substream(21, 3).random(n) < expit(spread - 1.0)).astype(float),
        ])
        stacked = stacked_irls(designs, outcomes, names)
        assert_rows_equal_the_reference(stacked, designs, outcomes, names)
        assert [outcome_of(stacked, i) for i in range(3)] == [CollinearityError, "converged", "converged"]
        assert stacked.n_iter[2] > 1

        # Row 1 halves its first step: one deviance per iteration, one more per halving.
        deviances = []
        deviance = attlab.glm._deviance
        monkeypatch.setattr(attlab.glm, "_deviance", lambda eta, y: deviances.append(1) or deviance(eta, y))
        alone = stacked_irls(designs[1:2], outcomes[1:2], names)
        assert alone.n_iter[0] == 1 and len(deviances) > 1

    @staticmethod
    def plain_design():
        x = substream(22, 0).normal(size=50)
        return np.column_stack([np.ones(50), x]), (substream(22, 1).random(50) < expit(x)).astype(float)

    def test_a_step_is_halved_at_most_max_step_halvings_times(self, monkeypatch):
        # A deviance that rises at every evaluation: each iteration halves its
        # step MAX_STEP_HALVINGS times and then takes it, and none converges.
        X, y = self.plain_design()
        calls = []
        deviance = attlab.glm._deviance

        def rising(eta, y):
            calls.append(1)
            assert len(calls) <= MAX_ITER * (1 + MAX_STEP_HALVINGS)
            return np.full(len(eta), 1e3 + len(calls)), deviance(eta, y)[1]

        monkeypatch.setattr(attlab.glm, "_deviance", rising)
        fit = stacked_irls(X[None], y[None], ["intercept", "x"])
        assert len(calls) == MAX_ITER * (1 + MAX_STEP_HALVINGS)
        assert (fit.n_iter[0], fit.converged[0]) == (MAX_ITER, False)

    def test_halving_stops_at_a_step_that_raises_the_deviance_by_no_more_than_halving_tol(self, monkeypatch):
        # The first evaluation exceeds the starting deviance by 1 and every
        # later one equals it: the first step is halved once, no other is.
        X, y = self.plain_design()
        start = _start_deviance(len(y))
        calls = []
        deviance = attlab.glm._deviance

        def flat(eta, y):
            calls.append(1)
            assert len(calls) <= MAX_ITER * (1 + MAX_STEP_HALVINGS)
            return np.full(len(eta), start + (1.0 if len(calls) == 1 else 0.0)), deviance(eta, y)[1]

        monkeypatch.setattr(attlab.glm, "_deviance", flat)
        fit = stacked_irls(X[None], y[None], ["intercept", "x"])
        assert fit.converged[0] and len(calls) == fit.n_iter[0] + 1

    @pytest.mark.parametrize("n", [1, 5, 8, 13, 127, 128, 129, 1000, 16384 + 3])
    def test_the_starting_deviance_is_the_deviance_of_a_zero_predictor_bit_for_bit(self, n):
        # Row sums of a stack and the sum of one vector must agree on every
        # pairwise block: below 8, not a multiple of 8, around numpy's
        # 128-element block and well above it.
        y = (substream(23, n).random((3, n)) < 0.4).astype(float)
        want = _deviance(np.zeros((3, n)), y)[0]
        assert want.tobytes() == np.full(3, _start_deviance(n)).tobytes()
        assert _deviance(np.zeros(n), y[0])[0].tobytes() == np.float64(_start_deviance(n)).tobytes()

    @pytest.mark.parametrize("spec_name", sorted(NAMED_SPECS))
    def test_fit_logistic_is_bit_identical_to_the_reference_loop(self, small_world, spec_name, monkeypatch):
        X, names = build_design(small_world.pre, NAMED_SPECS[spec_name])
        y = small_world.pre.outcome.astype(float)
        designs, outcomes = resample(X, y, 11, 6)
        small, small_y = resample(X[:70], y[:70], 12, 6)  # small resamples: some fail, some stop early
        for design, outcome, max_iter in [(X, y, 25), *zip(designs, outcomes, [25] * 6),
                                          *zip(small, small_y, [25, 25, 25, 3, 25, 25])]:
            want = reference_irls(design, outcome, names, max_iter)
            monkeypatch.setattr(attlab.glm, "MAX_ITER", max_iter)
            if isinstance(want, Exception):
                with pytest.raises(type(want)) as err:
                    fit_logistic(design, outcome, column_names=names)
                assert str(err.value) == str(want)
                continue
            fit = fit_logistic(design, outcome, column_names=names)
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

        stacked = stacked_irls(X[idx], y[idx], names)
        assert [outcome_of(stacked, i) for i in range(len(idx))] == [
            "converged", CollinearityError, "converged", SeparationError, "converged"
        ]
        assert "loc_larynx" in str(stacked.errors[1])
        assert_rows_match(stacked, X[idx], y[idx], names)
        clean = [0, 2, 4]
        alone = stacked_irls(X[idx[clean]], y[idx[clean]], names)
        assert np.array_equal(stacked.beta[clean], alone.beta)
        assert np.array_equal(covariances(X[idx], y[idx], names, clean),
                              covariances(X[idx[clean]], y[idx[clean]], names, range(3)))

    def test_rows_with_constant_outcomes_fail_and_leave_the_others_unchanged(self, small_world):
        X, names = build_design(small_world.pre, ModelSpec())
        designs, outcomes = resample(X, small_world.pre.outcome.astype(float), 9, 5)
        outcomes[1], outcomes[3] = 0.0, 1.0
        stacked = stacked_irls(designs, outcomes, names)
        assert [outcome_of(stacked, i) for i in range(5)] == [
            "converged", SeparationError, "converged", SeparationError, "converged"
        ]
        assert [str(stacked.errors[i]) for i in (1, 3)] == [
            "every outcome is 0: the maximum-likelihood estimate does not exist",
            "every outcome is 1: the maximum-likelihood estimate does not exist",
        ]
        assert_rows_match(stacked, designs, outcomes, names)
        clean = [0, 2, 4]
        alone = stacked_irls(designs[clean], outcomes[clean], names)
        assert np.array_equal(stacked.beta[clean], alone.beta)
        assert np.array_equal(covariances(designs, outcomes, names, clean),
                              covariances(designs[clean], outcomes[clean], names, range(3)))
        assert np.array_equal(stacked.n_iter[clean], alone.n_iter)

    def test_fit_logistic_keeps_its_errors(self):
        with pytest.raises(ConfigurationError, match="at least as many rows"):
            fit_logistic(np.ones((3, 4)), np.zeros(3))
        with pytest.raises(ConfigurationError, match="^column_names length does not match design columns$"):
            fit_logistic(np.ones((4, 1)), np.zeros(4), column_names=["a", "b"])
        with pytest.raises(ConfigurationError, match="^design must be a 2-d matrix$"):
            fit_logistic(np.ones(4), np.zeros(4))
        with pytest.raises(ConfigurationError, match=r"^outcomes length \(3,\) does not match design rows 4$"):
            fit_logistic(np.ones((4, 1)), np.zeros(3))

    @staticmethod
    def singular_pair():
        """(tiny, spread, y): two designs whose IRLS converges, the first with a singular final information matrix.

        In ``tiny`` x varies by a few ulps around 1024: standardized, the IRLS
        sees a well-conditioned design and converges in a few iterations, but
        the raw information matrix at the fit is exactly singular in floating
        point. ``spread`` is the same design with x shifted to 0.
        """
        x = 1024.0 + 2.0**-41 * np.array([0, 1, 2, 3, 0, 1, 2, 3], dtype=float)
        y = np.array([0, 0, 1, 0, 1, 0, 1, 1], dtype=float)
        return np.column_stack([np.ones(8), x]), np.column_stack([np.ones(8), x - 1024.0]), y

    def test_singular_final_information_leaves_the_irls_row_converged(self):
        tiny, spread, y = self.singular_pair()
        names = ["intercept", "x"]
        stacked = stacked_irls(np.stack([tiny, spread]), np.stack([y, y]), names)
        alone = stacked_irls(tiny[None], y[None], names)
        assert stacked.converged.tolist() == [True, True] and stacked.errors == (None, None)
        # How many iterations depends on the BLAS kernel's last bits: 4 under
        # OpenBLAS's SkylakeX kernel, 3 under its Haswell one. Either way the
        # IRLS stopped on convergence, well before MAX_ITER.
        assert stacked.n_iter[0] == alone.n_iter[0] < MAX_ITER
        b0, b1 = stacked.beta[1]
        assert np.allclose(stacked.beta[0], [b0 - 1024.0 * b1, b1], rtol=1e-8, atol=0.0)  # spread's fit, shifted back
        assert np.array_equal(stacked.beta[0], alone.beta[0])
        ((_, refit),) = _refit_chunks(tiny, y, [(np.arange(8)[None],)])
        assert refit.converged.tolist() == [True] and refit.errors == (None,)
        assert np.array_equal(refit.beta, stacked.beta[:1])

    def test_singular_final_information_fails_the_reported_fit(self):
        tiny, spread, y = self.singular_pair()
        got = _model_fits([tiny, spread], [y, y], ["intercept", "x"], None)
        assert isinstance(got[0], CollinearityError) and got[0].columns == ["x"]
        assert_same_model_fit(got[1], fit_logistic(spread, y, column_names=["intercept", "x"]))
        with pytest.raises(CollinearityError):
            fit_logistic(tiny, y, column_names=["intercept", "x"])


def assert_same_stack(got, want):
    for field in ("beta", "n_iter", "converged"):
        assert np.array_equal(getattr(got, field), getattr(want, field))
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
            stacked_irls(designs, outcomes, names)
            try:
                fit_logistic(designs[0], outcomes[0], column_names=names)
            except StatisticalError:
                pass
            chunks = resample_chunks(initial_states(5, 7), (designs.shape[1],), 3 * designs[0].nbytes)
            for _ in _refit_chunks(designs[0], outcomes[0], chunks):
                pass
            assert np.array_equal(designs, kept[0]) and np.array_equal(outcomes, kept[1]), name

    def test_each_chunk_fits_as_the_irls_fits_it_alone(self, small_world):
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
        fits = list(_refit_chunks(X, y, ((idx,) for idx in chunks)))
        assert [chunk[0] is idx for (chunk, _), idx in zip(fits, chunks)] == [True] * len(chunks)
        statuses = [outcome_of(fits[1][1], i) for i in range(5)]
        assert statuses == ["converged", CollinearityError, "converged", SeparationError, "converged"]
        for idx, (_, got) in zip(chunks, fits):
            assert_same_stack(got, _irls(X[idx], y[idx], _Workspace(len(idx), *X.shape), None))



def assert_same_model_fit(got, want):
    assert (got.spec, got.column_names, got.n_obs, got.converged, got.n_iter) == (
        want.spec, want.column_names, want.n_obs, want.converged, want.n_iter
    )
    assert np.array_equal(got.beta_hat, want.beta_hat) and np.array_equal(got.cov_hat, want.cov_hat)
    assert got.deviance == want.deviance


def alone(cohort, spec):
    """What ``fit_logistic`` gives ``cohort``'s design under ``spec`` alone, with the spec attached; or its error."""
    X, names = build_design(cohort, spec)
    try:
        return dataclasses.replace(fit_logistic(X, cohort.outcome.astype(float), column_names=names), spec=spec)
    except StatisticalError as exc:
        return exc


class TestFitModels:
    @pytest.mark.parametrize("spec_name", sorted(NAMED_SPECS))
    def test_each_cohort_gets_what_fit_logistic_gives_its_design_alone(self, spec_name):
        spec = NAMED_SPECS[spec_name]
        cohorts = [generate(GeneratorConfig(n_pre=80, n_post=10, seed=seed)).pre for seed in range(30)]
        no_events = dataclasses.replace(cohorts[0], outcome=np.zeros(80, dtype=int))
        larynx = cohorts[1].loc_code == LOCATIONS.index(TumorLocation.LARYNX)
        no_larynx = dataclasses.replace(cohorts[1], loc_code=np.where(larynx, 0, cohorts[1].loc_code))
        cohorts[3:3] = [no_events, no_larynx]
        seen = set()
        for cohort, got in zip(cohorts, fit_models(cohorts, spec), strict=True):
            want = alone(cohort, spec)
            if isinstance(want, StatisticalError):
                assert (type(got), str(got)) == (type(want), str(want))
                seen.add(type(want))
                continue
            assert_same_model_fit(got, want)
            seen.add("converged" if want.converged else "not converged")
        assert {"converged", CollinearityError, SeparationError} <= seen

    def test_a_default_range_of_worlds_fits_bit_for_bit(self, small_world):
        worlds = [small_world.pre] + [generate(GeneratorConfig(n_pre=300, n_post=20, seed=s)).pre for s in (1, 2)]
        for cohort, got in zip(worlds, fit_models(worlds, ModelSpec()), strict=True):
            assert_same_model_fit(got, alone(cohort, ModelSpec()))

    def test_no_cohorts_no_fits(self):
        assert fit_models([], ModelSpec()) == []

    def test_no_configs_no_worlds(self):
        # The lab's range pipeline, generate_range then fit_models, takes an empty range on both steps.
        assert generate_range([]) == []
