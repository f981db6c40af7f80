"""Tail fitting, likelihood ratios, and the exponentiality test."""

import itertools
import math

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperdecomp import (
    FitError,
    ValidationError,
    fit,
    heavy_tail_verdict,
    ks_dstat,
    lilliefors_exp,
    loglik_ratio,
)
from hyperdecomp import tailfit
from hyperdecomp.tailfit import (
    _TPL_ALPHA_HI,
    _TPL_ALPHA_LO,
    _TPL_RATE_HI,
    _TPL_RATE_LO,
    _lilliefors_critical,
    _tpl_log_normalizer,
)


def pareto_sample(rng, n, alpha, xmin=1.0):
    u = rng.random(n)
    return xmin * (1.0 - u) ** (-1.0 / (alpha - 1.0))


# --- individual fits -------------------------------------------------------


def test_exponential_fit_closed_form():
    r = fit([2.0, 4.0], "exponential", xmin=2.0)
    assert r.params == pytest.approx((1.0,))
    assert r.log_likelihood == pytest.approx(2 * (math.log(1.0) - 1.0))
    assert r.xmin == 2.0


def test_exponential_xmin_defaults_to_minimum():
    r = fit([1.0, 3.0, 5.0], "exponential")
    assert r.xmin == 1.0
    assert r.params[0] == pytest.approx(1.0 / (3.0 - 1.0))


def test_powerlaw_alpha_two_example():
    data = 2.0 * math.e * np.ones(50)
    r = fit(data, "powerlaw", xmin=2.0)
    assert r.params[0] == pytest.approx(2.0)


def test_powerlaw_recovers_pareto_exponent():
    rng = np.random.default_rng(12)
    data = pareto_sample(rng, 5000, alpha=2.5)
    r = fit(data, "powerlaw", xmin=1.0)
    assert r.params[0] == pytest.approx(2.5, abs=0.1)


def test_powerlaw_is_argmax():
    rng = np.random.default_rng(1)
    data = pareto_sample(rng, 400, alpha=2.2)

    def loglik(alpha):
        n = data.size
        return n * math.log(alpha - 1) - alpha * float(np.log(data).sum())

    ahat = fit(data, "powerlaw", xmin=1.0).params[0]
    assert loglik(ahat) >= loglik(ahat * 1.01) - 1e-9
    assert loglik(ahat) >= loglik(ahat * 0.99) - 1e-9


def test_lognormal_fit_matches_log_moments():
    rng = np.random.default_rng(2)
    data = np.exp(rng.normal(1.5, 0.7, size=2000))
    r = fit(data, "lognormal")
    logs = np.log(data)
    assert r.params[0] == pytest.approx(float(logs.mean()))
    assert r.params[1] == pytest.approx(float(logs.std()))


def test_lognormal_perturbation_lowers_likelihood():
    rng = np.random.default_rng(3)
    data = np.exp(rng.normal(0.5, 1.1, size=500))
    r = fit(data, "lognormal")
    mu, sigma = r.params

    def loglik(m, s):
        return float(scipy.stats.lognorm(s, scale=math.exp(m)).logpdf(data).sum())

    assert r.log_likelihood == pytest.approx(loglik(mu, sigma), rel=1e-9)
    for fm, fs in ((1.01, 1.0), (0.99, 1.0), (1.0, 1.01), (1.0, 0.99)):
        assert loglik(mu, sigma) >= loglik(mu * fm, sigma * fs) - 1e-9


def mpmath_log_normalizer(alpha, lam, xmin):
    """log of lam^(alpha-1) * GammaUpper(1 - alpha, lam * xmin) in 40-digit
    mpmath, or None where that is not finite."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        lam, xmin = mpmath.mpf(lam), mpmath.mpf(xmin)
        gamma = mpmath.gammainc(1 - mpmath.mpf(alpha), lam * xmin, mpmath.inf)
        if not mpmath.isfinite(gamma) or gamma <= 0:
            return None
        return (mpmath.mpf(alpha) - 1) * mpmath.log(lam) + mpmath.log(gamma)


def assert_normalizer_matches_mpmath(alpha, lam, xmin):
    """Error relative to max(1, |log|): the normalizer's own relative error
    while the log is small, and the log's relative error once it is large
    (a double holds a log of -1e7 only to about 1e-9)."""
    want = mpmath_log_normalizer(alpha, lam, xmin)
    assert want is not None, (alpha, lam, xmin)
    got = _tpl_log_normalizer(alpha, lam, xmin)
    assert math.isfinite(got), (alpha, lam, xmin)
    err = float(abs(got - want) / max(1, abs(want)))
    assert err <= 1e-12, (alpha, lam, xmin, got, float(want))


_NORMALIZER_ALPHAS = (
    1.0 + 1e-6, 1.01, 1.5, 2.0 - 1e-9, 2.0, 2.0 + 1e-9, 2.5,
    3.0 - 1e-7, 3.0, 7.3, 12.0, 20.0 - 1e-6, 20.0,
)
_NORMALIZER_ZS = (
    1e-20, 1e-13, 1e-8, 1e-3, 0.5, 1.0 - 1e-6, 1.0, 1.0 + 1e-6,
    2.0, 10.0, 100.0, 1e3, 1e5, 1e7,
)


@pytest.mark.parametrize("xmin", [1e-3, 1.0, 1e3])
def test_tpl_normalizer_matches_40_digit_mpmath_on_grid(xmin):
    # Integer alpha puts a + k = 0 in the small-z series; z = 1 -/+ 1e-6
    # straddles the switch to the continued fraction; alpha = 20, z = 100
    # is where default-precision mpmath's log was off by 0.24. The fit reads
    # E[x] and E[x^2] as Z(alpha - 1) / Z(alpha) and Z(alpha - 2) / Z(alpha),
    # so alpha - 1 and alpha - 2 are checked too.
    for alpha, z, k in itertools.product(_NORMALIZER_ALPHAS, _NORMALIZER_ZS, (0, 1, 2)):
        assert_normalizer_matches_mpmath(alpha - k, z / xmin, xmin)


@settings(max_examples=300, deadline=None)
@given(
    st.floats(min_value=_TPL_ALPHA_LO, max_value=_TPL_ALPHA_HI),
    st.floats(min_value=math.log10(_TPL_RATE_LO), max_value=math.log10(_TPL_RATE_HI)),
    st.floats(min_value=-3.0, max_value=3.0),
)
def test_tpl_normalizer_matches_mpmath_over_the_fit_box(alpha, log_lam, log_xmin):
    assert_normalizer_matches_mpmath(alpha, 10.0**log_lam, 10.0**log_xmin)


@settings(max_examples=200, deadline=None)
@given(
    st.floats(min_value=_TPL_ALPHA_LO - 2.0, max_value=_TPL_ALPHA_LO),
    st.floats(min_value=math.log10(_TPL_RATE_LO), max_value=math.log10(_TPL_RATE_HI)),
    st.floats(min_value=-3.0, max_value=3.0),
)
def test_tpl_normalizer_matches_mpmath_below_the_fit_box(alpha, log_lam, log_xmin):
    assert_normalizer_matches_mpmath(alpha, 10.0**log_lam, 10.0**log_xmin)


def tpl_loglik(data, alpha, lam, xmin):
    """Direct truncated power-law log-likelihood, evaluated with mpmath."""
    z = mpmath_log_normalizer(alpha, lam, xmin)
    return float(
        -alpha * np.log(data).sum() - lam * data.sum() - data.size * float(z)
    )


def test_truncated_powerlaw_is_argmax():
    pytest.importorskip("mpmath")
    rng = np.random.default_rng(4)
    base = pareto_sample(rng, 800, alpha=2.0)
    data = base[base * rng.random(800) < 5.0][:400]  # soft truncation
    data = base if data.size < 50 else data
    r = fit(data, "truncated-powerlaw", xmin=1.0)
    alpha, lam = r.params
    best = tpl_loglik(data, alpha, lam, 1.0)
    assert r.log_likelihood == pytest.approx(best, rel=1e-6)
    for fa, fl in ((1.01, 1.0), (0.99, 1.0), (1.0, 1.05), (1.0, 0.95)):
        a2 = max(alpha * fa, 1.0 + 1e-6)
        assert best >= tpl_loglik(data, a2, lam * fl, 1.0) - 1e-6


def test_truncated_powerlaw_exponent_stays_above_one():
    rng = np.random.default_rng(5)
    data = rng.exponential(2.0, size=1000) + 0.05
    r = fit(data, "truncated-powerlaw")
    assert r.params[0] > 1.0


def nelder_mead_tpl_loglik(data, xmin):
    """Best log-likelihood of the three-restart Nelder-Mead fit that the
    package ran before its projected Newton fit, kept as a test-only oracle."""
    minimize = pytest.importorskip("scipy.optimize").minimize
    n, logsum, xsum = data.size, float(np.log(data).sum()), float(data.sum())

    def neg_loglik(theta):
        alpha, lam = float(theta[0]), float(theta[1])
        if not (_TPL_ALPHA_LO <= alpha <= _TPL_ALPHA_HI and _TPL_RATE_LO <= lam <= _TPL_RATE_HI):
            return math.inf
        return (alpha * logsum + lam * xsum + n * _tpl_log_normalizer(alpha, lam, xmin)) / n

    alpha0 = min(max(fit(data, "powerlaw", xmin).params[0], 1.1), 10.0)
    lam0 = min(max(1.0 / float(data.mean()), _TPL_RATE_LO), 1.0)
    options = {"maxiter": 400, "xatol": 1e-6, "fatol": 1e-10}
    with np.errstate(invalid="ignore"):  # inf - inf in the simplex
        runs = [
            minimize(neg_loglik, x0=np.array(start), method="Nelder-Mead", options=options)
            for start in ((alpha0, lam0), (1.5, lam0), (2.5, lam0 * 0.1))
        ]
    return -min(r.fun for r in runs) * n


def tail_sample(rng, family, n):
    if family == "pareto":
        return pareto_sample(rng, n, alpha=rng.uniform(1.2, 4.0))
    if family == "lognormal":
        return rng.lognormal(rng.uniform(-1.0, 2.0), rng.uniform(0.3, 2.0), n)
    if family == "shifted-exponential":
        return rng.exponential(rng.uniform(0.1, 10.0), n) + rng.uniform(0.01, 3.0)
    if family == "geometric":
        return rng.geometric(rng.uniform(0.02, 0.8), n).astype(np.float64)
    cap = rng.uniform(2.0, 50.0) * (1.0 + rng.exponential(0.1, n))
    return np.minimum(pareto_sample(rng, n, alpha=rng.uniform(1.2, 3.0)), cap)


# Absolute slack on the total log-likelihood against the oracle.
ORACLE_LOGLIK_TOL = 1e-6


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from(["pareto", "lognormal", "shifted-exponential", "geometric", "capped-pareto"]),
    st.integers(min_value=50, max_value=3000),
    st.integers(min_value=0, max_value=2**32 - 1),
)
def test_truncated_powerlaw_fit_is_at_least_the_nelder_mead_oracle(family, n, seed):
    data = tail_sample(np.random.default_rng(seed), family, n)
    r = fit(data, "truncated-powerlaw")
    assert r.log_likelihood >= nelder_mead_tpl_loglik(data, r.xmin) - ORACLE_LOGLIK_TOL


def mpmath_mean_nll_gradient(data, alpha, lam, xmin):
    """(d/dalpha, d/dlam) of the mean negative log-likelihood, differentiated
    in 40-digit mpmath with steps relative to each parameter."""
    mpmath = pytest.importorskip("mpmath")
    logmean, mean = float(np.log(data).mean()), float(data.mean())
    with mpmath.workdps(40):

        def nll(a, lam):
            gamma = mpmath.gammainc(1 - a, lam * xmin, mpmath.inf)
            return a * logmean + lam * mean + (a - 1) * mpmath.log(lam) + mpmath.log(gamma)

        return [
            float(mpmath.diff(nll, (alpha, lam), order, relative=True))
            for order in ((1, 0), (0, 1))
        ]


# KKT tolerances on the mean-NLL gradient: alpha is dimensionless, and the
# lam-derivative, mean(x) - E[x], is measured against mean(x).
KKT_ALPHA_TOL = 1e-7
KKT_RATE_TOL = 1e-7


def fitted_gradient(data):
    r = fit(data, "truncated-powerlaw")
    grad_alpha, grad_lam = mpmath_mean_nll_gradient(data, *r.params, r.xmin)
    return r.params, grad_alpha, grad_lam / data.mean()


def test_truncated_powerlaw_kkt_with_alpha_on_its_bound():
    data = np.random.default_rng(0).exponential(2.0, 1000) + 0.5
    (alpha, lam), grad_alpha, grad_lam = fitted_gradient(data)
    assert alpha == _TPL_ALPHA_LO and _TPL_RATE_LO < lam < _TPL_RATE_HI
    assert grad_alpha > 0  # raising alpha would lower the likelihood
    assert abs(grad_lam) <= KKT_RATE_TOL


def test_truncated_powerlaw_kkt_with_rate_on_its_bound():
    data = pareto_sample(np.random.default_rng(2), 2000, alpha=2.5)
    (alpha, lam), grad_alpha, grad_lam = fitted_gradient(data)
    assert lam == _TPL_RATE_LO and _TPL_ALPHA_LO < alpha < _TPL_ALPHA_HI
    assert grad_lam > 0  # raising lam would lower the likelihood
    assert abs(grad_alpha) <= KKT_ALPHA_TOL


def test_truncated_powerlaw_kkt_at_an_interior_optimum():
    rng = np.random.default_rng(0)
    base = pareto_sample(rng, 3000, alpha=2.0)
    data = base[base * rng.random(base.size) < 5.0]  # capped Pareto
    (alpha, lam), grad_alpha, grad_lam = fitted_gradient(data)
    assert _TPL_ALPHA_LO < alpha < _TPL_ALPHA_HI and _TPL_RATE_LO < lam < _TPL_RATE_HI
    assert abs(grad_alpha) <= KKT_ALPHA_TOL
    assert abs(grad_lam) <= KKT_RATE_TOL


def test_truncated_powerlaw_leaves_the_rate_bound_for_an_optimum_near_it():
    # The optimum is lam = 0.016. Central differences in lam, with steps
    # relative to lam, fall below rounding near lam's bound and stalled
    # there on this sample, 0.14 below the oracle's log-likelihood.
    data = pareto_sample(np.random.default_rng(12), 2000, alpha=3.5)
    (alpha, lam), grad_alpha, grad_lam = fitted_gradient(data)
    assert 1e-3 < lam < _TPL_RATE_HI and _TPL_ALPHA_LO < alpha < _TPL_ALPHA_HI
    assert abs(grad_alpha) <= KKT_ALPHA_TOL
    assert abs(grad_lam) <= KKT_RATE_TOL


def test_fit_validation():
    with pytest.raises(FitError):
        fit([], "exponential")
    with pytest.raises(FitError):
        fit([0.0, 1.0], "exponential")
    with pytest.raises(FitError):
        fit([1.0], "powerlaw", xmin=-1.0)
    with pytest.raises(ValidationError):
        fit([1.0, 2.0], "cauchy")


def test_overflowing_sample_mean_raises_fit_error():
    for family in ("exponential", "powerlaw"):
        with pytest.raises(FitError):
            fit([1e308] * 6, family)
    with pytest.raises(FitError):
        heavy_tail_verdict([1e308] * 6)


def test_truncated_powerlaw_without_finite_point_raises(monkeypatch):
    def overflow(alpha, lam, xmin):
        raise OverflowError

    monkeypatch.setattr(tailfit, "_tpl_log_normalizer", overflow)
    data = pareto_sample(np.random.default_rng(2), 200, alpha=2.5)
    with pytest.raises(FitError):
        fit(data, "truncated-powerlaw")
    with pytest.raises(FitError):
        loglik_ratio(data, "truncated-powerlaw")
    assert heavy_tail_verdict(data).ratios["truncated-powerlaw"] is None


def test_degenerate_samples_do_not_crash():
    r = fit([3.0, 3.0], "exponential")
    assert math.isfinite(r.params[0]) or r.params[0] == math.inf
    ratio = loglik_ratio([1.0, 2.0], "powerlaw")
    assert ratio is not None and isinstance(ratio, float)


# --- ratios ----------------------------------------------------------------


def test_self_ratio_is_zero():
    rng = np.random.default_rng(6)
    data = rng.exponential(3.0, size=200) + 0.01
    assert loglik_ratio(data, "exponential") == 0.0


def test_ratio_signs_on_known_samples():
    rng = np.random.default_rng(7)
    exp_data = rng.exponential(1.0, size=5000) + 1e-9
    assert loglik_ratio(exp_data, "powerlaw") < 0
    assert loglik_ratio(exp_data, "truncated-powerlaw") < 0
    heavy = pareto_sample(rng, 5000, alpha=2.5)
    assert loglik_ratio(heavy, "powerlaw") > 0


def test_ratio_uses_common_xmin():
    rng = np.random.default_rng(8)
    data = pareto_sample(rng, 300, alpha=2.5) * 2.0
    r = loglik_ratio(data, "powerlaw", xmin=2.0)
    alt = fit(data, "powerlaw", xmin=2.0)
    base = fit(data, "exponential", xmin=2.0)
    assert r == pytest.approx(alt.log_likelihood - base.log_likelihood)


# --- Lilliefors ------------------------------------------------------------


def test_lilliefors_needs_five_points():
    with pytest.raises(FitError):
        lilliefors_exp([1.0, 2.0, 3.0, 4.0])


def test_lilliefors_constant_data_rejected():
    # All mass at z = 1: the ECDF steps from 0 to 1 where the fitted
    # exponential has weight 1 - e^{-1} below, so D = 1 - e^{-1}.
    rejected, stat, critical = lilliefors_exp([2.0] * 20)
    assert stat == pytest.approx(1.0 - math.exp(-1.0))
    assert stat > critical and rejected


def test_lilliefors_accepts_exponential_sample():
    rng = np.random.default_rng(9)
    rejected_count = 0
    for _ in range(40):
        data = rng.exponential(2.0, size=500)
        rejected, _, _ = lilliefors_exp(data)
        rejected_count += rejected
    assert rejected_count <= 4  # nominal rate 2.5%


def test_lilliefors_rejects_pareto():
    rng = np.random.default_rng(10)
    data = pareto_sample(rng, 2000, alpha=2.0)
    rejected, stat, critical = lilliefors_exp(data)
    assert rejected and stat > critical


def test_lilliefors_statistic_matches_statsmodels():
    statsmodels = pytest.importorskip("statsmodels.stats.diagnostic")
    rng = np.random.default_rng(11)
    for _ in range(5):
        data = rng.exponential(1.7, size=137)
        _, stat, _ = lilliefors_exp(data)
        want, _ = statsmodels.lilliefors(data, dist="exp", pvalmethod="table")
        assert stat == pytest.approx(float(want), rel=1e-9)


def test_lilliefors_critical_monotone_in_n():
    crits = [_lilliefors_critical(n) for n in (50, 500, 5000)]
    assert crits[0] > crits[1] > crits[2]


@pytest.mark.parametrize("n", [5, 20, 100, 500])
def test_lilliefors_critical_matches_monte_carlo(n):
    # The oracle: the 97.5% point of D over 10,000 exponential samples of size
    # n, which other seeds move by under 1%.
    rng = np.random.default_rng(n)
    stats = [tailfit._exp_dstat(rng.exponential(1.0, size=n)) for _ in range(10_000)]
    table = np.quantile(stats, 1.0 - tailfit.LILLIEFORS_SIGNIFICANCE)
    assert _lilliefors_critical(n) == pytest.approx(table, rel=0.03)


@settings(max_examples=25, deadline=None)
@given(
    st.lists(st.floats(min_value=0.01, max_value=1e6), min_size=5, max_size=60),
    st.floats(min_value=0.1, max_value=100.0),
)
def test_lilliefors_scale_invariant(data, c):
    _, stat1, crit1 = lilliefors_exp(data)
    _, stat2, crit2 = lilliefors_exp([c * x for x in data])
    assert stat1 == pytest.approx(stat2, rel=1e-9)
    assert crit1 == crit2


# --- two-sample statistic --------------------------------------------------


def test_ks_dstat_examples():
    assert ks_dstat([1.0, 1.0], [1.0, 2.0]) == pytest.approx(0.5)
    assert ks_dstat([3, 1, 2], [2, 1, 3]) == 0.0
    with pytest.raises(FitError):
        ks_dstat([], [1.0])


def test_ks_dstat_matches_scipy():
    rng = np.random.default_rng(13)
    for _ in range(20):
        a = rng.normal(0, 1, size=int(rng.integers(3, 80)))
        b = rng.normal(0.3, 1.2, size=int(rng.integers(3, 80)))
        want = scipy.stats.ks_2samp(a, b, method="asymp").statistic
        assert ks_dstat(a, b) == pytest.approx(float(want), abs=1e-12)
        assert ks_dstat(a, b) == ks_dstat(b, a)


@settings(max_examples=25, deadline=None)
@given(
    st.lists(st.floats(allow_nan=False, allow_infinity=False, width=32), min_size=1),
    st.lists(st.floats(allow_nan=False, allow_infinity=False, width=32), min_size=1),
)
def test_ks_dstat_bounds(a, b):
    d = ks_dstat(a, b)
    assert 0.0 <= d <= 1.0


# --- combined verdict ------------------------------------------------------


def test_verdict_on_pareto():
    rng = np.random.default_rng(14)
    v = heavy_tail_verdict(pareto_sample(rng, 3000, alpha=2.5))
    assert v.heavy_tailed and v.lilliefors_rejected
    assert v.ratios["powerlaw"] > 0


def test_verdict_drops_zero_degrees():
    rng = np.random.default_rng(15)
    data = np.concatenate([pareto_sample(rng, 1000, alpha=2.5), np.zeros(200)])
    v = heavy_tail_verdict(data)
    assert v.heavy_tailed


def test_verdict_ratio_or_rejection_logic():
    rng = np.random.default_rng(16)
    v = heavy_tail_verdict(pareto_sample(rng, 2000, alpha=2.5))
    implied = v.lilliefors_rejected or any(
        r is not None and r > 0 for r in v.ratios.values()
    )
    assert v.heavy_tailed == implied
    assert set(v.ratios) == {"powerlaw", "truncated-powerlaw", "lognormal"}


def test_verdict_serialization():
    rng = np.random.default_rng(17)
    v = heavy_tail_verdict(rng.exponential(1.0, 500) + 0.01)
    d = v.to_dict()
    assert set(d) >= {"heavy_tailed", "lilliefors_rejected", "ratios"}


def test_fit_rejects_xmin_above_every_value():
    with pytest.raises(FitError, match="no sample values at or above xmin"):
        fit(np.array([1.0, 2.0, 3.0]), "exponential", xmin=10.0)


def test_lilliefors_rejects_a_negative_value():
    with pytest.raises(FitError, match="nonnegative"):
        lilliefors_exp([1.0, 2.0, 3.0, -1.0, 5.0])
