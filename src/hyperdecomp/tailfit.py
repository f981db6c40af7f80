"""Heavy-tail diagnostics for degree samples.

Fits exponential, power-law, truncated power-law, and lognormal models to
the tail above xmin by maximum likelihood, compares them through
log-likelihood ratios against the exponential baseline, and tests
exponentiality with a Monte Carlo Lilliefors statistic. A sample counts as
heavy-tailed when exponentiality is rejected or any heavy-tailed
alternative beats the exponential fit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import count

import numpy as np

from .core import ValidationError

# scipy.optimize is imported inside the truncated power-law fit, the only
# code that needs it, so importing this module stays cheap.

__all__ = [
    "FitError",
    "FitResult",
    "TailVerdict",
    "FAMILIES",
    "HEAVY_FAMILIES",
    "fit",
    "loglik_ratio",
    "lilliefors_exp",
    "ks_dstat",
    "heavy_tail_verdict",
]

FAMILIES = ("exponential", "powerlaw", "truncated-powerlaw", "lognormal")
HEAVY_FAMILIES = ("powerlaw", "truncated-powerlaw", "lognormal")

_TINY = 1e-12
# Exponent bounds for the truncated power law. The lower bound keeps the
# family from collapsing onto a pure exponential, which would force the
# ratio against the exponential baseline to be nonnegative by nesting.
_TPL_ALPHA_LO = 1.0 + 1e-6
_TPL_ALPHA_HI = 20.0
_TPL_RATE_LO = 1e-10
_TPL_RATE_HI = 1e4
# The normalizer's fraction and series stop at a relative step of _EPS; the
# fraction takes about 90 terms at z = 1 and fewer above.
_EPS = 2.0**-53
_FRACTION_TERMS = 500


class FitError(ValueError):
    pass


@dataclass(frozen=True)
class FitResult:
    family: str
    params: tuple[float, ...]
    log_likelihood: float
    xmin: float
    available: bool = True


@dataclass(frozen=True)
class TailVerdict:
    heavy_tailed: bool
    lilliefors_rejected: bool
    lilliefors_stat: float
    lilliefors_critical: float
    ratios: dict[str, float | None] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "heavy_tailed": self.heavy_tailed,
            "lilliefors_rejected": self.lilliefors_rejected,
            "lilliefors_stat": self.lilliefors_stat,
            "lilliefors_critical": self.lilliefors_critical,
            "ratios": dict(self.ratios),
        }


def _prepare(data, xmin: float | None) -> tuple[np.ndarray, float]:
    x = np.asarray(data, dtype=np.float64).ravel()
    if x.size == 0:
        raise FitError("cannot fit an empty sample")
    if np.any(x <= 0) or not np.all(np.isfinite(x)):
        raise FitError("sample values must be positive and finite")
    if xmin is None:
        xmin = float(x.min())
    if xmin <= 0:
        raise FitError("xmin must be positive")
    tail = x[x >= xmin]
    if tail.size == 0:
        raise FitError("no sample values at or above xmin")
    return tail, float(xmin)


def _fit_exponential(x: np.ndarray, xmin: float) -> FitResult:
    n = x.size
    lam = 1.0 / max(float(x.mean()) - xmin, _TINY)
    loglik = n * (math.log(lam) - 1.0)
    return FitResult("exponential", (lam,), float(loglik), xmin)


def _fit_powerlaw(x: np.ndarray, xmin: float) -> FitResult:
    n = x.size
    logsum = float(np.log(x / xmin).sum())
    alpha = 1.0 + n / max(logsum, _TINY)
    loglik = n * math.log(alpha - 1.0) - n * math.log(xmin) - alpha * logsum
    return FitResult("powerlaw", (alpha,), float(loglik), xmin)


def _fit_lognormal(x: np.ndarray, xmin: float) -> FitResult:
    logs = np.log(x)
    mu = float(logs.mean())
    sigma = max(float(logs.std(ddof=0)), _TINY)
    loglik = float(
        -np.log(x * sigma * math.sqrt(2.0 * math.pi)).sum()
        - ((logs - mu) ** 2).sum() / (2.0 * sigma**2)
    )
    return FitResult("lognormal", (mu, sigma), loglik, xmin)


def _tpl_log_normalizer(alpha: float, lam: float, xmin: float) -> float:
    """log of lam^(alpha-1) * GammaUpper(1 - alpha, lam * xmin).

    With a = 1 - alpha and z = lam * xmin this is a * log(xmin) + log(S),
    where S = z^-a * GammaUpper(a, z) cannot overflow. For z >= 1,
    S = e^-z * h, and h = e^z * E_alpha(z) is a continued fraction summed by
    the modified Lentz method. For z < 1, S is z^-a * e^-1 * h(1), which is
    z^-a * GammaUpper(a, 1), plus z^-a times the integral of t^(a-1) * e^-t over [z, 1], expanded in
    powers of t: term k is (-1)^k / k! * z^min(k, -a) * (1 - z^|a+k|) / |a+k|,
    or z^k * -log(z) at a + k = 0, so integer alpha is no pole. Past
    a + k = 0 the terms shrink, and the sum stops below _EPS of the total.
    """
    a = 1.0 - alpha
    z = lam * xmin
    b = max(z, 1.0) + 1.0 - a
    c, d = math.inf, 1.0 / b
    h = d
    for i in range(1, _FRACTION_TERMS):
        an = -i * (i - a)
        b += 2.0
        d = 1.0 / (an * d + b)
        c = b + an / c
        delta = c * d
        h *= delta
        if abs(delta - 1.0) <= _EPS:
            break
    else:
        raise FitError("truncated power-law normalizer did not converge")
    if z >= 1.0:
        return a * math.log(xmin) + math.log(h) - z
    log_z = math.log(z)
    total = h * math.exp(-1.0 - a * log_z)
    coef = 1.0  # (-1)^k / k!
    for k in count():
        gap = abs(a + k)
        part = -math.expm1(gap * log_z) / gap if gap else -log_z
        term = coef * math.exp(min(k, -a) * log_z) * part
        total += term
        if a + k > 0 and abs(term) <= _EPS * total:
            return a * math.log(xmin) + math.log(total)
        coef /= -(k + 1)


def _fit_truncated_powerlaw(x: np.ndarray, xmin: float) -> FitResult:
    from scipy.optimize import minimize

    n = x.size
    logsum = float(np.log(x).sum())
    xsum = float(x.sum())

    def neg_loglik(theta) -> float:
        alpha, lam = float(theta[0]), float(theta[1])
        if not (_TPL_ALPHA_LO <= alpha <= _TPL_ALPHA_HI):
            return math.inf
        if not (_TPL_RATE_LO <= lam <= _TPL_RATE_HI):
            return math.inf
        try:
            log_z = _tpl_log_normalizer(alpha, lam, xmin)
        except (FitError, ValueError, OverflowError):
            return math.inf
        return (alpha * logsum + lam * xsum + n * log_z) / n

    alpha0 = min(max(_fit_powerlaw(x, xmin).params[0], 1.1), 10.0)
    lam0 = min(max(1.0 / max(float(x.mean()), _TINY), _TPL_RATE_LO), 1.0)
    best = None
    for start in ((alpha0, lam0), (1.5, lam0), (2.5, lam0 * 0.1)):
        res = minimize(
            neg_loglik,
            x0=np.array(start, dtype=np.float64),
            method="Nelder-Mead",
            options={"maxiter": 400, "xatol": 1e-6, "fatol": 1e-10},
        )
        if best is None or res.fun < best.fun:
            best = res
    assert best is not None
    if not math.isfinite(best.fun):
        return FitResult(
            "truncated-powerlaw",
            (math.nan, math.nan),
            math.nan,
            xmin,
            available=False,
        )
    alpha, lam = float(best.x[0]), float(best.x[1])
    return FitResult(
        "truncated-powerlaw", (alpha, lam), float(-best.fun * n), xmin
    )


def fit(data, family: str, xmin: float | None = None) -> FitResult:
    """Maximum-likelihood fit of one model family to the tail above xmin."""
    x, xmin = _prepare(data, xmin)
    if family == "exponential":
        return _fit_exponential(x, xmin)
    if family == "powerlaw":
        return _fit_powerlaw(x, xmin)
    if family == "lognormal":
        return _fit_lognormal(x, xmin)
    if family == "truncated-powerlaw":
        return _fit_truncated_powerlaw(x, xmin)
    raise ValidationError(f"unknown family {family!r}; expected one of {FAMILIES}")


def loglik_ratio(data, family: str, xmin: float | None = None) -> float | None:
    """Log-likelihood of `family` minus the exponential baseline.

    Positive values favor the alternative. Returns None when the
    alternative's fit is unavailable (normalizer underflow).
    """
    alt = fit(data, family, xmin)
    if not alt.available:
        return None
    base = fit(data, "exponential", xmin)
    return float(alt.log_likelihood - base.log_likelihood)


@lru_cache(maxsize=64)
def _lilliefors_critical(
    n: int, significance: float, mc_reps: int, seed: int
) -> float:
    rng = np.random.default_rng(seed)
    stats = np.empty(mc_reps, dtype=np.float64)
    for i in range(mc_reps):
        z = rng.exponential(1.0, size=n)
        stats[i] = _exp_dstat(z)
    return float(np.quantile(stats, 1.0 - significance))


def _exp_dstat(x: np.ndarray) -> float:
    """Sup distance between the sample ECDF and Exp(1/mean)."""
    z = np.sort(x) / x.mean()
    cdf = 1.0 - np.exp(-z)
    n = z.size
    steps = np.arange(1, n + 1, dtype=np.float64) / n
    d_plus = float((steps - cdf).max())
    d_minus = float((cdf - (steps - 1.0 / n)).max())
    return max(d_plus, d_minus)


def lilliefors_exp(
    data,
    significance: float = 0.025,
    mc_reps: int = 1000,
    seed: int = 20_0902,
) -> tuple[bool, float, float]:
    """Lilliefors test of exponentiality with estimated rate.

    Critical values come from a seeded Monte Carlo table, cached per
    sample size. Returns (rejected, statistic, critical_value).
    """
    x = np.asarray(data, dtype=np.float64).ravel()
    if x.size < 5:
        raise FitError("Lilliefors test needs at least 5 observations")
    if np.any(x < 0) or not np.all(np.isfinite(x)):
        raise FitError("sample values must be nonnegative and finite")
    if x.mean() <= 0:
        raise FitError("sample mean must be positive")
    stat = _exp_dstat(x)
    critical = _lilliefors_critical(int(x.size), float(significance), int(mc_reps), int(seed))
    return stat > critical, float(stat), critical


def ks_dstat(a, b) -> float:
    """Two-sample Kolmogorov-Smirnov statistic: sup |F_a - F_b|."""
    xa = np.sort(np.asarray(a, dtype=np.float64).ravel())
    xb = np.sort(np.asarray(b, dtype=np.float64).ravel())
    if xa.size == 0 or xb.size == 0:
        raise FitError("both samples must be nonempty")
    support = np.concatenate([xa, xb])
    fa = np.searchsorted(xa, support, side="right") / xa.size
    fb = np.searchsorted(xb, support, side="right") / xb.size
    return float(np.abs(fa - fb).max())


def heavy_tail_verdict(
    data,
    xmin: float | None = None,
    significance: float = 0.025,
    mc_reps: int = 1000,
    seed: int = 20_0902,
) -> TailVerdict:
    """Combined heavy-tail call on a nonnegative sample.

    Zeros are dropped up front: they carry no tail information and the
    fitted families live on positive support. Ratios that cannot be
    computed are recorded as None and ignored by the verdict.
    """
    x = np.asarray(data, dtype=np.float64).ravel()
    x = x[x > 0]
    rejected, stat, critical = lilliefors_exp(
        x, significance=significance, mc_reps=mc_reps, seed=seed
    )
    ratios: dict[str, float | None] = {}
    for family in HEAVY_FAMILIES:
        try:
            ratios[family] = loglik_ratio(x, family, xmin)
        except FitError:
            ratios[family] = None
    heavy = rejected or any(r is not None and r > 0 for r in ratios.values())
    return TailVerdict(
        heavy_tailed=heavy,
        lilliefors_rejected=rejected,
        lilliefors_stat=stat,
        lilliefors_critical=critical,
        ratios=ratios,
    )
