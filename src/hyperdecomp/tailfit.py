"""Heavy-tail diagnostics for degree samples.

Fits exponential, power-law, truncated power-law, and lognormal models to
the tail above xmin by maximum likelihood, compares them through
log-likelihood ratios against the exponential baseline, and tests
exponentiality with a Lilliefors statistic. A sample counts as
heavy-tailed when exponentiality is rejected or any heavy-tailed
alternative beats the exponential fit.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from itertools import count

import numpy as np

from .core import ValidationError

__all__ = [
    "FitError",
    "FitResult",
    "TailVerdict",
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

# The Lilliefors test's level. `_lilliefors_critical` holds Stephens' point
# for this level, so the two change together.
LILLIEFORS_SIGNIFICANCE = 0.025


class FitError(ValueError):
    pass


@dataclass(frozen=True)
class FitResult:
    family: str
    params: tuple[float, ...]
    log_likelihood: float
    xmin: float


@dataclass(frozen=True)
class TailVerdict:
    heavy_tailed: bool
    lilliefors_rejected: bool
    lilliefors_stat: float
    lilliefors_critical: float
    ratios: dict[str, float | None] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return asdict(self)


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
    with np.errstate(over="ignore"):
        if not math.isfinite(tail.mean()):
            raise FitError("sample mean overflows")
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
    """Projected Newton on the NLL, convex in (alpha, lam). lam's derivatives
    are moments, E[x^k] = Z(alpha - k) / Z(alpha); alpha's are central
    differences. A coordinate on a bound whose gradient points out stays."""
    logmean, mean = float(np.log(x).mean()), float(x.mean())
    lo, hi = np.array([[_TPL_ALPHA_LO, _TPL_RATE_LO], [_TPL_ALPHA_HI, _TPL_RATE_HI]])

    def log_z(alpha, lam):
        try:
            return _tpl_log_normalizer(alpha, lam, xmin)
        except (FitError, ValueError, OverflowError):
            return math.inf

    def nll(theta):
        alpha, lam = map(float, theta)
        return alpha * logmean + lam * mean + log_z(alpha, lam)

    alpha0 = min(max(_fit_powerlaw(x, xmin).params[0], 1.1), 10.0)
    lam0 = min(max(1.0 / max(mean, _TINY), _TPL_RATE_LO), 1.0)
    theta = np.array([alpha0, lam0])
    if not math.isfinite(best := nll(theta)):
        raise FitError("truncated power law: no finite likelihood in the parameter box")
    for _ in range(100):
        alpha, lam = map(float, theta)
        (a0, a1, _), (b0, b1, b2), (c0, c1, _) = (
            [log_z(alpha + h - k, lam) for k in (0, 1, 2)] for h in (-1e-4, 0, 1e-4)
        )
        m = math.exp(b1 - b0)
        cross = (math.exp(a1 - a0) - math.exp(c1 - c0)) / 2e-4
        var = m * m * math.expm1(b2 - 2 * b1 + b0)
        grad = np.array([logmean + (c0 - a0) / 2e-4, mean - m])
        hess = np.array([[(c0 - 2 * b0 + a0) / 1e-8, cross], [cross, var]])
        free = ~((theta <= lo) & (grad > 0) | (theta >= hi) & (grad < 0))
        step = -grad * free
        sub = hess[np.ix_(free, free)]
        if np.isfinite(sub).all() and (np.linalg.eigvalsh(sub) > 0).all():
            step[free] = np.linalg.solve(sub, step[free])
        for k in range(60):
            if (value := nll(trial := np.clip(theta + step / 2**k, lo, hi))) < best:
                break
        else:
            break
        theta, best = trial, value
    return FitResult("truncated-powerlaw", tuple(map(float, theta)), -best * x.size, xmin)


def fit(data, family: str, xmin: float | None = None) -> FitResult:
    """Maximum-likelihood fit of one model family to the tail above xmin."""
    x, xmin = _prepare(data, xmin)
    if family not in FAMILIES:
        raise ValidationError(f"unknown family {family!r}; expected one of {FAMILIES}")
    fitters = (_fit_exponential, _fit_powerlaw, _fit_truncated_powerlaw, _fit_lognormal)
    return fitters[FAMILIES.index(family)](x, xmin)


def loglik_ratio(data, family: str, xmin: float | None = None) -> float:
    """Log-likelihood of `family` minus the exponential baseline.

    Positive values favor the alternative.
    """
    alt = fit(data, family, xmin)
    base = fit(data, "exponential", xmin)
    return float(alt.log_likelihood - base.log_likelihood)


def _lilliefors_critical(n: int) -> float:
    """Upper 2.5% point of D for an exponential with estimated mean: Stephens'
    modified statistic (D - 0.2/n)(sqrt(n) + 0.26 + 0.5/sqrt(n)) has the
    point 1.190 (JASA 69, 1974, Table 1A)."""
    root = math.sqrt(n)
    return 1.190 / (root + 0.26 + 0.5 / root) + 0.2 / n


def _exp_dstat(x: np.ndarray) -> float:
    """Sup distance between the sample ECDF and Exp(1/mean)."""
    z = np.sort(x) / x.mean()
    cdf = 1.0 - np.exp(-z)
    n = z.size
    steps = np.arange(1, n + 1, dtype=np.float64) / n
    d_plus = float((steps - cdf).max())
    d_minus = float((cdf - (steps - 1.0 / n)).max())
    return max(d_plus, d_minus)


def lilliefors_exp(data) -> tuple[bool, float, float]:
    """Lilliefors test of exponentiality with estimated rate.

    The test runs at level LILLIEFORS_SIGNIFICANCE, with Stephens' closed
    form for the critical value. Returns (rejected, statistic, critical_value).
    """
    x = np.asarray(data, dtype=np.float64).ravel()
    if x.size < 5:
        raise FitError("Lilliefors test needs at least 5 observations")
    if np.any(x < 0) or not np.all(np.isfinite(x)):
        raise FitError("sample values must be nonnegative and finite")
    with np.errstate(over="ignore"):
        if not 0 < x.mean() < math.inf:
            raise FitError("sample mean must be positive and finite")
    stat = _exp_dstat(x)
    critical = _lilliefors_critical(int(x.size))
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


def heavy_tail_verdict(data) -> TailVerdict:
    """Combined heavy-tail call on a nonnegative sample.

    Zeros are dropped up front: they carry no tail information and the
    fitted families live on positive support. The fits take the sample
    minimum as xmin. Ratios whose fit raises FitError are recorded as None
    and ignored by the verdict.
    """
    x = np.asarray(data, dtype=np.float64).ravel()
    x = x[x > 0]
    rejected, stat, critical = lilliefors_exp(x)
    ratios: dict[str, float | None] = {}
    for family in HEAVY_FAMILIES:
        try:
            ratios[family] = loglik_ratio(x, family)
        except FitError:
            ratios[family] = None
    heavy = rejected or any(r is not None and r > 0 for r in ratios.values())
    return TailVerdict(heavy, rejected, stat, critical, ratios)
