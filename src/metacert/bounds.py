"""Generalization-certificate calculators.

Every calculator is a pure function returning either a ``Certificate`` (a
risk upper bound tau* at confidence 1 - delta, with an additive budget
breakdown) or a bare float for the comparator-specific corollary forms.

Numerical conventions:

* all probabilities are carried as natural logarithms end to end, so that
  products of tiny priors (e.g. 1/C(2000, 8) * 2^-128 * delta) are routine;
* the two inversions (binary-kl and binomial tail) run Newton's method in
  y = -ln(1 - tau) from the right of the root, then step to its sound side
  (``_sound_root``): the bound evaluated at the returned tau fails by more
  than its float-error margin, so every tau is at or above the exact
  inverse, rounded up by about that margin;
* kl(q, p) is a sum of two non-negative terms, each a series near p = q, so
  it keeps a few ulps of relative accuracy where the textbook form cancels;
* ln C(n, k) is lgamma(n + 1) - lgamma(k + 1) - lgamma(n - k + 1) from
  ``math``, so the package needs numpy and the standard library only;
* counts (sample sizes, set sizes, message bits, error counts) must be
  integers: a bool, a float or any other non-integer raises ``ValueError``;
* results are clamped to [0, 1] only when a ``Certificate`` is built; the
  train-set comparison table deliberately reports unclamped values;
* one builder, ``_certificate``, turns every certificate's three budget
  terms (confidence, message, compression set) into its tau*, and one
  function, ``_invert``, inverts a budget against a certificate's empirical
  record (n, q, K): the total when it is built, the partial sums on first
  read of its breakdown.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass, replace
from typing import Callable, NamedTuple, Sequence

import numpy as np

# The float-error margin of one evaluated bound, per unit of the magnitudes
# rounded to compute it: each lgamma, log, product and sum is within a few eps
# of its own size (measured: kl within 4 eps, math.lgamma within 2.3 eps on
# integers up to 1e9), and 8 eps covers them with room; tests/test_bounds.py
# checks kl and ln C(n, k) against exact values.
_MARGIN = 8 * 2.0 ** -52
_NEWTON_MAX_STEPS = 100


def _count(name: str, value) -> int:
    """``value`` as a Python int: an int or a numpy integer, not a bool."""
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise ValueError(f"{name} must be an integer, got {value!r}")


@dataclass(frozen=True)
class BoundBudget:
    """Inputs shared by the certificate calculators.

    ``m_prime`` is the size of the certified task sample, ``c`` the
    compression-set size, ``b`` the message size in bits, ``emp_loss`` the
    empirical loss on the complement set, ``mu_norm_sq`` the squared norm of
    the Gaussian posterior mean, and ``log_prior_j`` the log-probability of
    the chosen compression set (defaults to the uniform prior over distinct
    sets, -ln C(m', c)).
    """

    m_prime: int
    c: int = 0
    b: int = 0
    delta: float = 0.05
    emp_loss: float = 0.0
    mu_norm_sq: float = 0.0
    log_prior_j: float | None = None

    def __post_init__(self):
        for name in ("m_prime", "c", "b"):
            object.__setattr__(self, name, _count(name, getattr(self, name)))
        if not 0 <= self.c < self.m_prime:
            raise ValueError(f"need 0 <= c < m_prime, got c={self.c}, m_prime={self.m_prime}")
        if self.b < 0:
            raise ValueError("message size b must be >= 0")
        if not 0.0 < self.delta <= 1.0:
            raise ValueError(f"delta must be in (0, 1], got {self.delta}")
        if not 0.0 <= self.emp_loss <= 1.0:
            raise ValueError(f"emp_loss must be in [0, 1], got {self.emp_loss}")
        if not self.mu_norm_sq >= 0.0:
            raise ValueError(f"mu_norm_sq must be >= 0, got {self.mu_norm_sq}")
        if self.log_prior_j is None:
            object.__setattr__(self, "log_prior_j", -log_binomial(self.m_prime, self.c))
        elif not self.log_prior_j <= 0.0:
            raise ValueError(f"log_prior_j is a log-probability, must be <= 0, "
                             f"got {self.log_prior_j}")

    @property
    def n_complement(self) -> int:
        return self.m_prime - self.c


# Breakdown terms follow a fixed order: empirical loss, confidence term,
# message cost, compression-set cost.
_TERMS = ("confidence", "message_cost", "compression_set_cost")


@dataclass(frozen=True)
class Certificate:
    """A certified risk bound: tau* at confidence 1 - delta.

    ``terms`` are the nats it charges (confidence, message, compression set)
    and ``tau_star`` is the inversion of their total against the empirical
    record: ``q``, the empirical loss on ``n`` complement examples, and ``K``,
    the error count of a binomial-tail certificate (``None`` for a kl one;
    its ``q`` is K / n).  ``breakdown`` lists (label, budget contribution in
    nats, cumulative tau after adding the term).  It inverts the two partial
    sums the first time it is read and is kept on the instance; the
    cumulative values are non-decreasing and the last one is ``tau_star``
    itself.  The empirical row shows ``q``; the min-guard keeps the sequence
    monotone where a tail inversion at delta' > 1/2 falls below it.
    """

    kind: str
    tau_star: float
    delta: float
    terms: tuple[float, float, float]
    n: int
    q: float
    K: int | None = None

    @functools.cached_property
    def breakdown(self) -> tuple[tuple[str, float, float], ...]:
        *partial, _ = itertools.accumulate(self.terms)
        taus = [*(_invert(self.n, self.q, self.K, nats) for nats in partial), self.tau_star]
        return (("empirical_loss", 0.0, min(self.q, taus[0])),
                *zip(_TERMS, self.terms, taus))


def _invert(n: int, q: float, K: int | None, nats: float) -> float:
    """The tau a budget of ``nats`` buys: kl_inverse(q, nats / n), or
    binomial_tail_inverse(n, K, -nats) for K errors in n."""
    return kl_inverse(q, nats / n) if K is None else binomial_tail_inverse(n, K, -nats)


# ---------------------------------------------------------------------------
# primitives


def bernoulli_kl(q: float, p: float) -> float:
    """KL divergence between Bernoulli(q) and Bernoulli(p), with 0 ln 0 = 0."""
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"q must be in [0, 1], got {q}")
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must be in [0, 1], got {p}")
    if p in (0.0, 1.0):
        if q == p:
            return 0.0
        raise ValueError(f"kl(q={q}, p={p}) diverges for p in {{0, 1}} with q != p")
    return _kl(q, p)


def _kl(q: float, p: float) -> float:
    """kl(q, p) for p strictly inside (0, 1), to a few ulps even near p = q.

    It is the sum over both outcomes of a ln(a / b) + b - a (a from q, b from
    p; the b - a cancel), each term >= 0, so the two do not cancel each other.
    """
    return _kl_term(q, p, q - p) + _kl_term(1.0 - q, 1.0 - p, p - q)


def _kl_term(a: float, b: float, diff: float) -> float:
    """a ln(a / b) + b - a >= 0 for a >= 0 and b > 0, given diff = a - b.

    With v = diff / (a + b), ln(a / b) = 2 atanh(v).  For |v| >= 1/3 (a / b
    outside (1/2, 2)) the two terms cancel by at most a factor of 4;
    nearer a = b, where they cancel to second order, the term is the series
    diff v + 2a (v^3/3 + v^5/5 + ...), whose first term dominates the rest.
    Where a / b overflows (b subnormal), ln(a / b) is ln a - ln b.
    """
    v = diff / (a + b)
    if abs(v) >= 1.0 / 3.0:
        ratio = a / b if a else 1.0
        return a * (math.log(ratio) if ratio < math.inf else math.log(a) - math.log(b)) - diff
    total, power, v2 = diff * v, 2.0 * a * v, v * v
    for j in itertools.count(3, 2):
        power *= v2
        if total + power / j == total:
            return total
        total += power / j


def kl_inverse(q: float, budget: float) -> float:
    """sup { tau in [q, 1] : kl(q, tau) <= budget }, rounded up: the returned
    tau is at or above the exact inverse.

    In y = -ln(1 - tau), kl(q, .) = (1 - q) y - q ln tau - H(q) is convex and
    increasing right of q, with slope (tau - q) / tau.  Newton's method starts
    right of the root, at the smaller of (budget + H(q)) / (1 - q) (from
    -q ln tau >= 0) and Pinsker's tau = q + sqrt(budget / 2); see
    ``_sound_root``.  Monotone non-decreasing in both arguments up to that
    rounding; a zero budget pins tau = q.
    """
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"q must be in [0, 1], got {q}")
    if not budget >= 0.0:
        raise ValueError(f"budget must be >= 0, got {budget}")
    if budget == 0.0 or q == 1.0:
        return q
    entropy = -sum(a * math.log(a) for a in (q, 1.0 - q) if a)
    pinsker = q + math.sqrt(budget / 2.0)
    y = min((budget + entropy) / (1.0 - q),
            -math.log1p(-pinsker) if pinsker < 1.0 else math.inf)

    def excess(tau: float) -> tuple[float, float]:
        # kl(q, .) - budget beyond its margin, and its slope in y; a tau
        # rounded to the left of q is never past the root
        return _kl(q, max(q, tau)) - budget * (1.0 + _MARGIN), (tau - q) / tau

    return _sound_root(y, excess)


def _sound_root(y: float, excess: Callable[[float], tuple[float, float]]) -> float:
    """tau = 1 - e^-y at or above the root of an inversion in y = -ln(1 - tau).

    ``excess(tau)`` is how far the bound at the float tau is violated beyond
    its float-error margin, with its slope in y; where it is positive, the
    exact root lies below tau.  The excess rises with y and is convex in it,
    so Newton's steps from ``y``, right of the root, fall toward the excess's
    root without crossing it, until float noise stops them.  Until the excess
    is positive, y then rises: first by Newton's step, which from the left of
    the root lands right of it, then to h, 3h, 7h, ... above (h = ulp(y)).
    """
    # y > 0 keeps tau > 0; at y = 37, tau is the largest float below 1
    y = min(max(y, math.ulp(0.0)), 37.0)
    tau = -math.expm1(-y)
    e, slope = excess(tau)
    for _ in range(_NEWTON_MAX_STEPS):
        new_y = y - e / slope if slope > 0.0 else y
        if not 0.0 < new_y < y:
            break
        y, tau = new_y, -math.expm1(-new_y)
        e, slope = excess(tau)
    rise, h = (-e / slope if slope > 0.0 else 0.0), math.ulp(y)
    while not e > 0.0:
        y += max(rise, h)
        rise, h = 0.0, 2.0 * h
        tau = -math.expm1(-y)
        if tau == 1.0:
            return tau
        e, slope = excess(tau)
    return tau


def log_binomial(n: int, k: int) -> float:
    """ln C(n, k) = ln n! - ln k! - ln (n - k)!, by ``math.lgamma``."""
    n, k = _count("n", n), _count("k", k)
    if not 0 <= k <= n:
        raise ValueError(f"need 0 <= k <= n, got n={n}, k={k}")
    return math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)


def binomial_tail_inverse(n: int, K: int, log_delta_prime: float) -> float:
    """sup { r : sum_{k=0}^{K} C(n,k) r^k (1-r)^(n-k) >= exp(log_delta_prime) },
    rounded up: the returned r is at or above the exact supremum.

    The binomial CDF is carried in log space (the budget routinely sits around
    e^-53).  The sum starts at k = 0, the standard binomial-tail test-set
    convention.  The result grows with K and with |log_delta_prime|.  In
    y = -ln(1 - r), with v = (1 - r) / r,

        ln CDF = ln C(n, K) + K ln r - (n - K) y + ln S,  d ln CDF / dy = -(n - K) / S,
        S = sum_j C(n, K - j) / C(n, K) v^j = 1 + c_0 v (1 + c_1 v (1 + ...)),

    with c_j = (K - j) / (n - K + j + 1).  ln CDF is decreasing and concave in
    y, so Newton's method falls to the root from the right (``_sound_root``):
    from the point where the Chernoff bound ln CDF <= n H(K / n) - (n - K) y
    (K ln r <= 0 dropped) reaches the threshold.  S is summed until the terms
    left, below a geometric tail because the c_j fall with j, are under 1e-17
    of it.
    """
    n, K = _count("n", n), _count("K", K)
    if not 0 <= K <= n:
        raise ValueError(f"need 0 <= K <= n, got n={n}, K={K}")
    t = log_delta_prime
    if not t <= 0.0:
        raise ValueError(f"log_delta_prime is a log-probability, must be <= 0, got {t}")
    if K == n or t == -math.inf:
        return 1.0  # CDF >= delta' everywhere
    if t == 0.0:
        return 0.0  # CDF(r) < 1 for every r > 0
    n_minus_K = n - K
    log_coeff = log_binomial(n, K)
    lgamma_sizes = 2.0 * math.lgamma(n + 1)  # ln C(n, K)'s three lgammas sum to at most this
    c = (np.arange(K, 0, -1) / np.arange(n_minus_K + 1, n + 1)).tolist()

    def excess(r: float) -> tuple[float, float]:
        """t - ln CDF(r) - margin, and its slope in y, (n - K) / S.  The
        margin is _MARGIN times the sizes of what ln CDF rounds: its lgammas,
        K ln r, (n - K) ln(1 - r) and ln S, plus one per product behind S."""
        v = (1.0 - r) / r
        s = term = 1.0
        for c_j in c:
            ratio = c_j * v
            term *= ratio
            s += term
            if term * ratio <= 1e-17 * s * (1.0 - ratio):
                break
        parts = (K * math.log(r), n_minus_K * math.log1p(-r), math.log(s))
        margin = _MARGIN * (lgamma_sizes + abs(parts[0]) + abs(parts[1]) + parts[2] + K)
        return t - (log_coeff + sum(parts)) - margin, n_minus_K / s

    entropy_nats = -sum(k * math.log(k / n) for k in (K, n_minus_K) if k)
    return _sound_root((entropy_nats - t) / n_minus_K, excess)


def gaussian_kl(mu) -> float:
    """KL( N(mu, I) || N(0, I) ) = ||mu||^2 / 2."""
    mu = np.asarray(mu, dtype=np.float64).reshape(-1)
    if np.isnan(mu).any():
        raise ValueError(f"mu must not contain NaN, got {mu.tolist()}")
    return 0.5 * float(mu @ mu)


def renyi_divergence_gaussian(mu, alpha: float) -> float:
    """Renyi divergence D_alpha( N(mu, I) || N(0, I) ) = alpha ||mu||^2 / 2."""
    if not alpha > 1.0:
        raise ValueError(f"alpha must be > 1, got {alpha}")
    return alpha * gaussian_kl(mu)


# ---------------------------------------------------------------------------
# certificates

def _certificate(kind: str, budget: BoundBudget, confidence_nats: float,
                 message_nats: float, K: int | None = None) -> Certificate:
    """The certificate charging confidence, message and compression-set nats,
    in order, for ``budget.emp_loss`` on the complement set, or for ``K``
    errors there: the inversion of their total, summed in the order of the
    breakdown's cumulative sums, which it leaves to its first read."""
    n = budget.n_complement
    q = budget.emp_loss if K is None else K / n
    terms = (confidence_nats, message_nats, -budget.log_prior_j)
    *_, total = itertools.accumulate(terms)
    return Certificate(kind, _invert(n, q, K, total), budget.delta, terms, n, q, K)


def bound_pb(budget: BoundBudget) -> Certificate:
    """PAC-Bayes certificate for the Gaussian-latent hypernetwork.

    tau* = kl_inverse(q, (||mu||^2/2 + ln(2 sqrt(m')/delta)) / m'); certifies
    the posterior-expected loss on the task distribution.  It is
    ``bound_pbsch`` without a compression set, whose cost -ln C(m', 0) is
    +0.0: there is no set to put a prior on, so ``log_prior_j`` is ignored.
    """
    if budget.c != 0:
        raise ValueError("the PAC-Bayes certificate has no compression set (c must be 0)")
    return replace(bound_pbsch(replace(budget, log_prior_j=None)), kind="PB")


def bound_sch_binary(budget: BoundBudget, K: int) -> Certificate:
    """Binomial-tail certificate for 0-1 losses.

    ``K`` is the integer count of errors on the complement set; the inversion
    runs at log confidence ln(delta) + log_prior_j - b ln 2.
    """
    n, K = budget.n_complement, _count("K", K)
    if not 0 <= K <= n:
        raise ValueError(f"error count K={K} outside [0, {n}]")
    return _certificate("SCH_BINARY", budget, confidence_nats=math.log(1.0 / budget.delta),
                        message_nats=budget.b * math.log(2.0), K=K)


def bound_sch_real(budget: BoundBudget) -> Certificate:
    """kl certificate for [0, 1]-valued losses of a sample-compressed predictor.

    tau* = kl_inverse(q, (ln(1/P_J(j)) + (b+1) ln 2 + ln sqrt(m'-c) + ln(1/delta)) / (m'-c)).
    """
    n = budget.n_complement
    return _certificate("SCH_REAL", budget,
                        confidence_nats=math.log(2.0 * math.sqrt(n) / budget.delta),
                        message_nats=budget.b * math.log(2.0))


def bound_pbsch(budget: BoundBudget) -> Certificate:
    """Hybrid certificate: compression set plus Gaussian message posterior.

    tau* = kl_inverse(q, (||mu||^2/2 + ln(1/P_J(j)) + ln(2 sqrt(m'-c)/delta)) / (m'-c));
    certifies the message-posterior-expected loss.  With c = 0 and the
    default prior it is ``bound_pb``.
    """
    n = budget.n_complement
    return _certificate("PBSCH", budget,
                        confidence_nats=math.log(2.0 * math.sqrt(n) / budget.delta),
                        message_nats=0.5 * budget.mu_norm_sq)


def bound_pbsch_disintegrated(budget: BoundBudget) -> Certificate:
    """Single-draw variant of the hybrid certificate (Renyi order alpha = 2).

    tau* = kl_inverse(q, (||mu||^2 + ln(1/P_J(j)) + ln(16 sqrt(m'-c)/delta^3)) / (m'-c));
    certifies the one predictor decoded from a message sampled once from the
    posterior.  Strictly looser than ``bound_pbsch`` on the same inputs.
    """
    n = budget.n_complement
    return _certificate(
        "PBSCH_DISINTEGRATED", budget,
        confidence_nats=math.log(16.0) + 0.5 * math.log(n) + 3.0 * math.log(1.0 / budget.delta),
        message_nats=budget.mu_norm_sq)


def _check_comparator_inputs(emp_loss: float, kl_msg: float, log_prior_j: float,
                             delta: float) -> None:
    """The input checks both comparator bounds share; NaN fails each of them."""
    if not math.isfinite(emp_loss):
        raise ValueError(f"emp_loss must be finite, got {emp_loss}")
    if not kl_msg >= 0.0:
        raise ValueError(f"kl_msg must be >= 0, got {kl_msg}")
    if not log_prior_j <= 0.0:
        raise ValueError(f"log_prior_j must be <= 0, got {log_prior_j}")
    if not 0.0 < delta <= 1.0:
        raise ValueError(f"delta must be in (0, 1], got {delta}")


def bound_catoni(C_param: float, exp_emp_loss: float, kl_msg: float,
                 log_prior_j: float, delta: float, n_eff: int) -> float:
    """Catoni-comparator bound, clamped to [0, 1].

    (1/(1-e^-C)) * [1 - exp(-C q - (kl_msg - ln(P_J(j) delta)) / n_eff)].
    """
    if not 0.0 < C_param < math.inf:
        raise ValueError(f"C must be finite and > 0, got {C_param}")
    scale = 1.0 - math.exp(-C_param)
    if scale == 0.0:
        raise ValueError(f"C must be large enough that 1 - e^-C > 0 in floats, got {C_param}")
    _check_comparator_inputs(exp_emp_loss, kl_msg, log_prior_j, delta)
    if not 0.0 <= exp_emp_loss <= 1.0:
        raise ValueError(f"emp_loss must be in [0, 1], got {exp_emp_loss}")
    exponent = -C_param * exp_emp_loss - (kl_msg - (log_prior_j + math.log(delta))) / n_eff
    value = (1.0 - math.exp(exponent)) / scale
    return min(1.0, max(0.0, value))


def bound_linear_subgaussian(lambda_: float, sigma_sq: float, emp_loss: float,
                             kl_msg: float, log_prior_j: float, delta: float,
                             n_eff: int, n_minus_j: int) -> float:
    """Linear-comparator bound for a sigma^2-sub-Gaussian loss.

    emp_loss + [kl_msg - log_prior_j + ln(1/delta) + (n-|j|) lambda^2 sigma^2 / 2]
    / (lambda n_eff), with a Dirac prior collapsing the log-moment term to its
    single summand.  Not clamped: sub-Gaussian losses need not live in [0, 1].
    """
    if not 0.0 < lambda_ < math.inf:
        raise ValueError(f"lambda must be finite and > 0, got {lambda_}")
    if not sigma_sq >= 0.0:
        raise ValueError(f"sigma_sq must be >= 0, got {sigma_sq}")
    _check_comparator_inputs(emp_loss, kl_msg, log_prior_j, delta)
    log_mgf = n_minus_j * lambda_ * lambda_ * sigma_sq / 2.0
    return emp_loss + (kl_msg - log_prior_j + math.log(1.0 / delta) + log_mgf) / (lambda_ * n_eff)


# ---------------------------------------------------------------------------
# train-set vs complement-set comparison


class GapRow(NamedTuple):
    val_loss: float
    bound_squared: float
    bound_kl_pinsker: float
    gap: float


def compare_trainset_bounds(m: int, comp_size: int, kl_val: float, delta: float,
                            val_loss_grid: Sequence[float]) -> list[GapRow]:
    """Compare the train-set (squared-comparator) bound against the relaxed
    complement-set kl bound (via Pinsker), over a grid of complement losses.

    Assumes zero loss on the compression set and a Dirac-like prior on one
    compression set of size ``comp_size``, so the train loss is
    (m - comp_size)/m * val_loss.  Values are deliberately unclamped; the gap
    column is bound_squared - bound_kl_pinsker.
    """
    if not 0 <= comp_size < m:
        raise ValueError(f"need 0 <= comp_size < m, got comp_size={comp_size}, m={m}")
    if not kl_val >= 0.0:
        raise ValueError(f"kl_val must be >= 0, got {kl_val}")
    if not 0.0 < delta <= 1.0:
        raise ValueError(f"delta must be in (0, 1], got {delta}")
    n = m - comp_size
    log_conf = math.log(2.0 * math.sqrt(n) / delta)
    # exp(2 n comp_size / m) carried in log space: it only ever enters as nats
    sq_nats = kl_val + 2.0 * n * comp_size / m + log_conf
    kl_nats = kl_val + log_conf
    rows = []
    for v in val_loss_grid:
        if not 0.0 <= v <= 1.0:
            raise ValueError(f"val_loss must be in [0, 1], got {v}")
        bound_sq = n / m * v + math.sqrt(sq_nats / (2.0 * n))
        bound_kl = v + math.sqrt(kl_nats / n / 2.0)
        rows.append(GapRow(v, bound_sq, bound_kl, bound_sq - bound_kl))
    return rows
