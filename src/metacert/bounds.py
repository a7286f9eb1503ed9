"""Generalization-certificate calculators.

Every calculator is a pure function returning either a ``Certificate`` (a
risk upper bound tau* at confidence 1 - delta, with an additive budget
breakdown) or a bare float for the comparator-specific corollary forms.

Numerical conventions:

* all probabilities are carried as natural logarithms end to end, so that
  products of tiny priors (e.g. 1/C(2000, 8) * 2^-128 * delta) are routine;
* the two inversions (binary-kl and binomial tail) are bisections,
  tolerance 1e-12 on the argument with a hard cap of 200 iterations, and
  one routine, ``_bisect``, takes every step under those rules; the
  binomial-tail inversion lists with it the path a guess of the root
  predicts, evaluates that path in one batch, and applies the exact
  decisions only up to the first one the guess got wrong, so each step it
  takes, and its result, is the plain bisection's;
* ln C(n, k) is built from ``_log_factorial``, a port of Cephes ``lgam``
  (the routine behind ``scipy.special.gammaln``) that returns its bits, so
  the package needs numpy and the standard library only;
* counts (sample sizes, set sizes, message bits, error counts) must be
  integers: a bool, a float or any other non-integer raises ``ValueError``;
* results are clamped to [0, 1] only when a ``Certificate`` is built; the
  train-set comparison table deliberately reports unclamped values;
* one builder, ``_certificate``, turns every certificate's three budget
  terms (confidence, message, compression set) into its tau*: one inversion
  of the total, plus the partial sums on first read of its breakdown.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass, replace
from typing import Callable, NamedTuple, Sequence

import numpy as np

_BISECT_TOL = 1e-12
_BISECT_MAX_ITER = 200
_GUESS_MAX_STEPS = 50


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
class KlInversion:
    """The taus of a kl certificate: a budget of ``nats`` inverts to
    kl_inverse(q, nats / n)."""

    q: float
    n: int

    @property
    def empirical(self) -> float:
        return self.q

    def taus(self, budgets: Sequence[float]) -> list[float]:
        return [kl_inverse(self.q, nats / self.n) for nats in budgets]


@dataclass(frozen=True)
class TailInversion:
    """The taus of a binomial-tail certificate, K errors in n: a budget of
    ``nats`` inverts to binomial_tail_inverse(n, K, -nats), all budgets in
    one ``binomial_tail_inverses`` call."""

    n: int
    K: int

    @property
    def empirical(self) -> float:
        return self.K / self.n

    def taus(self, budgets: Sequence[float]) -> list[float]:
        return binomial_tail_inverses(self.n, self.K, [-nats for nats in budgets])


@dataclass(frozen=True)
class Certificate:
    """A certified risk bound: tau* at confidence 1 - delta.

    ``terms`` are the nats it charges (confidence, message, compression set)
    and ``inversion`` turns a budget of nats into a tau; ``tau_star`` is the
    inversion of their total.  ``breakdown`` lists (label, budget contribution
    in nats, cumulative tau after adding the term).  It inverts the two
    partial sums the first time it is read and is kept on the instance; the
    cumulative values are non-decreasing and the last one is ``tau_star``
    itself.  The empirical row shows the inversion's empirical loss; the
    min-guard keeps the sequence monotone where a tail inversion at
    delta' > 1/2 falls below it.
    """

    kind: str
    tau_star: float
    delta: float
    terms: tuple[float, float, float]
    inversion: KlInversion | TailInversion

    @functools.cached_property
    def breakdown(self) -> tuple[tuple[str, float, float], ...]:
        *partial, _ = itertools.accumulate(self.terms)
        taus = [*self.inversion.taus(partial), self.tau_star]
        return (("empirical_loss", 0.0, min(self.inversion.empirical, taus[0])),
                *zip(_TERMS, self.terms, taus))


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
    return _kl_from(q)(p)


def _kl_from(q: float) -> Callable[[float], float]:
    """kl(q, .) on p strictly inside (0, 1): ``bernoulli_kl``'s arithmetic
    without its checks, as one Python call per step of ``kl_inverse``."""
    def kl(p: float) -> float:
        left = 0.0 if q == 0.0 else q * math.log(q / p)
        right = 0.0 if q == 1.0 else (1.0 - q) * math.log((1.0 - q) / (1.0 - p))
        return left + right
    return kl


def kl_inverse(q: float, budget: float) -> float:
    """sup { tau in [q, 1] : kl(q, tau) <= budget }, by bisection.

    Monotone non-decreasing in both arguments; a zero budget pins tau = q.
    """
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"q must be in [0, 1], got {q}")
    if not budget >= 0.0:
        raise ValueError(f"budget must be >= 0, got {budget}")
    if budget == 0.0 or q == 1.0:
        return q
    # kl(q, .) is 0 at q and diverges at 1, so the root is bracketed
    return _bisect(q, 1.0, _kl_from(q), budget)[0]


def _bisect(lo: float, hi: float, f: Callable[[float], float], bound: float,
            max_steps: int = _BISECT_MAX_ITER) -> tuple[float, list[float]]:
    """The bisection behind every inversion: the final ``lo`` and the
    midpoints visited from (lo, hi), for a non-decreasing ``f``.

    Each step moves ``lo`` up to the midpoint where ``f(mid) <= bound`` and
    ``hi`` down to it otherwise.  It stops before a midpoint that is not
    strictly inside (lo, hi) (the interval is exhausted at float resolution),
    once ``hi - lo <= _BISECT_TOL``, or after ``max_steps`` steps.  ``f`` is
    called once per step, so it should cost one call: a builtin (``float``)
    or a closure (``_kl_from``), not a partial or a lambda around another
    function, each of which adds a call per step.
    """
    path = []
    for _ in range(max_steps):
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        path.append(mid)
        if f(mid) <= bound:
            lo = mid
        else:
            hi = mid
        if hi - lo <= _BISECT_TOL:
            break
    return lo, path


def log_binomial(n: int, k: int) -> float:
    """ln C(n, k) = ln n! - ln k! - ln (n - k)!."""
    n, k = _count("n", n), _count("k", k)
    if not 0 <= k <= n:
        raise ValueError(f"need 0 <= k <= n, got n={n}, k={k}")
    return _log_factorial(n) - _log_factorial(k) - _log_factorial(n - k)


def _log_binomials(n: int, K: int) -> np.ndarray:
    """ln C(n, k) for k = 0..K, each entry the bits of ``log_binomial(n, k)``."""
    return (_log_factorial(n) - np.fromiter(map(_log_factorial, range(K + 1)), float, K + 1)
            - np.fromiter(map(_log_factorial, range(n, n - K - 1, -1)), float, K + 1))


# Cephes lgam's coefficients for 13 <= x < 1000 (Moshier 1989)
_LGAM_A = (8.11614167470508450300E-4, -5.95061904284301438324E-4, 7.93650340457716943945E-4,
           -2.77777777730099687205E-3, 8.33333333333331927722E-2)
_LN_SQRT_2PI = 0.91893853320467274178


@functools.lru_cache(maxsize=4096)
def _log_factorial(n: int) -> float:
    """ln n! = ln Gamma(n + 1) for an integer n >= 0, bit for bit Cephes
    ``lgam(n + 1)``: its branches and float operations in its order, with
    ``math.log`` for the C library's ``log``.  For n + 1 < 13 that is the
    log of the exact product; from 13 it is Stirling's series with fewer
    correction terms as n grows (none past 1e8); past 2.556348e305, inf.
    The cache is bounded: an inversion looks up 2 (K + 1) values, and ``n``
    can be anything."""
    x = float(n + 1)
    if x < 13.0:
        z, u = 1.0, x
        while u >= 3.0:
            u -= 1.0
            z *= u
        return math.log(z)
    if x > 2.556348e305:
        return math.inf
    q = (x - 0.5) * math.log(x) - x + _LN_SQRT_2PI
    if x > 1.0e8:
        return q
    p = 1.0 / (x * x)
    if x >= 1000.0:
        return q + ((7.9365079365079365079365e-4 * p - 2.7777777777777777777778e-3) * p
                    + 0.0833333333333333333333) / x
    a = 0.0
    for coeff in _LGAM_A:
        a = a * p + coeff
    return q + a / x


def binomial_tail_inverse(n: int, K: int, log_delta_prime: float) -> float:
    """sup { r : sum_{k=0}^{K} C(n,k) r^k (1-r)^(n-k) >= exp(log_delta_prime) }.

    The binomial CDF is summed in log space (the budget routinely sits around
    e^-53), and the supremum is found by bisection.  The sum starts at k = 0,
    the standard binomial-tail test-set convention.  The result grows with K
    and with |log_delta_prime|.  The one-threshold call of
    ``binomial_tail_inverses``.
    """
    return binomial_tail_inverses(n, K, (log_delta_prime,))[0]


def binomial_tail_inverses(n: int, K: int,
                           log_delta_primes: Sequence[float]) -> list[float]:
    """``binomial_tail_inverse`` at each threshold, each bisection's path
    evaluated in speculated batches.

    Each round lists, for every unfinished threshold, the midpoints its
    bisection would visit from the current bracket if every decision went the
    way a fixed guess of the root predicts (``_root_guesses``): ``_bisect``
    with the identity for ``f`` and the guess for ``bound``, so under the
    scalar bisection's own stop rules and its remaining steps.  The log
    CDF at all listed midpoints is then one (midpoints, K + 1) array, and each
    bisection replays its list with the exact decisions up to the first one
    the guess got wrong; the next round re-speculates from there.  Up to that
    point every listed midpoint is the one the bisection itself computes, and
    ``math.log`` / ``math.log1p`` are taken per midpoint, so every result
    equals the one-threshold bisection's bit for bit whatever the guesses are.
    Each round consumes at least one step of every unfinished bisection.
    """
    n, K = _count("n", n), _count("K", K)
    if not 0 <= K <= n:
        raise ValueError(f"need 0 <= K <= n, got n={n}, K={K}")
    for t in log_delta_primes:
        if not t <= 0.0:
            raise ValueError(f"log_delta_prime is a log-probability, must be <= 0, got {t}")
    if K == n:
        return [1.0] * len(log_delta_primes)  # CDF is identically 1
    k = np.arange(K + 1)
    n_minus_k = n - k
    log_coeffs = _log_binomials(n, K)
    guesses = _root_guesses(n, K, log_delta_primes)
    # CDF(0) = 1 >= delta', CDF(1) = 0 < delta'
    lo = [0.0] * len(log_delta_primes)
    hi = [1.0] * len(log_delta_primes)
    steps = [0] * len(log_delta_primes)
    active = range(len(log_delta_primes))
    while True:
        # a row with no next midpoint is exhausted at float resolution or capped
        paths = {i: _bisect(lo[i], hi[i], float, guesses[i], _BISECT_MAX_ITER - steps[i])[1]
                 for i in active}
        active = [i for i in active if paths[i]]
        if not active:
            return lo
        mids = [mid for i in active for mid in paths[i]]
        log_r = np.array([math.log(mid) for mid in mids])[:, None]
        log_s = np.array([math.log1p(-mid) for mid in mids])[:, None]
        terms = log_coeffs + k * log_r + n_minus_k * log_s
        top = terms.max(axis=1)
        sums = np.exp(terms - top[:, None]).sum(axis=1)
        top, sums = top.tolist(), sums.tolist()
        # The replay stays a loop of its own: it stops at the first decision the
        # guess got wrong and carries both ends of the bracket into the next
        # round, which _bisect could express only through a Python callback
        # per step, a cost this function would pay at every midpoint.
        row = 0
        for i in active:
            for j, mid in enumerate(paths[i], row):
                above = top[j] + math.log(sums[j]) >= log_delta_primes[i]
                steps[i] += 1
                if above:
                    lo[i] = mid
                else:
                    hi[i] = mid
                if hi[i] - lo[i] <= _BISECT_TOL or above != (mid <= guesses[i]):
                    break  # converged, or the rest of the path is not the bisection's
            row += len(paths[i])
        active = [i for i in active if hi[i] - lo[i] > _BISECT_TOL]


def _root_guesses(n: int, K: int, log_delta_primes: Sequence[float]) -> list[float]:
    """An estimate of each root of ln CDF(r) = t, which
    ``binomial_tail_inverses`` uses only to predict its bisections'
    decisions: any value, NaN included, leaves its results unchanged.

    K = 0 has the closed form 1 - e^(t/n), and t = 0 the root 0.  Otherwise
    Newton's method runs in y = -ln(1 - r), where ln CDF is decreasing and
    concave, so from the right of a root it falls to it monotonically.  With
    v = (1 - r) / r = 1 / (e^y - 1),

        ln CDF = ln C(n, K) + K ln r - (n - K) y + ln S,  d ln CDF / dy = -(n - K) / S,
        S = sum_j C(n, K - j) / C(n, K) v^j = 1 + c_0 v (1 + c_1 v (1 + ...)),

    with c_j = (K - j) / (n - K + j + 1).  The c_j fall with j, so the
    geometric tail 1 / (1 - c_0 v) exceeds S and the root of ln CDF with it
    in place of S lies right of the exact one.  Newton finds that root
    first, at O(1) per step, from the point where the Chernoff bound
    ln CDF <= n H(K / n) + K ln r - (n - K) y, with K ln r <= 0 dropped,
    reaches t.  A few exact steps follow, each summing S only until its
    terms fall below float resolution.  ``math.log1p`` is not called: the
    bisection's own calls count its midpoints.
    """
    if K == 0:
        return [-math.expm1(t / n) for t in log_delta_primes]
    n_minus_K = n - K
    log_coeff = _log_factorial(n) - _log_factorial(K) - _log_factorial(n_minus_K)
    c = (np.arange(K, 0, -1) / np.arange(n_minus_K + 1, n + 1)).tolist()
    entropy_nats = -K * math.log(K / n) - n_minus_K * math.log(n_minus_K / n)
    guesses = []
    for t in log_delta_primes:
        if t == 0.0:
            guesses.append(0.0)  # CDF(r) < 1 for every r > 0
            continue
        # t = -inf starts at y = inf, where the first step is NaN: r = 1
        y = (entropy_nats - t) / n_minus_K
        for exact, tol in ((False, 1e-3), (True, 1e-7)):
            for _ in range(_GUESS_MAX_STEPS):
                r = -math.expm1(-y)
                v = math.exp(-y) / r
                if exact:
                    s = term = 1.0
                    for c_j in c:
                        term *= c_j * v
                        s += term
                        if term <= 1e-17 * s:
                            break
                    y_per_nat = s / n_minus_K  # -1 / (d ln CDF / dy)
                else:
                    w = c[0] * v
                    if not w < 1.0:
                        break
                    s = 1.0 / (1.0 - w)
                    y_per_nat = 1.0 / (n_minus_K + w * s / r - K * v)
                log_cdf = log_coeff + K * math.log(r) - n_minus_K * y + math.log(s)
                new_y = y + (log_cdf - t) * y_per_nat
                if not 0.0 < new_y < math.inf:
                    break  # NaN or an overflow: the iterate before it stands
                y, step = new_y, abs(new_y - y)
                if step <= tol * y:
                    break
        guesses.append(-math.expm1(-y))
    return guesses


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

def _certificate(kind: str, delta: float, terms: tuple[float, float, float],
                 inversion: KlInversion | TailInversion) -> Certificate:
    """The certificate charging ``terms`` (confidence, message and compression-set
    nats) in order: ``inversion`` of their total, summed in the order of the
    breakdown's cumulative sums, which it leaves to its first read."""
    *_, total = itertools.accumulate(terms)
    tau_star, = inversion.taus([total])
    return Certificate(kind, tau_star, delta, terms, inversion)


def _kl_certificate(kind: str, budget: BoundBudget, confidence_nats: float,
                    message_nats: float) -> Certificate:
    """The kl certificate of ``budget.emp_loss`` on the complement set."""
    return _certificate(kind, budget.delta, (confidence_nats, message_nats, -budget.log_prior_j),
                        KlInversion(budget.emp_loss, budget.n_complement))


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
    return _certificate(
        "SCH_BINARY", budget.delta,
        (math.log(1.0 / budget.delta), budget.b * math.log(2.0), -budget.log_prior_j),
        TailInversion(n, K))


def bound_sch_real(budget: BoundBudget) -> Certificate:
    """kl certificate for [0, 1]-valued losses of a sample-compressed predictor.

    tau* = kl_inverse(q, (ln(1/P_J(j)) + (b+1) ln 2 + ln sqrt(m'-c) + ln(1/delta)) / (m'-c)).
    """
    n = budget.n_complement
    return _kl_certificate("SCH_REAL", budget,
                           confidence_nats=math.log(2.0 * math.sqrt(n) / budget.delta),
                           message_nats=budget.b * math.log(2.0))


def bound_pbsch(budget: BoundBudget) -> Certificate:
    """Hybrid certificate: compression set plus Gaussian message posterior.

    tau* = kl_inverse(q, (||mu||^2/2 + ln(1/P_J(j)) + ln(2 sqrt(m'-c)/delta)) / (m'-c));
    certifies the message-posterior-expected loss.  With c = 0 and the
    default prior it is ``bound_pb``.
    """
    n = budget.n_complement
    return _kl_certificate("PBSCH", budget,
                           confidence_nats=math.log(2.0 * math.sqrt(n) / budget.delta),
                           message_nats=0.5 * budget.mu_norm_sq)


def bound_pbsch_disintegrated(budget: BoundBudget) -> Certificate:
    """Single-draw variant of the hybrid certificate (Renyi order alpha = 2).

    tau* = kl_inverse(q, (||mu||^2 + ln(1/P_J(j)) + ln(16 sqrt(m'-c)/delta^3)) / (m'-c));
    certifies the one predictor decoded from a message sampled once from the
    posterior.  Strictly looser than ``bound_pbsch`` on the same inputs.
    """
    n = budget.n_complement
    return _kl_certificate(
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
