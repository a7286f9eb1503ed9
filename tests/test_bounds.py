"""Unit tests for the certificate calculators.

Expected values marked "oracle" were computed independently of the package:
closed forms evaluated with math/mpmath, exact big-integer binomials, and
exact-rational binomial CDFs (see test_acceptance.py for the oracle code).
"""

import itertools
import math
import tracemalloc
import warnings
from dataclasses import replace
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest
from scipy.special import gammaln

from metacert import bounds
from metacert.bounds import (BoundBudget, bernoulli_kl, binomial_tail_inverse,
                             binomial_tail_inverses, bound_catoni,
                             bound_linear_subgaussian, bound_pb,
                             bound_pbsch, bound_pbsch_disintegrated,
                             bound_sch_binary, bound_sch_real,
                             compare_trainset_bounds, gaussian_kl, kl_inverse,
                             log_binomial, renyi_divergence_gaussian)
from test_bounds_pinned import CALCULATORS, EXPECTED, GRID


class TestBernoulliKl:
    def test_identical_arguments_are_zero(self):
        assert bernoulli_kl(0.3, 0.3) == 0.0

    def test_oracle_value(self):
        # oracle: 0.1*ln(0.1/0.5) + 0.9*ln(0.9/0.5)
        assert bernoulli_kl(0.1, 0.5) == pytest.approx(0.3680642071684971, abs=1e-12)

    def test_q_zero_closed_form(self):
        # kl(0, p) = -ln(1 - p)
        assert bernoulli_kl(0.0, 0.5) == pytest.approx(math.log(2), abs=1e-15)

    def test_q_one_closed_form(self):
        assert bernoulli_kl(1.0, 0.25) == pytest.approx(math.log(4), abs=1e-15)

    def test_degenerate_p_raises(self):
        with pytest.raises(ValueError):
            bernoulli_kl(0.5, 0.0)
        with pytest.raises(ValueError):
            bernoulli_kl(0.5, 1.0)

    def test_degenerate_p_equal_q_is_zero(self):
        assert bernoulli_kl(0.0, 0.0) == 0.0
        assert bernoulli_kl(1.0, 1.0) == 0.0

    def test_non_negative(self):
        for q in (0.0, 0.2, 0.7, 1.0):
            for p in (0.1, 0.5, 0.9):
                assert bernoulli_kl(q, p) >= 0.0


class TestKlInverse:
    def test_zero_budget_pins_q(self):
        assert kl_inverse(0.2, 0.0) == 0.2

    def test_q_zero_closed_form(self):
        assert kl_inverse(0.0, 0.05) == pytest.approx(1 - math.exp(-0.05), abs=1e-9)

    def test_oracle_value(self):
        # oracle: mpmath bisection at 50 digits
        tau = kl_inverse(0.1, 0.2)
        assert tau == pytest.approx(0.378391548847, abs=1e-9)
        # round-trip: the returned tau satisfies the defining equation
        assert bernoulli_kl(0.1, tau) == pytest.approx(0.2, abs=1e-9)

    def test_q_one(self):
        assert kl_inverse(1.0, 3.0) == 1.0

    def test_result_at_least_q(self):
        for q in np.linspace(0, 1, 11):
            for budget in (0.0, 0.01, 1.0, 10.0):
                assert kl_inverse(float(q), budget) >= q

    def test_negative_budget_raises(self):
        with pytest.raises(ValueError):
            kl_inverse(0.5, -0.1)
        with pytest.raises(ValueError, match="budget"):
            kl_inverse(0.1, math.nan)


class TestLogBinomial:
    def test_k_zero(self):
        assert log_binomial(10, 0) == pytest.approx(0.0, abs=1e-12)

    def test_exact_small(self):
        assert log_binomial(10, 3) == pytest.approx(math.log(120), abs=1e-12)

    def test_exact_large(self):
        # oracle: math.log(math.comb(2000, 8))
        assert log_binomial(2000, 8) == pytest.approx(50.188599240851495, rel=1e-12)

    def test_k_above_n_raises(self):
        with pytest.raises(ValueError):
            log_binomial(5, 6)

    def test_symmetry(self):
        assert log_binomial(100, 30) == pytest.approx(log_binomial(100, 70), rel=1e-12)


class TestLogFactorial:
    """``_log_factorial`` returns the bits of ``scipy.special.gammaln(n + 1)``,
    so every ln C(n, k) equals the gammaln formula's bit for bit."""

    def test_equals_gammaln_on_every_small_integer(self):
        n = np.arange(100_001)
        ref = gammaln(n + 1.0).tolist()
        got = [bounds._log_factorial(i) for i in range(n.size)]
        mismatched = [i for i in range(n.size) if got[i] != ref[i]]
        assert not mismatched, mismatched[:10]

    def test_equals_gammaln_on_log_spaced_integers(self):
        for n in sorted({int(x) for x in np.logspace(0.0, 300.0, 400)}):
            assert bounds._log_factorial(n) == gammaln(float(n) + 1.0), n

    def test_log_coefficient_rows_equal_the_gammaln_formula(self):
        for n, K, _ in TestLockstepBisection.grid():
            k = np.arange(K + 1)
            ref = gammaln(n + 1) - gammaln(k + 1) - gammaln(n - k + 1)
            assert bounds._log_binomials(n, K).tolist() == ref.tolist(), (n, K)


class TestIntegerCounts:
    """Sample sizes, set sizes, message bits and error counts are integers:
    a float or a bool is refused, naming the argument; numpy integers pass."""

    @pytest.mark.parametrize("call, name", [
        (lambda: BoundBudget(200.5, 3), "m_prime"),
        (lambda: BoundBudget(200, 3.0), "c"),
        (lambda: BoundBudget(200, 3, b=True), "b"),
        (lambda: BoundBudget(200, 3, b=4.0), "b"),
        (lambda: bound_sch_binary(BoundBudget(200, 3, 4), 10.0), "K"),
        (lambda: log_binomial(10.5, 3), "n"),
        (lambda: log_binomial(10, True), "k"),
        (lambda: binomial_tail_inverses(197.5, 10, [-3.0]), "n"),
        (lambda: binomial_tail_inverses(197, np.float64(10), [-3.0]), "K"),
        (lambda: binomial_tail_inverse(197, False, -3.0), "K"),
    ])
    def test_non_integer_count_is_refused(self, call, name):
        with pytest.raises(ValueError, match=f"^{name} must be an integer"):
            call()

    def test_numpy_integers_are_the_python_values(self):
        budget = BoundBudget(np.int64(200), np.int32(3), np.uint8(4))
        assert budget == BoundBudget(200, 3, 4)
        assert all(type(v) is int for v in (budget.m_prime, budget.c, budget.b))
        assert bound_sch_binary(budget, np.int64(10)) == bound_sch_binary(budget, 10)
        assert log_binomial(np.int64(10), np.int16(3)) == log_binomial(10, 3)


class TestBinomialTailInverse:
    def test_all_errors_gives_one(self):
        assert binomial_tail_inverse(10, 10, math.log(0.05)) == 1.0

    def test_k_zero_closed_form(self):
        # (1 - r)^n = delta'  =>  r = 1 - delta'^(1/n)
        got = binomial_tail_inverse(10, 0, math.log(0.05))
        assert got == pytest.approx(1 - 0.05 ** 0.1, abs=1e-9)

    def test_oracle_value(self):
        # oracle: bisection with exact-rational CDF (Fraction arithmetic)
        got = binomial_tail_inverse(50, 5, math.log(0.05))
        assert got == pytest.approx(0.19883300251641844, abs=1e-9)

    def test_log_space_survives_tiny_delta(self):
        # delta' around e^-53: no underflow, no NaN
        ldp = math.log(0.05) - log_binomial(2000, 8)
        got = binomial_tail_inverse(1992, 3, ldp)
        assert math.isfinite(got) and 0.0 < got < 1.0

    def test_monotone_in_k(self):
        vals = [binomial_tail_inverse(60, k, math.log(0.01)) for k in range(0, 60, 7)]
        assert all(a <= b for a, b in zip(vals, vals[1:]))

    def test_monotone_in_log_confidence(self):
        # shrinking delta' (more nats) loosens the bound
        vals = [binomial_tail_inverse(60, 4, -nats) for nats in (1.0, 5.0, 20.0, 80.0)]
        assert all(a <= b for a, b in zip(vals, vals[1:]))

    def test_positive_log_delta_raises(self):
        with pytest.raises(ValueError):
            binomial_tail_inverse(10, 1, 0.5)
        with pytest.raises(ValueError, match="log_delta_prime"):
            binomial_tail_inverse(100, 3, math.nan)


# Reference: the one-threshold bisection as it stood before the lockstep
# version, copied verbatim; the lockstep bisection must equal it bit for bit.
_BISECT_TOL = 1e-12
_BISECT_MAX_ITER = 200


def _log_binom_cdf(n: int, K: int, r: float, log_coeffs: np.ndarray) -> float:
    """ln sum_{k=0}^{K} C(n,k) r^k (1-r)^(n-k), for r strictly inside (0, 1)."""
    k = np.arange(K + 1)
    terms = log_coeffs + k * math.log(r) + (n - k) * math.log1p(-r)
    top = terms.max()
    return float(top + math.log(np.exp(terms - top).sum()))


def scalar_binomial_tail_inverse(n: int, K: int, log_delta_prime: float) -> float:
    """sup { r : sum_{k=0}^{K} C(n,k) r^k (1-r)^(n-k) >= exp(log_delta_prime) }.

    The binomial CDF is summed in log space (the budget routinely sits around
    e^-53), and the supremum is found by bisection.  The sum starts at k = 0,
    the standard binomial-tail test-set convention.  The result grows with K
    and with |log_delta_prime|.
    """
    if not 0 <= K <= n:
        raise ValueError(f"need 0 <= K <= n, got n={n}, K={K}")
    if log_delta_prime > 0.0:
        raise ValueError(f"log_delta_prime is a log-probability, must be <= 0, got {log_delta_prime}")
    if K == n:
        return 1.0  # CDF is identically 1
    log_coeffs = gammaln(n + 1) - gammaln(np.arange(K + 1) + 1) - gammaln(n - np.arange(K + 1) + 1)
    lo, hi = 0.0, 1.0  # CDF(0) = 1 >= delta', CDF(1) = 0 < delta'
    for _ in range(_BISECT_MAX_ITER):
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break  # interval exhausted at float resolution
        if _log_binom_cdf(n, K, mid, log_coeffs) >= log_delta_prime:
            lo = mid
        else:
            hi = mid
        if hi - lo <= _BISECT_TOL:
            break
    return lo


# Reference: kl_inverse as it stood with its own bisection loop, copied
# verbatim; the shared bisection must equal it bit for bit.
def scalar_kl_inverse(q: float, budget: float) -> float:
    """sup { tau in [q, 1] : kl(q, tau) <= budget }, by bisection.

    Monotone non-decreasing in both arguments; a zero budget pins tau = q.
    """
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"q must be in [0, 1], got {q}")
    if not budget >= 0.0:
        raise ValueError(f"budget must be >= 0, got {budget}")
    if budget == 0.0 or q == 1.0:
        return q
    lo, hi = q, 1.0  # kl(q, .) is 0 at q and diverges at 1, so the root is bracketed
    for _ in range(_BISECT_MAX_ITER):
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break  # interval exhausted at float resolution
        if bernoulli_kl(q, mid) <= budget:
            lo = mid
        else:
            hi = mid
        if hi - lo <= _BISECT_TOL:
            break
    return lo


class TestKlInverseBits:
    """``kl_inverse`` equals the reference above bit for bit at every stop rule:
    q just below 1 exhausts the interval at float resolution, tiny budgets stop
    at the tolerance, and an infinite budget climbs the whole way."""

    QS = (0.0, 1e-300, 1e-9, 0.01, 0.3, 0.5, 0.9, 1.0 - 1e-12, 0.9999999999999999)
    BUDGETS = (5e-324, 1e-300, 1e-15, 1e-6, 0.01, 1.0, 50.0, 1e300, math.inf)

    def test_equals_scalar_bisection(self):
        for q in self.QS:
            for budget in self.BUDGETS:
                got, ref = kl_inverse(q, budget), scalar_kl_inverse(q, budget)
                assert got == ref and repr(got) == repr(ref), (q, budget)


class TestLockstepBisection:
    """``binomial_tail_inverses`` runs the three bisections of an SCH_BINARY
    certificate in lockstep; each result equals the scalar reference above."""

    @staticmethod
    def grid():
        rng = np.random.default_rng(2024)
        cases = [(1, 0), (1, 1), (2, 1), (60, 0), (60, 59), (60, 60), (197, 3),
                 (1992, 0), (1992, 1991)]
        for _ in range(60):
            n = int(rng.integers(1, 2001))
            cases.append((n, int(rng.integers(0, n + 1))))
        for n, K in cases:
            random_ts = [-float(t) for t in rng.uniform(0.0, 80.0, 3)]
            yield n, K, [0.0, -80.0, -math.log(20.0)] + random_ts

    def test_equals_scalar_bisection(self):
        for n, K, thresholds in self.grid():
            ref = [scalar_binomial_tail_inverse(n, K, t) for t in thresholds]
            assert binomial_tail_inverses(n, K, thresholds) == ref, (n, K)
            assert [binomial_tail_inverse(n, K, t) for t in thresholds] == ref, (n, K)

    def test_sch_binary_certificate_uses_the_scalar_values(self):
        budget = BoundBudget(m_prime=200, c=3, b=4, delta=0.05, emp_loss=7 / 197)
        cert = bound_sch_binary(budget, 7)
        conf = math.log(1 / 0.05)
        msg = 4 * math.log(2.0)
        comp = -budget.log_prior_j
        ref = [scalar_binomial_tail_inverse(197, 7, -t)
               for t in (conf, conf + msg, conf + msg + comp)]
        assert [row[2] for row in cert.breakdown[1:]] == ref

    def test_invalid_inputs_rejected(self):
        with pytest.raises(ValueError):
            binomial_tail_inverses(10, 11, (-1.0,))
        with pytest.raises(ValueError):
            binomial_tail_inverses(10, 1, (-1.0, 0.5))
        with pytest.raises(ValueError):
            binomial_tail_inverses(10, 1, (-1.0, math.nan))


class _CountingMath:
    """``math`` with a count of ``log1p`` calls: ``binomial_tail_inverses``
    takes one per evaluated midpoint."""

    def __init__(self):
        self.log1p_calls = 0

    def __getattr__(self, name):
        return getattr(math, name)

    def log1p(self, x):
        self.log1p_calls += 1
        return math.log1p(x)


class TestSpeculatedBisection:
    """``binomial_tail_inverses`` evaluates each bisection's predicted path in
    one batch and replays it; the results are the scalar bisection's whatever
    the predictions, and the batches evaluate few midpoints beyond its own."""

    @pytest.mark.parametrize("guess", [math.nan, 0.0, 0.5, 1.0])
    def test_any_guess_gives_the_scalar_bits(self, monkeypatch, guess):
        monkeypatch.setattr(bounds, "_root_guesses", lambda n, K, ts: [guess] * len(ts))
        for n, K, thresholds in TestLockstepBisection.grid():
            ref = [scalar_binomial_tail_inverse(n, K, t) for t in thresholds]
            assert binomial_tail_inverses(n, K, thresholds) == ref, (n, K)

    def test_extreme_thresholds_give_the_scalar_bits(self):
        # exp(-1000) and exp(-inf) underflow to 0; the guess works on the log itself
        rng = np.random.default_rng(5)
        cases = [(1, 0), (2, 1), (197, 0), (197, 196), (5000, 0), (5000, 4999)]
        for _ in range(12):
            n = int(rng.integers(1, 5001))
            cases.append((n, int(rng.integers(0, n + 1))))
        thresholds = [0.0, -math.inf, -1000.0]
        for n, K in cases:
            ref = [scalar_binomial_tail_inverse(n, K, t) for t in thresholds]
            assert binomial_tail_inverses(n, K, thresholds) == ref, (n, K)

    def test_evaluates_few_midpoints_beyond_the_scalar_bisection(self, monkeypatch):
        # perfbench-like SCH_BINARY certificates: m' = 200, c = 3, b = 4, delta = 0.05
        rng = np.random.default_rng(14)
        budget = BoundBudget(m_prime=200, c=3, b=4, delta=0.05,
                             log_prior_j=-math.log(3) - log_binomial(200, 3))
        conf = math.log(1 / 0.05)
        cumulative = (conf, conf + 4 * math.log(2.0), conf + 4 * math.log(2.0)
                      - budget.log_prior_j)
        scalar_calls = []
        counted_cdf = _log_binom_cdf

        def counting_cdf(*args):
            scalar_calls.append(1)
            return counted_cdf(*args)

        monkeypatch.setitem(globals(), "_log_binom_cdf", counting_cdf)
        counting_math = _CountingMath()
        monkeypatch.setattr(bounds, "math", counting_math)
        for _ in range(100):
            K = int(rng.integers(24, 135))
            ref = [scalar_binomial_tail_inverse(197, K, -nats) for nats in cumulative]
            assert [row[2] for row in bound_sch_binary(budget, K).breakdown[1:]] == ref
        assert 0 < counting_math.log1p_calls <= 1.2 * len(scalar_calls)


class TestRootGuesses:
    """``_root_guesses`` solves ln CDF = t in log space, so the speculated
    bisections evaluate few midpoints beyond the scalar bisection's even
    where delta' = e^t underflows or the budget reaches paper scale."""

    @staticmethod
    def midpoints(monkeypatch, invert):
        """(midpoints the speculated bisections evaluate, midpoints the scalar
        reference evaluates) over ``invert(reference)``."""
        scalar_calls = []
        counted_cdf = _log_binom_cdf

        def counting_cdf(*args):
            scalar_calls.append(1)
            return counted_cdf(*args)

        counting_math = _CountingMath()
        with monkeypatch.context() as patch:
            patch.setitem(globals(), "_log_binom_cdf", counting_cdf)
            patch.setattr(bounds, "math", counting_math)
            invert(scalar_binomial_tail_inverse)
        return counting_math.log1p_calls, len(scalar_calls)

    @pytest.mark.parametrize("b", [0, 4, 16])
    def test_paper_scale_certificates_evaluate_few_midpoints(self, monkeypatch, b):
        # m' = 2000, c = 8 under the uniform prior: budgets up to ~53 nats
        budget = BoundBudget(m_prime=2000, c=8, b=b, delta=0.05)
        conf = math.log(1 / 0.05)
        cumulative = (conf, conf + b * math.log(2.0), conf + b * math.log(2.0)
                      - budget.log_prior_j)

        def invert(reference):
            for K in range(0, 391, 10):
                ref = [reference(1992, K, -nats) for nats in cumulative]
                assert [row[2] for row in bound_sch_binary(budget, K).breakdown[1:]] == ref, K

        evaluated, scalar = self.midpoints(monkeypatch, invert)
        assert 0 < evaluated <= 1.2 * scalar

    @pytest.mark.parametrize("n, K, t", [(2000, 100, -60.0), (5000, 10, -300.0),
                                         (197, 10, -1000.0)])
    def test_single_inversions_evaluate_few_midpoints(self, monkeypatch, n, K, t):
        def invert(reference):
            assert binomial_tail_inverses(n, K, [t]) == [reference(n, K, t)]

        evaluated, scalar = self.midpoints(monkeypatch, invert)
        assert 0 < evaluated <= 1.2 * scalar

    @pytest.mark.parametrize("n", [10**8, 10**9])
    def test_memory_grows_with_K_not_n(self, n):
        # `metacert bound` takes any --m: at K = 3 an inversion holds O(K)
        # arrays, at thresholds near 0 (ln 0.9, -0.1) as well as far from it
        tracemalloc.start()
        try:
            taus = binomial_tail_inverses(n, 3, [math.log(0.9), -0.1, -30.0])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert all(0.0 < tau < 1.0 for tau in taus)
        assert peak < 1 << 20

    @pytest.mark.parametrize("n", [1, 2, 197, 5000])
    def test_guesses_raise_no_warning_at_extreme_thresholds(self, n):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for K in sorted({0, n - 1}):
                guesses = bounds._root_guesses(n, K, [0.0, -1000.0, -math.inf])
                assert guesses[0] == 0.0 and guesses[2] == 1.0, (n, K)
                assert 0.0 < guesses[1] <= 1.0, (n, K)


class TestExactOracle:
    """Both inversions against an independent oracle in exact arithmetic: the
    binomial CDF as an exact sum of ``math.comb`` terms at dyadic rationals,
    against delta' as a ``Fraction`` of its 60-digit ``decimal`` value, and
    kl(q, .) in 60-digit ``decimal`` logs.  Each oracle bisects to far below
    ``_BISECT_TOL``, and each returned value lies within 2 x ``_BISECT_TOL`` of
    the exact inverse."""

    DIGITS = 60
    BITS = 64  # the binomial oracle's resolution: its root is within 2**-64

    @classmethod
    def exact_binomial_tail_inverse(cls, n: int, K: int, log_delta_prime: float) -> Fraction:
        with localcontext() as ctx:
            ctx.prec = cls.DIGITS
            delta = Fraction(Decimal(log_delta_prime).exp())
        scale = 2 ** cls.BITS

        def cdf_at_least_delta(p: int) -> bool:
            # CDF(p / scale) * scale**n, an exact integer
            total = sum(math.comb(n, k) * p ** k * (scale - p) ** (n - k) for k in range(K + 1))
            return total * delta.denominator >= delta.numerator * scale ** n

        lo, hi = 0, scale  # CDF(0) = 1 >= delta', CDF(1) = 0 < delta'
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if cdf_at_least_delta(mid):
                lo = mid
            else:
                hi = mid
        return Fraction(lo, scale)

    @classmethod
    def exact_kl_inverse(cls, q: float, budget: float) -> Fraction:
        with localcontext() as ctx:
            ctx.prec = cls.DIGITS
            q_, budget_ = Decimal(q), Decimal(budget)

            def kl(tau: Decimal) -> Decimal:
                left = q_ * (q_ / tau).ln() if q_ else Decimal(0)
                return left + (1 - q_) * ((1 - q_) / (1 - tau)).ln()

            lo, hi = q_, Decimal(1)
            for _ in range(cls.BITS):
                mid = (lo + hi) / 2
                if kl(mid) <= budget_:
                    lo = mid
                else:
                    hi = mid
            return Fraction(lo)

    @pytest.mark.parametrize("n, K, log_delta_prime", [
        (197, 17, -10.0), (197, 98, -22.5), (197, 0, -5.0), (60, 3, -12.0), (150, 30, -30.0)])
    def test_binomial_tail_inverse_is_within_tolerance(self, n, K, log_delta_prime):
        got = binomial_tail_inverses(n, K, [log_delta_prime])[0]
        exact = self.exact_binomial_tail_inverse(n, K, log_delta_prime)
        assert abs(Fraction(got) - exact) <= 2 * bounds._BISECT_TOL, (got, float(exact))

    @pytest.mark.parametrize("q, budget", [(0.087, 0.05), (0.0, 0.1), (0.25, 0.01), (0.6, 0.3)])
    def test_kl_inverse_is_within_tolerance(self, q, budget):
        got = kl_inverse(q, budget)
        exact = self.exact_kl_inverse(q, budget)
        assert abs(Fraction(got) - exact) <= 2 * bounds._BISECT_TOL, (got, float(exact))


class TestGaussianDivergences:
    def test_kl_zero_mean(self):
        assert gaussian_kl(np.zeros(4)) == 0.0

    def test_kl_closed_form(self):
        assert gaussian_kl([3.0, 4.0]) == pytest.approx(12.5, abs=1e-12)
        assert gaussian_kl([1.0, 1.0, 1.0, 1.0]) == pytest.approx(2.0, abs=1e-12)

    def test_renyi_alpha_two(self):
        assert renyi_divergence_gaussian([0.0, 0.0], 2.0) == 0.0
        assert renyi_divergence_gaussian([1.0, 1.0], 2.0) == pytest.approx(2.0, abs=1e-12)

    def test_renyi_alpha_three(self):
        assert renyi_divergence_gaussian([2.0], 3.0) == pytest.approx(6.0, abs=1e-12)

    def test_renyi_alpha_at_most_one_raises(self):
        with pytest.raises(ValueError):
            renyi_divergence_gaussian([1.0], 1.0)
        with pytest.raises(ValueError, match="alpha"):
            renyi_divergence_gaussian([1.0], math.nan)
        with pytest.raises(ValueError, match="mu"):
            renyi_divergence_gaussian([1.0, math.nan], 2.0)
        with pytest.raises(ValueError, match="mu"):
            gaussian_kl([math.nan])


class TestWorkedCertificates:
    """The five spec-level regression values, re-derived by closed forms."""

    def test_pb_m100(self):
        cert = bound_pb(BoundBudget(100, delta=0.05))
        assert cert.tau_star == pytest.approx(1 - math.exp(-math.log(400) / 100), abs=1e-9)
        assert cert.tau_star == pytest.approx(0.058155, abs=1e-5)

    def test_pb_zero_budget(self):
        # delta = 1 and the ln(2 sqrt(m')) confidence term zeroed out by hand
        assert kl_inverse(0.0, 0.0) == 0.0

    def test_pb_with_message_norm(self):
        cert = bound_pb(BoundBudget(100, delta=0.05, mu_norm_sq=25.0))
        expected = 1 - math.exp(-(12.5 + math.log(400)) / 100)
        assert cert.tau_star == pytest.approx(expected, abs=1e-9)

    def test_pb_rejects_compression(self):
        with pytest.raises(ValueError):
            bound_pb(BoundBudget(100, c=1, delta=0.05))

    def test_sch_binary_m2000(self):
        cert = bound_sch_binary(BoundBudget(2000, c=8, delta=0.05), 0)
        ldp = math.log(0.05) - log_binomial(2000, 8)
        assert cert.tau_star == pytest.approx(1 - math.exp(ldp / 1992), abs=1e-8)
        assert cert.tau_star == pytest.approx(0.02635, abs=1e-5)

    def test_sch_binary_all_errors(self):
        cert = bound_sch_binary(BoundBudget(10, c=0, delta=0.05, emp_loss=1.0), 10)
        assert cert.tau_star == 1.0

    def test_sch_real_m2000(self):
        cert = bound_sch_real(BoundBudget(2000, c=8, delta=0.05))
        budget = (log_binomial(2000, 8) + math.log(2) + 0.5 * math.log(1992)
                  + math.log(20)) / 1992
        assert cert.tau_star == pytest.approx(1 - math.exp(-budget), abs=1e-9)
        assert cert.tau_star == pytest.approx(0.028539, abs=1e-5)

    def test_sch_real_no_compression_uniform_prior(self):
        # with c = 0, b = 0 the prefactor is 2^(b+1) = 2 and P_J = 1
        cert = bound_sch_real(BoundBudget(2000, c=0, delta=0.05))
        budget = math.log(2 * math.sqrt(2000) / 0.05) / 2000
        assert cert.tau_star == pytest.approx(1 - math.exp(-budget), abs=1e-9)

    def test_pbsch_m2000(self):
        cert = bound_pbsch(BoundBudget(2000, c=0, delta=0.05))
        budget = math.log(2 * math.sqrt(2000) / 0.05) / 2000
        assert cert.tau_star == pytest.approx(1 - math.exp(-budget), abs=1e-9)
        assert cert.tau_star == pytest.approx(0.003742, abs=1e-5)

    def test_pbsch_disintegrated_m2000(self):
        cert = bound_pbsch_disintegrated(BoundBudget(2000, c=0, delta=0.05))
        budget = math.log(16 * math.sqrt(2000) / 0.05 ** 3) / 2000
        assert cert.tau_star == pytest.approx(1 - math.exp(-budget), abs=1e-9)
        assert cert.tau_star == pytest.approx(0.007750, abs=1e-5)

    def test_disintegrated_looser_than_expectation(self):
        for budget in (BoundBudget(2000, c=0, delta=0.05),
                       BoundBudget(500, c=4, delta=0.1, emp_loss=0.1, mu_norm_sq=3.0)):
            assert (bound_pbsch_disintegrated(budget).tau_star
                    > bound_pbsch(budget).tau_star)

    def test_pbsch_reduces_to_pb(self):
        for m, delta, q in ((100, 0.05, 0.0), (2000, 0.05, 0.0), (500, 0.1, 0.2)):
            a = bound_pb(BoundBudget(m, delta=delta, emp_loss=q)).tau_star
            b = bound_pbsch(BoundBudget(m, c=0, delta=delta, emp_loss=q)).tau_star
            assert abs(a - b) <= 1e-12


class TestCatoni:
    def test_oracle_value(self):
        got = bound_catoni(1.0, 0.0, 0.0, 0.0, 0.05, 100)
        expected = (1 - math.exp(math.log(0.05) / 100)) / (1 - math.exp(-1))
        assert got == pytest.approx(expected, abs=1e-12)
        assert got == pytest.approx(0.046689, abs=1e-6)

    def test_delta_one_zero_budget(self):
        assert bound_catoni(2.5, 0.0, 0.0, 0.0, 1.0, 17) == 0.0

    def test_direct_formula(self):
        C, q, kl_msg, delta, n = 2.0, 0.2, 50.0, 0.05, 1000
        expected = (1 - math.exp(-C * q - (kl_msg - math.log(delta)) / n)) / (1 - math.exp(-C))
        assert bound_catoni(C, q, kl_msg, 0.0, delta, n) == pytest.approx(expected, abs=1e-12)

    def test_clamped_to_unit_interval(self):
        assert bound_catoni(0.5, 1.0, 1e6, -1e3, 0.01, 10) == 1.0

    def test_nonpositive_c_raises(self):
        # an infinite C made -C * 0 a NaN that the clamp turned into tau 0; a C so
        # small that 1 - e^-C rounds to 0 divided by zero
        for C in (0.0, -1000.0, math.inf, 1e-320):
            with pytest.raises(ValueError, match="C must"):
                bound_catoni(C, 0.0, 0.0, 0.0, 0.05, 100)
        args = (1.0, 0.1, 0.0, 0.0, 0.05)  # C, q, kl_msg, log_prior_j, delta
        for pos in range(len(args)):
            nan_args = [math.nan if i == pos else a for i, a in enumerate(args)]
            with pytest.raises(ValueError):
                bound_catoni(*nan_args, 100)


class TestLinearSubgaussian:
    def test_all_terms_vanish(self):
        assert bound_linear_subgaussian(1.0, 0.0, 0.3, 0.0, 0.0, 1.0, 100, 100) == 0.3

    def test_direct_formula(self):
        lam, s2, q, kl_msg, delta, m = 0.1, 0.25, 0.1, 10.0, 0.05, 1000
        expected = q + (kl_msg + math.log(1 / delta) + m * lam ** 2 * s2 / 2) / (lam * m)
        got = bound_linear_subgaussian(lam, s2, q, kl_msg, 0.0, delta, m, m)
        assert got == pytest.approx(expected, rel=1e-12)

    def test_doubling_lambda_halves_complexity_term(self):
        q = 0.1
        t1 = bound_linear_subgaussian(1.0, 0.0, q, 5.0, -2.0, 0.1, 500, 500) - q
        t2 = bound_linear_subgaussian(2.0, 0.0, q, 5.0, -2.0, 0.1, 500, 500) - q
        assert t1 == pytest.approx(2 * t2, rel=1e-12)

    def test_nonpositive_lambda_raises(self):
        for lam in (0.0, math.inf):
            with pytest.raises(ValueError, match="lambda"):
                bound_linear_subgaussian(lam, 0.1, 0.1, 0.0, 0.0, 0.05, 100, 100)
        for loss in (math.inf, -math.inf):
            with pytest.raises(ValueError, match="emp_loss"):
                bound_linear_subgaussian(1.0, 0.1, loss, 0.0, 0.0, 0.05, 100, 100)
        args = (1.0, 0.1, 0.1, 0.0, 0.0, 0.05)  # lambda, sigma^2, q, kl_msg, log_prior_j, delta
        for pos in range(len(args)):
            nan_args = [math.nan if i == pos else a for i, a in enumerate(args)]
            with pytest.raises(ValueError):
                bound_linear_subgaussian(*nan_args, 100, 100)


class TestCompareTrainsetBounds:
    M, COMP, DELTA = 10000, 2000, 0.01

    def test_kl_100_gap_endpoints(self):
        rows = compare_trainset_bounds(self.M, self.COMP, 100.0, self.DELTA, [0.0, 1.0])
        # oracle: closed-form evaluation of both bounds
        assert rows[0].gap == pytest.approx(0.3719836801198102, abs=1e-9)
        assert rows[1].gap == pytest.approx(0.17198368011981024, abs=1e-9)

    def test_gap_is_affine_in_val_loss(self):
        grid = list(np.linspace(0, 1, 9))
        rows = compare_trainset_bounds(self.M, self.COMP, 100.0, self.DELTA, grid)
        for r in rows:
            assert r.gap == pytest.approx(0.3719836801198102 - 0.2 * r.val_loss, abs=1e-9)

    def test_kl_10000_sign_change_location(self):
        rows = compare_trainset_bounds(self.M, self.COMP, 10000.0, self.DELTA,
                                       list(np.linspace(0, 1, 201)))
        sign_changes = [(a, b) for a, b in zip(rows, rows[1:]) if a.gap > 0 >= b.gap]
        assert len(sign_changes) == 1
        crossing = sign_changes[0][1].val_loss
        assert 0.55 <= crossing <= 0.65  # oracle root: 0.588378

    def test_values_not_clamped(self):
        rows = compare_trainset_bounds(self.M, self.COMP, 10000.0, self.DELTA, [1.0])
        assert rows[0].bound_squared > 1.0 and rows[0].bound_kl_pinsker > 1.0

    def test_comp_size_at_least_m_raises(self):
        with pytest.raises(ValueError):
            compare_trainset_bounds(100, 100, 1.0, 0.05, [0.0])
        with pytest.raises(ValueError, match="kl_val"):
            compare_trainset_bounds(100, 10, math.nan, 0.05, [0.0])


class TestBudgetAndCertificate:
    def test_budget_invariants(self):
        with pytest.raises(ValueError):
            BoundBudget(10, c=10)
        with pytest.raises(ValueError):
            BoundBudget(10, delta=0.0)
        with pytest.raises(ValueError):
            BoundBudget(10, delta=1.5)
        with pytest.raises(ValueError):
            BoundBudget(10, emp_loss=1.2)
        with pytest.raises(ValueError):
            BoundBudget(10, mu_norm_sq=-1.0)
        with pytest.raises(ValueError):
            BoundBudget(10, log_prior_j=0.5)
        for field in ("delta", "emp_loss", "mu_norm_sq", "log_prior_j"):
            with pytest.raises(ValueError, match=field):
                BoundBudget(10, **{field: math.nan})

    def test_default_prior_is_uniform_over_distinct_sets(self):
        budget = BoundBudget(2000, c=8)
        assert budget.log_prior_j == pytest.approx(-log_binomial(2000, 8), rel=1e-12)

    def test_breakdown_monotone_and_ends_at_tau_star(self):
        for cert in (
            bound_pb(BoundBudget(100, delta=0.05, emp_loss=0.1, mu_norm_sq=4.0)),
            bound_sch_real(BoundBudget(300, c=5, b=8, delta=0.05, emp_loss=0.2)),
            bound_pbsch(BoundBudget(400, c=3, b=16, delta=0.1, emp_loss=0.05, mu_norm_sq=2.0)),
            bound_pbsch_disintegrated(BoundBudget(400, c=3, b=16, delta=0.1,
                                                  emp_loss=0.05, mu_norm_sq=2.0)),
            bound_sch_binary(BoundBudget(300, c=5, b=8, delta=0.05, emp_loss=0.1), 30),
        ):
            taus = [tau for _, _, tau in cert.breakdown]
            assert all(a <= b for a, b in zip(taus, taus[1:]))
            assert taus[-1] == cert.tau_star  # bit-for-bit
            assert len(cert.breakdown) == 4
            labels = [label for label, _, _ in cert.breakdown]
            assert labels == ["empirical_loss", "confidence", "message_cost",
                              "compression_set_cost"]

    def test_tau_star_at_least_emp_loss(self):
        for q in (0.0, 0.1, 0.5, 0.9):
            budget = BoundBudget(200, c=4, b=2, delta=0.05, emp_loss=q, mu_norm_sq=1.0)
            assert bound_sch_real(budget).tau_star >= q
            assert bound_pbsch(budget).tau_star >= q
            K = int(round(q * 196))
            assert bound_sch_binary(budget, K).tau_star >= K / 196


# Reference: every breakdown inverted up front, as the calculators built it
# before the partial sums were left to the first read.
_LABELS = ("confidence", "message_cost", "compression_set_cost")


def eager_breakdown(kind: str, budget: BoundBudget):
    n, delta = budget.n_complement, budget.delta
    confidence = math.log(2.0 * math.sqrt(n) / delta)
    empty_set_cost = -replace(budget, log_prior_j=None).log_prior_j  # PB ignores log_prior_j
    terms = {
        "PB": (confidence, 0.5 * budget.mu_norm_sq, empty_set_cost),
        "SCH_BINARY": (math.log(1.0 / delta), budget.b * math.log(2.0), -budget.log_prior_j),
        "SCH_REAL": (confidence, budget.b * math.log(2.0), -budget.log_prior_j),
        "PBSCH": (confidence, 0.5 * budget.mu_norm_sq, -budget.log_prior_j),
        "PBSCH_DISINTEGRATED": (math.log(16.0) + 0.5 * math.log(n) + 3.0 * math.log(1.0 / delta),
                                budget.mu_norm_sq, -budget.log_prior_j),
    }[kind]
    cumulative = list(itertools.accumulate(terms))
    if kind == "SCH_BINARY":
        K = round(budget.emp_loss * n)
        empirical, taus = K / n, [binomial_tail_inverse(n, K, -nats) for nats in cumulative]
    else:
        empirical = budget.emp_loss
        taus = [kl_inverse(empirical, nats / n) for nats in cumulative]
    return (("empirical_loss", 0.0, min(empirical, taus[0])), *zip(_LABELS, terms, taus))


class TestDeferredBreakdown:
    """A certificate inverts its total budget when built and its two partial
    sums the first time its breakdown is read; that breakdown is the one
    computed up front, bit for bit, however and whenever it is read."""

    CASES = sorted(EXPECTED)

    @pytest.mark.parametrize("point, kind", CASES)
    @pytest.mark.parametrize("tau_first", [False, True])
    def test_breakdown_equals_the_eager_one(self, point, kind, tau_first):
        budget = BoundBudget(**GRID[point])
        cert = CALCULATORS[kind](budget)
        assert "breakdown" not in vars(cert)  # built without its partial sums
        if tau_first:
            tau_star, breakdown = cert.tau_star, cert.breakdown
        else:
            breakdown, tau_star = cert.breakdown, cert.tau_star
        assert repr(breakdown) == repr(eager_breakdown(kind, budget))
        assert repr(tau_star) == repr(breakdown[-1][2])
        assert cert.breakdown is breakdown  # computed once, then kept

    @pytest.mark.parametrize("point", sorted({point for point, kind in EXPECTED if kind == "PB"}))
    def test_pb_built_through_replace_has_pbsch_breakdown(self, point):
        budget = BoundBudget(**GRID[point])
        pb, pbsch = bound_pb(budget), bound_pbsch(replace(budget, log_prior_j=None))
        assert repr(pb.breakdown) == repr(eager_breakdown("PB", budget))
        assert repr(pb.breakdown) == repr(pbsch.breakdown)

    def test_breakdown_is_not_part_of_equality_or_repr(self):
        budget = BoundBudget(**GRID[1])
        read, unread = bound_sch_real(budget), bound_sch_real(budget)
        assert read.breakdown
        assert read == unread and repr(read) == repr(unread)
        assert hash(read) == hash(unread)

    def test_certificates_with_other_terms_are_unequal(self):
        # the same kind, delta and tau_star, charged to other terms
        for point, kind in self.CASES:
            cert = CALCULATORS[kind](BoundBudget(**GRID[point]))
            confidence, message, compression = cert.terms
            for terms in ((confidence + 1.0, message, compression),
                          (confidence, compression + 1.0, message)):
                assert replace(cert, terms=terms) != cert, (point, kind)
