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

from metacert import bounds
from metacert.bounds import (BoundBudget, bernoulli_kl, binomial_tail_inverse,
                             bound_catoni, bound_linear_subgaussian, bound_pb,
                             bound_pbsch, bound_pbsch_disintegrated,
                             bound_sch_binary, bound_sch_real,
                             compare_trainset_bounds, gaussian_kl, kl_inverse,
                             log_binomial, renyi_divergence_gaussian)
from test_bounds_pinned import CALCULATORS, EXPECTED, GRID


def exact_kl(q: float, p: float | Fraction) -> Decimal:
    """kl(q, p) in 60-digit ``decimal`` logs, for p strictly inside (0, 1)."""
    with localcontext() as ctx:
        ctx.prec = 60
        q_, p_ = Decimal(q), Decimal(Fraction(p).numerator) / Decimal(Fraction(p).denominator)
        return sum((a * (a / b).ln() for a, b in ((q_, p_), (1 - q_, 1 - p_)) if a),
                   Decimal(0))


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

    @pytest.mark.parametrize("q", [0.2, 0.3, 0.5, 0.9, 1e-3])
    def test_relative_error_near_p_equals_q(self, q):
        # kl(q, p) ~ (p - q)^2 / (2 q (1 - q)): its two first-order terms cancel,
        # which cost the plain q ln(q/p) + (1-q) ln((1-q)/(1-p)) up to 9e-4 of it
        for gap in (1e-1, 1e-2, 1e-3, 1e-5, 1e-7, 1e-9):
            for p in (q * (1.0 - gap), q + gap * (1.0 - q)):
                error = abs(Decimal(bernoulli_kl(q, p)) - exact_kl(q, p)) / exact_kl(q, p)
                assert error <= Decimal("1e-12"), (q, p, float(error))

    @pytest.mark.parametrize("q, p", [(0.5, 1e-320), (1.0, 1e-320), (0.3, 5e-324)])
    def test_subnormal_p_where_q_over_p_overflows(self, q, p):
        # q / p overflows to inf, and so did kl
        exact = exact_kl(q, p)
        assert abs(Decimal(bernoulli_kl(q, p)) - exact) / exact <= Decimal("1e-15")

    def test_error_is_within_the_inversion_margin(self):
        # kl_inverse counts a tau as past the root once kl exceeds the budget
        # by bounds._MARGIN of it, so kl's relative error must stay below that
        rng = np.random.default_rng(26)
        worst = Decimal(0)
        for _ in range(3000):
            q = float(rng.choice([rng.random(), rng.random() ** 6, 1.0 - rng.random() ** 6]))
            p = float(rng.random() if rng.random() < 0.5
                      else q + rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-12.0, 0.0))
            if not 0.0 < p < 1.0 or p == q:
                continue
            exact = exact_kl(q, p)
            worst = max(worst, abs(Decimal(bernoulli_kl(q, p)) - exact) / exact)
        assert worst <= Decimal(bounds._MARGIN), float(worst)


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
        # 1 - e^(ln(1 - q)) rounds below q = 0.12360665270806581, which a tiny
        # budget's inverse lies within an ulp of
        for q in [*np.linspace(0, 1, 11), 0.12360665270806581]:
            for budget in (0.0, 1e-300, 1e-40, 0.01, 1.0, 10.0):
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

    def test_lgamma_error_is_within_half_its_margin(self):
        # binomial_tail_inverse charges ln C(n, K)'s three lgammas (and their
        # subtractions) bounds._MARGIN times 2 ln n!, which bounds their sizes;
        # oracle: ln of math.comb in 60-digit decimal
        rng = np.random.default_rng(26)
        cases = [(n, k) for n in range(40) for k in range(n + 1)]
        cases += [(n, int(rng.integers(0, n + 1))) for n in rng.integers(40, 5001, 1000).tolist()]
        cases += [(n, k) for n in (10**6, 10**9) for k in (0, 1, 3, 300, n - 3)]
        for n, k in cases:
            with localcontext() as ctx:
                ctx.prec = 60
                error = abs(Decimal(log_binomial(n, k)) - Decimal(math.comb(n, k)).ln())
            assert error <= Decimal(bounds._MARGIN * math.lgamma(n + 1)), (n, k, float(error))


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
        (lambda: binomial_tail_inverse(197.5, 10, -3.0), "n"),
        (lambda: binomial_tail_inverse(197, np.float64(10), -3.0), "K"),
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

    def test_invalid_inputs_rejected(self):
        for n, K in ((10, 11), (10, -1)):
            with pytest.raises(ValueError, match="need 0 <= K <= n"):
                binomial_tail_inverse(n, K, -1.0)


class _CountingMath:
    """``math`` with a count of ``log1p`` calls: ``binomial_tail_inverse``
    takes one per evaluation of ln CDF."""

    def __init__(self):
        self.log1p_calls = 0

    def __getattr__(self, name):
        return getattr(math, name)

    def log1p(self, x):
        self.log1p_calls += 1
        return math.log1p(x)


class TestRootGuesses:
    """``binomial_tail_inverse`` runs Newton's method in log space from a
    guess of the root, the Chernoff point, so it evaluates ln CDF a few times
    per threshold (the bisection it replaced took about 40 midpoints) even
    where delta' = e^t underflows or the budget reaches paper scale."""

    @staticmethod
    def evaluations(monkeypatch, invert) -> int:
        counting_math = _CountingMath()
        with monkeypatch.context() as patch:
            patch.setattr(bounds, "math", counting_math)
            invert()
        return counting_math.log1p_calls

    @pytest.mark.parametrize("b", [0, 4, 16])
    def test_paper_scale_certificates_evaluate_few_points(self, monkeypatch, b):
        # m' = 2000, c = 8 under the uniform prior: budgets up to ~64 nats
        budget = BoundBudget(m_prime=2000, c=8, b=b, delta=0.05)
        Ks = range(0, 391, 10)

        def invert():
            for K in Ks:
                assert bound_sch_binary(budget, K).breakdown

        assert 0 < self.evaluations(monkeypatch, invert) <= 12 * 3 * len(Ks)

    @pytest.mark.parametrize("n, K, t", [(2000, 100, -60.0), (5000, 10, -300.0),
                                         (197, 10, -1000.0), (5000, 0, -3.0)])
    def test_single_inversions_evaluate_few_points(self, monkeypatch, n, K, t):
        assert 0 < self.evaluations(monkeypatch, lambda: binomial_tail_inverse(n, K, t)) <= 12

    @pytest.mark.parametrize("n", [10**8, 10**9])
    def test_memory_grows_with_K_not_n(self, n):
        # `metacert bound` takes any --m: at K = 3 an inversion holds O(K)
        # values, at thresholds near 0 (ln 0.9, -0.1) as well as far from it
        tracemalloc.start()
        try:
            taus = [binomial_tail_inverse(n, 3, t) for t in (math.log(0.9), -0.1, -30.0)]
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
                taus = [binomial_tail_inverse(n, K, t) for t in (0.0, -1000.0, -math.inf)]
                assert taus[0] == 0.0 and taus[2] == 1.0, (n, K)
                assert 0.0 < taus[1] <= 1.0, (n, K)


class TestExactOracle:
    """Both inversions against an independent oracle in exact arithmetic: each
    returned value lies at or above the exact inverse (it is sound) and less
    than a stated tolerance above it (it is tight).

    The binomial CDF at a float r is an exact sum of ``math.comb`` terms at
    that dyadic rational, compared with delta' as a ``Fraction`` of its
    60-digit ``decimal`` value; kl(q, .) is ``exact_kl``.  Each side of the root is one evaluation: at the returned value
    the bound must fail, and at that value minus the tolerance it must hold."""

    DIGITS = 60
    TAIL_TOL = 1e-11
    KL_TOL = 1e-12
    M2000_C8 = math.log(0.05) - math.log(math.comb(2000, 8))  # delta' of m' = 2000, c = 8

    @classmethod
    def cdf_at_least_delta(cls, n: int, K: int, r: Fraction, log_delta_prime: float) -> bool:
        with localcontext() as ctx:
            ctx.prec = cls.DIGITS
            delta = Fraction(Decimal(log_delta_prime).exp())
        a, d = r.numerator, r.denominator
        # CDF(r) d**n = sum_k C(n, k) a**k (d - a)**(n - k), an exact integer
        total, comb, a_pow, b_pow = 0, 1, 1, (d - a) ** n
        for k in range(K + 1):
            total += comb * a_pow * b_pow
            comb, a_pow = comb * (n - k) // (k + 1), a_pow * a
            b_pow = b_pow // (d - a) if d > a else 0
        return total * delta.denominator >= delta.numerator * d ** n

    @pytest.mark.parametrize("n, K, log_delta_prime", [
        (197, 17, -10.0), (197, 98, -22.5), (197, 0, -5.0), (60, 3, -12.0), (150, 30, -30.0),
        (197, 196, -10.0), (60, 59, -3.0), (1992, 0, M2000_C8), (1992, 8, M2000_C8),
        (1992, 100, M2000_C8), (1992, 300, M2000_C8), (5000, 300, -3.0),
        (1992, 300, math.log(0.9)), (197, 30, math.log(0.9)), (2, 1, -0.5)])
    def test_binomial_tail_inverse_is_within_tolerance(self, n, K, log_delta_prime):
        got = Fraction(binomial_tail_inverse(n, K, log_delta_prime))
        assert not self.cdf_at_least_delta(n, K, got, log_delta_prime)
        assert self.cdf_at_least_delta(n, K, got - Fraction(self.TAIL_TOL), log_delta_prime)

    @pytest.mark.parametrize("n, K, log_delta_prime", [
        (1992, 300, -1e-3), (1992, 300, -1e-9), (197, 30, -1e-6), (197, 30, -1e-9)])
    def test_binomial_tail_inverse_is_sound_near_delta_prime_one(self, n, K, log_delta_prime):
        # ln CDF ~ -(1 - CDF) is far smaller there than its float error, so the
        # result is sound but loose: print the looseness, to a power of ten
        got = Fraction(binomial_tail_inverse(n, K, log_delta_prime))
        assert not self.cdf_at_least_delta(n, K, got, log_delta_prime)
        loose = next(gap for gap in (10.0 ** -j for j in range(12, 0, -1))
                     if got < gap or self.cdf_at_least_delta(n, K, got - Fraction(gap),
                                                             log_delta_prime))
        print(f"binomial_tail_inverse({n}, {K}, {log_delta_prime}) is at most {loose:g} "
              f"above the exact inverse")

    @pytest.mark.parametrize("q, budget", [
        (0.087, 0.05), (0.0, 0.1), (0.25, 0.01), (0.6, 0.3), (0.2, 1e-14), (0.5, 1e-14),
        (0.087, 1e-12), (0.9, 1e-10), (1e-6, 1e-8), (0.3, 5.0), (0.999, 0.01), (0.0, 20.0)])
    def test_kl_inverse_is_within_tolerance(self, q, budget):
        got = Fraction(kl_inverse(q, budget))
        assert exact_kl(q, got) > Decimal(budget)
        assert exact_kl(q, got - Fraction(self.KL_TOL)) <= Decimal(budget)


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
