import math
import re
from decimal import ROUND_FLOOR, Context, Decimal, Inexact, getcontext, localcontext
from fractions import Fraction

import pytest

from capbound.bounds import (
    GUARD_MARGIN,
    PRECISION,
    _p_cn,
    exact_tail_identity,
    exponent_c,
    hoeffding_bound,
    main_bound,
    verify_entropy_lemma,
)
from capbound.gf import PrimeField
from capbound.monomials import dim_L

F3 = PrimeField(3)
F5 = PrimeField(5)


def close(x: Decimal, target: float, tol: float = 1e-9) -> bool:
    return abs(float(x) - target) <= tol


class TestExponent:
    def test_value_p3(self):
        c = exponent_c(F3)
        assert close(c, 1 - 1 / (18 * math.log(3)), 1e-12)
        assert abs(float(c) - 0.94943) < 1e-5

    def test_headline_base(self):
        c = exponent_c(F3)
        base = float((c * Decimal(3).ln()).exp())
        assert round(base, 2) == 2.84

    def test_increasing_in_p(self):
        assert exponent_c(PrimeField(101)) > exponent_c(F3)

    def test_strictly_below_one(self):
        for p in (3, 5, 7, 11, 101, 65521):
            assert exponent_c(PrimeField(p)) < 1

    @staticmethod
    def uncached_p_cn(p: int, ns) -> list[str]:
        with localcontext(Context(prec=PRECISION)):
            ln_p = Decimal(p).ln()
            c = 1 - 1 / (18 * ln_p)
            rows = [(c * n * ln_p, (c * n * ln_p).exp()) for n in ns]
            return [str(c)] + [str(x) for log_bound, p_cn in rows for x in (log_bound, p_cn, 3 * p_cn)]

    def test_p_cn_memo_agrees_with_uncached_evaluation(self):
        """`_p_cn` memoises ln p by p and each row by (p, n): first computed and
        then read back in one process, every digit agrees with an uncached
        evaluation, also when the caller's own context has another precision
        and rounding. A returned list is new on each call, so mutating it
        changes no later result."""
        for p, ns in ((3, [3, 6, 9]), (7, [3, 6]), (3, [3, 6, 9]), (7, [3, 6])):
            with localcontext(Context(prec=5, rounding=ROUND_FLOOR)):
                c, rows = _p_cn(PrimeField(p), ns)
            assert [str(c)] + [str(x) for row in rows for x in row] == self.uncached_p_cn(p, ns)
        rows = _p_cn(F3, [3, 6])[1]
        rows[0] = None
        rows.append(rows[1])
        c, again = _p_cn(F3, [3, 6])
        assert [str(c)] + [str(x) for row in again for x in row] == self.uncached_p_cn(3, [3, 6])

    def test_fresh_context_whatever_the_caller_holds(self):
        """Every real value is evaluated in a fresh 30-digit context: a caller
        that traps Inexact and rounds toward floor gets the values of the default
        context, and its own context is left as it was, flags included."""
        F7 = PrimeField(7)
        calls = [
            lambda: hoeffding_bound(Fraction(7, 3), [2, 2, 5]),
            lambda: exact_tail_identity(F5, 6, 4),
            lambda: verify_entropy_lemma(F3, 9),
            lambda: verify_entropy_lemma(F7, 4),
            lambda: exponent_c(PrimeField(11)),
            lambda: main_bound(F5, 12),
        ]
        expected = [call() for call in calls]
        with localcontext(Context(prec=12, rounding=ROUND_FLOOR, traps=[Inexact])) as caller:
            before = (caller.prec, caller.rounding, dict(caller.traps), dict(caller.flags))
            assert [call() for call in calls] == expected
            assert (caller.prec, caller.rounding, dict(caller.traps), dict(caller.flags)) == before
            assert getcontext() is caller


class TestHoeffding:
    def test_t_zero(self):
        assert hoeffding_bound(0, [1, 2, 3]) == 1

    def test_matches_float_formula(self):
        assert close(hoeffding_bound(1, [1]), math.exp(-2), 1e-12)
        assert close(hoeffding_bound(2, [1, 1, 2]), math.exp(-8 / 6), 1e-12)
        assert hoeffding_bound(Decimal(2), [1.0, 1, Fraction(2)]) == hoeffding_bound(2, [1, 1, 2])

    def test_lemma_specialization(self):
        # t = (p-1)n/6 with n widths of p-1 gives exp(-n/18)
        for p, n in [(3, 3), (3, 30), (5, 6), (7, 3)]:
            t = Fraction((p - 1) * n, 6)
            got = hoeffding_bound(t, [p - 1] * n)
            assert close(got, math.exp(-n / 18), 1e-12)

    def test_degenerate_ranges(self):
        with pytest.raises(ValueError, match="degenerate ranges"):
            hoeffding_bound(1, [0, 0])

    def test_input_validation(self):
        with pytest.raises(ValueError):
            hoeffding_bound(1, [])
        with pytest.raises(ValueError):
            hoeffding_bound(-1, [1])
        with pytest.raises(ValueError):
            hoeffding_bound(1, [1, -2])
        with pytest.raises(ValueError, match="expected a number, got '1'"):
            hoeffding_bound("1", [1])

    def test_monotonicity(self):
        ts = [hoeffding_bound(t, [2, 2]) for t in (0, 1, 2, 3)]
        assert ts == sorted(ts, reverse=True)
        widths = [hoeffding_bound(1, [w]) for w in (1, 2, 3)]
        assert widths == sorted(widths)


class TestEntropyLemma:
    def test_small_case(self):
        rep = verify_entropy_lemma(F3, 3)
        assert rep.exact_dim == 10
        assert rep.holds
        assert close(rep.bound_value, 3 ** (float(rep.c) * 3), 1e-6)
        assert float(rep.margin) > 0.8  # ln(22.85) - ln(10)

    def test_larger_cases(self):
        assert verify_entropy_lemma(F3, 30).holds
        rep = verify_entropy_lemma(F5, 3)
        assert rep.exact_dim == dim_L(3, 4, F5)
        assert rep.holds

    def test_rejects_non_multiples(self):
        for n in (1, 2, 4, -3, 0):
            with pytest.raises(ValueError, match=re.escape("3 | n")):
                verify_entropy_lemma(F3, n)

    def test_guard_margin_is_comfortable(self):
        for p in (3, 5, 7, 11):
            field = PrimeField(p)
            for n in range(3, 31, 3):
                rep = verify_entropy_lemma(field, n)
                assert rep.holds and rep.margin > GUARD_MARGIN


class TestExactTail:
    def test_examples(self):
        tail, bound = exact_tail_identity(F3, 3, 2)
        assert tail == Fraction(10, 27)
        assert close(bound, math.exp(-1 / 6), 1e-12)
        assert tail <= Fraction(str(bound)) or float(tail) <= float(bound)

        tail_full, bound_full = exact_tail_identity(F3, 3, 6)
        assert tail_full == 1
        assert bound_full is None

        tail_mean, bound_mean = exact_tail_identity(F3, 3, 3)
        assert tail_mean == Fraction(17, 27)
        assert tail_mean > Fraction(1, 2)
        assert bound_mean == 1  # t = 0 at the mean

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            exact_tail_identity(F3, 3, 7)
        with pytest.raises(ValueError, match="n must be positive"):
            exact_tail_identity(F3, 0, 0)

    def test_low_third_never_exceeds_bound(self):
        for p, n in [(3, 3), (3, 9), (5, 3), (7, 6), (11, 3)]:
            field = PrimeField(p)
            k = (p - 1) * n // 3
            tail, bound = exact_tail_identity(field, n, k)
            assert bound is not None
            assert Decimal(tail.numerator) / Decimal(tail.denominator) <= bound

    def test_tail_times_ambient_is_the_dimension(self):
        # the whole chain: dim = p^n * Pr[S <= (p-1)n/3] <= p^n * e^(-n/18) = p^(cn)
        for p, n in [(3, 3), (3, 6), (5, 3), (7, 3)]:
            field = PrimeField(p)
            k = (p - 1) * n // 3
            tail, bound = exact_tail_identity(field, n, k)
            assert tail == Fraction(dim_L(n, k, field), p**n)
            report = verify_entropy_lemma(field, n)
            assert report.exact_dim == tail * p**n
            assert Decimal(report.exact_dim) <= bound * p**n <= report.bound_value * (
                1 + Decimal("1e-25")
            )


class TestMainBound:
    def test_values(self):
        assert main_bound(F3, 0) == 3
        c = 1 - 1 / (18 * math.log(3))
        assert close(main_bound(F3, 3), 3 * math.exp(c * 3 * math.log(3)), 1e-9)
        assert close(main_bound(F3, 3), 68.565, 1e-2)
        assert close(main_bound(F3, 6), 3 * math.exp(c * 6 * math.log(3)), 1e-8)
        assert round(float(main_bound(F3, 6))) == 1567
        with pytest.raises(ValueError, match="n must be nonnegative"):
            main_bound(F3, -1)
