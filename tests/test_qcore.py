import cmath
import math
import random
import sys
import tracemalloc

import mpmath as mp
import pytest
from hypothesis import given, strategies as st

from qineq import (
    InvalidArgumentError,
    NonConvergentError,
    QBase,
    QSeriesError,
    multishifted,
    pochhammer_finite,
    pochhammer_infinite,
    q_binomial,
)

import oracles
import reference_qcore as ref


class TestQBase:
    @pytest.mark.parametrize("bad", [0.0, 1.0, -0.3, 1.2, float("nan"), 0.9999995])
    def test_rejects_out_of_range(self, bad):
        with pytest.raises(InvalidArgumentError):
            QBase(bad)

    def test_accepts_interior_values(self):
        assert QBase(1e-9).q == 1e-9
        assert QBase(0.999999).q == 0.999999

    def test_log_helpers(self):
        q = QBase(0.5)
        assert q.log_q == math.log(0.5)
        assert q.log_inv_q == -math.log(0.5)


class TestPochhammerFinite:
    def test_empty_product(self):
        assert pochhammer_finite(0.7, QBase(0.5), 0).value == 1.0

    def test_zero_parameter(self):
        assert pochhammer_finite(0.0, QBase(0.5), 5).value == 1.0

    def test_two_factors(self):
        assert pochhammer_finite(0.5, QBase(0.5), 2).value == 0.375

    def test_complex_parameter_matches_oracle(self):
        got = pochhammer_finite(1 + 2j, QBase(0.7), 6).value
        assert cmath.isclose(got, oracles.poch(1 + 2j, 0.7, 6), rel_tol=1e-14)

    def test_rejects_negative_count(self):
        with pytest.raises(InvalidArgumentError):
            pochhammer_finite(0.5, QBase(0.5), -1)

    @given(
        a=st.complex_numbers(max_magnitude=2.0, allow_nan=False, allow_infinity=False),
        q=st.floats(0.05, 0.95),
        n=st.integers(0, 50),
    )
    def test_one_factor_recurrence(self, a, q, n):
        base = QBase(q)
        left = pochhammer_finite(a, base, n + 1).value
        right = pochhammer_finite(a, base, n).value * (1.0 - a * q**n)
        assert cmath.isclose(left, right, rel_tol=1e-15, abs_tol=1e-290)


class TestPochhammerInfinite:
    def test_zero_parameter(self):
        value = pochhammer_infinite(0.0, QBase(0.5), 1e-14)
        assert value.value == 1.0
        assert value.tail_log_bound == 0.0

    def test_half_half(self):
        got = pochhammer_infinite(0.5, QBase(0.5), 1e-14)
        assert math.isclose(got.value, oracles.POCH_HALF_HALF_INF, rel_tol=1e-13)

    def test_unit_parameter_kills_product(self):
        assert pochhammer_infinite(1.0, QBase(0.5), 1e-14).value == 0.0

    def test_tail_bound_certifies_truncation(self, rng):
        for _ in range(50):
            q = QBase(rng.uniform(0.05, 0.9))
            a = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            got = pochhammer_infinite(a, q, 1e-10)
            deep = pochhammer_finite(a, q, got.factors_used + 400).value
            rel = abs(got.value - deep) / max(abs(deep), 1e-300)
            assert rel <= math.expm1(got.tail_log_bound) + 1e-15

    def test_truncation_matches_finite_product_exactly(self):
        got = pochhammer_infinite(0.3 + 0.1j, QBase(0.8), 1e-12)
        again = pochhammer_finite(0.3 + 0.1j, QBase(0.8), got.factors_used).value
        assert got.value == again

    def test_nonfinite_parameter_raises(self):
        with pytest.raises(NonConvergentError):
            pochhammer_infinite(float("inf"), QBase(0.5), 1e-14)

    def test_factor_cap_raises(self):
        # q at the guard boundary needs ~5e7 factors for tol 1e-16.
        with pytest.raises(NonConvergentError):
            pochhammer_infinite(1e300, QBase(0.999999), 1e-16)

    def test_count_corrected_down_from_the_log_guess(self):
        # The target is min(0.125 (1 - 0.5), 1/2) = 0.0625 = 0.125 * 0.5 exactly,
        # but the rounded log guess is just above 1 and ceils to 2.
        target = 0.125 * (1.0 - 0.5)
        assert math.ceil((math.log(target) - math.log(0.125)) / math.log(0.5)) == 2
        got = pochhammer_infinite(0.125, QBase(0.5), 0.125)
        assert got.factors_used == 1
        assert got.value == 1.0 - 0.125


class TestMultishifted:
    def test_empty_list(self):
        assert multishifted([], QBase(0.5), 3).value == 1.0

    def test_square_of_pair(self):
        got = multishifted([0.5, 0.5], QBase(0.5), 2)
        assert got.value == 0.140625

    def test_zero_entry_is_neutral_in_infinite_case(self):
        q = QBase(0.9)
        combined = multishifted([0.0, 0.3], q, math.inf, tol=1e-14)
        single = pochhammer_infinite(0.3, q, 1e-14)
        assert combined.value == single.value
        assert combined.tail_log_bound == single.tail_log_bound

    def test_rejects_fractional_order(self):
        with pytest.raises(InvalidArgumentError):
            multishifted([0.5], QBase(0.5), 2.5)

    @pytest.mark.parametrize("n", [3, math.inf])
    def test_generator_gives_the_lists_result(self, n):
        # The parameters are read once, so a generator is not used up by
        # the count before the products.
        base = QBase(0.5)
        got = multishifted((x for x in [0.5, 0.25]), base, n)
        assert got == multishifted([0.5, 0.25], base, n)
        assert got.factors_used == (3 if n == 3 else 50)


class TestQBinomial:
    def test_edge_column(self):
        assert q_binomial(7, 0, QBase(0.5)) == 1.0

    def test_four_choose_two(self):
        # Gaussian-binomial polynomial 1 + q + 2q^2 + q^3 + q^4 at q = 0.5.
        assert math.isclose(q_binomial(4, 2, QBase(0.5)), 2.1875, rel_tol=1e-14)

    @given(q=st.floats(0.05, 0.95), n=st.integers(0, 30), k=st.integers(0, 30))
    def test_symmetry(self, q, n, k):
        if k > n:
            n, k = k, n
        base = QBase(q)
        assert q_binomial(n, k, base) == q_binomial(n, n - k, base)

    @given(q=st.floats(0.05, 0.95), n=st.integers(1, 30), k=st.integers(1, 30))
    def test_pascal_recurrence(self, q, n, k):
        if k > n:
            n, k = k, n
        if k == 0 or k > n:
            return
        base = QBase(q)
        left = q_binomial(n, k, base)
        right = q_binomial(n - 1, k - 1, base) + q**k * q_binomial(n - 1, k, base) \
            if k <= n - 1 else q_binomial(n - 1, k - 1, base)
        assert math.isclose(left, right, rel_tol=1e-13)

    def test_rejects_k_above_n(self):
        with pytest.raises(InvalidArgumentError):
            q_binomial(3, 4, QBase(0.5))


def _q_binomial_mp(n, k, q):
    """The Gaussian binomial of the double q as a 60-digit mpmath product."""
    with mp.workdps(60):
        qm = mp.mpf(q)
        value = mp.mpf(1)
        for i in range(k):
            value *= (1 - qm ** (n - i)) / (1 - qm ** (i + 1))
        return value


class TestQBinomialNearOne:
    """Bases near 1, where (q;q)_k (q;q)_{n-k} is subnormal or zero."""

    @pytest.mark.parametrize("n, k, q", [(1500, 750, 0.9985), (1000, 500, 0.999),
                                         (235, 117, 0.999)])
    def test_matches_extended_precision(self, n, k, q):
        got = q_binomial(n, k, QBase(q))
        want = _q_binomial_mp(n, k, q)
        assert abs(got - want) <= 1e-13 * want

    def test_value_beyond_the_doubles_raises(self):
        assert _q_binomial_mp(3000, 1500, 0.999) > mp.mpf(sys.float_info.max)
        with pytest.raises(NonConvergentError, match="overflowed the double range"):
            q_binomial(3000, 1500, QBase(0.999))


# Parameters the fuzz below draws besides random ones: huge, infinite, nan,
# zero and unit moduli, and q^{-j}, which zeroes factor j exactly.
_SPECIAL = (0.0, 1.0, -1.0, 1e300, -1e300, 1e-300, math.inf, -math.inf, math.nan,
            complex(math.inf, 1.0), complex(0.0, math.nan), complex(1e300, 1e300), 1j)
_FUZZ_TOLS = (1e-16, 1e-14, 1e-8, 1e-3)


def _bits(value):
    if isinstance(value, complex):
        return "complex", value.real.hex(), value.imag.hex()
    return type(value).__name__, float(value).hex()


def _outcome(call, *args):
    """The exact result of a call: value bits and type, factor count, tail
    bound and result type, or the exception's type and message."""
    try:
        got = call(*args)
    except (QSeriesError, OverflowError, ValueError) as exc:
        return type(exc).__name__, str(exc)
    return _bits(got.value), got.factors_used, _bits(got.tail_log_bound), type(got)


def _fuzz_parameter(rng, q):
    pick = rng.random()
    if pick < 0.15:
        return rng.choice(_SPECIAL)
    if pick < 0.2:
        return q ** -rng.randrange(0, 8)
    modulus = math.exp(rng.uniform(math.log(1e-3), math.log(1e3)))
    if pick < 0.6:
        return rng.choice((1.0, -1.0)) * modulus
    return modulus * cmath.exp(1j * rng.uniform(0.0, 2.0 * math.pi))


def _fuzz_base(rng):
    pick = rng.random()
    if pick < 0.005:
        return rng.choice((0.999, 0.999999))
    if pick < 0.025:
        return rng.uniform(0.9, 0.99)
    return rng.uniform(1e-3, 0.9)


class TestSharedTableMatchesReference:
    """Every product of one base comes from one table of q**k; the values,
    counts, tails and errors are those of the per-factor reference loops in
    tests/reference_qcore.py, bit for bit and type for type."""

    def test_fuzzed_products(self):
        rng = random.Random(20_000)
        mismatches = []
        previous = 0.5
        for _ in range(20_000):
            q = _fuzz_base(rng)
            base = QBase(q)
            a = _fuzz_parameter(rng, q)
            n = rng.choice((0, 0, 1, rng.randrange(0, 40), rng.randrange(0, 400)))
            tol = rng.choice(_FUZZ_TOLS)
            pair = [a, previous] if rng.random() < 0.5 else [previous, a]
            cases = (
                ("finite", pochhammer_finite, ref.pochhammer_finite, (a, base, n)),
                ("infinite", pochhammer_infinite, ref.pochhammer_infinite, (a, base, tol)),
                ("multi", multishifted, ref.multishifted, (pair, base, n)),
                ("multi-inf", multishifted, ref.multishifted, (pair, base, math.inf, tol)),
            )
            # Lists at about every fourth draw, single parameters at every draw.
            for name, call, want, args in cases if rng.random() < 0.25 else cases[:2]:
                got = _outcome(call, *args)
                if got != _outcome(want, *args):
                    mismatches.append((name, args, got))
            previous = a
        assert not mismatches, mismatches[:5]

    def test_empty_products_are_float_one(self):
        base = QBase(0.5)
        for got in (pochhammer_finite(2.0 + 1j, base, 0), pochhammer_infinite(0.0, base, 1e-14),
                    multishifted([], base, 4), multishifted([], base, math.inf),
                    multishifted([0.0, 0j], base, math.inf)):
            assert type(got.value) is float and got.value == 1.0

    @pytest.mark.parametrize("call, args", [
        (pochhammer_infinite, (complex(1.5e308, 1.5e308), QBase(0.5), 1e-14)),
        (multishifted, ([0.5, complex(1.5e308, 1.5e308)], QBase(0.5), math.inf)),
    ])
    def test_parameter_whose_modulus_overflows(self, call, args):
        # Finite parts whose modulus is beyond the doubles: abs() raises
        # OverflowError, which must surface as the typed non-finite error.
        got = _outcome(call, *args)
        assert got == ("NonConvergentError",
                       "non-finite parameter (1.5e+308+1.5e+308j) in infinite product")
        assert got == _outcome(getattr(ref, call.__name__), *args)

    @pytest.mark.parametrize("call, args, kind", [
        (pochhammer_finite, (1e200, QBase(0.5), 3), "finite"),
        (pochhammer_finite, (math.nan, QBase(0.5), 3), "finite"),
        (multishifted, ([1e200, 1e200], QBase(0.5), 2), "finite"),
        (multishifted, ([-1e10, -1e10], QBase(0.5), math.inf), "infinite"),
    ])
    def test_product_beyond_the_doubles_raises(self, call, args, kind):
        # The last case's parts are finite (1.42e172 each); only their
        # product leaves the doubles.
        got = _outcome(call, *args)
        assert got == ("NonConvergentError", f"{kind} product overflowed the double range")
        assert got == _outcome(getattr(ref, call.__name__), *args)

    def test_shared_base_with_different_counts(self):
        # Real and complex parameters of one base need different factor
        # counts, so all but the longest product run over a prefix of the
        # table; zeros of either sign and -0.0 imaginary parts included.
        parameters = [0.9, 0.3 + 0.4j, 1e-5, -2.0, 0.0, -0.0, complex(0.7, -0.0),
                      complex(-0.0, -0.0), complex(-0.0, 0.5), 1e300]
        for q in (0.1, 0.5, 0.93):
            base = QBase(q)
            for tol in (1e-16, 1e-3):
                for a in parameters:
                    args = (a, base, tol)
                    assert _outcome(pochhammer_infinite, *args) == _outcome(ref.pochhammer_infinite, *args)
                for pair in zip(parameters, reversed(parameters)):
                    args = (list(pair), base, math.inf, tol)
                    assert _outcome(multishifted, *args) == _outcome(ref.multishifted, *args)
                args = (parameters, base, math.inf, tol)
                assert _outcome(multishifted, *args) == _outcome(ref.multishifted, *args)

    @pytest.mark.parametrize("a_list, tol", [
        ([], -1.0), ([], math.nan), ([math.inf], -1.0), ([complex(1.5e308, 1.5e308)], 0.0),
        ([math.nan, 0.5], math.nan),
        # tol (1 - q) underflows to 0.0: a zero parameter needs no factor,
        # a non-finite one raises its own error, and any other one raises
        # InvalidArgumentError, in the order a per-parameter loop met them.
        ([0.0], 5e-324), ([0.0, math.inf], 5e-324), ([0.5], 5e-324), ([0.0, 0.5, math.inf], 5e-324),
    ])
    def test_tol_is_checked_once_and_first(self, a_list, tol):
        base = QBase(0.5)
        args = (a_list, base, math.inf, tol)
        got = _outcome(multishifted, *args)
        assert got == _outcome(ref.multishifted, *args)
        if not a_list:
            assert got[0] == ("float", "0x1.0000000000000p+0")
        elif not tol > 0.0:
            assert got == ("InvalidArgumentError", f"tol must be positive, got {tol!r}")
        elif a_list[0] == 0.5:
            assert got == ("InvalidArgumentError", "tol too small at q = 0.5: tol (1 - q) underflows to 0")
        if len(a_list) == 1:
            args = (a_list[0], base, tol)
            assert _outcome(pochhammer_infinite, *args) == _outcome(ref.pochhammer_infinite, *args)

    @pytest.mark.parametrize("q", [0.5, 0.1, 0.7, 1e-3])
    def test_products_past_the_underflow_of_q_to_the_k(self, q):
        # q**k is 0.0 from some k0 on, so every later factor is 1 - a * 0.0;
        # the orders around k0 and well past it keep the reference bits.
        k0 = next(k for k in range(5000) if q**k == 0.0)
        orders = sorted({*range(k0 - 2, k0 + 3), *range(1073, 1078), 2000})
        parameters = [0.5, -0.75, 2.0, 0.0, -0.0, 1e300, -1e300, math.nan, math.inf,
                      complex(0.5, -0.0), complex(-0.0, 0.25), complex(-0.0, -0.0), complex(2.0, -0.0),
                      complex(-1.0, -0.0), complex(math.nan, 0.0), complex(1.0, math.inf), 0.25 + 0.1j]
        base = QBase(q)
        for n in orders:
            for a in parameters:
                args = (a, base, n)
                assert _outcome(pochhammer_finite, *args) == _outcome(ref.pochhammer_finite, *args)
            for pair in zip(parameters, parameters[1:]):
                args = (list(pair), base, n)
                assert _outcome(multishifted, *args) == _outcome(ref.multishifted, *args)

    def test_a_long_finite_product_holds_no_factor_list(self):
        base = QBase(0.5)
        tracemalloc.start()
        try:
            got = pochhammer_finite(0.5, base, 10**6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got == (0.2887880950866024, 10**6, 0.0)
        assert peak < 2**20

    def test_overflow_is_raised_before_a_later_count_error(self):
        # The first product overflows and the second parameter needs more
        # than FACTOR_CAP factors: a parameter-by-parameter loop raised the
        # overflow, so the shared table must too.
        base = QBase(0.9999)
        args = ([1e20, 1e30], base, math.inf, 1e-16)
        want = _outcome(ref.multishifted, *args)
        assert want == ("NonConvergentError", "infinite product overflowed the double range")
        assert _outcome(multishifted, *args) == want
        args = ([1e30, 1e20], base, math.inf, 1e-16)
        assert _outcome(multishifted, *args) == _outcome(ref.multishifted, *args)
        assert _outcome(multishifted, *args)[0] == "NonConvergentError"
