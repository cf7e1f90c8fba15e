import cmath
import math

import pytest
from hypothesis import given, strategies as st

from qineq import (
    InvalidArgumentError,
    NonConvergentError,
    QBase,
    multishifted,
    pochhammer_finite,
    pochhammer_infinite,
    q_binomial,
)

import oracles


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
