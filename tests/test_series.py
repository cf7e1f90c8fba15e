import cmath
import math

import pytest
from hypothesis import given, settings, strategies as st

from qineq import (
    CenterPoleError,
    ConfluentParams,
    InvalidArgumentError,
    LaurentSpec,
    NonConvergentError,
    PhiParams,
    QBase,
    eval_confluent_f,
    eval_laurent,
    eval_phi,
    eval_ramanujan_aq,
    eval_theta,
    phi_to_f,
    theta_weighted_constant,
)

import oracles


def _entire(q, l=1.0, a=(), b=()):
    return ConfluentParams(a_list=a, b_list=b, l=l, q=QBase(q))


def _theta_stream(q):
    return lambda k: complex(q ** (k * k))


def _rand_modulus(rng, lo=1e-3, hi=1e3):
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def _rand_point(rng, lo=1e-3, hi=1e3):
    ang = rng.uniform(0.0, 2.0 * math.pi)
    return _rand_modulus(rng, lo, hi) * complex(math.cos(ang), math.sin(ang))


class TestConfluentF:
    def test_zero_argument_short_circuits(self):
        res = eval_confluent_f(_entire(0.5), 0.0, 1e-14)
        assert res.value == 1.0 and res.terms_used == 1 and res.tail_bound == 0.0

    def test_reference_points(self):
        assert math.isclose(
            eval_confluent_f(_entire(0.5), -1.0, 1e-14).value.real,
            oracles.AQ_HALF_AT_ONE,
            rel_tol=1e-12,
        )
        assert math.isclose(
            eval_confluent_f(_entire(0.5), 1.0, 1e-14).value.real,
            oracles.AQ_HALF_AT_MINUS_ONE,
            rel_tol=1e-12,
        )

    def test_vanishing_numerator_parameter(self):
        # a = 1 zeroes every term past k = 0; the minimum-term rule still stops.
        res = eval_confluent_f(_entire(0.5, a=(1.0,)), 3.0, 1e-14)
        assert res.value == 1.0
        assert res.terms_used >= 8

    def test_agrees_with_direct_oracle(self, rng):
        for _ in range(100):
            q = rng.uniform(0.05, 0.95)
            params = _entire(
                q,
                l=rng.choice((0.5, 1.0, 1.5, 2.5)),
                a=tuple(_rand_point(rng, 1e-2, 2.0) for _ in range(rng.randint(0, 2))),
                b=tuple(rng.uniform(0.0, 0.95) for _ in range(rng.randint(0, 3))),
            )
            z = _rand_point(rng)
            got = eval_confluent_f(params, z, 1e-14)
            want, t_max = oracles.confluent_f_direct(
                params.a_list, params.b_list, params.l, q, z, 2 * got.terms_used
            )
            scale = max(1.0, abs(want), t_max)
            assert abs(got.value - want) <= 1e-12 * scale

    def test_truncation_certificate(self, rng):
        # Together with the theta, Laurent and Ramanujan-series loops below,
        # 500 sampled inputs exercise the doubled-depth certificate.
        for _ in range(260):
            params = _entire(
                rng.uniform(0.05, 0.95),
                l=rng.choice((0.5, 1.0, 1.5, 2.5)),
                a=tuple(_rand_point(rng, 1e-2, 2.0) for _ in range(rng.randint(0, 2))),
                b=tuple(rng.uniform(0.0, 0.95) for _ in range(rng.randint(0, 3))),
            )
            z = _rand_point(rng)
            first = eval_confluent_f(params, z, 1e-14)
            doubled = eval_confluent_f(params, z, 1e-14, _force_terms=2 * first.terms_used)
            change = abs(doubled.value - first.value)
            assert change <= first.tail_bound + 1e-14 * abs(first.value)
            assert first.tail_bound <= 1e-14 * max(1.0, abs(first.value))

    def test_overflowing_argument_raises(self):
        with pytest.raises(NonConvergentError):
            eval_confluent_f(_entire(0.95, l=0.5), 1e300, 1e-14)

    def test_rejects_bad_parameters(self):
        with pytest.raises(InvalidArgumentError):
            ConfluentParams(a_list=(), b_list=(1.0,), l=1.0, q=QBase(0.5))
        with pytest.raises(InvalidArgumentError):
            ConfluentParams(a_list=(), b_list=(), l=0.0, q=QBase(0.5))
        with pytest.raises(InvalidArgumentError):
            eval_confluent_f(_entire(0.5), 1.0, 0.0)


class TestPhi:
    def test_zero_argument(self):
        res = eval_phi(PhiParams((), (), QBase(0.5)), 0.0, 1e-14)
        assert res.value == 1.0 and res.terms_used == 1

    def test_reference_point(self):
        params = PhiParams(a_list=(0.5,), b_list=(0.0,), q=QBase(0.5))
        got = eval_phi(params, 0.3, 1e-14)
        assert math.isclose(got.value.real, oracles.PHI_EXAMPLE_VALUE, rel_tol=1e-12)
        assert abs(got.value.imag) < 1e-15

    def test_rejects_nonconfluent_shape(self):
        with pytest.raises(InvalidArgumentError):
            PhiParams(a_list=(0.1, 0.2), b_list=(0.3,), q=QBase(0.5))

    def test_overflowing_complex_modulus_raises_typed_error(self):
        # Both parts of a term stay finite while its modulus overflows.
        params = PhiParams(a_list=(0.5,), b_list=(0.3,), q=QBase(0.99))
        with pytest.raises(NonConvergentError):
            eval_phi(params, 39.7635364383525 + 39.7635364383525j, 1e-14)

    def test_agrees_with_direct_oracle(self, rng):
        for _ in range(100):
            m = rng.choice((1, 2, 3))
            r = rng.randint(0, min(2, 4 - m))
            params = PhiParams(
                a_list=tuple(_rand_point(rng, 1e-2, 2.0) for _ in range(r)),
                b_list=tuple(rng.uniform(0.0, 0.95) for _ in range(r + m - 1)),
                q=QBase(rng.uniform(0.05, 0.95)),
            )
            z = _rand_point(rng, 1e-3, 10.0)
            got = eval_phi(params, z, 1e-14)
            want, t_max = oracles.phi_direct(
                params.a_list, params.b_list, params.q.q, z, 2 * got.terms_used
            )
            assert abs(got.value - want) <= 1e-12 * max(1.0, abs(want), t_max)


class TestPhiReduction:
    def test_basic_shape(self):
        red = phi_to_f(PhiParams((), (), QBase(0.5)))
        assert red.params.l == 0.5
        assert cmath.isclose(red.scale * 1.0, -(0.5**-0.5))
        assert cmath.isclose(red.scale * 2.0j, -(0.5**-0.5) * 2.0j)

    def test_equal_parameters_give_equal_reductions(self):
        params = PhiParams(a_list=(0.4 + 0.1j,), b_list=(0.1, 0.6), q=QBase(0.6))
        again = PhiParams(params.a_list, params.b_list, params.q)
        assert again is not params
        assert phi_to_f(params) == phi_to_f(again)

    def test_weight_from_shape(self):
        params = PhiParams(a_list=(0.1,), b_list=(0.2, 0.3), q=QBase(0.5))
        assert phi_to_f(params).params.l == 1.0

    def test_pointwise_equality_single_case(self):
        params = PhiParams(a_list=(), b_list=(0.0,), q=QBase(0.5))
        red = phi_to_f(params)
        z = 0.7 + 0.1j
        lhs = eval_phi(params, z, 1e-14).value
        rhs = eval_confluent_f(red.params, red.scale * z, 1e-14).value
        assert abs(lhs - rhs) <= 1e-12 * (1.0 + abs(lhs))

    def test_pointwise_equality_sampled(self, rng):
        # q stays below 0.9: with slower decay the shared cancellation scale
        # of both routes can exceed what a value-relative bound absorbs.
        for _ in range(200):
            m = rng.choice((1, 2, 3))
            r = rng.randint(0, min(2, 4 - m))
            params = PhiParams(
                a_list=tuple(_rand_point(rng, 1e-2, 2.0) for _ in range(r)),
                b_list=tuple(rng.uniform(0.0, 0.95) for _ in range(r + m - 1)),
                q=QBase(rng.uniform(0.05, 0.9)),
            )
            red = phi_to_f(params)
            z = _rand_point(rng, 1e-3, 10.0)
            lhs = eval_phi(params, z, 1e-14).value
            rhs = eval_confluent_f(red.params, red.scale * z, 1e-14).value
            assert abs(lhs - rhs) <= 1e-12 * (1.0 + abs(lhs))


class TestRamanujanAq:
    def test_zero_argument(self):
        assert eval_ramanujan_aq(QBase(0.5), 0.0, 1e-14).value == 1.0

    def test_reference_points(self):
        q = QBase(0.5)
        assert math.isclose(
            eval_ramanujan_aq(q, 1.0, 1e-14).value.real, oracles.AQ_HALF_AT_ONE, rel_tol=1e-12
        )
        assert math.isclose(
            eval_ramanujan_aq(q, -1.0, 1e-14).value.real,
            oracles.AQ_HALF_AT_MINUS_ONE,
            rel_tol=1e-12,
        )

    def test_same_path_as_entire_series(self, rng):
        q = QBase(0.37)
        params = _entire(0.37)
        for _ in range(25):
            z = _rand_point(rng, 1e-2, 1e2)
            assert eval_ramanujan_aq(q, z, 1e-14).value == eval_confluent_f(params, -z, 1e-14).value

    def test_truncation_certificate(self, rng):
        for _ in range(100):
            base = QBase(rng.uniform(0.05, 0.95))
            params = ConfluentParams(a_list=(), b_list=(), l=1.0, q=base)
            z = _rand_point(rng)
            first = eval_ramanujan_aq(base, z, 1e-14)
            doubled = eval_confluent_f(params, -z, 1e-14, _force_terms=2 * first.terms_used)
            assert abs(doubled.value - first.value) <= first.tail_bound + 1e-14 * abs(first.value)


class TestTheta:
    def test_reference_points(self):
        q = QBase(0.5)
        assert math.isclose(
            eval_theta(q, 1.0, 1e-14).value.real, oracles.THETA_HALF_AT_ONE, rel_tol=1e-12
        )
        assert math.isclose(
            eval_theta(q, -1.0, 1e-14).value.real, oracles.THETA_HALF_AT_MINUS_ONE, rel_tol=1e-12
        )

    def test_zero_argument_rejected(self):
        with pytest.raises(InvalidArgumentError):
            eval_theta(QBase(0.5), 0.0, 1e-14)

    @settings(max_examples=60, deadline=None)
    @given(
        q=st.floats(0.05, 0.95),
        log_r=st.floats(math.log(1e-3), math.log(1e3)),
        ang=st.floats(0.0, 2.0 * math.pi),
    )
    def test_inversion_symmetry(self, q, log_r, ang):
        # Relative to the all-positive majorant scale: near the zeros of the
        # sum a value-relative comparison is unattainable in doubles.
        base = QBase(q)
        z = math.exp(log_r) * complex(math.cos(ang), math.sin(ang))
        lhs = eval_theta(base, z, 1e-14).value
        rhs = eval_theta(base, 1.0 / z, 1e-14).value
        assert abs(lhs - rhs) <= 1e-12 * oracles.theta_majorant(q, z)

    def test_quasi_periodicity(self, rng):
        # Reindexing k -> k+1 gives theta(q^2 z) = theta(z) / (q z).
        for _ in range(100):
            q = rng.uniform(0.05, 0.95)
            base = QBase(q)
            z = _rand_point(rng, 1e-2, 1e2)
            lhs = eval_theta(base, q * q * z, 1e-14).value
            rhs = eval_theta(base, z, 1e-14).value / (q * z)
            scale = oracles.theta_majorant(q, z) / abs(q * z)
            assert abs(lhs - rhs) <= 1e-12 * scale

    def test_agrees_with_direct_oracle(self, rng):
        for _ in range(100):
            base = QBase(rng.uniform(0.05, 0.95))
            z = _rand_point(rng)
            got = eval_theta(base, z, 1e-14)
            k_used = (got.terms_used - 1) // 2
            want, t_max = oracles.theta_direct(base.q, z, 2 * k_used)
            assert abs(got.value - want) <= 1e-12 * max(1.0, abs(want), t_max)

    def test_truncation_certificate(self, rng):
        for _ in range(100):
            base = QBase(rng.uniform(0.05, 0.95))
            z = _rand_point(rng)
            first = eval_theta(base, z, 1e-14)
            k_used = (first.terms_used - 1) // 2
            doubled = eval_theta(base, z, 1e-14, _force_k=2 * k_used)
            assert abs(doubled.value - first.value) <= first.tail_bound + 1e-14 * abs(first.value)


class TestLaurent:
    def test_theta_stream_reproduces_theta(self, rng):
        for _ in range(40):
            q = rng.uniform(0.1, 0.9)
            base = QBase(q)
            alpha = rng.uniform(0.5, 0.9)
            spec = LaurentSpec(
                center=0.0,
                coeff=_theta_stream(q),
                alpha=alpha,
                q=base,
                c_weighted=theta_weighted_constant(alpha, base, 1e-15),
            )
            z = _rand_point(rng, 1e-2, 1e2)
            got = eval_laurent(spec, z, 1e-12)
            want = eval_theta(base, z, 1e-14)
            scale = max(1.0, oracles.theta_majorant(q, z))
            assert abs(got.value - want.value) <= 1e-10 * scale

    def test_single_coefficient_constant(self):
        spec = LaurentSpec(
            center=0.0,
            coeff=lambda k: 1.0 if k == 0 else 0.0,
            alpha=1.0,
            q=QBase(0.5),
            c_weighted=1.0,
        )
        for z in (0.5, 2.0, -3.0 + 1.0j):
            assert eval_laurent(spec, z, 1e-14).value == 1.0

    def test_pair_of_coefficients(self):
        spec = LaurentSpec(
            center=0.0,
            coeff=lambda k: 1.0 if abs(k) == 1 else 0.0,
            alpha=1.0,
            q=QBase(0.5),
            c_weighted=4.0,
        )
        got = eval_laurent(spec, 2.0, 1e-14)
        assert got.value == 2.5

    def test_center_pole_rejected(self):
        spec = LaurentSpec(
            center=1.0 + 1.0j,
            coeff=lambda k: 0.0 if k else 1.0,
            alpha=1.0,
            q=QBase(0.5),
            c_weighted=1.0,
        )
        with pytest.raises(CenterPoleError):
            eval_laurent(spec, 1.0 + 1.0j, 1e-14)

    def test_partial_sum_modulus_overflow_raises(self):
        # Both parts of coeff(0) are finite; |partial| is not.
        spec = LaurentSpec(
            center=0.0,
            coeff=lambda k: 1.5e308 + 1.5e308j if k == 0 else 0.0,
            alpha=0.5,
            q=QBase(0.5),
            c_weighted=1.0,
        )
        with pytest.raises(NonConvergentError, match="Laurent sum overflowed the double range"):
            eval_laurent(spec, 1.0, 1e-14)

    def test_k_cap_guard(self):
        spec = LaurentSpec(
            center=0.0,
            coeff=_theta_stream(0.5),
            alpha=0.5,
            q=QBase(0.5),
            c_weighted=theta_weighted_constant(0.5, QBase(0.5), 1e-15),
            k_cap=3,
        )
        with pytest.raises(NonConvergentError):
            eval_laurent(spec, 100.0, 1e-14)

    def test_truncation_certificate(self, rng):
        q = QBase(0.4)
        spec = LaurentSpec(
            center=0.0,
            coeff=_theta_stream(0.4),
            alpha=0.75,
            q=q,
            c_weighted=theta_weighted_constant(0.75, q, 1e-15),
        )
        for _ in range(40):
            z = _rand_point(rng, 0.05, 20.0)
            first = eval_laurent(spec, z, 1e-12)
            k_used = (first.terms_used - 1) // 2
            doubled = eval_laurent(spec, z, 1e-12, _force_k=2 * k_used)
            assert abs(doubled.value - first.value) <= first.tail_bound + 1e-12 * abs(first.value)
