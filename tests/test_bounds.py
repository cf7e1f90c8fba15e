import copy
import gc
import math
import pickle
import random
import re
import sys

import mpmath as mp
import pytest

from qineq import (
    ConfluentParams,
    InvalidArgumentError,
    NonConvergentError,
    PhiParams,
    QBase,
    constant_c,
    draw_confluent_params,
    draw_phi_params,
    envelope_aq_exponential,
    envelope_aq_gaussian,
    envelope_entire,
    envelope_meromorphic,
    envelope_phi,
    envelope_theta,
    envelope_theta_as_printed,
    eval_confluent_f,
    eval_phi,
    eval_ramanujan_aq,
    eval_theta,
    laurent_weighted_constant,
    meromorphic_bound_params,
    phi_to_f,
    pochhammer_infinite,
    term_peak,
    theta_weighted_constant,
)
from qineq import LaurentSpec, QSeriesError, SweepPlan, audit_envelope, audit_target, bounds, log_grid

import oracles
import reference_bounds as refb
import reference_qcore as ref
from reference_bounds import envelope_phi_routes

LOG_SLACK = math.log1p(1e-12)


def _entire(q, l=1.0, a=(), b=()):
    return ConfluentParams(a_list=a, b_list=b, l=l, q=QBase(q))


def _entire_logs(params):
    return bounds._field_logs(params.a_list, params.b_list, params.l, params.q)


def _log_abs(value) -> float:
    mag = abs(value)
    return math.log(mag) if mag > 0.0 else -math.inf


class TestConstantC:
    def test_empty_lists(self):
        assert constant_c(_entire(0.5)) == 1.0

    def test_zero_numerator_parameter(self):
        assert constant_c(_entire(0.5, a=(0.0,))) == 1.0

    def test_single_denominator(self):
        got = constant_c(_entire(0.5, b=(0.5,)))
        assert math.isclose(got, oracles.CONST_C_B_HALF, rel_tol=1e-13)

    def test_at_least_one(self, rng):
        for _ in range(30):
            params = _entire(
                rng.uniform(0.05, 0.95),
                a=tuple(complex(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(2)),
                b=(rng.uniform(0.0, 0.95),),
            )
            assert constant_c(params) >= 1.0


class TestTermPeak:
    def test_unit_modulus(self):
        assert math.isclose(term_peak(1.0, 1.0, QBase(0.5)), -0.25 * math.log(0.5), rel_tol=1e-15)

    @pytest.mark.parametrize("abs_z,l,q", [(1.0, 1.0, 0.5), (4.0, 1.0, 0.5), (0.01, 2.0, 0.9)])
    def test_dominates_integer_grid_fixed(self, abs_z, l, q):
        assert oracles.peak_grid_max(abs_z, l, q) <= term_peak(abs_z, l, QBase(q)) + 1e-12

    def test_dominates_integer_grid_sampled(self, rng):
        for _ in range(200):
            abs_z = math.exp(rng.uniform(math.log(1e-4), math.log(1e4)))
            l = rng.choice((0.5, 1.0, 1.5, 2.5))
            q = rng.uniform(0.05, 0.95)
            assert oracles.peak_grid_max(abs_z, l, q) <= term_peak(abs_z, l, QBase(q)) + 1e-12

    def test_rejects_zero_modulus(self):
        with pytest.raises(InvalidArgumentError):
            term_peak(0.0, 1.0, QBase(0.5))

    @pytest.mark.parametrize("l", [5e-324, 1e-17])
    def test_rejects_a_weight_that_rounds_q_to_the_l_to_one(self, l):
        # At l = 5e-324, 4 l log q underflows to 0 as well.
        base = QBase(0.999999)
        message = f"q^l rounds to 1 at q = 0.999999, l = {l!r}"
        with pytest.raises(InvalidArgumentError, match=re.escape(message)):
            term_peak(1e-308, l, base)
        with pytest.raises(InvalidArgumentError, match=re.escape(message)):
            envelope_entire(ConfluentParams(a_list=(), b_list=(), l=l, q=base), 1e-308)


class TestEnvelopeEntire:
    def test_reference_value(self):
        env = envelope_entire(_entire(0.5), 1.0)
        assert math.isclose(env.bound, oracles.ENTIRE_ENV_HALF_AT_ONE, rel_tol=1e-12)
        assert env.bound >= oracles.AQ_HALF_AT_MINUS_ONE

    def test_matches_gaussian_formula_pointwise(self, rng):
        # r = s = 0, l = 1 collapses to the closed Gaussian form.
        for _ in range(50):
            q = rng.uniform(0.05, 0.95)
            abs_z = math.exp(rng.uniform(math.log(1e-6), math.log(1e6)))
            lz, lq = math.log(abs_z), math.log(q)
            poch = oracles.poch(q, q, 800).real
            want = 0.5 * math.log(abs_z / math.sqrt(q)) - lz * lz / (4.0 * lq) - math.log(poch)
            got = envelope_entire(_entire(q), abs_z).log_bound
            assert abs(got - want) <= 1e-13 * max(1.0, abs(want))

    def test_dominates_on_circle(self):
        params = _entire(0.7, l=0.5, a=(0.3j,), b=(0.2,))
        env = envelope_entire(params, 5.0)
        for j in range(16):
            ang = 2.0 * math.pi * j / 16
            z = 5.0 * complex(math.cos(ang), math.sin(ang))
            value = eval_confluent_f(params, z, 1e-14).value
            assert _log_abs(value) <= env.log_bound + LOG_SLACK

    def test_component_breakdown(self):
        env = envelope_entire(_entire(0.3, l=1.5, b=(0.4,)), 7.0)
        assert env.log_bound == math.log(env.constant_c) + env.prefactor_log + env.exponent_term

    def test_exponent_term_is_term_peak(self, rng):
        for _ in range(500):
            params = draw_confluent_params(rng)
            for _ in range(4):
                r = math.exp(rng.uniform(math.log(1e-6), math.log(1e8)))
                env = envelope_entire(params, r)
                assert env.exponent_term.hex() == term_peak(r, params.l, params.q).hex()
                assert env.prefactor_log.hex() == (-_entire_logs(params)[2]).hex()

    def test_overflow_marker(self):
        env = envelope_entire(_entire(0.5), 1e300)
        assert env.bound == math.inf
        assert math.isfinite(env.log_bound)

    def test_rejects_a_weight_that_rounds_q_to_the_l_to_one(self):
        params = ConfluentParams(a_list=(), b_list=(), l=1e-17, q=QBase(0.5))
        with pytest.raises(InvalidArgumentError, match="q\\^l rounds to 1"):
            envelope_entire(params, 2.0)
        with pytest.raises(InvalidArgumentError, match="q\\^l rounds to 1"):
            constant_c(params)

    def test_rejects_zero_modulus(self):
        with pytest.raises(InvalidArgumentError):
            envelope_entire(_entire(0.5), 0.0)


class TestEnvelopePhi:
    def test_routes_agree_single_case(self):
        params = PhiParams(a_list=(0.4,), b_list=(0.1, 0.6), q=QBase(0.6))
        direct, composed = envelope_phi_routes(params, 3.0)
        assert abs(direct.log_bound - composed.log_bound) <= 1e-13 * max(1.0, abs(direct.log_bound))

    def test_zero_order_closed_form(self):
        # r = s = 0 gives l = 1/2 and argument scale q^{-1/2}.
        q = 0.5
        env = envelope_phi(PhiParams((), (), QBase(q)), 1.0)
        lq = math.log(q)
        poch = oracles.poch(math.sqrt(q), q, 800).real
        want = -math.log(poch) - 3.0 * lq / 8.0 + (0.5 * lq) ** 2 / (-2.0 * lq)
        assert abs(env.log_bound - want) <= 1e-12 * max(1.0, abs(want))

    def test_dominates_on_circle(self):
        params = PhiParams(a_list=(), b_list=(0.0,), q=QBase(0.5))
        env = envelope_phi(params, 2.0)
        for j in range(32):
            ang = 2.0 * math.pi * j / 32
            z = 2.0 * complex(math.cos(ang), math.sin(ang))
            value = eval_phi(params, z, 1e-14).value
            assert _log_abs(value) <= env.log_bound + LOG_SLACK

    def test_direct_route_does_not_compose(self, monkeypatch):
        params = PhiParams(a_list=(0.4,), b_list=(0.1, 0.6), q=QBase(0.6))
        want = [_bits(envelope_phi(params, abs_z)) for abs_z in MODULI]

        def no_entire(p, abs_z):
            raise AssertionError("envelope_phi composed through envelope_entire")

        monkeypatch.setattr(bounds, "envelope_entire", no_entire)
        assert [_bits(envelope_phi(params, abs_z)) for abs_z in MODULI] == want

    def test_routes_agree_sampled(self, rng):
        for _ in range(100):
            m = rng.choice((1, 2, 3))
            r = rng.randint(0, min(2, 4 - m))
            params = PhiParams(
                a_list=tuple(complex(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(r)),
                b_list=tuple(rng.uniform(0.0, 0.95) for _ in range(r + m - 1)),
                q=QBase(rng.uniform(0.05, 0.95)),
            )
            abs_z = math.exp(rng.uniform(math.log(1e-3), math.log(1e3)))
            direct, composed = envelope_phi_routes(params, abs_z)
            assert abs(direct.log_bound - composed.log_bound) <= 1e-12 * max(
                1.0, abs(direct.log_bound)
            )


class TestEnvelopeAqGaussian:
    def test_agrees_with_entire_specialization(self):
        # A_q is the entire class at r = s = 0, l = 1: every field, bit for bit.
        for q in (1e-300, 1e-3, 0.1, 0.5, 0.9, 0.99, 0.999):
            base = QBase(q)
            params = _entire(q)
            moduli = [math.exp(math.log(1e-6) + i * (math.log(1e6) - math.log(1e-6)) / 99)
                      for i in range(100)]
            if q == 1e-300:
                moduli.append(1e200)
            for abs_z in moduli:
                a = envelope_aq_gaussian(base, abs_z)
                b = envelope_entire(params, abs_z)
                assert [x.hex() for x in a] == [x.hex() for x in b], (q, abs_z)

    def test_independent_closed_form_within_a_few_ulps(self):
        # tests/reference_bounds.envelope_aq_gaussian groups the same bound as
        # (|z|/sqrt(q))^{1/2} / (q;q)_inf times exp(-log^2|z| / (4 log q)).
        # Both routes round a few operations on summands whose magnitudes add
        # up to S, so they agree to 4 ulp of max(1, S); cancellation between
        # the summands can leave log_bound itself much smaller than S.
        rng = random.Random(36)
        for _ in range(3000):
            if rng.random() < 0.5:
                base = QBase(math.exp(rng.uniform(math.log(1e-300), math.log(0.999))))
            else:
                base = QBase(rng.uniform(1e-3, 0.999))
            abs_z = math.exp(rng.uniform(math.log(1e-307), math.log(1e308)))
            got = envelope_aq_gaussian(base, abs_z)
            want = refb.envelope_aq_gaussian(base, abs_z)
            lz = math.log(abs_z)
            size = (abs(got.prefactor_log) + 0.5 * abs(lz) + 0.25 * base.log_inv_q
                    + lz * lz / (4.0 * base.log_inv_q))
            assert abs(got.log_bound - want.log_bound) <= 4.0 * sys.float_info.epsilon * max(1.0, size)
            assert got.constant_c == want.constant_c == 1.0

    def test_aq_and_f_audits_certify_the_same_envelope_cells(self):
        # The aq target and the f target with l = 1 and no parameters sweep
        # the same series against the same envelope.
        base = QBase(0.99)
        plan = SweepPlan(abs_z_grid=log_grid(1e-4, 1e6, 41), angle_count=8)
        aq = audit_envelope(plan, "aq", base)
        f = audit_envelope(plan, "confluent_f", _entire(0.99))
        assert len(aq) == len(f) == 328
        assert [r.envelope_log.hex() for r in aq] == [r.envelope_log.hex() for r in f]
        assert [(r.z, r.abs_value, r.passed, r.error) for r in aq] == [
            (r.z, r.abs_value, r.passed, r.error) for r in f]

    def test_prefactor_of_a_product_that_rounds_to_one_is_positive_zero(self):
        # (q;q)_inf rounds to 1 at q = 1e-300, so its log is 0.0; the
        # prefactor -log (q;q)_inf is +0.0 there, never -0.0, for aq and
        # for f at l = 1, with the log_bound of the grouping log c +
        # prefactor + exponent.
        base = QBase(1e-300)
        for env in (envelope_aq_gaussian(base, 1e200), envelope_entire(_entire(1e-300), 1e200)):
            assert env.prefactor_log == 0.0 and math.copysign(1.0, env.prefactor_log) == 1.0
            assert env.log_bound == env.exponent_term == term_peak(1e200, 1.0, base)

    def test_log_argument_one(self):
        # At |z| = e the exponent reduces to 1/(4 log 2) and the prefactor to
        # 1/2 + (log 2)/4.
        env = envelope_aq_gaussian(QBase(0.5), math.e)
        want = 0.5 + 0.25 * math.log(2.0) + 1.0 / (4.0 * math.log(2.0)) - math.log(
            oracles.POCH_HALF_HALF_INF
        )
        assert math.isclose(env.log_bound, want, rel_tol=1e-12)

    def test_modulus_over_sqrt_q_beyond_the_doubles(self):
        # |z| / sqrt(q) overflows at these bases; the entire-class closed form
        # never forms it, and its log_bound still matches.
        mp.mp.dps = 30
        try:
            for q, abs_z in ((1e-300, 1e200), (1e-200, 1.7e308), (1e-100, 1e300)):
                qq, z = mp.mpf(q), mp.mpf(abs_z)
                want = (-mp.log(mp.qp(qq, qq)) + mp.log(z / mp.sqrt(qq)) / 2
                        - mp.log(z) ** 2 / (4 * mp.log(qq)))
                got = envelope_aq_gaussian(QBase(q), abs_z)
                assert math.isclose(got.log_bound, float(want), rel_tol=1e-14)
        finally:
            mp.mp.dps = 15

    def test_dominates_sampled(self, rng):
        base = QBase(0.3)
        for _ in range(100):
            abs_z = math.exp(rng.uniform(math.log(1e-4), math.log(1e4)))
            ang = rng.uniform(0.0, 2.0 * math.pi)
            z = abs_z * complex(math.cos(ang), math.sin(ang))
            value = eval_ramanujan_aq(base, z, 1e-14).value
            assert _log_abs(value) <= envelope_aq_gaussian(base, abs_z).log_bound + LOG_SLACK


class TestEnvelopeAqExponential:
    def test_zero_modulus(self):
        assert envelope_aq_exponential(QBase(0.5), 0.0).bound == 1.0

    def test_unit_modulus(self):
        assert math.isclose(envelope_aq_exponential(QBase(0.5), 1.0).bound, math.e, rel_tol=1e-15)

    def test_exponent_beyond_the_doubles_raises(self):
        # q |z| / (1 - q) = 0.999999 * 1.7e308 / 1e-6 overflows.
        message = re.escape("envelope exponent overflowed the double range at abs_z = 1.7e+308")
        with pytest.raises(NonConvergentError, match=message):
            envelope_aq_exponential(QBase(0.999999), 1.7e308)
        assert math.isfinite(envelope_aq_exponential(QBase(0.999999), 1e300).log_bound)

    def test_dominates_sampled(self, rng):
        base = QBase(0.5)
        for _ in range(100):
            r = 50.0 * rng.random()
            ang = rng.uniform(0.0, 2.0 * math.pi)
            z = r * complex(math.cos(ang), math.sin(ang))
            value = eval_ramanujan_aq(base, z, 1e-14).value
            assert _log_abs(value) <= envelope_aq_exponential(base, r).log_bound + LOG_SLACK


class TestMeromorphicParams:
    def test_alpha_one_closed_form(self):
        params = meromorphic_bound_params(1.0, QBase(0.25))
        assert math.isclose(params.beta, 1.0 / (4.0 * math.log(4.0)), rel_tol=1e-15)
        assert params.gamma == 2.0

    def test_alpha_one_natural_base(self):
        params = meromorphic_bound_params(1.0, QBase(1.0 / math.e))
        assert math.isclose(params.beta, 0.25, rel_tol=1e-14)
        assert params.gamma == 2.0

    def test_positivity_sampled(self, rng):
        for _ in range(50):
            params = meromorphic_bound_params(rng.uniform(1e-3, 10.0), QBase(rng.uniform(0.05, 0.95)))
            assert params.beta > 0.0
            assert params.gamma > 1.0

    @pytest.mark.parametrize("q", [0.1, 0.9])
    def test_beta_outside_the_doubles_is_rejected(self, q):
        # alpha = 0.001: log(1/q)^1000 overflows at q = 0.1 and is 0 at q = 0.9.
        with pytest.raises(InvalidArgumentError, match="beta outside the positive doubles"):
            meromorphic_bound_params(0.001, QBase(q))


class TestEnvelopeMeromorphic:
    def test_unit_distance(self):
        params = meromorphic_bound_params(1.0, QBase(1.0 / math.e))
        assert envelope_meromorphic(params, 1.0, 1.0).bound == 1.0

    def test_euler_distance(self):
        params = meromorphic_bound_params(1.0, QBase(1.0 / math.e))
        got = envelope_meromorphic(params, 1.0, math.e).bound
        assert math.isclose(got, math.exp(0.25), rel_tol=1e-13)

    def test_rejects_zero_distance(self):
        params = meromorphic_bound_params(1.0, QBase(0.5))
        with pytest.raises(InvalidArgumentError):
            envelope_meromorphic(params, 1.0, 0.0)

    @pytest.mark.parametrize("alpha,q,dist", [(0.001, 0.5, 1e300), (0.0085, 0.99, 200.0)])
    def test_exponent_beyond_the_doubles_raises(self, alpha, q, dist):
        # |log dist|^gamma overflows in the first case; its product with beta
        # in the second.
        params = meromorphic_bound_params(alpha, QBase(q))
        message = re.escape(f"envelope exponent overflowed the double range at dist = {dist!r}")
        with pytest.raises(NonConvergentError, match=message):
            envelope_meromorphic(params, 1.0, dist)
        with pytest.raises(NonConvergentError, match=message):
            params.exponent(dist)

    def test_term_domination_sampled(self, rng):
        # Every weighted power q^{|k|^(alpha+1)} dist^k stays under the
        # closed-form exponential.
        for _ in range(100):
            alpha = rng.uniform(0.05, 10.0)
            q = rng.uniform(0.05, 0.95)
            dist = math.exp(rng.uniform(math.log(1e-3), math.log(1e3)))
            params = meromorphic_bound_params(alpha, QBase(q))
            cap = params.beta * abs(math.log(dist)) ** params.gamma
            lq, ld = math.log(q), math.log(dist)
            for k in range(-40, 41):
                assert abs(k) ** (alpha + 1.0) * lq + k * ld <= cap + LOG_SLACK


class TestThetaWeightedConstant:
    def test_reference_value(self):
        got = theta_weighted_constant(0.5, QBase(0.5), 1e-14)
        assert math.isclose(got, oracles.THETA_WEIGHTED_HALF_HALF, rel_tol=1e-12)

    def test_floor_of_three(self, rng):
        # k = 0 contributes 1 and k = +-1 contribute q^0 = 1 each.
        for _ in range(20):
            got = theta_weighted_constant(rng.uniform(0.01, 0.99), QBase(rng.uniform(0.05, 0.95)), 1e-14)
            assert got >= 3.0

    def test_monotone_in_alpha(self):
        base = QBase(0.5)
        low = theta_weighted_constant(0.25, base, 1e-14)
        high = theta_weighted_constant(0.75, base, 1e-14)
        assert high >= low

    def test_matches_oracle_sampled(self, rng):
        for _ in range(30):
            alpha = rng.uniform(0.05, 0.95)
            q = rng.uniform(0.05, 0.9)
            got = theta_weighted_constant(alpha, QBase(q), 1e-15)
            assert math.isclose(got, oracles.theta_weighted_direct(alpha, q), rel_tol=1e-12)

    @pytest.mark.parametrize("alpha", [0.0, 1.0, -0.5, 1.5])
    def test_rejects_alpha_outside_unit_interval(self, alpha):
        with pytest.raises(InvalidArgumentError):
            theta_weighted_constant(alpha, QBase(0.5), 1e-14)

    def test_cap(self):
        # At alpha = 1 - 2^-53, 1 + alpha rounds to 2.0: every term is q^0 = 1,
        # so none falls below tol.
        with pytest.raises(NonConvergentError,
                           match=f"did not settle within {bounds.WEIGHTED_SUM_CAP} terms"):
            theta_weighted_constant(1.0 - 2.0**-53, QBase(0.5), 1e-14)


class TestLaurentWeightedConstant:
    def test_matches_theta_stream(self):
        base = QBase(0.5)
        got = laurent_weighted_constant(lambda k: 0.5 ** (k * k), 0.5, base)
        want = theta_weighted_constant(0.5, base, 1e-15)
        assert math.isclose(got, want, rel_tol=1e-10)

    def test_finite_support(self):
        got = laurent_weighted_constant(lambda k: 1.0 if abs(k) == 1 else 0.0, 1.0, QBase(0.5))
        assert got == 4.0

    def test_divergent_stream_raises(self):
        with pytest.raises(NonConvergentError):
            laurent_weighted_constant(lambda k: 1.0, 0.5, QBase(0.5))

    def test_weight_power_beyond_the_doubles_raises(self):
        # 2^2001 overflows, so the weighted term at |k| = 2 does too.
        with pytest.raises(NonConvergentError, match=re.escape("weighted term at |k| = 2 overflowed")):
            laurent_weighted_constant(lambda k: 0.5 ** (k * k), 2000.0, QBase(0.5))

    @pytest.mark.parametrize("bad_k, coefficient, message", [
        (3, complex(1.5e308, 1.5e308), "weighted term at |k| = 3 overflowed"),
        (0, complex(1.5e308, 1.5e308), "weighted constant inf is not a finite double"),
        (0, math.inf, "weighted constant inf is not a finite double"),
        (2, math.nan, "weighted constant nan is not a finite double"),
    ])
    def test_nonfinite_coefficient_raises(self, bad_k, coefficient, message):
        # A modulus beyond the doubles, or an inf or nan coefficient, raises
        # the typed error instead of OverflowError or an inf or nan constant.
        def coeff(k):
            return coefficient if k == bad_k else 0.5 ** (k * k)

        with pytest.raises(NonConvergentError, match=re.escape(message)):
            laurent_weighted_constant(coeff, 0.5, QBase(0.5))


class TestEnvelopeTheta:
    def test_unit_modulus_reduces_to_constant(self):
        env = envelope_theta(0.5, QBase(0.5), 1.0)
        assert math.isclose(env.bound, oracles.THETA_WEIGHTED_HALF_HALF, rel_tol=1e-12)
        assert env.bound >= oracles.THETA_HALF_AT_ONE

    def test_inversion_symmetry(self, rng):
        base = QBase(0.4)
        for _ in range(30):
            abs_z = math.exp(rng.uniform(math.log(1e-3), math.log(1e3)))
            a = envelope_theta(0.5, base, abs_z).log_bound
            b = envelope_theta(0.5, base, 1.0 / abs_z).log_bound
            assert abs(a - b) <= 1e-12 * max(1.0, abs(a))

    def test_dominates_on_grid(self):
        base = QBase(0.3)
        for abs_z in (0.01, 0.1, 10.0, 100.0):
            env = envelope_theta(0.5, base, abs_z)
            for j in range(16):
                ang = 2.0 * math.pi * j / 16
                z = abs_z * complex(math.cos(ang), math.sin(ang))
                value = eval_theta(base, z, 1e-14).value
                assert _log_abs(value) <= env.log_bound + LOG_SLACK

    def test_as_printed_variant_differs(self):
        # Same constant, different exponent; kept for comparison only.
        certified = envelope_theta(0.5, QBase(0.5), 10.0)
        printed = envelope_theta_as_printed(0.5, QBase(0.5), 10.0)
        assert certified.constant_c == printed.constant_c
        assert printed.exponent_term != certified.exponent_term
        want = math.log(10.0) ** 2 / (0.5 * math.log(2.0))
        assert math.isclose(printed.exponent_term, want, rel_tol=1e-13)


# (builder, call that fills its cache or memo for the i-th distinct parameter
# set); each call builds fresh parameter objects.
CACHED_ENVELOPES = (
    (bounds._entire_constants, lambda i: envelope_entire(_entire(0.5, l=1.0 + i / 1024), 2.0)),
    (bounds._phi_constants, lambda i: envelope_phi(PhiParams((), (0.5 * i / 1024,), QBase(0.5)), 2.0)),
    (bounds._aq_constant, lambda i: envelope_aq_gaussian(QBase(0.5 + i / 4096), 2.0)),
    (bounds._theta_constant, lambda i: envelope_theta(0.25 + i / 4096, QBase(0.5), 2.0)),
    (bounds._meromorphic_constants, lambda i: envelope_meromorphic(
        meromorphic_bound_params(0.25 + i / 4096, QBase(0.5)), 3.0, 2.0)),
)
MODULI = (1e-6, 0.3, 1.0, 2.0, 7.5, 1e4, 1e6)


def _live_parameter_objects():
    gc.collect()
    return sum(type(obj) in (ConfluentParams, PhiParams, QBase) for obj in gc.get_objects())


def _bits(env):
    # The type too: a named tuple compares equal to any tuple with its fields.
    fields = (env.log_bound, env.constant_c, env.prefactor_log, env.exponent_term)
    return (type(env),) + tuple(float.hex(x) for x in fields)


class TestConstantCache:
    def test_entire_warm_cache_matches_direct_constants(self):
        params = _entire(0.9, l=1.5, a=(1 + 1j, -0.5), b=(0.2, 0.6))
        for abs_z in MODULI:
            envelope_entire(params, abs_z)
        c = constant_c(params)
        ql_poch = pochhammer_infinite(params.q.q**params.l, params.q, 1e-16).value
        for abs_z in MODULI:
            want = refb._assemble(c, -math.log(ql_poch), term_peak(abs_z, params.l, params.q))
            assert _bits(envelope_entire(params, abs_z)) == _bits(want)

    def test_phi_warm_cache_matches_direct_constants(self):
        params = PhiParams(a_list=(0.5,), b_list=(0.3, 0.6), q=QBase(0.9))
        for abs_z in MODULI:
            envelope_phi(params, abs_z)
        # m = s + 1 - r = 2, so the reduction has l = 1 and scale q^{-1}.
        reduced = _entire(0.9, l=1.0, a=(0.5,), b=(0.3, 0.6))
        c = constant_c(reduced)
        ql_poch = pochhammer_infinite(0.9**1.0, params.q, 1e-16).value
        scale = 0.9**-1.0
        for abs_z in MODULI:
            want = refb._assemble(c, -math.log(ql_poch), term_peak(abs_z * scale, 1.0, params.q))
            assert _bits(envelope_phi(params, abs_z)) == _bits(want)

    def test_aq_and_theta_warm_cache_match_direct_constants(self):
        base = QBase(0.9)
        for abs_z in MODULI:
            envelope_aq_gaussian(base, abs_z)
            envelope_theta(0.25, base, abs_z)
        poch = pochhammer_infinite(0.9, base, 1e-16).value
        c = theta_weighted_constant(0.25, base, 1e-15)
        shape = meromorphic_bound_params(0.25, base)
        for abs_z in MODULI:
            lz = math.log(abs_z)
            # The entire-class envelope at r = s = 0, l = 1.
            want = refb._assemble(1.0, -math.log(poch), term_peak(abs_z, 1.0, base))
            assert _bits(envelope_aq_gaussian(base, abs_z)) == _bits(want)
            want = refb._assemble(c, 0.0, shape.beta * abs(lz) ** shape.gamma)
            assert _bits(envelope_theta(0.25, base, abs_z)) == _bits(want)

    @pytest.mark.parametrize("cache,fill", CACHED_ENVELOPES[-1:])
    def test_equal_parameter_objects_share_an_entry(self, cache, fill):
        # Only the meromorphic envelope, which no parameter object owns, has a
        # cache that equal values share; see TestEnvelopeMemo for the others.
        cache.cache_clear()
        fill(3)
        fill(3)  # rebuilds equal but distinct parameter objects
        info = cache.cache_info()
        assert (info.misses, info.hits, info.currsize) == (1, 1, 1)

    @pytest.mark.parametrize("cache,fill", CACHED_ENVELOPES)
    def test_cache_stays_at_its_fixed_size(self, cache, fill):
        # A memo lives and dies with its parameter object, so filling many
        # keeps none of them alive; the meromorphic LRU holds its last 256.
        lru = bounds._meromorphic_constants
        lru.cache_clear()
        live = _live_parameter_objects()
        for i in range(256 + 40):
            fill(i)
        assert _live_parameter_objects() == live
        info = lru.cache_info()
        filled = cache is lru
        assert info.maxsize == 256
        assert (info.currsize, info.misses) == ((256, 256 + 40) if filled else (0, 0))

    def test_invalid_parameters_raise_on_every_call(self):
        base = QBase(0.5)
        for _ in range(2):
            with pytest.raises(InvalidArgumentError):
                envelope_theta(1.5, base, 2.0)
        assert base._theta_envelopes == {}


class TestConstantsMatchReference:
    """The envelope constants come from one table of q**k per base; wherever
    the products are normal doubles they have the bits of the per-factor
    reference loops in tests/reference_qcore.py."""

    def test_draws(self):
        rng = random.Random(4_000)
        normal = 0
        for i in range(4_000):
            if i % 2:
                params = phi_to_f(draw_phi_params(rng)).params
            else:
                params = draw_confluent_params(rng)
            c, ql_poch = ref.entire_constants(params)
            got = _entire_logs(params)
            assert type(got[0]) is float
            assert got[0].hex() == constant_c(params).hex() == c.hex()
            assert got[1].hex() == math.log(c).hex()
            assert got[2].hex() == math.log(ql_poch).hex()
            normal += 1
        assert normal == 4_000

    def test_phi_constants_from_the_reduction_fields(self):
        # bounds builds phi's envelope from the PhiParams' own lists, l = m/2
        # and |scale|; refb._phi_constants builds it through phi_to_f.
        rng = random.Random(2_020)
        for _ in range(2_000):
            params = draw_phi_params(rng)
            m = params.confluence_order
            reduction = phi_to_f(params)
            assert reduction.params.l.hex() == (m / 2.0).hex()
            assert reduction.scale.hex() == ((-1.0) ** m * params.q.q ** (-m / 2.0)).hex()
            c, log_c, log_ql, l, scale = refb._phi_constants(params)
            want = bounds._entire_envelope(c, log_c, 0.0 - log_ql, l, params.q.log_q, scale)
            got = bounds._phi_constants(params)
            assert [x.hex() for x in got] == [x.hex() for x in want]

    def test_phi_scale_overflow_keeps_its_text(self):
        params = PhiParams((), (0.5, 0.5), QBase(1e-300))
        want = "q^-l overflows at q = 1e-300, l = 1.5"
        for route in (bounds._phi_constants, refb._phi_constants, phi_to_f):
            with pytest.raises(InvalidArgumentError) as info:
                route(params)
            assert str(info.value) == want

    def test_products_below_the_normal_range_are_taken_in_log_space(self):
        mp.mp.dps = 30
        try:
            for q in (0.9977, 0.998, 0.999):
                # Dedekind's eta transformation: with q = e^-t,
                # log (q;q)_inf = log(2 pi / t) / 2 - pi^2 / (6 t) + t / 24
                # up to log (e^(-4 pi^2 / t); e^(-4 pi^2 / t))_inf, below e^-39000 here.
                t = -mp.log(mp.mpf(q))
                want = float(mp.log(2 * mp.pi / t) / 2 - mp.pi**2 / (6 * t) + t / 24)
                assert math.isclose(-bounds._aq_constant(QBase(q)).prefactor_log, want, rel_tol=1e-14)
                assert math.isclose(_entire_logs(_entire(q))[2], want, rel_tol=1e-14)
            # (0.9;q)_inf at q = 0.9985 has log -867.0; as a double product it
            # stalls at a subnormal whose log is -743.7.  Here
            # log (b;q)_inf = -sum_n b^n / (n (1 - q^n)).
            qq = mp.mpf(0.9985)
            b = mp.mpf(0.9)
            want = mp.fsum(b**n / (n * (1 - qq**n)) for n in range(1, 1000))
            c, log_c, _ = _entire_logs(_entire(0.9985, b=(0.9,)))
            assert c == math.inf
            assert math.isclose(log_c, float(want), rel_tol=1e-14)
        finally:
            mp.mp.dps = 15

    @pytest.mark.parametrize("q", [0.9977, 0.998, 0.999])
    def test_envelopes_near_the_guard_are_finite_logs(self, q):
        base = QBase(q)
        aq = envelope_aq_gaussian(base, 1.0)
        entire = envelope_entire(_entire(q), 1.0)
        assert math.isfinite(aq.log_bound) and math.isfinite(entire.log_bound)
        want = -_entire_logs(_entire(q))[2]
        assert aq.prefactor_log.hex() == bounds._aq_constant(base).prefactor_log.hex() == want.hex()
        assert entire.prefactor_log.hex() == want.hex()
        assert aq.exponent_term.hex() == entire.exponent_term.hex() == term_peak(1.0, 1.0, base).hex()
        phi = envelope_phi(PhiParams((), (0.9,), base), 1.0)
        log_c = bounds._phi_constants(PhiParams((), (0.9,), base)).log_c
        assert math.isclose(phi.constant_c, refb._as_linear(log_c), rel_tol=1e-12)
        assert math.isfinite(phi.log_bound)
        direct, composed = envelope_phi_routes(PhiParams((), (0.9,), base), 1.0)
        assert math.isclose(direct.log_bound, composed.log_bound, rel_tol=1e-12)

    def test_numerator_overflow_reports_an_infinite_constant(self):
        params = _entire(0.5, a=(1e300,))
        c, log_c, _ = _entire_logs(params)
        assert c == constant_c(params) == math.inf
        mp.mp.dps = 30
        try:
            want = mp.fsum(mp.log1p(mp.mpf(1e300) * mp.mpf(0.5) ** k) for k in range(1200))
        finally:
            mp.mp.dps = 15
        assert math.isclose(log_c, float(want), rel_tol=1e-14)
        env = envelope_entire(params, 1.0)
        assert env.constant_c == math.inf and math.isfinite(env.log_bound)
        with pytest.raises(NonConvergentError):
            ref.constant_c(params)


def _envelope_outcome(call, *args):
    """float.hex of every field and the type, or the exception type and text."""
    try:
        env = call(*args)
    except (QSeriesError, ArithmeticError, ValueError) as exc:
        return type(exc).__name__, str(exc)
    return (type(env),) + tuple(float.hex(x) for x in env)


# q^-l overflows in the phi_to_f scale; the series itself needs no scale.
_PHI_TINY_BASE = PhiParams((), (0.3, 0.6), QBase(1e-300))


def _family_draws(rng):
    """(public envelope name, leading arguments, audit tag and parameters or
    None) for 300 seeded parameter sets per family, then parameter sets
    whose envelope cannot be built."""
    for _ in range(300):
        params = draw_confluent_params(rng)
        yield "envelope_entire", (params,), ("confluent_f", params)
        params = draw_phi_params(rng)
        yield "envelope_phi", (params,), ("phi", params)
        base = QBase(rng.uniform(0.05, 0.999))
        yield "envelope_aq_gaussian", (base,), ("aq", base)
        alpha, base = rng.uniform(0.05, 0.95), QBase(rng.uniform(0.05, 0.95))
        yield "envelope_theta", (alpha, base), ("theta", (base, alpha))
        alpha, base, c = rng.uniform(0.1, 3.0), QBase(rng.uniform(0.05, 0.95)), math.exp(rng.uniform(-3, 3))
        spec = LaurentSpec(0.0, lambda k: 0.0j, alpha, base, c)
        yield "envelope_meromorphic", (meromorphic_bound_params(alpha, base), c), ("laurent", spec)
    for q in (1e-300, 1e-200, 1e-100):  # abs_z / sqrt(q) would overflow at abs_z = 1e300
        base = QBase(q)
        yield "envelope_aq_gaussian", (base,), ("aq", base)
    near_one = QBase(0.999999)
    yield "envelope_entire", (ConfluentParams((), (), 1.0, near_one),), None
    yield "envelope_entire", (ConfluentParams((1e300,), (), 1.0, QBase(0.5)),), None
    yield "envelope_phi", (PhiParams((), (0.3,), near_one),), None
    yield "envelope_phi", (_PHI_TINY_BASE,), None  # see test_phi_scale_overflow_is_typed
    yield "envelope_aq_gaussian", (near_one,), None
    for alpha in (1.5, 0.0, math.nan):
        yield "envelope_theta", (alpha, QBase(0.5)), None
    shape = meromorphic_bound_params(0.5, QBase(0.5))
    for c in (0.0, -1.0, math.nan, math.inf):
        yield "envelope_meromorphic", (shape, c), None


class TestPreparedEnvelopesMatchReference:
    """Every public envelope, built from a cold cache and then read from the
    envelope kept on its parameter object, against its per-call route in
    tests/reference_bounds.py (for aq, envelope_entire's at l = 1; see
    BIT_ROUTES there): the same bits in every field, or the same
    exception type and text, overflow branches included.  Each audit target
    certifies the public log_bound bit for bit."""

    MODULI = (1e-300, 1e-6, 1.0, math.e, 1e6, 1e300)
    INVALID = (0.0, -1.0, math.nan, math.inf)

    def _expected(self, name, args, abs_z):
        reference = refb.BIT_ROUTES.get(name) or getattr(refb, name)
        want = _envelope_outcome(reference, *args, abs_z)
        if name in refb.PARAMETERS_FIRST:
            at_one = _envelope_outcome(reference, *args, 1.0)
            if len(at_one) == 2:
                return at_one
        return want

    def test_draws(self):
        bounds._meromorphic_constants.cache_clear()
        rng = random.Random(14_000)
        counts = {}
        for name, args, audit in _family_draws(rng):
            public = getattr(bounds, name)
            for abs_z in self.MODULI + self.INVALID:
                want = self._expected(name, args, abs_z)
                assert _envelope_outcome(public, *args, abs_z) == want, (name, args, abs_z)
                assert _envelope_outcome(public, *args, abs_z) == want, (name, args, abs_z)
            counts[name] = counts.get(name, 0) + 1
            if audit is not None:
                target = audit_target(*audit)
                for abs_z in self.MODULI:
                    env = public(*args, abs_z)
                    assert target.envelope_log(abs_z).hex() == env.log_bound.hex()
        assert min(counts.values()) >= 300 and len(counts) == 5

    def test_phi_scale_overflow_is_typed(self):
        # The envelope, its reference route and the audit target raise one
        # typed error naming q and l; eval_phi is unaffected.
        want = ("InvalidArgumentError", "q^-l overflows at q = 1e-300, l = 1.5")
        for abs_z in self.MODULI + self.INVALID:
            assert _envelope_outcome(envelope_phi, _PHI_TINY_BASE, abs_z) == want
        for abs_z in self.MODULI:
            assert _envelope_outcome(refb.envelope_phi, _PHI_TINY_BASE, abs_z) == want
        with pytest.raises(InvalidArgumentError, match=re.escape(want[1])):
            audit_target("phi", _PHI_TINY_BASE)
        assert eval_phi(_PHI_TINY_BASE, 1.0, 1e-14).value == -2.5714285714285716

    def test_phi_modulus_overflowing_after_scaling(self):
        # m = 3 at q = 0.05: |scale| = 0.05^-1.5 = 89.4, so 1e307 overflows,
        # and the log of the scaled modulus is taken as a sum of logs.
        params = PhiParams((), (0.3, 0.6), QBase(0.05))
        for abs_z in (1e306, 1e307, 1.7e308):
            want = _envelope_outcome(refb.envelope_phi, params, abs_z)
            assert _envelope_outcome(envelope_phi, params, abs_z) == want
        assert math.isfinite(envelope_phi(params, 1.7e308).log_bound)
        assert (envelope_phi(params, 1e306).exponent_term
                < envelope_phi(params, 1e307).exponent_term
                < envelope_phi(params, 1.7e308).exponent_term)

    def test_parameters_are_checked_before_the_modulus(self):
        # The one deliberate difference from the reference routes.
        assert _envelope_outcome(envelope_theta, 1.5, QBase(0.5), 0.0) == (
            "InvalidArgumentError", "alpha must lie in (0, 1), got 1.5")
        assert _envelope_outcome(refb.envelope_theta, 1.5, QBase(0.5), 0.0) == (
            "InvalidArgumentError", "abs_z must be positive and finite, got 0.0")

    def test_term_peak_and_exponent(self):
        rng = random.Random(14_002)
        for _ in range(300):
            q, l = QBase(rng.uniform(0.05, 0.95)), rng.choice((0.5, 1.0, 1.5, 2.5))
            shape = meromorphic_bound_params(rng.uniform(0.1, 3.0), q)
            for r in self.MODULI:
                assert term_peak(r, l, q).hex() == refb.term_peak(r, l, q).hex()
                assert shape.exponent(r).hex() == refb.meromorphic_exponent(shape, r).hex()
            for r in self.INVALID:
                assert _envelope_outcome(term_peak, r, l, q) == _envelope_outcome(
                    refb.term_peak, r, l, q)
        with pytest.raises(InvalidArgumentError, match="dist must be positive and finite"):
            shape.exponent(0.0)


def _memo(obj):
    """What bounds keeps on a parameter object; (None, {}) or None when empty."""
    if isinstance(obj, QBase):
        return obj._aq_envelope, dict(obj._theta_envelopes)
    return obj._envelope


# (public envelope, fresh leading arguments, the envelope kept on them, the
# builder that keeps it)
MEMOIZED_ENVELOPES = (
    (envelope_entire, lambda: (_entire(0.9, l=1.5, a=(1 + 1j,), b=(0.2,)),),
     lambda p: p._envelope, bounds._entire_constants),
    (envelope_phi, lambda: (PhiParams((0.5,), (0.3, 0.6), QBase(0.9)),),
     lambda p: p._envelope, bounds._phi_constants),
    (envelope_aq_gaussian, lambda: (QBase(0.9),), lambda q: q._aq_envelope, bounds._aq_constant),
    (envelope_theta, lambda: (0.25, QBase(0.9)),
     lambda alpha, q: q._theta_envelopes[alpha], bounds._theta_constant),
)


class TestEnvelopeMemo:
    """envelope_entire, envelope_phi, envelope_aq_gaussian and envelope_theta
    keep their prepared envelope on the parameter object, outside its value."""

    @pytest.mark.parametrize("public,make,kept,entry", MEMOIZED_ENVELOPES)
    def test_kept_envelope_is_the_cache_entry(self, monkeypatch, public, make, kept, entry):
        # The memo is the only cache: one build per object, kept as built.
        built = []

        def counting(*built_from):
            built.append(entry(*built_from))
            return built[-1]

        monkeypatch.setattr(bounds, entry.__name__, counting)
        args = make()
        first = [_bits(public(*args, abs_z)) for abs_z in MODULI]
        assert len(built) == 1 and kept(*args) is built[0]
        assert [_bits(public(*args, abs_z)) for abs_z in MODULI] == first
        assert len(built) == 1

    @pytest.mark.parametrize("public,make,kept,entry", MEMOIZED_ENVELOPES)
    def test_equal_objects_keep_their_own_envelope(self, public, make, kept, entry):
        # No cache is shared between equal but distinct parameter objects:
        # each builds its own, with the same bits.
        args, twin = make(), make()
        assert [_bits(public(*args, abs_z)) for abs_z in MODULI] == [
            _bits(public(*twin, abs_z)) for abs_z in MODULI]
        assert kept(*args) is not kept(*twin) and kept(*args) == kept(*twin)

    @pytest.mark.parametrize("public,make,kept,entry", MEMOIZED_ENVELOPES)
    def test_repeat_call_runs_no_python_hash(self, monkeypatch, public, make, kept, entry):
        calls = []
        for cls in (ConfluentParams, PhiParams, QBase):
            def counting(self, original=cls.__hash__):
                calls.append(type(self).__name__)
                return original(self)

            monkeypatch.setattr(cls, "__hash__", counting)
        args = make()
        for abs_z in MODULI:  # the first call too: the memo is not keyed by a hash
            public(*args, abs_z)
        assert calls == []

    def test_memo_stays_out_of_the_value(self):
        objects = (_entire(0.9, l=1.5, a=(1 + 1j,), b=(0.2,)),
                   PhiParams((0.5,), (0.3, 0.6), QBase(0.9)), QBase(0.9))
        empty = [_memo(obj) for obj in objects]
        envelope_entire(objects[0], 2.0)
        envelope_phi(objects[1], 2.0)
        envelope_aq_gaussian(objects[2], 2.0)
        envelope_theta(0.25, objects[2], 2.0)
        for obj, nothing in zip(objects, empty):
            assert _memo(obj) != nothing
            twin = type(obj)(*obj._key)
            assert _memo(twin) == nothing
            assert pickle.dumps(obj) == pickle.dumps(twin)
            copies = (twin, pickle.loads(pickle.dumps(obj)), copy.copy(obj), copy.deepcopy(obj),
                      obj._replace())
            for other in copies:
                assert other == obj and hash(other) == hash(obj) and repr(other) == repr(obj)
                assert other._key == obj._key and _memo(other) == nothing

    @pytest.mark.parametrize("public,args", [
        (envelope_entire, (ConfluentParams((), (), 1e-17, QBase(0.5)),)),
        (envelope_phi, (_PHI_TINY_BASE,)),
        (envelope_aq_gaussian, (QBase(0.999999),)),
        (envelope_theta, (1.5, QBase(0.5))),
    ])
    def test_failing_build_keeps_nothing(self, public, args):
        for _ in range(3):
            with pytest.raises(QSeriesError):
                public(*args, 2.0)
        assert _memo(args[-1]) in (None, (None, {}))

    def test_theta_memo_is_bounded(self):
        base = QBase(0.5)
        for i in range(bounds._CACHE_SIZE + 8):
            envelope_theta(0.25 + i / 4096, base, 2.0)
        assert len(base._theta_envelopes) == bounds._CACHE_SIZE
