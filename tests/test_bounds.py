import math
import random

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
    envelope_phi_routes,
    envelope_theta,
    envelope_theta_as_printed,
    eval_confluent_f,
    eval_phi,
    eval_ramanujan_aq,
    eval_theta,
    laurent_weighted_constant,
    meromorphic_bound_params,
    pochhammer_infinite,
    term_peak,
    theta_weighted_constant,
)
from qineq import bounds

import oracles
import reference_qcore as ref

LOG_SLACK = math.log1p(1e-12)


def _entire(q, l=1.0, a=(), b=()):
    return ConfluentParams(a_list=a, b_list=b, l=l, q=QBase(q))


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
                assert env.prefactor_log.hex() == (-bounds._entire_constants(params)[2]).hex()

    def test_overflow_marker(self):
        env = envelope_entire(_entire(0.5), 1e300)
        assert env.bound == math.inf
        assert math.isfinite(env.log_bound)

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
        for q in (0.1, 0.5, 0.9):
            base = QBase(q)
            params = _entire(q)
            for i in range(100):
                abs_z = math.exp(math.log(1e-6) + i * (math.log(1e6) - math.log(1e-6)) / 99)
                a = envelope_aq_gaussian(base, abs_z).log_bound
                b = envelope_entire(params, abs_z).log_bound
                assert abs(a - b) <= 1e-13 * max(1.0, abs(a))

    def test_log_argument_one(self):
        # At |z| = e the exponent reduces to 1/(4 log 2) and the prefactor to
        # 1/2 + (log 2)/4.
        env = envelope_aq_gaussian(QBase(0.5), math.e)
        want = 0.5 + 0.25 * math.log(2.0) + 1.0 / (4.0 * math.log(2.0)) - math.log(
            oracles.POCH_HALF_HALF_INF
        )
        assert math.isclose(env.log_bound, want, rel_tol=1e-12)

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


# (cache, call that fills it for the i-th distinct parameter set)
CACHED_ENVELOPES = (
    (bounds._entire_constants, lambda i: envelope_entire(_entire(0.5, l=1.0 + i / 1024), 2.0)),
    (bounds._phi_constants, lambda i: envelope_phi(PhiParams((), (0.5 * i / 1024,), QBase(0.5)), 2.0)),
    (bounds._aq_constant, lambda i: envelope_aq_gaussian(QBase(0.5 + i / 4096), 2.0)),
    (bounds._theta_constant, lambda i: envelope_theta(0.25 + i / 4096, QBase(0.5), 2.0)),
    (bounds._meromorphic_params, lambda i: envelope_theta(0.25 + i / 4096, QBase(0.5), 2.0)),
)
MODULI = (1e-6, 0.3, 1.0, 2.0, 7.5, 1e4, 1e6)


def _bits(env):
    return tuple(float.hex(x) for x in (env.log_bound, env.constant_c, env.prefactor_log, env.exponent_term))


class TestConstantCache:
    def test_entire_warm_cache_matches_direct_constants(self):
        params = _entire(0.9, l=1.5, a=(1 + 1j, -0.5), b=(0.2, 0.6))
        for abs_z in MODULI:
            envelope_entire(params, abs_z)
        c = constant_c(params)
        ql_poch = pochhammer_infinite(params.q.q**params.l, params.q, 1e-16).value
        for abs_z in MODULI:
            want = bounds._assemble(c, -math.log(ql_poch), term_peak(abs_z, params.l, params.q))
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
            want = bounds._assemble(c, -math.log(ql_poch), term_peak(abs_z * scale, 1.0, params.q))
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
            prefactor_log = -math.log(poch) + 0.5 * math.log(abs_z / math.sqrt(0.9))
            exponent_term = -lz * lz / (4.0 * base.log_q)
            want = bounds._assemble(1.0, prefactor_log, exponent_term)
            assert _bits(envelope_aq_gaussian(base, abs_z)) == _bits(want)
            want = bounds._assemble(c, 0.0, shape.beta * abs(lz) ** shape.gamma)
            assert _bits(envelope_theta(0.25, base, abs_z)) == _bits(want)

    @pytest.mark.parametrize("cache,fill", CACHED_ENVELOPES)
    def test_equal_parameter_objects_share_an_entry(self, cache, fill):
        cache.cache_clear()
        fill(3)
        fill(3)  # rebuilds equal but distinct parameter objects
        info = cache.cache_info()
        assert (info.misses, info.hits, info.currsize) == (1, 1, 1)

    @pytest.mark.parametrize("cache,fill", CACHED_ENVELOPES)
    def test_cache_stays_at_its_fixed_size(self, cache, fill):
        cache.cache_clear()
        maxsize = cache.cache_info().maxsize
        for i in range(maxsize + 40):
            fill(i)
        info = cache.cache_info()
        assert info.maxsize == maxsize == 256
        assert info.currsize == maxsize
        assert info.misses == maxsize + 40

    def test_invalid_parameters_raise_on_every_call(self):
        bounds._theta_constant.cache_clear()
        for _ in range(2):
            with pytest.raises(InvalidArgumentError):
                envelope_theta(1.5, QBase(0.5), 2.0)
        assert bounds._theta_constant.cache_info().currsize == 0


class TestConstantsMatchReference:
    """The envelope constants come from one table of q**k per base; wherever
    the products are normal doubles they have the bits of the per-factor
    reference loops in tests/reference_qcore.py."""

    def test_draws(self):
        rng = random.Random(4_000)
        normal = 0
        for i in range(4_000):
            if i % 2:
                params = bounds.phi_to_f(draw_phi_params(rng)).params
            else:
                params = draw_confluent_params(rng)
            c, ql_poch = ref.entire_constants(params)
            got = bounds._entire_logs(params)
            assert type(got[0]) is float
            assert got[0].hex() == constant_c(params).hex() == c.hex()
            assert got[1].hex() == math.log(c).hex()
            assert got[2].hex() == math.log(ql_poch).hex()
            normal += 1
        assert normal == 4_000

    def test_products_below_the_normal_range_are_taken_in_log_space(self):
        mp.mp.dps = 30
        try:
            for q in (0.9977, 0.998, 0.999):
                # Dedekind's eta transformation: with q = e^-t,
                # log (q;q)_inf = log(2 pi / t) / 2 - pi^2 / (6 t) + t / 24
                # up to log (e^(-4 pi^2 / t); e^(-4 pi^2 / t))_inf, below e^-39000 here.
                t = -mp.log(mp.mpf(q))
                want = float(mp.log(2 * mp.pi / t) / 2 - mp.pi**2 / (6 * t) + t / 24)
                assert math.isclose(bounds._aq_constant(QBase(q)), want, rel_tol=1e-14)
                assert math.isclose(bounds._entire_logs(_entire(q))[2], want, rel_tol=1e-14)
            # (0.9;q)_inf at q = 0.9985 has log -867.0; as a double product it
            # stalls at a subnormal whose log is -743.7.  Here
            # log (b;q)_inf = -sum_n b^n / (n (1 - q^n)).
            qq = mp.mpf(0.9985)
            b = mp.mpf(0.9)
            want = mp.fsum(b**n / (n * (1 - qq**n)) for n in range(1, 1000))
            c, log_c, _ = bounds._entire_logs(_entire(0.9985, b=(0.9,)))
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
        want = -bounds._aq_constant(base) + 0.5 * math.log(1.0 / math.sqrt(q))
        assert aq.prefactor_log.hex() == want.hex()
        assert entire.prefactor_log.hex() == (-bounds._entire_constants(_entire(q))[2]).hex()
        phi = envelope_phi(PhiParams((), (0.9,), base), 1.0)
        log_c = bounds._phi_constants(PhiParams((), (0.9,), base))[1]
        assert math.isclose(phi.constant_c, bounds._as_linear(log_c), rel_tol=1e-12)
        assert math.isfinite(phi.log_bound)
        direct, composed = envelope_phi_routes(PhiParams((), (0.9,), base), 1.0)
        assert math.isclose(direct.log_bound, composed.log_bound, rel_tol=1e-12)

    def test_numerator_overflow_reports_an_infinite_constant(self):
        params = _entire(0.5, a=(1e300,))
        c, log_c, _ = bounds._entire_logs(params)
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
