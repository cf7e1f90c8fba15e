"""Prepared evaluators against the per-call reference loops, bit for bit.

A prepared series tabulates its terms' z-independent factors the first time
an evaluation needs them.  Each check below walks a prepared object through
points that grow its table, reuse a shorter prefix and grow it again, and
requires float.hex equality of (value, terms_used, tail_bound), or the same
error and message, against a fresh per-call reference evaluation.
"""

import math
import random
import sys
import threading

import pytest

from qineq import (
    ConfluentParams,
    LaurentSpec,
    NonConvergentError,
    PhiParams,
    QBase,
    QSeriesError,
    theta_weighted_constant,
)
from qineq.series import (
    TWO_SIDED_CAP,
    LaurentSeries,
    ThetaSeries,
    _theta_stop_index,
    prepare_confluent_f,
    prepare_phi,
)

import reference_series as ref

QS = (0.1, 0.5, 0.9, 0.99)
# |z| from 1e-4 to 1e6: a middle block grows the table, a small block reuses
# a prefix, a large block grows it again, then the whole range at new angles.
_BLOCKS = ((1e-1, 1e2), (1e-4, 1e-1), (1e2, 1e6), (1e-4, 1e6))
_OVERFLOW_MESSAGE = {
    "gaussian": "series term left the double range",
    "theta": "theta sum overflowed the double range",
    "laurent": "Laurent sum overflowed the double range",
}


def _outcome(call, *args):
    try:
        res = call(*args)
    except (QSeriesError, OverflowError) as exc:
        return type(exc).__name__, str(exc)
    return (res.value.real.hex(), res.value.imag.hex(), res.terms_used, float(res.tail_bound).hex())


def _expected(family, call, *args):
    """The reference outcome, with a modulus overflow raised as the typed error."""
    got = _outcome(call, *args)
    if got[0] == "OverflowError":
        return "NonConvergentError", _OVERFLOW_MESSAGE[family]
    return got


def _points(rng, per_block=12):
    points = []
    for lo, hi in _BLOCKS:
        for _ in range(per_block):
            mod = math.exp(rng.uniform(math.log(lo), math.log(hi)))
            ang = rng.uniform(0.0, 2.0 * math.pi)
            points.append(mod * complex(math.cos(ang), math.sin(ang)))
    return points


def _disk(rng, radius):
    r = radius * math.sqrt(rng.random())
    ang = rng.uniform(0.0, 2.0 * math.pi)
    return complex(r * math.cos(ang), r * math.sin(ang))


def _theta_spec(q, alpha, k_cap=2000):
    base = QBase(q)
    return LaurentSpec(
        center=0.0,
        coeff=lambda k: complex(q ** (k * k)),
        alpha=alpha,
        q=base,
        c_weighted=theta_weighted_constant(alpha, base, 1e-15),
        k_cap=k_cap,
    )


def _compare(family, prepared, reference, points, tol):
    mismatches = []
    for z in points:
        want = _expected(family, reference, z, tol)
        got = _outcome(prepared.evaluate, z, tol)
        if got != want:
            mismatches.append((z, want, got))
    assert not mismatches, mismatches[:3]


class TestGaussianMatchesReference:
    def test_confluent_f(self, rng):
        for q in QS:
            for _ in range(3):
                a = tuple(_disk(rng, 2.0) for _ in range(rng.randint(0, 2)))
                b = tuple(rng.uniform(0.0, 0.95) for _ in range(rng.randint(0, 3)))
                l = rng.choice((0.5, 1.0, 1.5, 2.5))
                params = ConfluentParams(a_list=a, b_list=b, l=l, q=QBase(q))
                _compare(
                    "gaussian",
                    prepare_confluent_f(params),
                    lambda z, tol: ref.eval_gaussian(a, b, q, l, 1, z, tol),
                    _points(rng),
                    1e-14,
                )

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_phi_odd_and_even_order(self, rng, m):
        for q in QS:
            r = rng.randint(0, min(2, 4 - m))
            a = tuple(_disk(rng, 2.0) for _ in range(r))
            b = tuple(rng.uniform(0.0, 0.95) for _ in range(r + m - 1))
            params = PhiParams(a_list=a, b_list=b, q=QBase(q))
            assert params.confluence_order == m
            sign = -1.0 if m % 2 else 1.0
            _compare(
                "gaussian",
                prepare_phi(params),
                lambda z, tol: ref.eval_gaussian(a, b, q, m / 2.0, 0, sign * complex(z), tol),
                _points(rng),
                1e-14,
            )

    def test_aq(self, rng):
        for q in QS:
            params = ConfluentParams(a_list=(), b_list=(), l=1.0, q=QBase(q))
            _compare(
                "gaussian",
                prepare_confluent_f(params),
                lambda z, tol: ref.eval_gaussian((), (), q, 1.0, 1, z, tol),
                _points(rng),
                1e-14,
            )

    def test_forced_terms(self, rng):
        params = ConfluentParams(a_list=(0.5 + 0.5j,), b_list=(0.3,), l=1.0, q=QBase(0.9))
        prepared = prepare_confluent_f(params)
        z = 30.0 - 7.0j
        # 40 grows the table, 3 and 1 reuse a prefix, 120 grows it again.
        for n in (40, 3, 1, 120, 17):
            want = _outcome(ref.eval_gaussian, params.a_list, params.b_list, 0.9, 1.0, 1, z, 1e-14, n)
            assert _outcome(prepared.evaluate, z, 1e-14, n) == want
        assert _outcome(prepared.evaluate, 0.0, 1e-14) == _outcome(
            ref.eval_gaussian, params.a_list, params.b_list, 0.9, 1.0, 1, 0.0, 1e-14
        )


class TestThetaMatchesReference:
    def test_theta(self, rng):
        for q in QS:
            prepared = ThetaSeries(QBase(q))
            for tol in (1e-14, 1e-6):
                _compare(
                    "theta",
                    prepared,
                    lambda z, tol: ref.eval_theta(q, z, tol),
                    _points(rng),
                    tol,
                )

    def test_forced_index(self):
        prepared = ThetaSeries(QBase(0.7))
        z = 3.0 + 4.0j
        for k in (30, 4, 0, 90, 31):
            assert _outcome(prepared.evaluate, z, 1e-14, k) == _outcome(ref.eval_theta, 0.7, z, 1e-14, k)

    def test_stop_index_matches_linear_walk(self):
        rng = random.Random(606)
        tols = (1e-300, 1e-14, 1e-8, 1e-3, 0.5, 10.0)
        for _ in range(10_000):
            q = rng.choice((rng.uniform(1e-6, 0.9), rng.uniform(0.9, 0.9999)))
            lq = math.log(q)
            log_m = abs(rng.uniform(-60.0, 60.0))
            log_tol = math.log(rng.choice(tols))
            assert _theta_stop_index(lq, log_m, log_tol) == ref.theta_stop_index(lq, log_m, log_tol)

    def test_stop_index_cap(self):
        # q = 0.999999: the stop index crosses TWO_SIDED_CAP between the second
        # and the third modulus.
        lq = math.log(0.999999)
        log_tol = math.log(1e-14)

        def index_or_error(search, log_m):
            try:
                return search(lq, log_m, log_tol)
            except NonConvergentError as exc:
                return str(exc)

        outcomes = []
        for log_m in (0.9, 0.99995, 1.0, 60.0):
            got = index_or_error(_theta_stop_index, log_m)
            assert got == index_or_error(ref.theta_stop_index, log_m)
            outcomes.append(got)
        assert TWO_SIDED_CAP - 100 < outcomes[1] <= TWO_SIDED_CAP
        cap_error = f"no certified stop within |k| <= {TWO_SIDED_CAP}"
        assert outcomes[2] == outcomes[3] == cap_error


class TestLaurentMatchesReference:
    def test_laurent(self, rng):
        for q in QS:
            for alpha in (0.25, 0.5, 0.9):
                spec = _theta_spec(q, alpha)
                _compare(
                    "laurent",
                    LaurentSeries(spec),
                    lambda z, tol: ref.eval_laurent(spec, z, tol),
                    _points(rng, per_block=6),
                    1e-12,
                )

    def test_forced_index(self):
        spec = _theta_spec(0.4, 0.75)
        prepared = LaurentSeries(spec)
        z = 2.0 - 1.0j
        for k in (20, 2, 1, 60, 21):
            assert _outcome(prepared.evaluate, z, 1e-12, k) == _outcome(ref.eval_laurent, spec, z, 1e-12, k)

    def test_coeff_called_once_per_index(self):
        calls = []

        def coeff(k):
            calls.append(k)
            return complex(0.5 ** (k * k))

        base = QBase(0.5)
        spec = LaurentSpec(0.0, coeff, 0.5, base, theta_weighted_constant(0.5, base, 1e-15))
        prepared = LaurentSeries(spec)
        for z in (2.0, 0.5j, 40.0, 1.0, 300.0 - 1.0j):
            prepared.evaluate(z, 1e-12)
        assert len(calls) == len(set(calls))


def test_shared_targets_under_thread_contention():
    """Four threads share one prepared target per family at interleaved points.

    Each round starts from fresh targets, so the threads race to grow the
    same tables; every result must equal a fresh evaluation.
    """
    gaussian_params = ConfluentParams(a_list=(0.5 + 0.5j,), b_list=(0.3,), l=0.5, q=QBase(0.95))
    theta_base = QBase(0.97)
    spec = _theta_spec(0.9, 0.5)
    families = (
        ("gaussian", lambda: prepare_confluent_f(gaussian_params), 1e-14),
        ("theta", lambda: ThetaSeries(theta_base), 1e-14),
        ("laurent", lambda: LaurentSeries(spec), 1e-12),
    )
    moduli = [10.0 ** (e / 4.0) for e in range(-8, 17)]

    def work(index, shared, results):
        for mod in moduli[index::4] + moduli[::-1]:
            z = mod * complex(math.cos(index + mod), math.sin(index + mod))
            for (name, _, tol), prepared in zip(families, shared):
                results.append((name, z, _outcome(prepared.evaluate, z, tol)))

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        rounds = []
        for _ in range(4):
            shared = [prepare() for _, prepare, _ in families]
            results = [[] for _ in range(4)]
            threads = [
                threading.Thread(target=work, args=(i, shared, results[i])) for i in range(4)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60.0)
            assert not any(thread.is_alive() for thread in threads)
            rounds.append(results)
    finally:
        sys.setswitchinterval(old)
    fresh = {name: (prepare, tol) for name, prepare, tol in families}
    for results in rounds:
        for index, per_thread in enumerate(results):
            assert len(per_thread) == len(families) * (len(moduli[index::4]) + len(moduli))
            for name, z, got in per_thread:
                prepare, tol = fresh[name]
                assert got == _outcome(prepare().evaluate, z, tol), (name, z)
