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
    log_grid,
    theta_weighted_constant,
)
from qineq.series import (
    LAURENT_K_CAP,
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
    """Require the reference outcome at every point; returns how many were errors."""
    mismatches = []
    errors = 0
    for z in points:
        want = _expected(family, reference, z, tol)
        got = _outcome(prepared.evaluate, z, tol)
        if got != want:
            mismatches.append((z, want, got))
        errors += len(want) == 2
    assert not mismatches, mismatches[:3]
    return errors


def _walk(prepared, reference, z, tols):
    """Evaluate one prepared series at z for each tol in turn, requiring the
    reference outcome each time; returns the terms used.

    The first tol grows the table, the second needs a shorter prefix and the
    third grows the table again; the callers pin the terms to show it.
    """
    terms = []
    for tol in tols:
        got = _outcome(prepared.evaluate, z, tol)
        assert got == _outcome(reference, z, tol), tol
        terms.append(got[2])
    return terms


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

    def test_tol_walk(self):
        params = ConfluentParams(a_list=(0.5 + 0.5j,), b_list=(0.3,), l=1.0, q=QBase(0.9))
        prepared = prepare_confluent_f(params)
        z = 30.0 - 7.0j
        terms = _walk(
            prepared,
            lambda z, tol: ref.eval_gaussian(params.a_list, params.b_list, 0.9, 1.0, 1, z, tol),
            z,
            (1e-8, 1e-2, 1e-300, 1e-14, 0.5),
        )
        assert terms == [30, 24, 98, 34, 22]
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

    def test_tol_walk(self):
        prepared = ThetaSeries(QBase(0.7))
        terms = _walk(
            prepared,
            lambda z, tol: ref.eval_theta(0.7, z, tol),
            3.0 + 4.0j,
            (1e-8, 1e-1, 1e-300, 1e-14, 10.0),
        )
        assert terms == [21, 13, 95, 27, 7]

    def test_overflowing_sum_tabulates_only_the_indices_it_reached(self):
        # The stop index is 634,396, and the sum stops being finite near
        # k = 1235: the table grows with the sum and is published on raise.
        prepared = ThetaSeries(QBase(0.999999))
        z = 0.562 * complex(math.cos(0.7), math.sin(0.7))
        with pytest.raises(NonConvergentError, match="theta sum overflowed the double range"):
            prepared.evaluate(z, 1e-14)
        size = len(prepared._powers)
        assert 1235 <= size <= 2048
        assert prepared._powers == [0.999999 ** (2 * k - 1) for k in range(1, size + 1)]

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

    def test_tol_walk(self):
        spec = _theta_spec(0.4, 0.75)
        terms = _walk(
            LaurentSeries(spec),
            lambda z, tol: ref.eval_laurent(spec, z, tol),
            2.0 - 1.0j,
            (1e-8, 1e-2, 1e-300, 1e-12, 1.0),
        )
        assert terms == [13, 7, 91, 15, 3]

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


def _dense_points(moduli, angles=3):
    """Each modulus, and modulus 1 exactly, at ``angles`` directions."""
    phases = [0.3 + 2.0 * math.pi * j / angles for j in range(angles)]
    return [mod * complex(math.cos(a), math.sin(a)) for mod in (*moduli, 1.0) for a in phases]


class TestStopPathsOnDenseGrids:
    """Theta's early overflow exit and Laurent's screened tail test change no
    outcome: every value, term count, tail bound and error is the
    reference's, on dense modulus grids that reach the overflow region."""

    TOLS = (1e-14, 1e-9, 1e-4)

    @pytest.mark.parametrize("q", [0.95, 0.99, 0.999])
    def test_theta(self, q):
        prepared = ThetaSeries(QBase(q))
        points = _dense_points(log_grid(1e-8, 1e8, 81))
        reference = lambda z, tol: ref.eval_theta(q, z, tol)  # noqa: E731
        errors = sum(_compare("theta", prepared, reference, points, tol) for tol in self.TOLS)
        assert 0 < errors < len(points) * len(self.TOLS)

    @pytest.mark.parametrize("q", [0.5, 0.9, 0.99])
    def test_laurent(self, q):
        spec = _theta_spec(q, 0.5, k_cap=LAURENT_K_CAP)
        points = _dense_points((*log_grid(1e-3, 1e3, 49), *log_grid(0.5, 2.0, 48)))
        prepared = LaurentSeries(spec)
        reference = lambda z, tol: ref.eval_laurent(spec, z, tol)  # noqa: E731
        errors = sum(_compare("laurent", prepared, reference, points, tol) for tol in self.TOLS)
        assert errors < len(points) * len(self.TOLS)
        if q >= 0.9:
            assert errors > 0


class TestLaurentOverflowProbe:
    """An evaluation whose powers of w leave the double range before the stop
    rule can pass raises without summing, with the reference's outcome."""

    @pytest.mark.parametrize("k_cap", [3, 50, LAURENT_K_CAP])
    @pytest.mark.parametrize("q", [0.5, 0.9, 0.99, 0.999])
    def test_dense_grids(self, q, k_cap):
        points = _dense_points(log_grid(1e-4, 1e4, 49), angles=2)
        for alpha in (0.25, 0.5, 0.9):
            spec = _theta_spec(q, alpha, k_cap=k_cap)
            prepared = LaurentSeries(spec)
            reference = lambda z, tol: ref.eval_laurent(spec, z, tol)  # noqa: E731
            for tol in (1e-12, 1e100):
                _compare("laurent", prepared, reference, points, tol)

    @pytest.mark.parametrize("log_w", [5.0, -5.0])
    def test_returns_at_the_first_passing_index_while_the_next_power_overflows(self, log_w):
        # q = e^-0.32, alpha = 1/2 and |log|w|| = 5: the ratio test first
        # passes at kf = 141, where a huge tol lets the sum stop, and
        # w^{+-142} is the first power that overflows.  A probe that looked
        # one index past kf would reject this point.
        q = math.exp(-0.32)
        spec = LaurentSpec(0.0, lambda k: complex(q ** (k * k)), 0.5, QBase(q), 3.0)
        w = math.exp(log_w) * complex(math.cos(0.3), math.sin(0.3))
        power = 1.0 + 0.0j
        for _ in range(141):
            power *= w if log_w > 0 else 1.0 / w
        assert math.isfinite(abs(power))
        power *= w if log_w > 0 else 1.0 / w
        assert not math.isfinite(power.imag)
        want = _outcome(ref.eval_laurent, spec, w, 1e100)
        assert want[2] == 2 * 141 + 1
        assert _outcome(LaurentSeries(spec).evaluate, w, 1e100) == want

    def test_cap_comes_before_an_overflow_one_index_later(self):
        # w^10000 is finite and w^10001 overflows; the sum stops at the cap.
        spec = _theta_spec(0.999, 0.25, k_cap=LAURENT_K_CAP)
        w = complex(math.exp(709.7827 / (LAURENT_K_CAP + 0.5)), 0.0)
        want = _outcome(ref.eval_laurent, spec, w, 1e-12)
        assert want == ("NonConvergentError",
                        f"weighted tail did not meet tol within |k| <= {LAURENT_K_CAP}")
        assert _outcome(LaurentSeries(spec).evaluate, w, 1e-12) == want

    def test_screened_points_are_never_blocked_at_k0(self):
        # evaluate skips the probe's skip test for log 2 <= log_m <= the
        # screen; there the ratio test must already pass at floor(700 / log_m).
        for q in (1e-12, 0.1, 0.5, 0.9, 0.99, 0.999999):
            for alpha in (0.05, 0.25, 0.5, 0.9, 3.0):
                screen = LaurentSeries(LaurentSpec(0.0, complex, alpha, QBase(q), 1.0))._probe_screen
                lq, ap1 = math.log(q), alpha + 1.0
                for i in range(201):
                    log_m = math.log(2.0) + (screen - math.log(2.0)) * i / 200
                    if not math.log(2.0) <= log_m <= screen:
                        continue
                    k0 = int(700.0 / log_m)
                    assert not ap1 * k0**alpha * lq + log_m > math.log(0.5), (q, alpha, log_m)

    @pytest.mark.parametrize("w", [1e6 + 0j, -1e6j, 1e-6 + 0j])
    def test_rejected_evaluation_calls_no_coefficient(self, w):
        calls = []

        def coeff(k):
            calls.append(k)
            return complex(0.99 ** (k * k))

        spec = LaurentSpec(0.0, coeff, 0.5, QBase(0.99), 3.0)
        with pytest.raises(NonConvergentError, match="Laurent sum overflowed the double range"):
            LaurentSeries(spec).evaluate(w, 1e-12)
        assert calls == [0]
        with pytest.raises(NonConvergentError, match="Laurent sum overflowed the double range"):
            ref.eval_laurent(spec, w, 1e-12)


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
