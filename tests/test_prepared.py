"""Prepared evaluators against the per-call reference loops, bit for bit.

A prepared series tabulates its terms' z-independent factors the first time
an evaluation needs them.  Each check below walks a prepared object through
points that grow its table, reuse a shorter prefix and grow it again, and
requires float.hex equality of (value, terms_used, tail_bound), or the same
error and message, against a fresh per-call reference evaluation.

Theta above THETA_TRANSFORM_Q sums Jacobi's imaginary transformation, not
the reference's direct sum, whose value there loses digits to cancellation.
Those checks compare it with oracles.theta_accurate instead.
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
    eval_confluent_f,
    eval_phi,
    eval_ramanujan_aq,
    log_grid,
    theta_weighted_constant,
)
from qineq import series
from qineq.series import (
    LAURENT_K_CAP,
    THETA_TRANSFORM_Q,
    TWO_SIDED_CAP,
    LaurentSeries,
    ThetaSeries,
    _theta_stop_index,
    prepare_confluent_f,
    prepare_phi,
)

import oracles
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
    return (
        res.value.real.hex(),
        res.value.imag.hex(),
        res.terms_used,
        float(res.tail_bound).hex(),
        type(res),
    )


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


def _theta_spec(q, alpha, coeff=None):
    base = QBase(q)
    return LaurentSpec(
        center=0.0,
        coeff=coeff or (lambda k: complex(q ** (k * k))),
        alpha=alpha,
        q=base,
        c_weighted=theta_weighted_constant(alpha, base, 1e-15),
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


def _theta_or_overflow(q, z):
    """oracles.theta_accurate(q, z), or None where a theta series must raise
    its overflow error: where the direct sum's largest term is above e^711
    (the oracle is not needed there) or |theta| is beyond the doubles."""
    return None if oracles.theta_log_peak(q, z) > 711.0 else oracles.theta_accurate(q, z)


def _check_theta(evaluate, q, z, tol, theta):
    """evaluate(z, tol) against theta = _theta_or_overflow(q, z): the
    overflow error where theta is None, else a value within
    1e-12 max(1, |theta|), the 2K + 1 terms of the reference's stop index K
    and a tail of at most tol.  Returns whether it raised."""
    try:
        got = evaluate(z, tol)
    except QSeriesError as exc:
        assert theta is None and str(exc) == _OVERFLOW_MESSAGE["theta"], (q, z, tol, exc)
        return True
    assert theta is not None, (q, z, tol, got)
    k_stop = ref.theta_stop_index(math.log(q), abs(math.log(abs(z))), math.log(tol))
    assert got.terms_used == 2 * k_stop + 1 and got.tail_bound <= tol, (q, z, tol, got)
    assert abs(got.value - theta) <= 1e-12 * max(1.0, abs(theta)), (q, z, tol, got, theta)
    return False


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


def _log_coefficients(a_list, b_list, q, l, shift, count=4000):
    """log|c_k| for 1 <= k <= count, term_k = c_k z^k, from the factors of
    the reference's term ratio; -inf once a numerator factor is 0."""
    logs, log_c = [], 0.0
    for k in range(count):
        qk = q**k
        num = 1.0 + 0.0j
        for a in a_list:
            num *= 1.0 - a * qk
        den = 1.0 - q ** (k + 1)
        for b in b_list:
            den *= 1.0 - b * qk
        mod = abs(num * q ** (l * (2 * k + shift)))
        log_c += (math.log(mod) if mod else -math.inf) - math.log(den)
        logs.append(log_c)
    return logs


def _moduli_at_peaks(log_coefficients, peaks):
    """For each peak t, the modulus at which the largest term has log t."""
    return [math.exp(min((t - log_c) / k for k, log_c in enumerate(log_coefficients, 1)
                         if log_c > -math.inf)) for t in peaks]


class TestGaussianOverflowVerdict:
    """Around the modulus where the largest term reaches e^711, a series
    that has filled its log-coefficient column raises at once beyond its
    r_ovf and sums below it, with the reference's outcome at every point:
    walking |z| up (the first overflow fills the column), down, then growing
    the table with a tiny tol and walking up again."""

    TOLS = (1e-14, 1e-9, 1e100)
    # Largest-term logs from 690 to 720: the loop returns values up to about
    # e^709.8 and overflows beyond, and e^711 is where r_ovf starts.
    PEAKS = [690.0 + 1.25 * i for i in range(25)]

    @staticmethod
    def _check(prepared, a_list, b_list, q, l, shift, sign):
        log_coefficients = _log_coefficients(a_list, b_list, q, l, shift)
        moduli = _moduli_at_peaks(log_coefficients, TestGaussianOverflowVerdict.PEAKS)
        points = [mod * complex(math.cos(ang), math.sin(ang)) for mod in moduli
                  for ang in (0.3, 2.9)]
        tols = TestGaussianOverflowVerdict.TOLS
        want = {(z, tol): _expected("gaussian", ref.eval_gaussian, a_list, b_list, q, l, shift,
                                    sign * z, tol)
                for z in points for tol in tols}
        # The largest modulus with a value at every tol, for the tiny tol.
        grow = max((z for z in points if all(len(want[z, tol]) > 2 for tol in tols)), key=abs)
        want[grow, 1e-300] = _expected("gaussian", ref.eval_gaussian, a_list, b_list, q, l,
                                       shift, sign * grow, 1e-300)
        for z in [*points, *points[::-1]]:
            for tol in tols:
                assert _outcome(prepared.evaluate, z, tol) == want[z, tol], (q, z, tol)
        rows, r_ovf = len(prepared._table[0]), prepared._table[1]
        assert r_ovf < math.inf and len(prepared._table[2]) == rows
        # A tiny tol grows the table after r_ovf is set (unless the series
        # terminates, when the walk has tabulated the rows it needs); the
        # next overflow extends the column over the new rows.
        assert _outcome(prepared.evaluate, grow, 1e-300) == want[grow, 1e-300]
        assert len(prepared._table[0]) > rows or -math.inf in log_coefficients
        for z in points:
            for tol in tols:
                assert _outcome(prepared.evaluate, z, tol) == want[z, tol], (q, z, tol)
        assert len(prepared._table[2]) == len(prepared._table[0])
        assert prepared._table[1] <= r_ovf
        outcomes = list(want.values())
        assert 0 < sum(len(got) == 2 for got in outcomes) < len(outcomes)

    def test_radius_keeps_the_path_in_the_normal_range(self):
        # Rows whose first factor is 1e-320: term 3 reaches e^711 from
        # |z| = e^22.1 on, but below |z| = e^36.8 the loop's first term is
        # below e^-700, near the subnormals, where products lose their
        # relative accuracy, so r_ovf is e^36.8.  A zero factor ends every
        # later term.
        rows = [(complex(nw), 1.0, 0.0, 0.0) for nw in (1e-320, 1e300, 1e300, 0.0, 1e300)]
        r_ovf, column = series._overflow_radius(rows)
        assert r_ovf == pytest.approx(math.exp(-700.0 - math.log(1e-320)), rel=1e-12)
        assert column[:3] == pytest.approx([math.log(1e-320), math.log(1e-20), math.log(1e280)])
        assert column[3:] == [-math.inf, -math.inf]

    def test_a_denominator_that_underflows_ends_the_column(self):
        # prod_j (1 - b_j) underflows to 0.0, so den_0 = 0.0 and the first term
        # divides by zero; the column stops before row 0 and leaves r_ovf at inf.
        params = ConfluentParams(a_list=(), b_list=(1.0 - 2.0**-53,) * 25, l=1.0, q=QBase(0.5))
        prepared = prepare_confluent_f(params)
        for z in (1.0, 1e-300, 1j):
            assert _outcome(prepared.evaluate, z, 1e-14) == (
                "NonConvergentError", "series term left the double range")
        rows, r_ovf, column = prepared._table
        assert len(rows) == 1 and rows[0][1] == 0.0
        assert r_ovf == math.inf and column == []

    @pytest.mark.parametrize("q", [0.9, 0.95, 0.99, 0.999])
    def test_confluent_f_and_aq(self, q):
        for a, b, l in (((0.5 + 0.5j,), (0.3,), 1.0), ((), (), 1.0)):
            params = ConfluentParams(a_list=a, b_list=b, l=l, q=QBase(q))
            self._check(prepare_confluent_f(params), a, b, q, l, 1, 1.0)

    @pytest.mark.parametrize("q", [0.9, 0.99])
    @pytest.mark.parametrize("m", [1, 2])
    def test_phi_odd_and_even_order(self, q, m):
        a, b = (0.5,), (0.3,) * m
        params = PhiParams(a_list=a, b_list=b, q=QBase(q))
        assert params.confluence_order == m
        self._check(prepare_phi(params), a, b, q, m / 2.0, 0, -1.0 if m % 2 else 1.0)

    @pytest.mark.parametrize("a", [0.9**-3, 0.9**-5 * (1.0 + 2.0**-50)])
    def test_terminating_and_nearly_terminating_numerator(self, a):
        # q^-3 stops the series after four terms (or leaves tiny ones past
        # them); q^-5 (1 + 2^-50) leaves a factor of about 1e-15 at k = 5.
        params = ConfluentParams(a_list=(a,), b_list=(0.2,), l=1.0, q=QBase(0.9))
        self._check(prepare_confluent_f(params), (complex(a),), (0.2,), 0.9, 1.0, 1, 1.0)


NON_FINITE = [complex(math.nan, 0.0), complex(math.inf, 0.0), complex(0.0, -math.inf),
              complex(math.inf, math.nan)]


class TestNonFiniteArguments:
    """An argument with an infinite or nan part is an InvalidArgumentError
    naming the argument, raised before any row is tabulated; a finite
    argument whose modulus overflows keeps its overflow error."""

    @pytest.mark.parametrize("w", NON_FINITE)
    def test_gaussian_families(self, w):
        want = ("InvalidArgumentError", f"argument must be finite, got {w!r}")
        f_params = ConfluentParams(a_list=(0.5j,), b_list=(0.3,), l=1.0, q=QBase(0.5))
        phi_params = PhiParams(a_list=(), b_list=(), q=QBase(0.5))  # m = 1: evaluated at -z
        aq_params = ConfluentParams(a_list=(), b_list=(), l=1.0, q=QBase(0.5))
        for prepared in (prepare_confluent_f(f_params), prepare_phi(phi_params),
                         prepare_confluent_f(aq_params)):
            assert _outcome(prepared.evaluate, w, 1e-14) == want
            assert prepared._table[0] == []
        assert _outcome(eval_confluent_f, f_params, w, 1e-14) == want
        assert _outcome(eval_phi, phi_params, w, 1e-14) == want
        assert _outcome(eval_ramanujan_aq, QBase(0.5), w, 1e-14) == want
        # The reference loops take phi's and aq's negated argument.
        assert _outcome(ref.eval_gaussian, (0.5j,), (0.3,), 0.5, 1.0, 1, w, 1e-14) == want
        assert _outcome(ref.eval_gaussian, (), (), 0.5, 0.5, 0, -w, 1e-14) == (
            "InvalidArgumentError", f"argument must be finite, got {-w!r}")

    @pytest.mark.parametrize("w", NON_FINITE)
    def test_theta(self, w):
        want = ("InvalidArgumentError", f"argument must be finite, got {w!r}")
        prepared = ThetaSeries(QBase(0.5))
        assert _outcome(prepared.evaluate, w, 1e-14) == want
        assert prepared._memo[5] == ()
        assert _outcome(ref.eval_theta, 0.5, w, 1e-14) == want

    def test_finite_argument_with_overflowing_modulus_keeps_its_error(self):
        w = complex(1e308, 1e308)
        params = ConfluentParams(a_list=(), b_list=(), l=1.0, q=QBase(0.5))
        assert _outcome(prepare_confluent_f(params).evaluate, w, 1e-14) == (
            "NonConvergentError", "series term left the double range")
        assert _outcome(ThetaSeries(QBase(0.5)).evaluate, w, 1e-14) == (
            "NonConvergentError", "theta sum overflowed the double range")
        assert _outcome(LaurentSeries(_theta_spec(0.5, 0.5)).evaluate, w, 1e-14) == (
            "NonConvergentError", "Laurent sum overflowed the double range")


class TestThetaMatchesReference:
    def test_theta(self, rng):
        for q in QS:
            prepared = ThetaSeries(QBase(q))
            for tol in (1e-14, 1e-6):
                points = _points(rng)
                if q <= THETA_TRANSFORM_Q:
                    _compare(
                        "theta",
                        prepared,
                        lambda z, tol: ref.eval_theta(q, z, tol),
                        points,
                        tol,
                    )
                else:
                    for z in points:
                        _check_theta(prepared.evaluate, q, z, tol, _theta_or_overflow(q, z))

    @pytest.mark.parametrize("q, want_terms", [(0.4, [13, 7, 59, 15, 3]),
                                               (0.7, [21, 13, 95, 27, 7])])
    def test_tol_walk(self, q, want_terms):
        prepared = ThetaSeries(QBase(q))
        z, tols = 3.0 + 4.0j, (1e-8, 1e-1, 1e-300, 1e-14, 10.0)
        if q <= THETA_TRANSFORM_Q:
            terms = _walk(prepared, lambda z, tol: ref.eval_theta(q, z, tol), z, tols)
        else:
            theta = _theta_or_overflow(q, z)
            for tol in tols:
                _check_theta(prepared.evaluate, q, z, tol, theta)
            terms = [prepared.evaluate(z, tol).terms_used for tol in tols]
        assert terms == want_terms

    @pytest.mark.parametrize("q", QS)
    def test_memo_walk(self, q, monkeypatch):
        # One series walks each lattice modulus at 8 angles, steps to a new
        # modulus and back, then walks the modulus again at the other tol.
        # At q = 0.99 the moduli from 1e3 on are certain overflows.  Every
        # outcome is a fresh series' outcome, and the stop index is searched
        # only where (|log|z||, tol) differs from the previous evaluation's.
        base = QBase(q)
        units = [complex(math.cos(math.pi * j / 4), math.sin(math.pi * j / 4)) for j in range(8)]
        walk = []
        for mod in log_grid(1e-4, 1e6, 41):
            walk += [(mod * u, 1e-14) for u in units]
            walk += [(1.5 * mod * units[3], 1e-14), (mod * units[5], 1e-14)]
            walk += [(mod * u, 1e-6) for u in units]
        wants = [_outcome(ThetaSeries(base).evaluate, z, tol) for z, tol in walk]

        searches = []

        def counted(lq, log_m, log_tol):
            searches.append((log_m, log_tol))
            return _theta_stop_index(lq, log_m, log_tol)

        monkeypatch.setattr(series, "_theta_stop_index", counted)
        prepared = ThetaSeries(base)
        for (z, tol), want in zip(walk, wants):
            assert _outcome(prepared.evaluate, z, tol) == want, (q, z, tol)
        keys = [(abs(math.log(abs(z))), tol) for z, tol in walk]
        assert len(searches) == 1 + sum(a != b for a, b in zip(keys, keys[1:])) < len(walk)
        errors = sum(len(want) == 2 for want in wants)
        if q == 0.99:
            assert 0 < errors < len(walk)

    def test_certain_overflow_tabulates_nothing(self):
        # The stop index is 634,396, and the largest term, at k = 288,127, is
        # about e^83017: evaluate raises before it tabulates any factor.
        prepared = ThetaSeries(QBase(0.999999))
        z = 0.562 * complex(math.cos(0.7), math.sin(0.7))
        want = ("NonConvergentError", "theta sum overflowed the double range")
        assert _outcome(prepared.evaluate, z, 1e-14) == want
        assert prepared._memo[5] == ()
        assert _outcome(ref.eval_theta, 0.999999, z, 1e-14) == want

    @pytest.mark.parametrize("q", [0.1, 0.5])
    def test_direct_path_memo_rows_are_the_factors(self, q):
        # Each new (|log|z||, tol) pair refills the rows with q^(2k-1) for
        # 1 <= k <= K, shorter or longer than the previous pair's.
        prepared = ThetaSeries(QBase(q))
        points = [(3.0 + 4.0j, 1e-14), (0.01j, 1e-14), (-1e5, 1e-300), (0.5, 1e-6),
                  (2.0, 1e-6), (-0.5j, 1e-6), (1e-8, 1e-14)]
        lengths = set()
        for z, tol in points:
            assert _outcome(prepared.evaluate, z, tol) == _outcome(ref.eval_theta, q, z, tol)
            k_stop, rows = prepared._memo[2], prepared._memo[5]
            assert prepared.evaluate(z, tol).terms_used == 2 * k_stop + 1
            assert [f.hex() for f in rows] == [(q ** (2 * k - 1)).hex()
                                               for k in range(1, k_stop + 1)]
            lengths.add(len(rows))
        assert len(lengths) > 3

    def test_overflow_verdict_after_the_direct_path_keeps_no_rows(self):
        # At q = 0.5 the direct sum's largest term at |z| = 1e30 is about
        # e^1717: the verdict replaces the rows of the previous modulus.
        prepared = ThetaSeries(QBase(0.5))
        prepared.evaluate(2.0, 1e-14)
        assert len(prepared._memo[5]) == prepared._memo[2] > 0
        want = ("NonConvergentError", "theta sum overflowed the double range")
        assert _outcome(prepared.evaluate, 1e30j, 1e-14) == want
        assert prepared._memo[2] == 0 and prepared._memo[5] == ()
        assert _outcome(ref.eval_theta, 0.5, 1e30j, 1e-14) == want
        assert _outcome(prepared.evaluate, 2.0, 1e-14) == _outcome(ref.eval_theta, 0.5, 2.0, 1e-14)

    @pytest.mark.parametrize("wing", [1.0, -1.0])
    def test_outcomes_near_the_overflow_threshold(self, wing):
        # About 2000 points per wing whose largest term, max over
        # 1 <= k <= K of k^2 log q + k |log|z||, lies within 3 of 711 (the
        # direct sum's closed-form rejection threshold) or of
        # log(DBL_MAX) = 709.78; each outcome is the reference's at or below
        # THETA_TRANSFORM_Q and the oracle's above it.  K is the reference's
        # stop index.
        rng = random.Random(4711 if wing > 0 else 4712)
        log_tol = math.log(1e-14)
        seen = {711.0: set(), 709.78: set()}
        transformed = set()
        checked = 0
        while checked < 2000:
            q = math.exp(-math.exp(rng.uniform(math.log(1e-3), math.log(30.0))))
            lq = math.log(q)
            centre = rng.choice((711.0, 709.78))
            log_m = math.sqrt(-4.0 * lq * (centre + rng.uniform(-3.0, 3.0)))
            k_stop = ref.theta_stop_index(lq, log_m, log_tol)
            vertex = log_m / (-2.0 * lq)
            ks = range(max(1, math.floor(vertex) - 1), min(k_stop, math.ceil(vertex) + 1) + 1)
            peak = max(k * k * lq + k * log_m for k in ks)
            if abs(peak - centre) > 3.0:
                continue
            ang = rng.uniform(0.0, 2.0 * math.pi)
            z = math.exp(wing * log_m) * complex(math.cos(ang), math.sin(ang))
            if q <= THETA_TRANSFORM_Q:
                want = _expected("theta", ref.eval_theta, q, z, 1e-14)
                assert _outcome(ThetaSeries(QBase(q)).evaluate, z, 1e-14) == want, (q, z)
                seen[centre].add((len(want) == 2, peak > 711.0))
            else:
                theta = _theta_or_overflow(q, z)
                transformed.add(_check_theta(ThetaSeries(QBase(q)).evaluate, q, z, 1e-14, theta))
            checked += 1
        # For the direct sum, both windows hold finite sums and overflows, and
        # the 711 window holds points on both sides of the threshold.  The
        # transformed sum both returns values and raises.
        assert {error for error, _ in seen[709.78]} == {False, True}
        assert seen[711.0] >= {(True, True), (True, False), (False, False)}
        assert transformed == {False, True}

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
    """On dense modulus grids that reach the overflow region, the transformed
    theta sum gives the oracle's outcome, and Laurent's screened tail test
    changes no outcome: every value, term count, tail bound and error is the
    reference's."""

    TOLS = (1e-14, 1e-9, 1e-4)

    @pytest.mark.parametrize("q", [0.95, 0.99, 0.999])
    def test_theta(self, q):
        assert q > THETA_TRANSFORM_Q
        prepared = ThetaSeries(QBase(q))
        points = _dense_points(log_grid(1e-8, 1e8, 81))
        errors = 0
        for z in points:
            theta = _theta_or_overflow(q, z)
            errors += sum(_check_theta(prepared.evaluate, q, z, tol, theta) for tol in self.TOLS)
        assert 0 < errors < len(points) * len(self.TOLS)

    @pytest.mark.parametrize("q", [0.5, 0.9, 0.99])
    def test_laurent(self, q):
        spec = _theta_spec(q, 0.5)
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

    @pytest.mark.parametrize("q", [0.5, 0.9, 0.99, 0.999])
    def test_dense_grids(self, q):
        points = _dense_points(log_grid(1e-4, 1e4, 49), angles=2)
        for alpha in (0.25, 0.5, 0.9):
            spec = _theta_spec(q, alpha)
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
        spec = _theta_spec(0.999, 0.25)
        w = complex(math.exp(709.7827 / (LAURENT_K_CAP + 0.5)), 0.0)
        want = _outcome(ref.eval_laurent, spec, w, 1e-12)
        assert want == ("NonConvergentError",
                        f"weighted tail did not meet tol within |k| <= {LAURENT_K_CAP}")
        assert _outcome(LaurentSeries(spec).evaluate, w, 1e-12) == want

    @pytest.mark.parametrize("k_ovf", [LAURENT_K_CAP, LAURENT_K_CAP + 1])
    def test_certain_overflow_at_and_past_the_cap(self, k_ovf):
        # q = 0.999, alpha = 1/4 and log|w| = 711 / (k_ovf - 1/2), about
        # 0.0711: the ratio test is blocked up to the cap, and the closed-form
        # overflow index is k_ovf.  At the cap, evaluate raises before it
        # reads a coefficient k >= 1.  One index past the cap it sums, and
        # w^k overflows by itself at k = 9984, as in the reference.
        calls = []

        def coeff(k):
            calls.append(k)
            return complex(0.999 ** (k * k))

        spec = _theta_spec(0.999, 0.25, coeff)
        w = complex(math.exp(711.0 / (k_ovf - 0.5)), 0.0)
        assert math.ceil(711.0 / math.log(w.real)) == k_ovf
        want = _outcome(ref.eval_laurent, spec, w, 1e-12)
        assert want == ("NonConvergentError", "Laurent sum overflowed the double range")
        calls.clear()
        assert _outcome(LaurentSeries(spec).evaluate, w, 1e-12) == want
        if k_ovf <= LAURENT_K_CAP:
            assert calls == [0]
        else:
            assert len(calls) > 2 * 9900

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

    def test_overflow_at_the_first_unblocked_index_calls_no_coefficient(self):
        # q = 0.999, alpha = 2 and log|w| = 11.2366: the ratio test is blocked
        # up to k = 63 and passes at 64, and w^64 is the first power that
        # overflows.  The sum raises at k = 64; evaluate raises before it.
        calls = []

        def coeff(k):
            calls.append(k)
            return 1.0 + 0.0j

        spec = LaurentSpec(0.0, coeff, 2.0, QBase(0.999), 1.0)
        w = math.exp(11.2366)
        got = _outcome(LaurentSeries(spec).evaluate, w, 1e-12)
        assert calls == [0]
        calls.clear()
        want = _outcome(ref.eval_laurent, spec, w, 1e-12)
        assert want == ("NonConvergentError", "Laurent sum overflowed the double range")
        assert max(calls) == 64
        assert got == want

    @pytest.mark.parametrize(
        "w",
        [complex(math.inf, 0.0), complex(0.0, -math.inf), complex(math.nan, 0.0),
         complex(math.inf, math.nan)],
    )
    def test_non_finite_argument_is_a_typed_error(self, w):
        # Rejected before any coefficient is read, coeff(0) included.
        calls = []

        def coeff(k):
            calls.append(k)
            return complex(0.5 ** (k * k))

        spec = LaurentSpec(0.0, coeff, 0.5, QBase(0.5), 3.0)
        want = ("InvalidArgumentError", f"argument must be finite, got {w!r}")
        prepared = LaurentSeries(spec)
        assert _outcome(prepared.evaluate, w, 1e-12) == want
        assert calls == [] and prepared._table[0] == [] and prepared._c0 is None
        assert _expected("laurent", ref.eval_laurent, spec, w, 1e-12) == want
        assert calls == []

    def test_powers_are_not_finite_at_the_certain_overflow_index(self):
        # The rounding argument in LaurentSeries.evaluate: at
        # k_ovf = ceil(711 / log_m) the power that the sum forms, by
        # "*= w" or "*= 1.0 / w", has a non-finite part.  log_m is drawn
        # log-uniformly from [0.5, 745], so that long products are common.
        def part(log_mod, c):
            # c e^log_mod, inf past the double range and 0 below it.
            if c == 0.0:
                return 0.0
            try:
                mod = math.exp(log_mod + math.log(abs(c)))
            except OverflowError:
                mod = math.inf
            return math.copysign(mod, c)

        rng = random.Random(1729)
        checked = {1.0: 0, -1.0: 0}
        while min(checked.values()) < 2000:
            log_mod = math.exp(rng.uniform(math.log(0.5), math.log(745.0)))
            ang = rng.uniform(0.0, 2.0 * math.pi)
            for sgn in checked:
                w = complex(part(sgn * log_mod, math.cos(ang)), part(sgn * log_mod, math.sin(ang)))
                if w == 0:
                    continue
                try:
                    log_m = abs(math.log(abs(w)))
                except OverflowError:
                    # Finite parts, modulus beyond the double range: evaluate
                    # raises the overflow error before its test.
                    continue
                k_ovf = max(1, math.ceil(711.0 / log_m))
                step = w if sgn > 0 else 1.0 / w
                power = 1.0 + 0.0j
                for _ in range(k_ovf):
                    power *= step
                assert not (math.isfinite(power.real) and math.isfinite(power.imag)), (w, k_ovf)
                checked[sgn] += 1


def _stream(q, zero=0.0, zeros=()):
    """coeff(k) = q^{k^2} as a complex, or ``zero`` where |k| is in ``zeros``
    or q^{k^2} underflows."""
    def coeff(k):
        value = q ** (k * k)
        return zero if abs(k) in zeros or not value else complex(value)
    return coeff


class TestLaurentZeroTail:
    """Where every tabulated row from z0 on is zero, the search over those
    rows gives the loop's outcome bit for bit: the first passing index and
    its tail, the overflow error, the cap error, or the loop itself where it
    cannot decide (a -0.0 part, the uncertain overflow band, rows not yet
    tabulated).  Each test records what the search returned."""

    @pytest.fixture
    def searches(self, monkeypatch):
        kinds = []
        search = series._zero_tail

        def recorded(*args):
            try:
                found = search(*args)
            except NonConvergentError as exc:
                kinds.append(str(exc))
                raise
            kinds.append("loop" if found is None else "value")
            return found

        monkeypatch.setattr(series, "_zero_tail", recorded)
        return kinds

    @staticmethod
    def _sweep(spec, moduli, tols, angles=(0.3, 2.0, math.pi)):
        prepared = LaurentSeries(spec)
        points = [spec.center + mod * complex(math.cos(a), math.sin(a))
                  for mod in moduli for a in angles]
        for tol in tols:
            _compare("laurent", prepared, lambda z, tol: ref.eval_laurent(spec, z, tol), points,
                     tol)
        return prepared

    def test_zero_run_that_ends_before_the_stop(self, searches):
        # Rows 5 to 40 are zero and the stream underflows from k = 85 on.
        # The huge tol stops near k = 20, so the table's trailing run starts
        # at 5 until a stop index past 40 tabulates nonzero rows, and at 85
        # once one passes 84.
        spec = LaurentSpec(0.5, _stream(0.9, zeros=range(5, 41)), 0.5, QBase(0.9), 3.0)
        moduli = [1.0, *(math.exp(x / 8.0) for x in (-1, 2, 5, 9, 12, 4, 1, -6, 0))]
        self._sweep(spec, moduli, (1e100, 1e-12, 1e-6))
        assert {"value", "loop"} <= set(searches)

    @pytest.mark.parametrize("zero", [0.0, -0.0, 0, 0j, complex(-0.0, -0.0)])
    def test_zeros_of_either_sign_and_type(self, searches, zero):
        # The stream is zero from k = 33 on, where these moduli stop.
        spec = LaurentSpec(0.0, _stream(0.5, zero), 0.5, QBase(0.5), 3.0)
        self._sweep(spec, [math.exp(x) for x in (5.0, -4.0, 4.5, -5.5, 5.0)], (1e-12,))
        assert "value" in searches

    def test_real_axis_partial_sum_with_negative_zero(self, searches):
        # On the positive real axis each nonzero row adds an imaginary part
        # of -0.0, so the partial sum keeps coeff(0)'s -0.0 until the first
        # zero row (k = 33) adds +0.0: the search must leave that to the
        # loop.  These moduli stop past 33.
        def coeff(k):
            value = 0.5 ** (k * k)
            return complex(-value if value else 0.0, -0.0)

        spec = LaurentSpec(0.0, coeff, 0.5, QBase(0.5), 3.0)
        prepared = LaurentSeries(spec)
        for z in (math.exp(5.0), math.exp(4.0), math.exp(4.5)):
            want = _outcome(ref.eval_laurent, spec, z, 1e-12)
            assert want[1] == (0.0).hex()
            assert _outcome(prepared.evaluate, z, 1e-12) == want
        assert searches == ["loop", "loop"]

    def test_stops_near_the_overflow_band(self, searches):
        # The theta stream at q = 0.5 is zero from k = 33 on; with
        # |log|w|| from 6 to 10 the stop index crosses 708 / |log|w|| and
        # 711 / |log|w||, where the powers of w leave the doubles.
        spec = _theta_spec(0.5, 0.5)
        logs = [6.0 + 0.05 * i for i in range(81)]
        moduli = [math.exp(sgn * x) for x in (*logs, 9.0, *logs[::-1]) for sgn in (1.0, -1.0)]
        for tol in (1e-12, 1e100):
            self._sweep(spec, moduli, (tol,), angles=(0.3, math.pi))
        overflow = "Laurent sum overflowed the double range"
        assert {"value", "loop", overflow} <= set(searches)

    def test_stops_at_the_index_cap(self, searches):
        # q = 0.999, alpha = 1/4: the stream is zero from k = 863 on and the
        # ratio test is blocked up to the cap at every modulus.  At
        # 10000 |log|w|| <= 708 the search raises the cap error itself, and
        # in the band up to 711 it leaves the overflow to the loop; past
        # that the closed-form test raises before the sum starts.
        spec = _theta_spec(0.999, 0.25)
        logs = (0.05, 0.0707, 0.07085, 0.0709, 0.0711, 0.0712, 0.05)
        self._sweep(spec, [math.exp(x) for x in logs], (1e-12,), angles=(0.3, 2.0))
        cap = f"weighted tail did not meet tol within |k| <= {LAURENT_K_CAP}"
        assert {cap, "loop"} <= set(searches)


# The eight unit phases of an audit sweep.
_UNITS = tuple(complex(math.cos(2.0 * math.pi * j / 8), math.sin(2.0 * math.pi * j / 8))
               for j in range(8))


def _gaussian_hit(prepared, z, tol):
    """The outcome of ``prepared.evaluate(z, tol)`` and whether it hit the
    Gaussian memo: the memo it saw had its tol and a |z| from abs(z) over
    series._WINDOW up to abs(z), and it stayed published (each publish is
    a new tuple, so no other memo came between)."""
    memo = prepared._memo
    got = _outcome(prepared.evaluate, z, tol)
    memo_z, memo_tol, _ = memo
    in_window = memo_z <= abs(z) <= memo_z * series._WINDOW
    return got, memo_tol == tol and in_window and prepared._memo is memo


def _ring_sweep(family, prepared, reference, moduli, tols=(1e-14,)):
    """Sweep ``prepared`` over each modulus at the eight audit angles, each
    tol in turn at one modulus, requiring the reference outcome at every
    point.  Returns the outcomes in order and, for a Gaussian series, how
    many evaluations hit its memo."""
    outcomes, hits = [], 0
    for mod in moduli:
        for tol in tols:
            for unit in _UNITS:
                z = mod * unit
                if family == "gaussian":
                    got, hit = _gaussian_hit(prepared, z, tol)
                    hits += hit
                else:
                    got = _outcome(prepared.evaluate, z, tol)
                assert got == _expected(family, reference, z, tol), (z, tol)
                outcomes.append(got)
    return outcomes, hits


class TestRingSweepsMatchReference:
    """Grid x angle sweeps, the way audits run, where a Gaussian series's
    angles share its stop-rule memo: every outcome is the reference's, bit
    for bit.  The moduli revisit one modulus after another, and three tols
    take turns at each modulus; the memo is keyed by (|z|, tol), so each tol
    publishes its own floor and only the angles within one tol hit it.  The
    huge tol stops at the first index whose ratio test passes."""

    MODULI = (*log_grid(1e-4, 1e6, 11), 1.0, 1e3, 1.0)
    TOLS = (1e-14, 1e-6, 1e100)

    @pytest.mark.parametrize("q", [0.5, 0.9, 0.99])
    def test_gaussian_families(self, q):
        a, b = (0.5 + 0.0j,), (0.3,)
        f_params = ConfluentParams(a_list=(1.0 - 0.5j,), b_list=(0.2, 0.6), l=1.5, q=QBase(q))
        cases = (
            (prepare_confluent_f(ConfluentParams(a_list=(), b_list=(), l=1.0, q=QBase(q))),
             lambda z, tol: ref.eval_gaussian((), (), q, 1.0, 1, z, tol)),
            (prepare_confluent_f(f_params),
             lambda z, tol: ref.eval_gaussian(f_params.a_list, f_params.b_list, q, 1.5, 1, z, tol)),
            (prepare_phi(PhiParams(a_list=a, b_list=b, q=QBase(q))),
             lambda z, tol: ref.eval_gaussian(a, b, q, 0.5, 0, -complex(z), tol)),
        )
        for prepared, reference in cases:
            _, hits = _ring_sweep("gaussian", prepared, reference, self.MODULI, self.TOLS)
            assert hits > len(self.MODULI) and prepared._memo[0] == 1.0

    @pytest.mark.parametrize("q", [0.1, 0.5, 0.9, 0.99])
    def test_laurent_theta_stream(self, q):
        # At q <= 0.5 the stream underflows to zero from z0 on, and the
        # large moduli stop past it.
        spec = _theta_spec(q, 0.5)
        _ring_sweep("laurent", LaurentSeries(spec), lambda z, tol: ref.eval_laurent(spec, z, tol),
                    (*self.MODULI, 300.0, 2e6), self.TOLS)

    def test_digest_edge_grids(self):
        # The digest listing's f q=0.95 and phi q=0.9 sweeps near the
        # modulus where the largest term reaches the top of the doubles.
        f_params = ConfluentParams(a_list=(), b_list=(), l=1.0, q=QBase(0.95))
        f_out, _ = _ring_sweep("gaussian", prepare_confluent_f(f_params),
                               lambda z, tol: ref.eval_gaussian((), (), 0.95, 1.0, 1, z, tol),
                               log_grid(1.1e5, 1.6e5, 41))
        phi = prepare_phi(PhiParams(a_list=(0.5,), b_list=(0.3,), q=QBase(0.9)))
        phi_out, _ = _ring_sweep(
            "gaussian", phi,
            lambda z, tol: ref.eval_gaussian((0.5 + 0.0j,), (0.3,), 0.9, 0.5, 0, -complex(z), tol),
            log_grid(1e5, 1e6, 21))
        for outcomes in (f_out, phi_out):
            assert 0 < sum(len(got) == 2 for got in outcomes) < len(outcomes)


class TestGaussianMemoGuards:
    """White-box checks of the Gaussian memo's fast rows near the top of the
    doubles and of the overflow column's coverage."""

    def test_fast_rows_keep_their_overflow_check(self):
        # At |z| = r the largest term of f at q = 0.99 is within rounding of
        # DBL_MAX.  On the positive axis every term stays finite and the
        # memo is recorded; at z, of the same |z|, that term has finite
        # parts and a modulus beyond the doubles.  The fast rows' abs must
        # raise there, as the loop's does; without it the sum returns about
        # e^684 from that term's cancelling neighbours.
        r = float.fromhex("0x1.c92fb8ae3c9bcp+6")
        z = complex(float.fromhex("0x1.a6c6c9192c3a3p+5"), float.fromhex("0x1.9561bf159c6aap+6"))
        prepared = prepare_confluent_f(ConfluentParams(a_list=(), b_list=(), l=1.0, q=QBase(0.99)))
        for point in (r, z):
            got, hit = _gaussian_hit(prepared, point, 1e-14)
            assert got == _expected("gaussian", lambda z, tol: ref.eval_gaussian(
                (), (), 0.99, 1.0, 1, z, tol), point, 1e-14)
        assert abs(z) == r and hit and got[0] == "NonConvergentError"

    def test_a_zero_denominator_leaves_the_column_alone(self, monkeypatch):
        # den_0 = 0.0 ends every sum at row 0, so an empty column already
        # covers every row a sum can reach, and no overflow refills it.
        calls = []
        radius = series._overflow_radius

        def counted(rows):
            calls.append(len(rows))
            return radius(rows)

        monkeypatch.setattr(series, "_overflow_radius", counted)
        params = ConfluentParams(a_list=(), b_list=(1.0 - 2.0**-53,) * 25, l=1.0, q=QBase(0.5))
        prepared = prepare_confluent_f(params)
        for z in (1.0, 2.0, 3.0, 4.0, 5.0):
            assert _outcome(prepared.evaluate, z, 1e-14) == (
                "NonConvergentError", "series term left the double range")
        assert calls == []
        assert prepared._table[1:] == (math.inf, [])


class TestGaussianMemoWindow:
    """f at q = 0.9, l = 1, whose memo the positive axis at |z| = 10.0
    publishes with a floor past MIN_STOP_INDEX.  A |z| a few ulps above the
    memo's hits it; a |z| below it, or past the window, publishes its own."""

    TOL = 1e-14

    def _published(self):
        prepared = prepare_confluent_f(ConfluentParams(a_list=(), b_list=(), l=1.0, q=QBase(0.9)))
        self._check(prepared, 10.0, hit=False)
        assert prepared._memo[0] == 10.0 and prepared._memo[2] > series.MIN_STOP_INDEX
        return prepared

    def _check(self, prepared, z, hit):
        memo = prepared._memo
        got, was_hit = _gaussian_hit(prepared, z, self.TOL)
        assert got == _expected("gaussian", lambda z, tol: ref.eval_gaussian(
            (), (), 0.9, 1.0, 1, z, tol), z, self.TOL), z
        assert was_hit == hit and (prepared._memo is memo) == hit, z
        if not hit:
            assert prepared._memo[:2] == (abs(z), self.TOL), z

    def test_an_ulp_above_hits(self):
        prepared = self._published()
        self._check(prepared, math.nextafter(10.0, math.inf), hit=True)

    def test_an_ulp_below_publishes_and_the_modulus_then_hits(self):
        prepared = self._published()
        self._check(prepared, math.nextafter(10.0, 0.0), hit=False)
        for z in (10.0, math.nextafter(10.0, math.inf), *(10.0 * unit for unit in _UNITS)):
            self._check(prepared, z, hit=True)

    def test_past_the_window_publishes(self):
        prepared = self._published()
        far = 10.0 * (1.0 + 2.0**-45)
        self._check(prepared, far, hit=False)
        self._check(prepared, math.nextafter(far, math.inf), hit=True)


def _gaussian_families(q):
    """(name, make, reference) for aq, f with parameters and phi at base q;
    make() builds a fresh prepared series."""
    a, b = (0.5 + 0.0j,), (0.3,)
    f_params = ConfluentParams(a_list=(1.0 - 0.5j,), b_list=(0.2, 0.6), l=1.5, q=QBase(q))
    return (
        ("aq", lambda: series.GaussianSeries((), (), q, 1.0, 1, True),
         lambda z, tol: ref.eval_gaussian((), (), q, 1.0, 1, -complex(z), tol)),
        ("f", lambda: prepare_confluent_f(f_params),
         lambda z, tol: ref.eval_gaussian(f_params.a_list, f_params.b_list, q, 1.5, 1, z, tol)),
        ("phi", lambda: prepare_phi(PhiParams(a_list=a, b_list=b, q=QBase(q))),
         lambda z, tol: ref.eval_gaussian(a, b, q, 0.5, 0, -complex(z), tol)),
    )


class TestGaussianStopFloor:
    """The Gaussian memo's stop floor k_f, published from the sum of the
    term moduli: later angles of a modulus skip every row below it, and must
    still return the bits of a fresh series."""

    @staticmethod
    def _evaluate(prepared, z, tol):
        """_gaussian_hit, and a check that a floor published for this |z|
        and tol is at most the stop index K = terms_used - 1 here."""
        got, hit = _gaussian_hit(prepared, z, tol)
        memo_z, memo_tol, k_f = prepared._memo
        if len(got) == 5 and memo_z == abs(z) and memo_tol == tol:
            assert k_f <= got[2] - 1, (z, tol)
        return got, hit

    @pytest.mark.parametrize("q", [0.5, 0.9, 0.99])
    def test_cancelling_angles_on_the_negative_axis(self, q):
        # One of z = r and z = -r puts the summation variable on the
        # negative real axis, where the terms alternate and |partial| is far
        # below the sum of the term moduli; the other has no cancellation.
        # Either angle may come first and publish the floor.
        moduli = log_grid(1e-2, 1e3, 16)
        deep = 0
        for name, make, reference in _gaussian_families(q):
            cancelled = 0
            for order in ((1.0, -1.0), (-1.0, 1.0)):
                prepared = make()
                for r in moduli:
                    outcomes = []
                    for sign in order:
                        z = complex(sign * r, 0.0)
                        got, hit = self._evaluate(prepared, z, 1e-14)
                        assert got == _outcome(make().evaluate, z, 1e-14), (name, z)
                        assert got == _expected("gaussian", reference, z, 1e-14), (name, z)
                        outcomes.append(got)
                        if len(got) == 5 and hit:
                            deep += prepared._memo[2] > series.MIN_STOP_INDEX
                    if all(len(got) == 5 for got in outcomes):
                        values = [abs(complex(float.fromhex(got[0]), float.fromhex(got[1])))
                                  for got in outcomes]
                        cancelled += min(values) < 0.1 * max(values)
            assert cancelled, name
        # Some hits skip rows past MIN_STOP_INDEX.
        assert deep

    def test_tol_walk_at_one_modulus(self):
        # Each tol publishes its own floor at the first angle; the second
        # angle hits it.  1e100 stops at the first row whose ratio test
        # passes, 1e-300 runs deep.
        z = 7.0 * complex(math.cos(2.0), math.sin(2.0))
        for name, make, reference in _gaussian_families(0.9):
            prepared = make()
            terms = []
            for tol in (1e-14, 1e-6, 1e-300, 1e-14, 1e100, 1e-14):
                outcomes = []
                for point in (z, z.conjugate(), -z):
                    got, hit = self._evaluate(prepared, point, tol)
                    assert got == _outcome(make().evaluate, point, tol), (name, point, tol)
                    assert got == _expected("gaussian", reference, point, tol), (name, point, tol)
                    outcomes.append(got)
                    assert hit == (point != z)
                terms.append(outcomes[0][2])
            assert terms[0] == terms[3] == terms[5] and terms[4] < terms[1] < terms[0] < terms[2]

    def test_sum_past_the_cap_keeps_the_probes(self):
        # f at q = 0.95 through its overflow radius: where the sum of the
        # term moduli passes 1e300 the floor is 0, and the loop keeps every
        # abs() probe; beyond the radius every angle raises.
        params = ConfluentParams(a_list=(), b_list=(), l=1.0, q=QBase(0.95))
        prepared = prepare_confluent_f(params)
        floors = []
        for r in log_grid(1.1e5, 1.6e5, 41):
            for unit in _UNITS:
                z = r * unit
                memo = prepared._memo
                got, hit = self._evaluate(prepared, z, 1e-14)
                assert got == _outcome(prepare_confluent_f(params).evaluate, z, 1e-14), z
                assert got == _expected("gaussian", lambda z, tol: ref.eval_gaussian(
                    (), (), 0.95, 1.0, 1, z, tol), z, 1e-14), z
                if hit and len(got) == 5:
                    floors.append(memo[2])
        assert 0 in floors and max(floors) > 0

    def test_probe_free_rows_stay_below_the_cap(self, monkeypatch):
        # With the cap lowered to 1e10 every modulus whose sum of term
        # moduli passes it publishes a floor of 0, and the outcomes stay.
        monkeypatch.setattr(series, "_SUM_CAP", 1e10)
        for name, make, reference in _gaussian_families(0.9):
            prepared = make()
            floors = []
            for r in log_grid(1e-1, 1e4, 11):
                for unit in _UNITS:
                    memo = prepared._memo
                    got, hit = self._evaluate(prepared, r * unit, 1e-14)
                    assert got == _expected("gaussian", reference, r * unit, 1e-14), (name, r)
                    if hit and len(got) == 5:
                        floors.append(memo[2])
            assert 0 in floors and max(floors) > 0, name

    @pytest.mark.parametrize("q", [0.3, 0.9, 0.99])
    @pytest.mark.parametrize("tol", [1e-300, 2.0**-900, 5e-324])
    def test_deep_tol_ring_sweep(self, q, tol):
        # Tiny tols, where the guard can fail past k_b.  A floor past 0 needs
        # a row whose tail passed the guard and is within the margin of
        # tol S_k, so tol > 2^-961: below it every floor is 0.
        for name, make, reference in _gaussian_families(q):
            prepared = make()
            hits, floors = 0, set()
            for r in log_grid(1e-2, 1e3, 16):
                for unit in _UNITS:
                    z = r * unit
                    got, hit = self._evaluate(prepared, z, tol)
                    assert got == _expected("gaussian", reference, z, tol), (name, z)
                    if hit:
                        hits += 1
                        assert got == _outcome(make().evaluate, z, tol), (name, z)
                    floors.add(prepared._memo[2])
            assert hits, name
            if tol < 2.0**-961:
                assert floors == {0}, name
            else:
                assert max(floors) > 0, name


def test_shared_targets_under_thread_contention():
    """Four threads share one prepared target per family at interleaved points.

    Each round starts from fresh targets, so the threads race to grow the
    same tables, and to replace and hit the Gaussian and theta memos: each
    thread takes two angles per modulus, and theta, on its transformed and
    its direct path, two tols.  They also race to publish the Gaussian
    series' overflow radius (its sum overflows from |z| of about 2e3 on) and
    the zero-tail start of a Laurent stream that underflows from k = 273 on.
    Every result must equal a fresh evaluation, and some Gaussian
    evaluations must have hit its memo.
    """
    gaussian_params = ConfluentParams(a_list=(0.5 + 0.5j,), b_list=(0.3,), l=0.5, q=QBase(0.95))
    theta_base = QBase(0.97)
    theta_direct_base = QBase(0.3)
    spec = _theta_spec(0.9, 0.5)
    zero_tail_spec = _theta_spec(0.99, 0.5)
    families = (
        ("gaussian", lambda: prepare_confluent_f(gaussian_params), (1e-14,)),
        ("theta", lambda: ThetaSeries(theta_base), (1e-14, 1e-6)),
        ("laurent", lambda: LaurentSeries(spec), (1e-12,)),
        ("laurent zero tail", lambda: LaurentSeries(zero_tail_spec), (1e-12,)),
        ("theta direct", lambda: ThetaSeries(theta_direct_base), (1e-14, 1e-6)),
    )
    moduli = [10.0 ** (e / 4.0) for e in range(-8, 17)]

    def work(index, shared, results):
        for mod in moduli[index::4] + moduli[::-1]:
            for (name, _, tols), prepared in zip(families, shared):
                for tol in tols:
                    for phase in (index + mod, index - mod):
                        z = mod * complex(math.cos(phase), math.sin(phase))
                        if name == "gaussian":
                            got, hit = _gaussian_hit(prepared, z, tol)
                            hits.append(hit)
                        else:
                            got = _outcome(prepared.evaluate, z, tol)
                        results.append((name, z, tol, got))

    hits = []
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
            gaussian, zero_tail = shared[0], shared[3]
            rows, r_ovf, column = gaussian._table
            assert r_ovf < math.inf and 0 < len(column) <= len(rows)
            rows, z0 = zero_tail._table
            assert z0 == 273 < len(rows)
            assert gaussian._memo[0] is not None
    finally:
        sys.setswitchinterval(old)
    assert any(hits)
    fresh = {name: prepare for name, prepare, _ in families}
    per_modulus = 2 * sum(len(tols) for _, _, tols in families)
    for results in rounds:
        for index, per_thread in enumerate(results):
            assert len(per_thread) == per_modulus * (len(moduli[index::4]) + len(moduli))
            for name, z, tol, got in per_thread:
                assert got == _outcome(fresh[name]().evaluate, z, tol), (name, z, tol)
