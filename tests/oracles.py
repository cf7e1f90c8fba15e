"""Reference oracles: naive direct summation, independent of the library code.

The series oracles run in mpmath working precision (40 digits) so frozen
expectations and double-depth comparisons are limited by the library's double
arithmetic, never by the oracle's own rounding.  Each oracle recomputes the
terms with plain running products and no early stopping.  theta_accurate
sums theta in decimal arithmetic at as many digits as its cancellation needs.
"""

from __future__ import annotations

import decimal
import math
import sys

import mpmath as mp

mp.mp.dps = 40


def _mpc(z) -> mp.mpc:
    z = complex(z)
    return mp.mpc(z.real, z.imag)


def poch(a: complex, q: float, n: int) -> complex:
    value = 1.0 + 0.0j
    for k in range(n):
        value *= 1.0 - a * q**k
    return value


def confluent_f_direct(a_list, b_list, l, q, z, n_terms):
    """Partial sum of the Gaussian-weighted series in extended precision.

    Returns (value, largest term magnitude) as native complex/float.
    """
    q_mp = mp.mpf(q)
    z_mp = _mpc(z)
    l_mp = mp.mpf(l)
    a_mp = [_mpc(a) for a in a_list]
    b_mp = [mp.mpf(b) for b in b_list]
    num = [mp.mpc(1) for _ in a_mp]
    den = [mp.mpf(1) for _ in b_mp]
    qfac = mp.mpf(1)
    z_pow = mp.mpc(1)
    total = mp.mpc(0)
    t_max = mp.mpf(0)
    for k in range(n_terms):
        term = mp.mpc(1)
        for p in num:
            term *= p
        for p in den:
            term /= p
        term *= q_mp ** (l_mp * k * k) * z_pow / qfac
        t_max = max(t_max, abs(term))
        total += term
        qk = q_mp**k
        for i, a in enumerate(a_mp):
            num[i] *= 1 - a * qk
        for j, b in enumerate(b_mp):
            den[j] *= 1 - b * qk
        qfac *= 1 - q_mp ** (k + 1)
        z_pow *= z_mp
    return complex(total), float(t_max)


def phi_direct(a_list, b_list, q, z, n_terms):
    """Partial sum of the confluent hypergeometric series in extended precision."""
    m = len(b_list) + 1 - len(a_list)
    q_mp = mp.mpf(q)
    z_mp = _mpc(z)
    a_mp = [_mpc(a) for a in a_list]
    b_mp = [mp.mpf(b) for b in b_list]
    num = [mp.mpc(1) for _ in a_mp]
    den = [mp.mpf(1) for _ in b_mp]
    qfac = mp.mpf(1)
    z_pow = mp.mpc(1)
    total = mp.mpc(0)
    t_max = mp.mpf(0)
    for k in range(n_terms):
        term = mp.mpc(1)
        for p in num:
            term *= p
        for p in den:
            term /= p
        sign = -1 if (k * m) % 2 else 1
        term *= sign * q_mp ** (m * k * (k - 1) // 2) * z_pow / qfac
        t_max = max(t_max, abs(term))
        total += term
        qk = q_mp**k
        for i, a in enumerate(a_mp):
            num[i] *= 1 - a * qk
        for j, b in enumerate(b_mp):
            den[j] *= 1 - b * qk
        qfac *= 1 - q_mp ** (k + 1)
        z_pow *= z_mp
    return complex(total), float(t_max)


def aq_direct(q, z, n_terms=20):
    q_mp = mp.mpf(q)
    z_mp = _mpc(z)
    qfac = mp.mpf(1)
    pow_mz = mp.mpc(1)
    total = mp.mpc(0)
    for k in range(n_terms):
        total += q_mp ** (k * k) * pow_mz / qfac
        qfac *= 1 - q_mp ** (k + 1)
        pow_mz *= -z_mp
    return complex(total)


def theta_direct(q, z, k_max):
    """Symmetric theta sum over |k| <= k_max in extended precision.

    Returns (value, largest term magnitude) as native complex/float.
    """
    q_mp = mp.mpf(q)
    z_mp = _mpc(z)
    z_inv = 1 / z_mp
    total = mp.mpc(1)
    t_max = mp.mpf(1)
    plus = mp.mpc(1)
    minus = mp.mpc(1)
    for k in range(1, k_max + 1):
        f = q_mp ** (2 * k - 1)
        plus *= f * z_mp
        minus *= f * z_inv
        t_max = max(t_max, abs(plus), abs(minus))
        total += plus + minus
    return complex(total), float(t_max)


_LN10 = math.log(10.0)


def _theta_wing(lq, a, log_floor):
    """Terms 1..k of the wing q^{k^2} e^{a k}, k >= 1, after which the rest of
    the wing sums to less than e^log_floor: past its peak, the terms fall by
    the ratio e^{(2k+1) lq + a} < 1 from k on, so the rest is at most the
    next term over one minus that ratio."""
    k = 0
    while True:
        k += 1
        ratio = (2 * k + 1) * lq + a
        if ratio >= 0.0:
            continue
        if (k + 1) ** 2 * lq + (k + 1) * a - math.log1p(-math.exp(ratio)) < log_floor:
            return k


def _power(re, im, n):
    """(re + i im)^n for an integer n, in the current decimal context, by
    repeated squaring: a relative error of about |n| roundings."""
    if n < 0:
        norm = re * re + im * im
        re, im, n = re / norm, -im / norm, -n
    pr, pi = decimal.Decimal(1), decimal.Decimal(0)
    while n:
        if n & 1:
            pr, pi = pr * re - pi * im, pr * im + pi * re
        re, im = re * re - im * im, 2 * re * im
        n >>= 1
    return pr, pi


def _theta_extended(q, z, log_scale):
    """sum_k q^{k^2} z^k in decimal and fixed-point arithmetic, as (re, im)
    Decimals, with an absolute error below 1e-40 e^log_scale.

    With m the integer nearest log|z| / (2 log(1/q)), the reindexing
    k -> k + m gives theta(z) = q^{m^2} z^m theta(w) with w = q^{2m} z and
    q <= |w| <= 1/q.  Each wing of theta(w) is summed until its rest is
    below 1e-45 e^log_scale / |q^{m^2} z^m|.  Its terms q^{k^2} w^{+-k} and
    their factors q^{2k-1} w^{+-1} are at most 1 in modulus, so the wings
    run on integers scaled by 2^bits ~ 10^(d+3): a product truncates by at
    most 2^-bits and passes on no larger error than it receives, and the
    factors enter rounded to d digits, so the K terms' sum is off by at most
    about K^3 10^-d.  The factor q^{m^2} z^m is off by about |m| 10^-d,
    relative.  The d digits below keep both under 1e-45 e^log_scale.
    """
    lq = math.log(q)
    a = math.log(abs(z))
    m = round(a / (-2.0 * lq))
    log_factor = m * m * lq + m * a
    a_w = a + 2 * m * lq
    log_floor = log_scale - log_factor - 45.0 * _LN10
    k_plus, k_minus = _theta_wing(lq, a_w, log_floor), _theta_wing(lq, -a_w, log_floor)
    k_max = max(k_plus, k_minus, abs(m))
    digits = math.ceil(
        46.0 + (log_factor - log_scale) / _LN10 + math.log10(64.0 * (k_max + 1) ** 3))
    bits = math.ceil((digits + 3) * math.log2(10.0))
    context = decimal.Context(prec=max(digits, 20), Emax=decimal.MAX_EMAX, Emin=decimal.MIN_EMIN)
    with decimal.localcontext(context):
        unit = decimal.Decimal(1 << bits)
        dq = decimal.Decimal(q)
        q2 = int(dq * dq * unit)
        zr, zi = decimal.Decimal(z.real), decimal.Decimal(z.imag)
        shift = dq ** (2 * m)
        wr, wi = zr * shift, zi * shift
        norm = wr * wr + wi * wi
        re, im = 1 << bits, 0
        for (ur, ui), k_stop in (((wr, wi), k_plus), ((wr / norm, -wi / norm), k_minus)):
            # f = q^{2k-1} u and term = q^{k^2} u^k.
            fr, fi = int(dq * ur * unit), int(dq * ui * unit)
            tr, ti = 1 << bits, 0
            for _ in range(k_stop):
                tr, ti = (tr * fr - ti * fi) >> bits, (tr * fi + ti * fr) >> bits
                re += tr
                im += ti
                fr = fr * q2 >> bits
                fi = fi * q2 >> bits
        re, im = decimal.Decimal(re) / unit, decimal.Decimal(im) / unit
        pr, pi = _power(zr, zi, m)
        factor = dq ** (m * m)
        pr, pi = pr * factor, pi * factor
        return pr * re - pi * im, pr * im + pi * re


def theta_log_peak(q, z):
    """log of the direct theta sum's largest term, max over integers k of
    k^2 log q + k |log|z||."""
    lq = math.log(q)
    a = abs(math.log(abs(complex(z))))
    vertex = a / (-2.0 * lq)
    return max(k * k * lq + k * a for k in (math.floor(vertex), math.ceil(vertex)))


def theta_accurate(q, z, floor=1.0):
    """theta(z) = sum_k q^{k^2} z^k within 1e-20 max(floor, |theta(z)|), as a
    complex, or None where |theta(z)| is above the largest double.

    A direct sum in decimal arithmetic, independent of the library.  A pass
    at absolute accuracy 1e-40 s settles the value once its modulus is at
    least 1e-20 s or s is down to floor.  s starts 30 digits below the
    largest term times e^{-arg^2 z / (4 log(1/q))}, the size of the sum's
    cancellation away from the zeros of theta; each further pass doubles
    the gap.  That choice only sets the cost: the acceptance test alone
    decides the value.  At floor = 1 the last pass is a direct sum at
    40 + log10(largest term) digits.
    """
    z = complex(z)
    lq = math.log(q)
    log_peak = theta_log_peak(q, z)
    log_floor = math.log(floor)
    gap = 30.0 * _LN10 + math.atan2(z.imag, z.real) ** 2 / (-4.0 * lq)
    while True:
        log_scale = max(log_peak - gap, log_floor)
        re, im = _theta_extended(q, z, log_scale)
        modulus = (re * re + im * im).sqrt()
        if log_scale <= log_floor or modulus and modulus.ln() >= log_scale - 20.0 * _LN10:
            break
        gap *= 2.0
    if modulus > decimal.Decimal(sys.float_info.max):
        return None
    return complex(float(re), float(im))


def theta_transformed_peak(q, z):
    """The largest term of Jacobi's imaginary transformation of theta at z,
    sqrt(pi / L) e^{(log^2|z| - arg^2 z) / (4L)} with L = log(1/q), the
    scale of theta's rounding error near its zeros on the negative axis."""
    z = complex(z)
    big_l = -math.log(q)
    a, b = math.log(abs(z)), math.atan2(z.imag, z.real)
    return math.sqrt(math.pi / big_l) * math.exp(min((a * a - b * b) / (4.0 * big_l), 709.0))


def theta_majorant(q, z, k_max=None):
    """All-positive scale sum_{|k| <= K} q^{k^2} M^k with M = max(|z|, 1/|z|).

    The natural conditioning scale for theta comparisons: no cancellation,
    so it is computable to full relative accuracy.
    """
    m_big = max(abs(complex(z)), 1.0 / abs(complex(z)))
    if k_max is None:
        k_max = 20 + int(math.ceil(math.log(m_big + 1.0) / -math.log(q))) * 4
    total = mp.mpf(1)
    plus = mp.mpf(1)
    minus = mp.mpf(1)
    q_mp = mp.mpf(q)
    m_mp = mp.mpf(m_big)
    for k in range(1, k_max + 1):
        f = q_mp ** (2 * k - 1)
        plus *= f * m_mp
        minus *= f / m_mp
        total += plus + minus
    return float(total)


def laurent_direct(coeff, center, z, k_max):
    """Symmetric partial sum of a two-sided expansion in extended precision."""
    w = _mpc(z) - _mpc(center)
    w_inv = 1 / w
    total = _mpc(coeff(0))
    t_max = abs(total)
    plus = mp.mpc(1)
    minus = mp.mpc(1)
    for k in range(1, k_max + 1):
        plus *= w
        minus *= w_inv
        up = _mpc(coeff(k)) * plus
        down = _mpc(coeff(-k)) * minus
        t_max = max(t_max, abs(up), abs(down))
        total += up + down
    return complex(total), float(t_max)


def theta_weighted_direct(alpha, q, k_max=200):
    total = 1.0
    for k in range(1, k_max + 1):
        total += 2.0 * q ** (k * k - k ** (1.0 + alpha))
    return total


def peak_grid_max(abs_z, l, q, k_max=60):
    """Brute-force max over integer k of k * log(q^{l(k-1)} |z|)."""
    lq = math.log(q)
    lz = math.log(abs_z)
    return max(k * (l * (k - 1) * lq + lz) for k in range(k_max + 1))


# Frozen expected values, all produced by the oracles in this module.
POCH_HALF_HALF_INF = 0.2887880950866024  # poch(0.5, 0.5, 200)
AQ_HALF_AT_ONE = 0.1607637889320887  # aq_direct(0.5, 1.0)
AQ_HALF_AT_MINUS_ONE = 2.172668750849664  # aq_direct(0.5, -1.0)
THETA_HALF_AT_ONE = 2.128936827211877  # theta_direct(0.5, 1.0, 12)
THETA_HALF_AT_MINUS_ONE = 0.1211242080025805  # theta_direct(0.5, -1.0, 12)
ENTIRE_ENV_HALF_AT_ONE = 4.117922917307581  # 0.5**-0.25 / POCH_HALF_HALF_INF
RATIO_AQ_HALF_AT_ONE = 0.527612778208636  # AQ_HALF_AT_MINUS_ONE / ENTIRE_ENV_HALF_AT_ONE
CONST_C_B_HALF = 3.462746619455064  # 1 / POCH_HALF_HALF_INF
THETA_WEIGHTED_HALF_HALF = 4.039030627295673  # theta_weighted_direct(0.5, 0.5)
PHI_EXAMPLE_VALUE = 0.7417492115963993  # phi_direct([0.5], [0.0], 0.5, 0.3, 30)
