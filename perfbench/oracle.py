"""40-digit direct sums used as the benchmark's reference values.

Each oracle sums a fixed number of terms with plain running products, no
stop rule and no code shared with the library, so a disagreement points at
the library.  They return (value, largest term modulus); criterion 09 of
the acceptance suite scales the error by max(1, |value|, largest term) and
gates it at 1e-12, and ``scaled_error`` applies the same rule here.
"""

from __future__ import annotations

import mpmath as mp

DPS = 40
GATE = 1e-12


def _mpc(z) -> mp.mpc:
    z = complex(z)
    return mp.mpc(z.real, z.imag)


def _one_sided(a_list, b_list, q, z, n_terms, weight):
    """sum_k prod(a;q)_k / (prod(b;q)_k (q;q)_k) weight(k) z^k for k < n_terms."""
    with mp.workdps(DPS):
        q_mp = mp.mpf(q)
        z_mp = _mpc(z)
        a_mp = [_mpc(a) for a in a_list]
        b_mp = [mp.mpf(b) for b in b_list]
        coeff = mp.mpc(1)
        z_pow = mp.mpc(1)
        total = mp.mpc(0)
        t_max = mp.mpf(0)
        for k in range(n_terms):
            term = coeff * weight(q_mp, k) * z_pow
            t_max = max(t_max, abs(term))
            total += term
            qk = q_mp**k
            for a in a_mp:
                coeff *= 1 - a * qk
            for b in b_mp:
                coeff /= 1 - b * qk
            coeff /= 1 - q_mp ** (k + 1)
            z_pow *= z_mp
        return complex(total), float(t_max)


def confluent_f(a_list, b_list, l, q, z, n_terms):
    """Gaussian-weighted entire series, weight q^{l k^2}."""
    return _one_sided(a_list, b_list, q, z, n_terms, lambda q_mp, k: q_mp ** (mp.mpf(l) * k * k))


def phi(a_list, b_list, q, z, n_terms):
    """Confluent hypergeometric series, weight (-1)^{km} q^{m k(k-1)/2}."""
    m = len(b_list) + 1 - len(a_list)
    return _one_sided(
        a_list,
        b_list,
        q,
        z,
        n_terms,
        lambda q_mp, k: (-1) ** (k * m) * q_mp ** (m * k * (k - 1) // 2),
    )


def two_sided(coeff, z, k_max):
    """sum_{|k| <= k_max} coeff(k) z^k with coeff(k) given in doubles."""
    with mp.workdps(DPS):
        w = _mpc(z)
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


def theta(q, z, k_max):
    """Theta sum over |k| <= k_max with the exact coefficients q^{k^2}."""
    with mp.workdps(DPS):
        q_mp = mp.mpf(q)
        w = _mpc(z)
        w_inv = 1 / w
        total = mp.mpc(1)
        t_max = mp.mpf(1)
        plus = mp.mpc(1)
        minus = mp.mpc(1)
        for k in range(1, k_max + 1):
            f = q_mp ** (2 * k - 1)
            plus *= f * w
            minus *= f * w_inv
            t_max = max(t_max, abs(plus), abs(minus))
            total += plus + minus
        return complex(total), float(t_max)


def scaled_error(got: complex, want: complex, t_max: float) -> float:
    """Criterion 09's measure: |got - want| / max(1, |want|, largest term)."""
    return abs(got - want) / max(1.0, abs(want), t_max)
