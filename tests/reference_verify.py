"""Per-term reference loop for the identity series in qineq.verify.

This is the extended-precision series side as it was before the kernel
carried the powers of q from term to term and screened its stop test: each
term's multiplier and each stop bound come from a lambda of the index that
takes ``q**k`` afresh, and the exact stop test runs at every index from 8 on.
``verify._series_sum_mp`` must reproduce its sums bit for bit and stop at the
same index.  The only change is that the loop also returns that index.

``triple`` is the theta triple-product residual as it was before its product
came from ``multishifted``: three ``pochhammer_infinite`` values multiplied
by hand, left to right.
"""

from __future__ import annotations

from typing import Callable

import mpmath as mp

from qineq.errors import NonConvergentError
from qineq.qcore import QBase, pochhammer_infinite
from qineq.series import eval_theta
from qineq.verify import _SERIES_CAP, _SERIES_DPS, _SERIES_STOP, _series_side_modulus


def series_sum_mp(
    multiplier: Callable[[int], mp.mpc], rho: Callable[[int], float]
) -> tuple[complex, int]:
    """(sum, stop index) of term_0 = 1, term_{k+1} = term_k multiplier(k).

    ``rho(k)`` must bound the term ratio for indices >= k.
    """
    term = mp.mpc(1)
    partial = mp.mpc(1)
    k = 0
    while k <= _SERIES_CAP:
        term = term * multiplier(k)
        if k >= 8:
            bound = rho(k)
            if bound < 1.0 and abs(term) / (1.0 - bound) <= _SERIES_STOP * max(
                mp.mpf(1), abs(partial)
            ):
                return complex(partial), k
        partial += term
        k += 1
    raise NonConvergentError(f"identity series did not settle within {_SERIES_CAP} terms")


def euler_series(q: float, z: complex) -> tuple[complex, int]:
    """(sum_k z^k/(q;q)_k, stop index), for |z| < 1."""
    z = complex(z)
    abs_z = _series_side_modulus(z)
    with mp.workdps(_SERIES_DPS):
        z_mp = mp.mpc(z.real, z.imag)
        q_mp = mp.mpf(q)
        return series_sum_mp(
            lambda k: z_mp / (1 - q_mp ** (k + 1)),
            lambda k: abs_z / (1.0 - q ** (k + 1)),
        )


def qbinomial_series(a: complex, q: float, z: complex) -> tuple[complex, int]:
    """(sum_k (a;q)_k z^k/(q;q)_k, stop index), for |z| < 1."""
    a = complex(a)
    z = complex(z)
    abs_z = _series_side_modulus(z)
    abs_a = abs(a)
    with mp.workdps(_SERIES_DPS):
        a_mp = mp.mpc(a.real, a.imag)
        z_mp = mp.mpc(z.real, z.imag)
        q_mp = mp.mpf(q)
        return series_sum_mp(
            lambda k: (1 - a_mp * q_mp**k) * z_mp / (1 - q_mp ** (k + 1)),
            lambda k: (1.0 + abs_a * q**k) * abs_z / (1.0 - q ** (k + 1)),
        )


def euler(q: QBase, z: complex, tol: float) -> tuple[float, complex, int]:
    """(verify.identity_euler's residual, series, stop index) from the reference loop."""
    z = complex(z)
    product = pochhammer_infinite(z, q, tol).value
    series, k = euler_series(q.q, z)
    return abs(product * series - 1.0), series, k


def qbinomial(a: complex, q: QBase, z: complex, tol: float) -> tuple[float, complex, int]:
    """(verify.identity_qbinomial_theorem's residual, series, stop index) from the
    reference loop."""
    a = complex(a)
    z = complex(z)
    lhs = pochhammer_infinite(a * z, q, tol).value / pochhammer_infinite(z, q, tol).value
    series, k = qbinomial_series(a, q.q, z)
    return abs(lhs - series), series, k


def triple(q: QBase, z: complex, tol: float) -> float:
    """verify.identity_theta_triple_product's residual from three product calls."""
    z = complex(z)
    theta = eval_theta(q, z, tol).value
    q2 = QBase(q.q * q.q)
    product = (
        pochhammer_infinite(q2.q, q2, tol).value
        * pochhammer_infinite(-z * q.q, q2, tol).value
        * pochhammer_infinite(-q.q / z, q2, tol).value
    )
    return abs(theta - product) / (1.0 + abs(theta))
