"""Per-factor reference loops for the q-shifted factorials in qineq.qcore.

These are the products as they were before every product of one base came
from one shared table of q**k: each factor pays for its own q**k, and a
parameter list multiplies one pochhammer value after another.  The library
must reproduce them bit for bit, errors and their precedence included.
``entire_constants`` is the envelope constant pair (constant_c,
(q^l;q)_inf) that bounds cached before its logs could be taken in log space.
"""

from __future__ import annotations

import math

from qineq.errors import InvalidArgumentError, NonConvergentError
from qineq.qcore import FACTOR_CAP, PochhammerValue, QBase

_POCH_TOL = 1e-16


def pochhammer_finite(a, q: QBase, n: int) -> PochhammerValue:
    if not isinstance(n, int) or n < 0:
        raise InvalidArgumentError(f"factor count must be a nonnegative integer, got {n!r}")
    qq = q.q
    value = 1.0
    for k in range(n):
        value = value * (1.0 - a * qq**k)
    return PochhammerValue(value=value, factors_used=n)


def pochhammer_infinite(a, q: QBase, tol: float) -> PochhammerValue:
    if not tol > 0.0:
        raise InvalidArgumentError(f"tol must be positive, got {tol!r}")
    abs_a = abs(a)
    if not math.isfinite(abs_a):
        raise NonConvergentError(f"non-finite parameter {a!r} in infinite product")
    qq = q.q
    target = min(tol * (1.0 - qq), 0.5)
    if abs_a == 0.0:
        n_trunc = 0
    else:
        guess = (math.log(target) - math.log(abs_a)) / math.log(qq)
        n_trunc = max(0, math.ceil(guess))
        if n_trunc > FACTOR_CAP:
            raise NonConvergentError(
                f"infinite product needs {n_trunc} factors, beyond the cap {FACTOR_CAP}"
            )
        while abs_a * qq**n_trunc > target:
            n_trunc += 1
            if n_trunc > FACTOR_CAP:
                raise NonConvergentError(
                    f"infinite product did not meet tol within {FACTOR_CAP} factors"
                )
        while n_trunc > 0 and abs_a * qq ** (n_trunc - 1) <= target:
            n_trunc -= 1
    value = pochhammer_finite(a, q, n_trunc).value
    if not abs(value) < math.inf:
        raise NonConvergentError("infinite product overflowed the double range")
    a_qn = abs_a * qq**n_trunc
    tail = a_qn / ((1.0 - qq) * (1.0 - a_qn))
    return PochhammerValue(value=value, factors_used=n_trunc, tail_log_bound=tail)


def multishifted(a_list, q: QBase, n, tol: float = 1e-15) -> PochhammerValue:
    infinite = n == math.inf
    if not infinite and (not isinstance(n, int) or n < 0):
        raise InvalidArgumentError(f"order must be a nonnegative integer or math.inf, got {n!r}")
    value = 1.0
    tail = 0.0
    used = 0
    for a in a_list:
        part = pochhammer_infinite(a, q, tol) if infinite else pochhammer_finite(a, q, n)
        value = value * part.value
        tail += part.tail_log_bound
        used = max(used, part.factors_used)
    if not infinite:
        used = n if a_list else 0
    return PochhammerValue(value=value, factors_used=used, tail_log_bound=tail)


def constant_c(params) -> float:
    num = multishifted([-abs(a) for a in params.a_list], params.q, math.inf, tol=_POCH_TOL)
    den = multishifted(list(params.b_list), params.q, math.inf, tol=_POCH_TOL)
    return num.value / den.value


def entire_constants(params) -> tuple[float, float]:
    q = params.q
    return constant_c(params), pochhammer_infinite(q.q**params.l, q, _POCH_TOL).value
