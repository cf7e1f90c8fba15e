"""Per-call reference loops for the prepared evaluators in qineq.series.

These are the evaluators as they were before the series were prepared: every
call recomputes each term's z-independent factors, and theta's stop index
is found by a walk up from K = 1.  The prepared evaluators must reproduce
them bit for bit.  The one deliberate difference is the error raised when a
complex modulus overflows: these loops let ``abs()``'s OverflowError escape,
where the prepared evaluators raise NonConvergentError.
"""

from __future__ import annotations

import math
from typing import Callable

from qineq.errors import CenterPoleError, InvalidArgumentError, NonConvergentError
from qineq.series import (
    MIN_STOP_INDEX,
    TERM_CAP,
    TWO_SIDED_CAP,
    EvalResult,
    LaurentSpec,
)

_LOG_HALF = math.log(0.5)


def _require_pos_tol(tol: float) -> None:
    if not tol > 0.0:
        raise InvalidArgumentError(f"tol must be positive, got {tol!r}")


def _certified_sum(
    ratio: Callable[[int], complex],
    rho: Callable[[int], float],
    tol: float,
    force_terms: int | None = None,
) -> tuple[complex, int, float]:
    term: complex = 1.0 + 0.0j
    partial = term
    k = 0
    try:
        while k <= TERM_CAP:
            nxt = term * ratio(k)
            if not abs(nxt) < math.inf:
                raise NonConvergentError("series term left the double range")
            if force_terms is not None:
                if k + 1 >= force_terms:
                    return partial, k + 1, 0.0
            elif k >= MIN_STOP_INDEX:
                bound = rho(k)
                if bound < 1.0:
                    tail = abs(nxt) / (1.0 - bound)
                    if tail <= tol * max(1.0, abs(partial)):
                        return partial, k + 1, tail
            partial += nxt
            term = nxt
            k += 1
    except OverflowError as exc:
        raise NonConvergentError("series term left the double range") from exc
    raise NonConvergentError(f"no certified stop within {TERM_CAP} terms")


def eval_gaussian(
    a_list: tuple[complex, ...],
    b_list: tuple[float, ...],
    q: float,
    l: float,
    shift: int,
    z: complex,
    tol: float,
    force_terms: int | None = None,
) -> EvalResult:
    """f is (l, shift) = (l, 1) at z; phi is (m/2, 0) at (-1)^m z."""
    _require_pos_tol(tol)
    z = complex(z)
    if z == 0:
        return EvalResult(value=1.0 + 0.0j, terms_used=1, tail_bound=0.0)
    abs_z = abs(z)
    num_cap = 1.0
    for a in a_list:
        num_cap *= 1.0 + abs(a)
    den_floor = 1.0
    for b in b_list:
        den_floor *= 1.0 - b

    def ratio(k: int) -> complex:
        qk = q**k
        num: complex = 1.0 + 0.0j
        for a in a_list:
            num *= 1.0 - a * qk
        den: complex = 1.0 - q ** (k + 1)
        for b in b_list:
            den *= 1.0 - b * qk
        return num * q ** (l * (2 * k + shift)) * z / den

    def rho(k: int) -> float:
        return q ** (l * (2 * k + shift)) * abs_z * num_cap / ((1.0 - q ** (k + 1)) * den_floor)

    value, used, tail = _certified_sum(ratio, rho, tol, force_terms)
    return EvalResult(value=value, terms_used=used, tail_bound=tail)


def theta_stop_index(lq: float, log_m: float, log_tol: float) -> int:
    """The walk up from K = 1 that eval_theta used to find its stop index."""
    k_stop = 1
    while True:
        ratio_log = (2 * k_stop + 1) * lq + log_m
        if ratio_log <= _LOG_HALF:
            rho = math.exp(ratio_log)
            if k_stop * k_stop * lq + k_stop * log_m - math.log1p(-rho) <= log_tol:
                return k_stop
        k_stop += 1
        if k_stop > TWO_SIDED_CAP:
            raise NonConvergentError(f"no certified stop within |k| <= {TWO_SIDED_CAP}")


def eval_theta(qq: float, z: complex, tol: float, force_k: int | None = None) -> EvalResult:
    _require_pos_tol(tol)
    z = complex(z)
    if z == 0:
        raise InvalidArgumentError("theta sum requires a nonzero argument")
    lq = math.log(qq)
    abs_z = abs(z)
    if not math.isfinite(abs_z):
        raise InvalidArgumentError(f"argument must be finite, got {z!r}")
    log_m = abs(math.log(abs_z))
    log_tol = math.log(tol)
    k_stop = theta_stop_index(lq, log_m, log_tol) if force_k is None else force_k

    rho2 = math.exp(min((2 * k_stop + 3) * lq + log_m, _LOG_HALF))
    tail = 2.0 * math.exp((k_stop + 1) ** 2 * lq + (k_stop + 1) * log_m) / (1.0 - rho2)

    value: complex = 1.0 + 0.0j
    plus: complex = 1.0 + 0.0j
    minus: complex = 1.0 + 0.0j
    z_inv = 1.0 / z
    for k in range(1, k_stop + 1):
        f = qq ** (2 * k - 1)
        plus *= f * z
        minus *= f * z_inv
        value += plus + minus
    if not abs(value) < math.inf:
        raise NonConvergentError("theta sum overflowed the double range")
    return EvalResult(value=value, terms_used=2 * k_stop + 1, tail_bound=tail)


def eval_laurent(
    spec: LaurentSpec, z: complex, tol: float, force_k: int | None = None
) -> EvalResult:
    _require_pos_tol(tol)
    z = complex(z)
    w = z - spec.center
    if w == 0:
        raise CenterPoleError(f"evaluation point equals the expansion center {spec.center!r}")
    qq = spec.q.q
    lq = math.log(qq)
    alpha = spec.alpha
    ap1 = alpha + 1.0
    abs_w = abs(w)
    law = math.log(abs_w)
    log_m = abs(law)
    log_c = math.log(spec.c_weighted)

    partial = complex(spec.coeff(0))
    plus: complex = 1.0 + 0.0j
    minus: complex = 1.0 + 0.0j
    w_inv = 1.0 / w
    k = 0
    while True:
        k += 1
        if k > spec.k_cap:
            raise NonConvergentError(
                f"weighted tail did not meet tol within |k| <= {spec.k_cap}"
            )
        plus *= w
        minus *= w_inv
        partial += spec.coeff(k) * plus + spec.coeff(-k) * minus
        if not abs(partial) < math.inf:
            raise NonConvergentError("Laurent sum overflowed the double range")
        if force_k is not None:
            if k >= force_k:
                return EvalResult(value=partial, terms_used=2 * k + 1, tail_bound=0.0)
            continue
        decay = ap1 * k**alpha * lq
        if decay + log_m > _LOG_HALF:
            continue
        next_weight = (k + 1) ** ap1 * lq
        wing_logs = []
        for sgn in (1.0, -1.0):
            wing_rho = math.exp(decay + sgn * law)
            wing_logs.append(next_weight + sgn * (k + 1) * law - math.log1p(-wing_rho))
        hi = max(wing_logs)
        tail_log = log_c + hi + math.log1p(math.exp(min(wing_logs) - hi))
        if tail_log <= math.log(tol * max(1.0, abs(partial))):
            return EvalResult(
                value=partial, terms_used=2 * k + 1, tail_bound=math.exp(tail_log)
            )
