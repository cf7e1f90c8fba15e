"""Reference routes for the envelopes in qineq.bounds.

``envelope_entire``, ``envelope_phi``, ``envelope_aq_gaussian``,
``envelope_theta`` and ``envelope_meromorphic`` here are the public envelopes
as they were assembled before bounds kept one prepared envelope per
parameter set: every call validates the modulus, reads the constants, takes
the closed form through term_peak or the meromorphic exponent and assembles
the result through ``_assemble`` and ``_as_linear``, with the same argument
checks in the same order.  No constant is cached.  The prepared envelopes
must reproduce them bit for bit, and raise the same errors; the one
deliberate difference is which of two invalid arguments a phi, aq or theta
envelope reports first (see ``PARAMETERS_FIRST``).  The exception is
``envelope_aq_gaussian``: bounds builds it as the entire-class envelope at
r = s = 0, l = 1, so it reproduces ``envelope_aq_entire`` bit for bit (see
``BIT_ROUTES``), and the independent closed form here groups the same bound
differently and agrees with it to a few ulp.  Where |scale| abs_z
overflows, ``envelope_phi`` takes its log as log(abs_z) + log|scale|; where
abs_z / sqrt(q) overflows, ``envelope_aq_gaussian`` takes its log as
log(abs_z) - log sqrt(q); and a meromorphic exponent beyond the double range
raises NonConvergentError, as the prepared envelopes do.

``envelope_phi_routes`` sets the direct closed form of the confluent
hypergeometric envelope beside the composed route, so tests can check that
the two agree.
"""

from __future__ import annotations

import math
import sys

from qineq import (
    ConfluentParams,
    EnvelopeResult,
    InvalidArgumentError,
    MeromorphicBoundParams,
    NonConvergentError,
    PhiParams,
    QBase,
    meromorphic_bound_params,
    phi_to_f,
    theta_weighted_constant,
)
from qineq.bounds import THETA_CONSTANT_TOL, _field_logs

_MAX_LOG = math.log(sys.float_info.max)

# The references check the modulus before the parameters for these
# envelopes; the prepared envelopes build (and so check) the parameters
# first, as envelope_entire and envelope_meromorphic always did.
PARAMETERS_FIRST = ("envelope_phi", "envelope_aq_gaussian", "envelope_theta")


def _as_linear(log_bound: float) -> float:
    if log_bound > _MAX_LOG:
        return math.inf
    return math.exp(log_bound)


def _assemble(
    constant_c: float, prefactor_log: float, exponent_term: float, log_c: float | None = None
) -> EnvelopeResult:
    if log_c is None:
        log_c = math.log(constant_c)
    log_bound = log_c + prefactor_log + exponent_term
    return EnvelopeResult(
        log_bound, _as_linear(log_bound), constant_c, prefactor_log, exponent_term
    )


def _require_positive(value: float, name: str) -> float:
    value = float(value)
    if not (math.isfinite(value) and value > 0.0):
        raise InvalidArgumentError(f"{name} must be positive and finite, got {value!r}")
    return value


def _peak_at_log(lz: float, l: float, q: QBase) -> float:
    lq = q.log_q
    return 0.5 * lz - 0.25 * l * lq - lz * lz / (4.0 * l * lq)


def term_peak(abs_z: float, l: float, q: QBase) -> float:
    abs_z = _require_positive(abs_z, "abs_z")
    l = _require_positive(l, "l")
    return _peak_at_log(math.log(abs_z), l, q)


def meromorphic_exponent(
    params: MeromorphicBoundParams, dist: float, modulus_name: str = "dist"
) -> float:
    try:
        exponent = params.beta * abs(math.log(dist)) ** params.gamma
    except OverflowError:
        exponent = math.inf
    if exponent == math.inf:
        raise NonConvergentError(
            f"envelope exponent overflowed the double range at {modulus_name} = {dist!r}"
        )
    return exponent


def _entire_logs(params: ConfluentParams) -> tuple[float, float, float]:
    return _field_logs(params.a_list, params.b_list, params.l, params.q)


def envelope_entire(params: ConfluentParams, abs_z: float) -> EnvelopeResult:
    c, log_c, log_ql = _entire_logs(params)
    # 0.0 - log_ql: +0.0, not -0.0, where (q^l;q)_inf rounds to 1.
    return _assemble(c, 0.0 - log_ql, term_peak(abs_z, params.l, params.q), log_c)


def _phi_constants(params: PhiParams) -> tuple[float, float, float, float, float]:
    reduction = phi_to_f(params)
    return (*_entire_logs(reduction.params), reduction.params.l, abs(reduction.scale))


def envelope_phi(params: PhiParams, abs_z: float) -> EnvelopeResult:
    abs_z = _require_positive(abs_z, "abs_z")
    c, log_c, log_ql, l, scale = _phi_constants(params)
    if abs_z * scale == math.inf:
        # The scaled modulus overflows; its log is the sum of the two logs.
        peak = _peak_at_log(math.log(abs_z) + math.log(scale), l, params.q)
    else:
        peak = term_peak(abs_z * scale, l, params.q)
    return _assemble(c, 0.0 - log_ql, peak, log_c)


def envelope_aq_gaussian(q: QBase, abs_z: float) -> EnvelopeResult:
    abs_z = _require_positive(abs_z, "abs_z")
    log_poch = _entire_logs(ConfluentParams(a_list=(), b_list=(), l=1.0, q=q))[2]
    lz = math.log(abs_z)
    lq = q.log_q
    quotient = abs_z / math.sqrt(q.q)
    if quotient == math.inf:
        # At a tiny base the quotient overflows; its log is the difference of logs.
        prefactor_log = -log_poch + 0.5 * (lz - math.log(math.sqrt(q.q)))
    else:
        prefactor_log = -log_poch + 0.5 * math.log(quotient)
    exponent_term = -lz * lz / (4.0 * lq)
    return _assemble(1.0, prefactor_log, exponent_term)


def envelope_aq_entire(q: QBase, abs_z: float) -> EnvelopeResult:
    return envelope_entire(ConfluentParams(a_list=(), b_list=(), l=1.0, q=q), abs_z)


# The route each public envelope reproduces bit for bit, where it is not the
# reference of the same name.
BIT_ROUTES = {"envelope_aq_gaussian": envelope_aq_entire}


def envelope_meromorphic(
    params: MeromorphicBoundParams, c_weighted: float, dist: float, modulus_name: str = "dist"
) -> EnvelopeResult:
    c_weighted = _require_positive(c_weighted, "c_weighted")
    dist = _require_positive(dist, modulus_name)
    return _assemble(c_weighted, 0.0, meromorphic_exponent(params, dist, modulus_name))


def envelope_theta(alpha: float, q: QBase, abs_z: float) -> EnvelopeResult:
    abs_z = _require_positive(abs_z, "abs_z")
    c = theta_weighted_constant(alpha, q, THETA_CONSTANT_TOL)
    params = meromorphic_bound_params(alpha, q)
    return envelope_meromorphic(params, c, abs_z, "abs_z")


def envelope_phi_routes(params: PhiParams, abs_z: float) -> tuple[EnvelopeResult, EnvelopeResult]:
    """Two independent envelope routes for the confluent hypergeometric sum.

    Returns (direct, composed).  The direct route is the closed form

        (|z|^2 q^{3(r-s-1)/2})^{1/4} exp(log^2[|z| q^{(r-s-1)/2}] / (2(r-s-1) log q))

    times the constant ratio; the composed route is envelope_entire of the
    phi_to_f reduction at |scale| abs_z, which envelope_phi reports bit for
    bit.
    """
    abs_z = _require_positive(abs_z, "abs_z")
    c, log_c, log_ql, _, _ = _phi_constants(params)
    m = params.confluence_order
    lz = math.log(abs_z)
    lq = params.q.log_q
    prefactor_log = -log_ql + 0.5 * lz + (3.0 * (-m) / 8.0) * lq
    shifted = lz + (-m / 2.0) * lq
    exponent_term = shifted * shifted / (2.0 * (-m) * lq)
    direct = _assemble(c, prefactor_log, exponent_term, log_c)
    reduction = phi_to_f(params)
    return direct, envelope_entire(reduction.params, abs_z * abs(reduction.scale))
