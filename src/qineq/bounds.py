"""Closed-form envelopes that dominate the series evaluators everywhere.

Every envelope is assembled and stored in natural-log form because the
exponential factor exp(-log^2|z| / (4 l log q)) leaves the double range
already for moderate |log z|^2 / |log q|.  The linear value is reported too,
with math.inf standing in when exp would overflow.

The one-sided chain multiplies three pieces: the parameter constant
(-|a_1|,...,-|a_r|;q)_inf / (b_1,...,b_s;q)_inf, the sum identity
sum_k q^{kl}/(q;q)_k = 1/(q^l;q)_inf, and the real-k maximum of the
Gaussian-weighted term (q^{l(k-1)} |z|)^k.  The two-sided bound instead uses
the weighted-coefficient constant c = sum_k |a_k| q^{-|k|^(alpha+1)} and the
closed-form maximum of q^{|k|^(alpha+1)} |z - a|^k over all integers k, which
gives exp(beta |log|z - a||^gamma) with

    beta = alpha / ((alpha+1)^{1+1/alpha} log^{1/alpha}(1/q)),
    gamma = (alpha+1)/alpha.

The last pieces are written once, in term_peak and
MeromorphicBoundParams.exponent.  envelope_phi is the entire-class envelope
of its phi_to_f reduction at the rescaled modulus, and verify.audit_target
calls the same functions on the same cached constants, so an audit certifies
exactly the log_bound that every public envelope reports.

Each envelope is a constant times a closed form in |z|.  The constants that
do not depend on |z| (constant_c and (q^l;q)_inf, the phi reduction's l and
|scale|, (q;q)_inf, the theta weighted constant, beta and gamma) are
computed once per parameter set and kept in bounded, thread-safe
least-recently-used caches keyed on the frozen parameter objects, so
tabulating an envelope over many moduli pays for them once.  Exceptions are
not cached, so invalid parameters raise on every call.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass
from typing import Callable

from .errors import InvalidArgumentError, NonConvergentError
from .qcore import QBase, _truncated_products
# Not called here since the constants come from one table per base, but
# perfbench/tracing.py rebinds both names in this module.
from .qcore import multishifted, pochhammer_infinite  # noqa: F401
from .series import ConfluentParams, PhiParams, phi_to_f

_POCH_TOL = 1e-16
_MAX_LOG = math.log(sys.float_info.max)
_MIN_NORMAL = sys.float_info.min
_CACHE_SIZE = 256
WEIGHTED_SUM_CAP = 100_000
THETA_CONSTANT_TOL = 1e-15
_LAURENT_CONSTANT_TOL = 1e-15


def _as_linear(log_bound: float) -> float:
    if log_bound > _MAX_LOG:
        return math.inf
    return math.exp(log_bound)


@dataclass(frozen=True)
class EnvelopeResult:
    """An envelope value with its constant-factor breakdown.

    log_bound == log(constant_c) + prefactor_log + exponent_term holds by
    construction wherever constant_c and the products behind it are normal
    doubles.  Elsewhere log_bound is assembled from log constant_c taken in
    log space, and constant_c is its exp, or math.inf when that overflows;
    ``bound`` is exp(log_bound) or math.inf when that overflows.
    """

    log_bound: float
    bound: float
    constant_c: float
    prefactor_log: float
    exponent_term: float


def _assemble(
    constant_c: float, prefactor_log: float, exponent_term: float, log_c: float | None = None
) -> EnvelopeResult:
    if log_c is None:
        log_c = math.log(constant_c)
    log_bound = log_c + prefactor_log + exponent_term
    return EnvelopeResult(
        log_bound=log_bound,
        bound=_as_linear(log_bound),
        constant_c=constant_c,
        prefactor_log=prefactor_log,
        exponent_term=exponent_term,
    )


@dataclass(frozen=True)
class MeromorphicBoundParams:
    """Derived exponent data for the two-sided envelope.

    Built by meromorphic_bound_params from alpha and q: gamma =
    (alpha+1)/alpha > 1 and beta > 0 always.
    """

    beta: float
    gamma: float

    def exponent(self, dist: float) -> float:
        """Log of the closed-form term maximum, beta |log dist|^gamma."""
        return self.beta * abs(math.log(dist)) ** self.gamma


def _require_positive(value: float, name: str) -> float:
    value = float(value)
    if not (math.isfinite(value) and value > 0.0):
        raise InvalidArgumentError(f"{name} must be positive and finite, got {value!r}")
    return value


def constant_c(params: ConfluentParams) -> float:
    """Parameter constant (-|a_1|,...,-|a_r|;q)_inf / (b_1,...,b_s;q)_inf.

    Equals 1 for empty parameter lists and is >= 1 in general, since every
    numerator factor is >= 1 and every denominator factor is <= 1.  It is
    math.inf where it overflows; see _entire_logs.
    """
    return _entire_logs(params)[0]


def term_peak(abs_z: float, l: float, q: QBase) -> float:
    """Log of the real-k maximum of (q^{l(k-1)} |z|)^k.

    The maximum of k log|z| + l k(k-1) log q over real k sits at
    k* = 1/2 - log|z| / (2 l log q) and evaluates to

        (1/2) log|z| - (l/4) log q - log^2|z| / (4 l log q),

    i.e. the log of (|z|^2 q^{-l})^{1/4} exp(-log^2|z| / (4 l log q)).
    """
    abs_z = _require_positive(abs_z, "abs_z")
    l = _require_positive(l, "l")
    lz = math.log(abs_z)
    lq = q.log_q
    return 0.5 * lz - 0.25 * l * lq - lz * lz / (4.0 * l * lq)


def _product_log(xs: list, counts: list[int], values: list, qq: float) -> tuple[float, float]:
    """The product of truncated (x;q)_inf ``values``, combined as
    multishifted combines them, and its log.

    A product that is not a normal double has lost its bits to underflow or
    overflow: its log is then math.fsum of log1p(-x q^k) over the same
    factors, the ``counts`` of _truncated_products.
    """
    value = 1.0
    for part in values:
        value = value * part
    if _MIN_NORMAL <= value < math.inf:
        return value, math.log(value)
    return value, math.fsum([math.log1p(-x * qq**k) for x, n in zip(xs, counts) for k in range(n)])


def _entire_logs(params: ConfluentParams) -> tuple[float, float, float]:
    """(constant_c, log constant_c, log (q^l;q)_inf) of the entire class.

    One qcore table of q**k at _POCH_TOL serves every product.  Where the
    numerator, the denominator and their quotient are normal doubles this is
    (c, math.log(c), math.log((q^l;q)_inf)) with c = num / den, the bits of
    constant_c over multishifted; elsewhere the logs are taken in log space
    (see _product_log) and c is exp(log c), math.inf when that overflows.
    """
    qq = params.q.q
    r = len(params.a_list)
    xs = [-abs(a) for a in params.a_list] + list(params.b_list) + [qq**params.l]
    counts, values, error = _truncated_products(xs, params.q, _POCH_TOL)
    if error is not None:
        raise error
    num, log_num = _product_log(xs[:r], counts[:r], values[:r], qq)
    den, log_den = _product_log(xs[r:-1], counts[r:-1], values[r:-1], qq)
    log_ql = _product_log(xs[-1:], counts[-1:], values[-1:], qq)[1]
    if num < math.inf and den >= _MIN_NORMAL and num / den < math.inf:
        c = num / den
        return c, math.log(c), log_ql
    log_c = log_num - log_den
    return _as_linear(log_c), log_c, log_ql


@functools.lru_cache(maxsize=_CACHE_SIZE)
def _entire_constants(params: ConfluentParams) -> tuple[float, float, float]:
    """_entire_logs, cached per parameter set."""
    return _entire_logs(params)


@functools.lru_cache(maxsize=_CACHE_SIZE)
def _phi_constants(params: PhiParams) -> tuple[float, float, float, float, float]:
    """(constant_c, log constant_c, log (q^l;q)_inf, l, |scale|) of the
    phi_to_f reduction.

    Cached per parameter set.
    """
    reduction = phi_to_f(params)
    return (*_entire_constants(reduction.params), reduction.params.l, abs(reduction.scale))


@functools.lru_cache(maxsize=_CACHE_SIZE)
def _aq_constant(q: QBase) -> float:
    """log (q;q)_inf, the l = 1 (q^l;q)_inf of _entire_logs; cached per base."""
    return _entire_logs(ConfluentParams(a_list=(), b_list=(), l=1.0, q=q))[2]


def envelope_entire(params: ConfluentParams, abs_z: float) -> EnvelopeResult:
    """Envelope of the Gaussian-weighted entire class on the circle |z| = abs_z.

    log bound = log(constant_c) - log((q^l;q)_inf) + term_peak(abs_z, l, q),
    valid for every nonzero z of that modulus; prefactor_log is
    -log((q^l;q)_inf) and exponent_term is the term peak.
    """
    c, log_c, log_ql = _entire_constants(params)
    return _assemble(c, -log_ql, term_peak(abs_z, params.l, params.q), log_c)


def envelope_phi(params: PhiParams, abs_z: float) -> EnvelopeResult:
    """Envelope of the confluent hypergeometric sum on the circle |z| = abs_z.

    With phi(z) = f(scale * z) from phi_to_f, this is the entire-class
    envelope of the reduction at |scale| abs_z: prefactor_log is
    -log((q^l;q)_inf) and exponent_term is term_peak(|scale| abs_z, l, q).
    It is the arithmetic an audit certifies, read from cached constants.
    """
    abs_z = _require_positive(abs_z, "abs_z")
    c, log_c, log_ql, l, scale = _phi_constants(params)
    return _assemble(c, -log_ql, term_peak(abs_z * scale, l, params.q), log_c)


def envelope_phi_routes(params: PhiParams, abs_z: float) -> tuple[EnvelopeResult, EnvelopeResult]:
    """Two independent envelope routes for the confluent hypergeometric sum.

    Returns (direct, composed).  The direct route is the closed form

        (|z|^2 q^{3(r-s-1)/2})^{1/4} exp(log^2[|z| q^{(r-s-1)/2}] / (2(r-s-1) log q))

    times the constant ratio; the composed route is envelope_entire of the
    phi_to_f reduction at |scale| abs_z, which envelope_phi reports bit for
    bit.  Tests compare the two.
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


def envelope_aq_gaussian(q: QBase, abs_z: float) -> EnvelopeResult:
    """Gaussian envelope (|z|/sqrt(q))^{1/2} exp(-log^2|z|/(4 log q)) / (q;q)_inf.

    This is the r = s = 0, l = 1 specialization of envelope_entire, assembled
    here from its own closed form so the two code paths stay independent.
    """
    abs_z = _require_positive(abs_z, "abs_z")
    log_poch = _aq_constant(q)
    lz = math.log(abs_z)
    lq = q.log_q
    prefactor_log = -log_poch + 0.5 * math.log(abs_z / math.sqrt(q.q))
    exponent_term = -lz * lz / (4.0 * lq)
    return _assemble(1.0, prefactor_log, exponent_term)


def envelope_aq_exponential(q: QBase, abs_z: float) -> EnvelopeResult:
    """Exponential envelope exp(q |z| / (1 - q)); valid at z = 0 as well."""
    abs_z = float(abs_z)
    if not (math.isfinite(abs_z) and abs_z >= 0.0):
        raise InvalidArgumentError(f"abs_z must be nonnegative and finite, got {abs_z!r}")
    exponent_term = q.q * abs_z / (1.0 - q.q)
    return _assemble(1.0, 0.0, exponent_term)


def meromorphic_bound_params(alpha: float, q: QBase) -> MeromorphicBoundParams:
    """Exponent data beta, gamma of the two-sided envelope for a given alpha."""
    alpha = _require_positive(alpha, "alpha")
    beta = alpha / ((alpha + 1.0) ** (1.0 + 1.0 / alpha) * q.log_inv_q ** (1.0 / alpha))
    gamma = (alpha + 1.0) / alpha
    return MeromorphicBoundParams(beta=beta, gamma=gamma)


def envelope_meromorphic(
    params: MeromorphicBoundParams, c_weighted: float, dist: float
) -> EnvelopeResult:
    """Two-sided envelope c_weighted exp(beta |log dist|^gamma) at |z - a| = dist."""
    c_weighted = _require_positive(c_weighted, "c_weighted")
    dist = _require_positive(dist, "dist")
    return _assemble(c_weighted, 0.0, params.exponent(dist))


def theta_weighted_constant(alpha: float, q: QBase, tol: float) -> float:
    """Weighted constant sum_{k in Z} q^{k^2 - |k|^(1+alpha)} for 0 < alpha < 1.

    The exponent k^2 - k^(1+alpha) vanishes at k = 1 and grows beyond, so the
    symmetric terms decrease monotonically and the sum is always >= 3.
    """
    if not 0.0 < alpha < 1.0:
        raise InvalidArgumentError(f"alpha must lie in (0, 1), got {alpha!r}")
    if not tol > 0.0:
        raise InvalidArgumentError(f"tol must be positive, got {tol!r}")
    qq = q.q
    total = 1.0
    for k in range(1, WEIGHTED_SUM_CAP + 1):
        term = qq ** (k * k - k ** (1.0 + alpha))
        total += 2.0 * term
        if term < tol:
            return total
    raise NonConvergentError(f"weighted constant did not settle within {WEIGHTED_SUM_CAP} terms")


@functools.lru_cache(maxsize=_CACHE_SIZE)
def _meromorphic_params(alpha: float, q: QBase) -> MeromorphicBoundParams:
    """meromorphic_bound_params, cached per (alpha, q)."""
    return meromorphic_bound_params(alpha, q)


@functools.lru_cache(maxsize=_CACHE_SIZE)
def _theta_constant(alpha: float, q: QBase) -> float:
    """theta_weighted_constant at THETA_CONSTANT_TOL, cached per (alpha, q)."""
    return theta_weighted_constant(alpha, q, THETA_CONSTANT_TOL)


def laurent_weighted_constant(coeff: Callable[[int], complex], alpha: float, q: QBase) -> float:
    """Weighted constant sum_k |coeff(k)| q^{-|k|^(alpha+1)} for a coefficient stream.

    The stream is a black box, so convergence cannot be proved here: the sum
    stops only after 8 consecutive terms below 1e-15, raises
    NonConvergentError when 64 consecutive terms fail to decline or a
    weighted term overflows, and gives up at |k| = WEIGHTED_SUM_CAP.
    """
    alpha = _require_positive(alpha, "alpha")
    linv = q.log_inv_q
    total = abs(coeff(0))
    previous = math.inf
    grow_streak = 0
    below_streak = 0
    for k in range(1, WEIGHTED_SUM_CAP + 1):
        mags = abs(coeff(k)) + abs(coeff(-k))
        if mags == 0.0:
            term = 0.0
        else:
            log_term = math.log(mags) + k ** (alpha + 1.0) * linv
            if log_term > _MAX_LOG:
                raise NonConvergentError(
                    f"weighted term at |k| = {k} overflowed; the stream looks divergent"
                )
            term = math.exp(log_term)
        total += term
        grow_streak = grow_streak + 1 if term >= previous and term > 0.0 else 0
        if grow_streak >= 64:
            raise NonConvergentError(
                f"weighted terms stopped declining near |k| = {k}; the stream looks divergent"
            )
        below_streak = below_streak + 1 if term < _LAURENT_CONSTANT_TOL else 0
        if below_streak >= 8:
            return total
        previous = term
    raise NonConvergentError(f"weighted constant did not settle within |k| <= {WEIGHTED_SUM_CAP}")


def envelope_theta(alpha: float, q: QBase, abs_z: float) -> EnvelopeResult:
    """Certified theta envelope c(alpha, q) exp(beta |log|z||^gamma).

    c is theta_weighted_constant summed to THETA_CONSTANT_TOL.  Symmetric
    under abs_z -> 1/abs_z since only |log abs_z| enters.
    """
    abs_z = _require_positive(abs_z, "abs_z")
    c = _theta_constant(alpha, q)
    params = _meromorphic_params(alpha, q)
    return envelope_meromorphic(params, c, abs_z)


def envelope_theta_as_printed(alpha: float, q: QBase, abs_z: float) -> EnvelopeResult:
    """Display variant c(alpha, q) exp(log^2|z| / (alpha log(1/q))).

    c is the same constant as in envelope_theta.  Unlike envelope_theta's,
    this exponent is not produced by the term-domination argument, so no
    domination certificate backs it; it is kept for comparison only and
    excluded from certification sweeps.
    """
    abs_z = _require_positive(abs_z, "abs_z")
    c = _theta_constant(alpha, q)
    lz = math.log(abs_z)
    exponent_term = lz * lz / (alpha * q.log_inv_q)
    return _assemble(c, 0.0, exponent_term)
