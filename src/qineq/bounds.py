"""Closed-form envelopes that dominate the series evaluators everywhere.

Every envelope is assembled and stored in natural-log form because the
exponential factor exp(-log^2|z| / (4 l log q)) leaves the double range
already for moderate |log z|^2 / |log q|.  The linear value is reported too,
with math.inf standing in when exp would overflow.

The one-sided chain multiplies three pieces: the parameter constant
(-|a_1|,...,-|a_r|;q)_inf / (b_1,...,b_s;q)_inf, the sum identity
sum_k q^{kl}/(q;q)_k = 1/(q^l;q)_inf, and the real-k maximum of the
Gaussian-weighted term (q^{l(k-1)} |z|)^k; qcore._quotient_logs forms the
constant and (q^l;q)_inf with their logs.  The two-sided bound instead uses
the weighted-coefficient constant c = sum_k |a_k| q^{-|k|^(alpha+1)} and the
closed-form maximum of q^{|k|^(alpha+1)} |z - a|^k over all integers k, which
gives exp(beta |log|z - a||^gamma) with

    beta = alpha / ((alpha+1)^{1+1/alpha} log^{1/alpha}(1/q)),
    gamma = (alpha+1)/alpha.

Each envelope is a constant times a closed form in |z|, written once, in
the ``result`` method of a prepared envelope: an immutable named tuple of
what does not depend on |z|: the constant and its log, -log (q^l;q)_inf, l,
|scale|, beta, gamma, and the |z|-free sums and products of the closed
form, grouped as left-to-right evaluation groups them so that no bit
changes.  There are two classes.  _EntireEnvelope, the one-sided one,
serves envelope_entire, envelope_phi (the entire envelope of its phi_to_f
reduction at |scale| |z|, built from the reduction's fields: the PhiParams'
own lists, l = m/2 and |scale|, with no reduced ConfluentParams) and
envelope_aq_gaussian (the entire envelope at r = s = 0, l = 1).
_MeromorphicEnvelope, the two-sided one, serves envelope_theta and
envelope_meromorphic.  _entire_constants, _phi_constants and _aq_constant
build the first through one body, _theta_constant the second; each keeps
what it builds on the parameter object (``_envelope``, ``_aq_envelope``, or
``_theta_envelopes`` by alpha, up to _CACHE_SIZE alphas), so a repeat call
with that object reads one attribute; two threads may both build, and one
store of the same bits wins.  _meromorphic_constants, with no owning object,
is an LRU cache.  verify.audit_target reads and fills the same memo and
certifies the log_bound method of the same prepared envelope.  Exceptions
are not cached.
"""

from __future__ import annotations

import functools
import math
from typing import Callable, NamedTuple

from .errors import InvalidArgumentError, NonConvergentError
from .qcore import _MAX_LOG, QBase, _modulus, _new_tuple, _q_power, _quotient_logs
from .qcore import _require_pos_tol, _set
# Not called here since the constants come from one table per base, but
# perfbench/tracing.py rebinds both names in this module.
from .qcore import multishifted, pochhammer_infinite  # noqa: F401
from .series import ConfluentParams, PhiParams, _phi_weight_scale

__all__ = [
    "EnvelopeResult", "MeromorphicBoundParams", "constant_c", "term_peak", "envelope_entire",
    "envelope_phi", "envelope_aq_gaussian", "envelope_aq_exponential", "meromorphic_bound_params",
    "envelope_meromorphic", "theta_weighted_constant", "laurent_weighted_constant",
    "envelope_theta", "envelope_theta_as_printed",
]

_POCH_TOL = 1e-16
_CACHE_SIZE = 256
WEIGHTED_SUM_CAP = 100_000
THETA_CONSTANT_TOL = 1e-15
_LAURENT_CONSTANT_TOL = 1e-15
_log, _exp, _inf = math.log, math.exp, math.inf


class EnvelopeResult(NamedTuple):
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
    constant_c: float, log_c: float, prefactor_log: float, exponent_term: float
) -> EnvelopeResult:
    log_bound = log_c + prefactor_log + exponent_term
    bound = math.inf if log_bound > _MAX_LOG else math.exp(log_bound)
    return _new_tuple(EnvelopeResult, (log_bound, bound, constant_c, prefactor_log, exponent_term))


def _require_positive(value: float, name: str) -> float:
    value = float(value)
    if not (math.isfinite(value) and value > 0.0):
        raise InvalidArgumentError(f"{name} must be positive and finite, got {value!r}")
    return value


def _log_bound(envelope, abs_z: float) -> float:
    return envelope.result(abs_z)[0]


class _EntireEnvelope(NamedTuple):
    """Prepared entire-class envelope at |scale| |z|: scale is 1 for f and aq
    and that of the phi_to_f reduction for phi; prefactor_log = -log (q^l;q)_inf."""

    constant_c: float
    log_c: float
    prefactor_log: float
    l: float
    scale: float
    log_head: float  # log_c + prefactor_log
    quarter_l_log_q: float  # 0.25 * l * log q
    four_l_log_q: float  # 4.0 * l * log q

    def result(self, abs_z: float) -> EnvelopeResult:
        abs_z = float(abs_z)
        x = abs_z * self[4]
        if 0.0 < x < _inf:
            lz = _log(x)
        else:
            # A valid abs_z whose product with scale overflows: a sum of logs.
            lz = _log(_require_positive(abs_z, "abs_z")) + _log(self.scale)
        # 0.5 lz - 0.25 l log q - lz^2 / (4 l log q), then log_c + prefactor_log + that.
        exponent_term = 0.5 * lz - self[6] - lz * lz / self[7]
        log_bound = self[5] + exponent_term
        bound = _inf if log_bound > _MAX_LOG else _exp(log_bound)
        return _new_tuple(EnvelopeResult, (log_bound, bound, self[0], self[2], exponent_term))

    log_bound = _log_bound


def _entire_envelope(c, log_c, prefactor_log, l, log_q, scale) -> _EntireEnvelope:
    return _EntireEnvelope(c, log_c, prefactor_log, l, scale, log_c + prefactor_log,
                           0.25 * l * log_q, 4.0 * l * log_q)


class _MeromorphicEnvelope(NamedTuple):
    """Prepared c exp(beta |log dist|^gamma), NonConvergentError where the
    exponent is not a double; modulus_name names dist in errors."""

    constant_c: float
    log_c: float
    beta: float
    gamma: float
    modulus_name: str

    def result(self, dist: float) -> EnvelopeResult:
        dist = float(dist)
        if not 0.0 < dist < _inf:
            _require_positive(dist, self.modulus_name)
        try:
            exponent_term = self[2] * abs(_log(dist)) ** self[3]
        except OverflowError:
            exponent_term = _inf
        if not exponent_term < _inf:
            raise NonConvergentError(
                f"envelope exponent overflowed the double range at {self.modulus_name} = {dist!r}"
            )
        log_bound = self[1] + exponent_term
        bound = _inf if log_bound > _MAX_LOG else _exp(log_bound)
        return _new_tuple(EnvelopeResult, (log_bound, bound, self[0], 0.0, exponent_term))

    log_bound = _log_bound


class MeromorphicBoundParams(NamedTuple):
    """Derived exponent data for the two-sided envelope.

    Built by meromorphic_bound_params from alpha and q: gamma =
    (alpha+1)/alpha > 1 and beta > 0 always.
    """

    beta: float
    gamma: float

    def exponent(self, dist: float) -> float:
        """Log of the closed-form term maximum, beta |log dist|^gamma, dist > 0;
        NonConvergentError where it is not a double."""
        return _MeromorphicEnvelope(1.0, 0.0, self.beta, self.gamma, "dist").result(dist)[4]


def constant_c(params: ConfluentParams) -> float:
    """Parameter constant (-|a_1|,...,-|a_r|;q)_inf / (b_1,...,b_s;q)_inf.

    Equals 1 for empty parameter lists and is >= 1 in general, since every
    numerator factor is >= 1 and every denominator factor is <= 1.  It is
    math.inf where it overflows; see _field_logs.  Read from the envelope
    that envelope_entire keeps on ``params``.
    """
    return (params._envelope or _entire_constants(params)).constant_c


def term_peak(abs_z: float, l: float, q: QBase) -> float:
    """Log of the real-k maximum of (q^{l(k-1)} |z|)^k.

    The maximum of k log|z| + l k(k-1) log q over real k sits at
    k* = 1/2 - log|z| / (2 l log q) and evaluates to

        (1/2) log|z| - (l/4) log q - log^2|z| / (4 l log q),

    i.e. the log of (|z|^2 q^{-l})^{1/4} exp(-log^2|z| / (4 l log q)).  It
    raises InvalidArgumentError where q^l rounds to 1, as envelope_entire does.
    """
    abs_z = _require_positive(abs_z, "abs_z")
    l = _require_positive(l, "l")
    _q_power(q, l)
    return _entire_envelope(1.0, 0.0, 0.0, l, q.log_q, 1.0).result(abs_z)[4]


def _field_logs(a_list: tuple, b_list: tuple, l: float, q: QBase) -> tuple[float, float, float]:
    """(constant_c, log constant_c, log (q^l;q)_inf): qcore._quotient_logs of
    -|a_i| over b_j at x = q^l and _POCH_TOL; a q^l that rounds to 1 raises."""
    return _quotient_logs([-abs(a) for a in a_list], b_list, _q_power(q, l), q, _POCH_TOL)


def _one_sided(owner, slot: str, a_list: tuple, b_list: tuple, l: float, q: QBase,
               scale: float) -> _EntireEnvelope:
    c, log_c, log_ql = _field_logs(a_list, b_list, l, q)
    # 0.0 - log_ql, not -log_ql: a product that rounds to 1 has log 0.0,
    # whose negation would print as -0.0.
    envelope = _entire_envelope(c, log_c, 0.0 - log_ql, l, q.log_q, scale)
    _set(owner, slot, envelope)
    return envelope


def _entire_constants(params: ConfluentParams) -> _EntireEnvelope:
    return _one_sided(params, "_envelope", params.a_list, params.b_list, params.l, params.q, 1.0)


def _phi_constants(params: PhiParams) -> _EntireEnvelope:
    l, scale = _phi_weight_scale(params)
    return _one_sided(params, "_envelope", params.a_list, params.b_list, l, params.q, abs(scale))


def _aq_constant(q: QBase) -> _EntireEnvelope:
    """_entire_constants of ConfluentParams((), (), 1.0, q), kept on q."""
    return _one_sided(q, "_aq_envelope", (), (), 1.0, q, 1.0)


def envelope_entire(params: ConfluentParams, abs_z: float) -> EnvelopeResult:
    """Envelope of the Gaussian-weighted entire class on the circle |z| = abs_z.

    log bound = log(constant_c) - log((q^l;q)_inf) + term_peak(abs_z, l, q),
    valid for every nonzero z of that modulus; prefactor_log is
    -log((q^l;q)_inf) and exponent_term is the term peak.
    """
    return (params._envelope or _entire_constants(params)).result(abs_z)


def envelope_phi(params: PhiParams, abs_z: float) -> EnvelopeResult:
    """Envelope of the confluent hypergeometric sum on the circle |z| = abs_z.

    With phi(z) = f(scale * z) from phi_to_f, this is the entire-class
    envelope of the reduction at |scale| abs_z: prefactor_log is
    -log((q^l;q)_inf) and exponent_term is term_peak(|scale| abs_z, l, q).
    It is the arithmetic an audit certifies, read from cached constants.
    """
    return (params._envelope or _phi_constants(params)).result(abs_z)


def envelope_aq_gaussian(q: QBase, abs_z: float) -> EnvelopeResult:
    """Gaussian envelope (|z|/sqrt(q))^{1/2} exp(-log^2|z|/(4 log q)) / (q;q)_inf.

    A_q is the r = s = 0, l = 1 member of the entire class, so this is
    envelope_entire of ConfluentParams((), (), 1.0, q), bit for bit:
    prefactor_log is -log((q;q)_inf) and exponent_term is term_peak(abs_z, 1, q).
    """
    return (q._aq_envelope or _aq_constant(q)).result(abs_z)


def envelope_aq_exponential(q: QBase, abs_z: float) -> EnvelopeResult:
    """Exponential envelope exp(q |z| / (1 - q)); valid at z = 0 as well.
    NonConvergentError where the exponent is not a double."""
    abs_z = float(abs_z)
    if not (math.isfinite(abs_z) and abs_z >= 0.0):
        raise InvalidArgumentError(f"abs_z must be nonnegative and finite, got {abs_z!r}")
    exponent_term = q.q * abs_z / (1.0 - q.q)
    if not exponent_term < math.inf:
        raise NonConvergentError(f"envelope exponent overflowed the double range at abs_z = {abs_z!r}")
    return _assemble(1.0, 0.0, 0.0, exponent_term)


def meromorphic_bound_params(alpha: float, q: QBase) -> MeromorphicBoundParams:
    """Exponent data beta, gamma of the two-sided envelope for a given alpha;
    InvalidArgumentError where beta is not a positive double (tiny alpha)."""
    alpha = _require_positive(alpha, "alpha")
    try:
        beta = alpha / ((alpha + 1.0) ** (1.0 + 1.0 / alpha) * q.log_inv_q ** (1.0 / alpha))
    except (OverflowError, ZeroDivisionError):
        beta = math.nan
    if not 0.0 < beta < math.inf:
        raise InvalidArgumentError(
            f"alpha = {alpha!r} at q = {q.q!r} puts beta outside the positive doubles"
        )
    gamma = (alpha + 1.0) / alpha
    return MeromorphicBoundParams(beta=beta, gamma=gamma)


@functools.lru_cache(maxsize=_CACHE_SIZE)
def _meromorphic_constants(params: MeromorphicBoundParams, c_weighted: float) -> _MeromorphicEnvelope:
    c_weighted = _require_positive(c_weighted, "c_weighted")
    return _MeromorphicEnvelope(c_weighted, math.log(c_weighted), params.beta, params.gamma, "dist")


def envelope_meromorphic(
    params: MeromorphicBoundParams, c_weighted: float, dist: float
) -> EnvelopeResult:
    """Two-sided envelope c_weighted exp(beta |log dist|^gamma) at |z - a| = dist."""
    return _meromorphic_constants(params, c_weighted).result(dist)


def theta_weighted_constant(alpha: float, q: QBase, tol: float) -> float:
    """Weighted constant sum_{k in Z} q^{k^2 - |k|^(1+alpha)} for 0 < alpha < 1.

    The exponent k^2 - k^(1+alpha) vanishes at k = 1 and grows beyond, so the
    symmetric terms decrease monotonically and the sum is always >= 3.
    """
    if not 0.0 < alpha < 1.0:
        raise InvalidArgumentError(f"alpha must lie in (0, 1), got {alpha!r}")
    _require_pos_tol(tol)
    qq = q.q
    total = 1.0
    for k in range(1, WEIGHTED_SUM_CAP + 1):
        term = qq ** (k * k - k ** (1.0 + alpha))
        total += 2.0 * term
        if term < tol:
            return total
    raise NonConvergentError(f"weighted constant did not settle within {WEIGHTED_SUM_CAP} terms")


def _theta_constant(alpha: float, q: QBase) -> _MeromorphicEnvelope:
    c = theta_weighted_constant(alpha, q, THETA_CONSTANT_TOL)
    shape = meromorphic_bound_params(alpha, q)
    envelope = _MeromorphicEnvelope(c, math.log(c), shape.beta, shape.gamma, "abs_z")
    envelopes = q._theta_envelopes
    if len(envelopes) < _CACHE_SIZE:  # alphas beyond it are rebuilt per call
        envelopes[alpha] = envelope
    return envelope


def laurent_weighted_constant(coeff: Callable[[int], complex], alpha: float, q: QBase) -> float:
    """Weighted constant sum_k |coeff(k)| q^{-|k|^(alpha+1)} for a coefficient stream.

    The stream is a black box, so convergence cannot be proved here: the sum
    stops only after 8 consecutive terms below 1e-15, raises
    NonConvergentError when 64 consecutive terms fail to decline, a
    weighted term overflows or the sum is not a finite double, and gives up
    at |k| = WEIGHTED_SUM_CAP.
    """
    alpha = _require_positive(alpha, "alpha")
    linv = q.log_inv_q
    total = _modulus(coeff(0))
    previous = math.inf
    grow_streak = 0
    below_streak = 0
    for k in range(1, WEIGHTED_SUM_CAP + 1):
        mags = _modulus(coeff(k)) + _modulus(coeff(-k))
        if mags == 0.0:
            term = 0.0
        else:
            try:
                log_term = math.log(mags) + k ** (alpha + 1.0) * linv
            except OverflowError:  # k^(alpha+1) is beyond the doubles
                log_term = math.inf
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
            if not total < math.inf:
                raise NonConvergentError(f"weighted constant {total!r} is not a finite double")
            return total
        previous = term
    raise NonConvergentError(f"weighted constant did not settle within |k| <= {WEIGHTED_SUM_CAP}")


def envelope_theta(alpha: float, q: QBase, abs_z: float) -> EnvelopeResult:
    """Certified theta envelope c(alpha, q) exp(beta |log|z||^gamma).

    c is theta_weighted_constant summed to THETA_CONSTANT_TOL.  Symmetric
    under abs_z -> 1/abs_z since only |log abs_z| enters.
    """
    return (q._theta_envelopes.get(alpha) or _theta_constant(alpha, q)).result(abs_z)


def envelope_theta_as_printed(alpha: float, q: QBase, abs_z: float) -> EnvelopeResult:
    """Display variant c(alpha, q) exp(log^2|z| / (alpha log(1/q))).

    c is the same constant as in envelope_theta.  Unlike envelope_theta's,
    this exponent is not produced by the term-domination argument, so no
    domination certificate backs it; it is kept for comparison only and
    excluded from certification sweeps.
    """
    abs_z = _require_positive(abs_z, "abs_z")
    envelope = q._theta_envelopes.get(alpha) or _theta_constant(alpha, q)
    lz = math.log(abs_z)
    exponent_term = lz * lz / (alpha * q.log_inv_q)
    return _assemble(envelope.constant_c, envelope.log_c, 0.0, exponent_term)
