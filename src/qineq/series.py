"""Series evaluators with certified truncation.

Four families are covered:

* the Gaussian-weighted entire class
      f(z) = sum_k (a_1,...,a_r;q)_k q^{l k^2} z^k / ((b_1;q)_k...(b_s;q)_k (q;q)_k)
  with 0 <= b_j < 1 and l > 0;
* the confluent basic hypergeometric sum with the extra sign/weight factor
  (-q^{(k-1)/2})^{k(s+1-r)}, convergent whenever s + 1 - r > 0 (each instance
  reduces to the class above under an argument rescaling, see phi_to_f);
* Ramanujan's entire function sum_k q^{k^2} (-z)^k / (q;q)_k, the r = s = 0,
  l = 1 member evaluated at -z;
* two-sided sums: the theta function sum_{k in Z} q^{k^2} z^k and a general
  Laurent expansion whose coefficients admit a super-geometric weighted bound.

Every evaluator stops only once a computable geometric majorant certifies the
omitted tail, and reports that bound in the result.  One-sided sums never stop
before eight terms so that parameter choices that zero out early terms cannot
trigger a premature exit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from .errors import CenterPoleError, InvalidArgumentError, NonConvergentError
from .qcore import QBase

MIN_STOP_INDEX = 8
TERM_CAP = 100_000
TWO_SIDED_CAP = 1_000_000
LAURENT_K_CAP = 10_000
_LOG_HALF = math.log(0.5)


@dataclass(frozen=True)
class ConfluentParams:
    """Parameters of the Gaussian-weighted entire class.

    ``a_list`` may be complex; ``b_list`` entries must lie in [0, 1) and the
    weight exponent ``l`` must be positive.
    """

    a_list: tuple[complex, ...]
    b_list: tuple[float, ...]
    l: float
    q: QBase

    def __post_init__(self) -> None:
        try:
            a_list = tuple(complex(a) for a in self.a_list)
            b_list = tuple(float(b) for b in self.b_list)
            l = float(self.l)
        except (TypeError, ValueError) as exc:
            raise InvalidArgumentError(f"malformed parameters: {exc}") from exc
        for b in b_list:
            if not 0.0 <= b < 1.0:
                raise InvalidArgumentError(f"denominator parameters must lie in [0, 1), got {b!r}")
        if not (math.isfinite(l) and l > 0.0):
            raise InvalidArgumentError(f"weight exponent must be positive, got {l!r}")
        object.__setattr__(self, "a_list", a_list)
        object.__setattr__(self, "b_list", b_list)
        object.__setattr__(self, "l", l)


@dataclass(frozen=True)
class PhiParams:
    """Numerator/denominator parameters of a confluent basic hypergeometric sum.

    Requires s + 1 - r > 0 (the confluence condition) and b_j in [0, 1).
    """

    a_list: tuple[complex, ...]
    b_list: tuple[float, ...]
    q: QBase

    def __post_init__(self) -> None:
        try:
            a_list = tuple(complex(a) for a in self.a_list)
            b_list = tuple(float(b) for b in self.b_list)
        except (TypeError, ValueError) as exc:
            raise InvalidArgumentError(f"malformed parameters: {exc}") from exc
        for b in b_list:
            if not 0.0 <= b < 1.0:
                raise InvalidArgumentError(f"denominator parameters must lie in [0, 1), got {b!r}")
        if len(b_list) + 1 - len(a_list) <= 0:
            raise InvalidArgumentError(
                f"confluence requires s + 1 - r > 0, got r={len(a_list)} s={len(b_list)}"
            )
        object.__setattr__(self, "a_list", a_list)
        object.__setattr__(self, "b_list", b_list)

    @property
    def confluence_order(self) -> int:
        """s + 1 - r, the positive integer driving the Gaussian decay."""
        return len(self.b_list) + 1 - len(self.a_list)


@dataclass(frozen=True)
class EvalResult:
    """A computed value plus its truncation certificate.

    ``tail_bound`` bounds the modulus of everything omitted.  It covers
    truncation only, not rounding in the summation.
    """

    value: complex
    terms_used: int
    tail_bound: float


@dataclass(frozen=True)
class PhiReduction:
    """Rewrite of a confluent hypergeometric sum as a Gaussian-weighted series.

    phi(z) = f(scale * z), where f is the series with ``params``.  A plain
    value: reductions of equal parameter sets compare equal.
    """

    params: ConfluentParams
    scale: complex


@dataclass(frozen=True)
class LaurentSpec:
    """A two-sided expansion sum_k coeff(k) (z - center)^k with certified decay.

    ``c_weighted`` must bound sum_k |coeff(k)| q^{-|k|^(alpha+1)}; the tail
    certificate uses the implied majorant |coeff(k)| <= c_weighted
    q^{|k|^(alpha+1)}.  ``coeff`` must be safe for concurrent invocation; the
    library adds no synchronization of its own.
    """

    center: complex
    coeff: Callable[[int], complex]
    alpha: float
    q: QBase
    c_weighted: float
    k_cap: int = LAURENT_K_CAP

    def __post_init__(self) -> None:
        if not (math.isfinite(self.alpha) and self.alpha > 0.0):
            raise InvalidArgumentError(f"alpha must be positive, got {self.alpha!r}")
        if not (math.isfinite(self.c_weighted) and self.c_weighted > 0.0):
            raise InvalidArgumentError(
                f"c_weighted must be finite and positive, got {self.c_weighted!r}"
            )
        if not isinstance(self.k_cap, int) or self.k_cap < 1:
            raise InvalidArgumentError(f"k_cap must be a positive integer, got {self.k_cap!r}")
        object.__setattr__(self, "center", complex(self.center))


def _require_pos_tol(tol: float) -> None:
    if not tol > 0.0:
        raise InvalidArgumentError(f"tol must be positive, got {tol!r}")


def _certified_sum(
    ratio: Callable[[int], complex],
    rho: Callable[[int], float],
    tol: float,
    force_terms: int | None = None,
) -> tuple[complex, int, float]:
    """Sum term_0 = 1, term_{k+1} = term_k ratio(k) with a certified stop.

    ``rho(K)`` must bound |ratio(k)| for every k >= K and be nonincreasing;
    the sum stops at the first index K >= MIN_STOP_INDEX where rho(K) < 1 and
    |term_{K+1}| / (1 - rho(K)) <= tol max(1, |partial|).  ``force_terms``
    bypasses the stop rule and sums exactly that many terms (used by the
    truncation-certificate checks).
    """
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
        # abs() of a complex with finite parts raises once its modulus overflows.
        raise NonConvergentError("series term left the double range") from exc
    raise NonConvergentError(f"no certified stop within {TERM_CAP} terms")


def _eval_gaussian(
    a_list: tuple[complex, ...],
    b_list: tuple[float, ...],
    q: float,
    l: float,
    shift: int,
    z: complex,
    tol: float,
    force_terms: int | None,
) -> EvalResult:
    """Sum the one-sided series whose term ratio is

        prod_i (1 - a_i q^k) q^{l(2k+shift)} z / ((1 - q^{k+1}) prod_j (1 - b_j q^k)),

    certifying the tail through the same weight q^{l(2K+shift)} in rho_K.
    """
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


def eval_confluent_f(
    params: ConfluentParams,
    z: complex,
    tol: float,
    _force_terms: int | None = None,
) -> EvalResult:
    """Evaluate the Gaussian-weighted entire series at z.

    The stop rule certifies the tail through the term-ratio bound

        rho_K = q^{l(2K+1)} |z| prod_i (1+|a_i|) / ((1-q^{K+1}) prod_j (1-b_j)),

    which decreases to 0 because of the q^{l k^2} weight.
    """
    return _eval_gaussian(params.a_list, params.b_list, params.q.q, params.l, 1, z, tol, _force_terms)


def eval_phi(
    params: PhiParams,
    z: complex,
    tol: float,
    _force_terms: int | None = None,
) -> EvalResult:
    """Evaluate the confluent basic hypergeometric sum at z by direct summation.

    term_k = prod_i (a_i;q)_k / (prod_j (b_j;q)_k (q;q)_k) z^k (-1)^{km} q^{m k(k-1)/2}
    with m = s + 1 - r, so the term ratio carries q^{mk} (-1)^m z: the one-sided
    kernel with weight m/2 and shift 0 at (-1)^m z.  Same truncation contract
    as eval_confluent_f.
    """
    m = params.confluence_order
    z = complex(z)
    if m % 2:
        z = -z
    return _eval_gaussian(params.a_list, params.b_list, params.q.q, m / 2.0, 0, z, tol, _force_terms)


def phi_to_f(params: PhiParams) -> PhiReduction:
    """Rewrite a confluent hypergeometric sum in the Gaussian-weighted form.

    With m = s + 1 - r and l = m/2, the term identity
    (-q^{(k-1)/2})^{km} z^k = q^{l k^2} ((-1)^m q^{-l} z)^k gives

        phi(z) = f((-1)^m q^{-l} z)

    for the series with the same parameter lists and weight l.
    """
    m = params.confluence_order
    l = m / 2.0
    scale = ((-1.0) ** m) * params.q.q ** (-l)
    reduced = ConfluentParams(a_list=params.a_list, b_list=params.b_list, l=l, q=params.q)
    return PhiReduction(params=reduced, scale=scale)


def eval_ramanujan_aq(q: QBase, z: complex, tol: float) -> EvalResult:
    """Ramanujan's entire function sum_k q^{k^2} (-z)^k / (q;q)_k."""
    params = ConfluentParams(a_list=(), b_list=(), l=1.0, q=q)
    return eval_confluent_f(params, -complex(z), tol)


def eval_theta(
    q: QBase,
    z: complex,
    tol: float,
    _force_k: int | None = None,
) -> EvalResult:
    """Two-sided theta sum over k in [-K, K] with a certified symmetric tail.

    K is the smallest index with q^{2K+1} M <= 1/2 and
    q^{K^2} M^K / (1 - q^{2K+1} M) <= tol, where M = max(|z|, 1/|z|); the
    reported tail_bound is the rigorous two-wing geometric remainder, which
    the stop rule keeps below tol.
    """
    _require_pos_tol(tol)
    z = complex(z)
    if z == 0:
        raise InvalidArgumentError("theta sum requires a nonzero argument")
    qq = q.q
    lq = math.log(qq)
    abs_z = abs(z)
    if not math.isfinite(abs_z):
        raise InvalidArgumentError(f"argument must be finite, got {z!r}")
    log_m = abs(math.log(abs_z))
    log_tol = math.log(tol)

    if _force_k is not None:
        k_stop = _force_k
    else:
        k_stop = 1
        while True:
            ratio_log = (2 * k_stop + 1) * lq + log_m
            if ratio_log <= _LOG_HALF:
                rho = math.exp(ratio_log)
                if k_stop * k_stop * lq + k_stop * log_m - math.log1p(-rho) <= log_tol:
                    break
            k_stop += 1
            if k_stop > TWO_SIDED_CAP:
                raise NonConvergentError(f"no certified stop within |k| <= {TWO_SIDED_CAP}")

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
    spec: LaurentSpec,
    z: complex,
    tol: float,
    _force_k: int | None = None,
) -> EvalResult:
    """Evaluate a two-sided expansion around its center with a majorant tail.

    The omitted indices |k| > K are bounded wing by wing through
    |coeff(k)| <= c_weighted q^{|k|^(alpha+1)}, using the superlinear growth
    of |k|^(alpha+1) to certify a geometric remainder.  Raises
    NonConvergentError if k_cap is hit before the tail meets tol.
    """
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
        if _force_k is not None:
            if k >= _force_k:
                return EvalResult(value=partial, terms_used=2 * k + 1, tail_bound=0.0)
            continue
        decay = ap1 * k**alpha * lq
        if decay + log_m > _LOG_HALF:
            continue
        # The majorant term just past the current index can still exceed the
        # double range, so the wing tails are compared in log space.
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
