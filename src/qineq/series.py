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
  Above q = THETA_TRANSFORM_Q = 0.5 theta is evaluated through Jacobi's
  imaginary transformation, a sum of a few terms with no cancellation, in
  place of the direct sum, whose terms cancel more as q -> 1.

Every evaluator stops only once a computable geometric majorant certifies the
omitted tail, and reports that bound in the result.  One-sided sums never stop
before eight terms so that parameter choices that zero out early terms cannot
trigger a premature exit.

Each family has a prepared series, built once per parameter set:
prepare_confluent_f and prepare_phi build a GaussianSeries, and ThetaSeries
and LaurentSeries take a base and a LaurentSpec.  Its evaluate(z, tol) keeps
the terms' z-independent factors for later points, so a sweep over many z
pays for them once; an audit hands what depends on |z| alone from angle to
angle as a ring state (_step).  Each eval_* prepares a series and evaluates
it once: the same bits either way.  A series publishes what it keeps with one
assignment, so it may be shared between threads without locks.  Each class
docstring states what it keeps and the rules it proves from it.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple

from .errors import CenterPoleError, InvalidArgumentError, NonConvergentError
from .qcore import FrozenValue, QBase, _modulus, _new_tuple, _require_pos_tol, _set

__all__ = [
    "ConfluentParams", "PhiParams", "EvalResult", "LaurentSpec", "PhiReduction",
    "eval_confluent_f", "eval_phi", "phi_to_f", "eval_ramanujan_aq", "eval_theta", "eval_laurent",
    "prepare_confluent_f", "prepare_phi", "ThetaSeries", "LaurentSeries",
]

MIN_STOP_INDEX = 8
TERM_CAP = 100_000
TWO_SIDED_CAP = 1_000_000
LAURENT_K_CAP = 10_000
# Above this base ThetaSeries sums Jacobi's imaginary transformation of theta.
THETA_TRANSFORM_Q = 0.5
_LOG_HALF = math.log(0.5)
_LOG_TWO = math.log(2.0)
# GaussianSeries's stop floor: the cap on the sum of term moduli, the guard
# factor, the rounding margin of k_f and the relative window of |z| above it.
_SUM_CAP = 1e300
_GUARD = 2.0**-960
_MARGIN = 1.0 + 1e-9
_WINDOW = 1.0 + 2.0**-50


def _parameter_lists(a_list, b_list, *reals) -> tuple:
    """(a_list, b_list, *reals) as complexes of finite modulus, floats in
    [0, 1) and floats; every entry is converted before any is checked."""
    try:
        a_list = tuple(complex(a) for a in a_list)
        b_list = tuple(float(b) for b in b_list)
        reals = tuple(float(x) for x in reals)
    except (TypeError, ValueError) as exc:
        raise InvalidArgumentError(f"malformed parameters: {exc}") from exc
    for a in a_list:
        if not _modulus(a) < math.inf:
            raise InvalidArgumentError(f"numerator parameters must have a finite modulus, got {a!r}")
    for b in b_list:
        if not 0.0 <= b < 1.0:
            raise InvalidArgumentError(f"denominator parameters must lie in [0, 1), got {b!r}")
    return (a_list, b_list, *reals)


def _require_finite(z: complex, name: str = "argument") -> complex:
    """complex(z), which must be finite; ``name`` names it in the error."""
    z = complex(z)
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise InvalidArgumentError(f"{name} must be finite, got {z!r}")
    return z


class ConfluentParams(FrozenValue):
    """Parameters of the Gaussian-weighted entire class.

    ``a_list`` may be complex, each with a finite modulus; ``b_list`` entries
    must lie in [0, 1) and the weight exponent ``l`` must be positive.
    """

    __slots__ = ("a_list", "b_list", "l", "q", "_envelope")
    _fields = ("a_list", "b_list", "l", "q")

    def __init__(self, a_list: tuple[complex, ...], b_list: tuple[float, ...], l: float,
                 q: QBase) -> None:
        a_list, b_list, l = _parameter_lists(a_list, b_list, l)
        if not (math.isfinite(l) and l > 0.0):
            raise InvalidArgumentError(f"weight exponent must be positive, got {l!r}")
        self._set_fields(a_list, b_list, l, q)
        _set(self, "_envelope", None)


class PhiParams(FrozenValue):
    """Numerator/denominator parameters of a confluent basic hypergeometric sum.

    Requires s + 1 - r > 0 (the confluence condition), a finite modulus for
    each a_i and b_j in [0, 1).
    """

    __slots__ = ("a_list", "b_list", "q", "_envelope")
    _fields = ("a_list", "b_list", "q")

    def __init__(self, a_list: tuple[complex, ...], b_list: tuple[float, ...], q: QBase) -> None:
        a_list, b_list = _parameter_lists(a_list, b_list)
        if len(b_list) + 1 - len(a_list) <= 0:
            raise InvalidArgumentError(
                f"confluence requires s + 1 - r > 0, got r={len(a_list)} s={len(b_list)}"
            )
        self._set_fields(a_list, b_list, q)
        _set(self, "_envelope", None)

    @property
    def confluence_order(self) -> int:
        """s + 1 - r, the positive integer driving the Gaussian decay."""
        return len(self.b_list) + 1 - len(self.a_list)


class EvalResult(NamedTuple):
    """A computed value plus its truncation certificate.

    ``tail_bound`` bounds the modulus of everything omitted.  It covers
    truncation only, not rounding in the summation.
    """

    value: complex
    terms_used: int
    tail_bound: float


class PhiReduction(NamedTuple):
    """Rewrite of a confluent hypergeometric sum as a Gaussian-weighted series.

    phi(z) = f(scale * z), where f is the series with ``params``.  A plain
    value: reductions of equal parameter sets compare equal.
    """

    params: ConfluentParams
    scale: complex


class LaurentSpec(FrozenValue):
    """A two-sided expansion sum_k coeff(k) (z - center)^k with certified decay.

    ``c_weighted`` must bound sum_k |coeff(k)| q^{-|k|^(alpha+1)}; the tail
    certificate uses the implied majorant |coeff(k)| <= c_weighted
    q^{|k|^(alpha+1)}, and sums run to at most |k| = LAURENT_K_CAP.  ``coeff``
    must be a pure function of k: a prepared series (LaurentSeries, and the
    audit target of a spec) calls it at most once per index and reuses the
    value at every later point, except that threads growing one table at
    the same moment may each call it.  ``coeff`` must be safe for concurrent
    invocation; the library adds no synchronization of its own.
    """

    __slots__ = _fields = ("center", "coeff", "alpha", "q", "c_weighted")

    def __init__(self, center: complex, coeff: Callable[[int], complex], alpha: float, q: QBase,
                 c_weighted: float) -> None:
        if not (math.isfinite(alpha) and alpha > 0.0):
            raise InvalidArgumentError(f"alpha must be positive, got {alpha!r}")
        if not (math.isfinite(c_weighted) and c_weighted > 0.0):
            raise InvalidArgumentError(
                f"c_weighted must be finite and positive, got {c_weighted!r}"
            )
        center = _require_finite(center, "center")
        self._set_fields(center, coeff, alpha, q, c_weighted)


def _ring_error(message: str, state) -> NonConvergentError:
    """NonConvergentError(message) handing ``state`` on to the ring's next step."""
    error = NonConvergentError(message)
    error._ring_state = state
    return error


def _overflow_radius(rows: list) -> tuple:
    """(r_ovf, column) of GaussianSeries over ``rows``, whose den_j are all
    positive: evaluate fills the column only where den_0 is."""
    column, log_c, floor, best = [], 0.0, -math.inf, math.inf
    for k, (nw, den, _, _) in enumerate(rows, 1):
        log_nw = math.log(abs(nw)) if nw else -math.inf
        floor = max(floor, -700.0 - log_nw)
        log_c += log_nw - math.log(den)
        column.append(log_c)
        best = min(best, max((711.0 - log_c) / k, floor))
        floor = max(floor, (-700.0 - log_c) / k)
    return (math.exp(best) if best < 709.0 else math.inf), column


class GaussianSeries:
    """A prepared one-sided sum with term_0 = 1 and term ratio

        r_k = prod_i (1 - a_i q^k) q^{l(2k+shift)} z / ((1 - q^{k+1}) prod_j (1 - b_j q^k)).

    The z-independent factors of r_k and of its tail bound are tabulated per
    k the first time an evaluation reaches k, and later evaluations reuse
    them.  An evaluation stops at the first K >= MIN_STOP_INDEX where

        rho_K = q^{l(2K+shift)} |z| prod_i (1+|a_i|) / ((1-q^{K+1}) prod_j (1-b_j)),

    a nonincreasing bound on |r_k| for every k >= K, is below 1 and
    |term_{K+1}| / (1 - rho_K) <= tol max(1, |partial|).  With ``negate`` the
    series is evaluated at -z.

    Certain overflow.  With the tabulated rows taken as exact, term_k is
    c_k z^k, c_k = prod_{j<k} num_j w_j / den_j.  When a sum first raises
    "series term left the double range", the series fills the column
    L_k = log|c_k| over its rows and keeps r_ovf, the least |z| at which
    some k has L_k + k log|z| >= 711 while L_j + j log|z| and
    log|num_j w_j z| stay >= -700 for j < k.  These hold at every larger
    |z|, where evaluate then raises that error at once, and so would the
    loop, at or before index k, whatever tol.  While the moduli stay above
    e^-700 a step loses at most about 5u of relative modulus (Brent,
    Percival and Zimmermann, Math. Comp. 76, 2007), an underflowing part at
    most e^-744, so over k <= len(rows) <= TERM_CAP + 1 steps term_k keeps
    all but a factor e^-0.001 of |c_k z^k|, and L_k is within 0.01: term_k
    or an earlier term is not finite.  Nor can the loop stop at some K < k:
    that needs a finite |term_{K+1}| and rho_K < 1, and rho_K bounds every
    later ratio to within that rounding, so |c_k z^k| < e^709.9 would
    follow.  A later overflow, once the table has grown, fills it afresh.
    den_j is nondecreasing in j (each factor 1 - b_i q^j and 1 - q^{j+1}
    grows as q^j falls, and rounding is monotone), so a den_0 of 0, which
    ends every sum at row 0, leaves the column empty, and otherwise every
    den_j is positive.

    Ring state.  Below k_b, the first k >= MIN_STOP_INDEX with rho_k < 1,
    the stop test cannot pass, and rho_k depends on z only through |z|.
    Past k_b a row k can stop only where
    |term_{k+1}| / (1 - rho_k) <= tol max(1, |partial|), and |partial| is
    at most S_k = sum_{j<=k} |term_j| >= 1, a sum that every angle of one
    |z| shares to within rounding.  _step(z, tol, state), a point of a ring
    at one tol, given () or a floor whose window misses its |z|, adds each
    |term_{k+1}| to S_k and first checks on each row the guard
    |term_{k+1}| >= 2^-960 S_k / dd_0, dd_0 = (1 - q) prod_j (1 - b_j), which
    is den_0, and so at most every den_k, to within rounding; S_k reads inf
    from a row that fails it on.  At the first k >= k_b with rho_k < 1 at
    which S_k >= 1e300 or the tail is at most tol S_k (1 + 1e-9), it hands
    on, with its result or error, the floor (|z|, k_f), k_f = k if
    S_k < 1e300 and 0 otherwise.  A later step given it whose |z'| lies in
    the window |z| <= |z'| <= |z| (1 + 2^-50), the product rounded, forms
    term_1..term_{k_f} with the loop's own arithmetic,
    term = term * (num_k w_k z / den_k); partial += term, and enters the
    loop at k_f; a |z'| below |z| misses, as rho_k falls with |z| and can
    move k_b down.  evaluate is _step(z, tol, None)[0], with no S_k.

    No skipped test could pass, and no skipped abs() could raise.  Every
    row j below k_f passed the guard with S_j < 1e300, so
    |term_{j+1}| den_j >= 2^-961 S_j.  As S_j >= max(1, |term_j|) and
    den_j <= 1, this keeps |term_{j+1}|, |num_j w_j z| and its quotient by
    den_j above 2^-962, so an underflowing part costs them at most 2^-110 of
    relative modulus (subnormal moduli never enter).  A row then keeps all
    but 8u of it (two complex products, sqrt(5) u each by Brent, Percival
    and Zimmermann, Math. Comp. 76, 2007, the division by den_j u, and two
    arguments whose rounded moduli agree differ by at most 2u), so over at
    most TERM_CAP + 1 rows the terms of any two angles of one |z|, and their
    abs(), agree to a factor 1 +- 2e-10, and each |partial| is at most
    S_k (1 + 3e-10).  A |z'| = |z| (1 + d) in the window has 0 <= d < 2^-49
    (the window's product is rounded).  The computed w_k |z| num_cap / dd_k
    is nondecreasing in |z| (each rounding is monotone), so no row that had
    no stop test at |z| gains one at |z'|, and a row that has one keeps a
    tail at least the one at |z|, to within the rounding above.  Term j's
    modulus grows by (1 + d)^j, so the terms stay above 2^-962 and each
    |partial| is at most S_k (1 + 3e-10) (1 + d)^(TERM_CAP + 1), below
    S_k (1 + 3e-10) (1 + 2e-10).  A skipped row k in [k_b, k_f) therefore
    has a tail above tol max(1, |partial|) at every angle of every |z'| in
    the window, as the margin covers that rounding and growth, 7e-10 of its
    1e-9: a floor past 0 needs a row that passed the guard, whose tail
    of at least 2^-960 S_k is within the margin of tol S_k, so
    tol > 2^-961 and no threshold leaves the normal range.  abs(partial)
    stays below 1e300 (1 + 5e-10), finite, and so do the parts and the
    abs() of every skipped term.  A table shorter than k_f (a thread
    published a shorter copy) caps the skipped rows, and the loop tests the
    rest.
    """

    __slots__ = ("_a_list", "_b_list", "_q", "_l", "_shift", "_negate", "_num_cap",
                 "_den_floor", "_guard", "_table")

    def __init__(
        self,
        a_list: tuple[complex, ...],
        b_list: tuple[float, ...],
        q: float,
        l: float,
        shift: int,
        negate: bool,
    ) -> None:
        self._a_list = a_list
        self._b_list = b_list
        self._q = q
        self._l = l
        self._shift = shift
        self._negate = negate
        num_cap = 1.0
        for a in a_list:
            num_cap *= 1.0 + abs(a)
        den_floor = 1.0
        for b in b_list:
            den_floor *= 1.0 - b
        self._num_cap = num_cap
        self._den_floor = den_floor
        # The floor's guard factor, from dd_0 = (1 - q) den_floor, den_0 to
        # within rounding; see Ring state.
        dd_0 = (1.0 - q) * den_floor
        self._guard = _GUARD / dd_0 if dd_0 else math.inf
        # (rows, r_ovf, column).  Row k: (num_k w_k, den_k, w_k,
        # (1 - q^{k+1}) den_floor) with w_k = q^{l(2k+shift)}; column entry
        # k - 1 is L_k, filled only where den_0, and so every den_k, is
        # positive.  An evaluation that needs more rows, or fills the
        # column, publishes the new tuple with one assignment, so a
        # concurrent reader never sees a half-grown table.
        self._table: tuple = ([], math.inf, [])

    def evaluate(self, z: complex, tol: float) -> EvalResult:
        """The sum at z with its certified tail; see eval_confluent_f."""
        return self._step(z, tol, None)[0]

    def _step(self, z: complex, tol: float, state) -> tuple:
        """(evaluate(z, tol), the ring's next state); see Ring state."""
        _require_pos_tol(tol)
        z = _require_finite(z)
        if self._negate:
            z = -z
        if z == 0:
            return EvalResult(1.0 + 0.0j, 1, 0.0), state
        num_cap = self._num_cap
        rows, r_ovf, _ = table = self._table
        size = len(rows)
        grown = False
        term: complex = 1.0 + 0.0j
        partial = term
        k = 0
        inf, min_stop, term_cap = math.inf, MIN_STOP_INDEX, TERM_CAP
        sum_cap = _SUM_CAP
        try:
            abs_z = abs(z)
            if abs_z > r_ovf:
                raise NonConvergentError("series term left the double range")
            pending, tol_m, guard = state is not None, tol * _MARGIN, self._guard
            if state and state[0] <= abs_z <= state[0] * _WINDOW:
                pending = False
                fast = rows[:state[1]]
                for nw, den, _, _ in fast:
                    term = term * (nw * z / den)
                    partial += term
                k = len(fast)
            # S_k while a floor is pending, or inf once a row fails the guard.
            total = 1.0
            while k <= term_cap:
                if k == size:
                    # Extend a private copy; the finally clause publishes it.
                    if not grown:
                        rows = list(rows)
                        q, a_list, b_list = self._q, self._a_list, self._b_list
                        l, shift, den_floor = self._l, self._shift, self._den_floor
                        qk = q**k
                        grown = True
                    # Rows grow one index at a time, so row k's q^{k+1} is
                    # row k + 1's q^k.
                    qk1 = q ** (k + 1)
                    num: complex = 1.0 + 0.0j
                    for a in a_list:
                        num *= 1.0 - a * qk
                    one_minus = 1.0 - qk1
                    den = one_minus
                    for b in b_list:
                        den *= 1.0 - b * qk
                    w = q ** (l * (2 * k + shift))
                    rows.append((num * w, den, w, one_minus * den_floor))
                    qk = qk1
                    size += 1
                nw, den, w, dd = rows[k]
                nxt = term * (nw * z / den)
                abs_nxt = abs(nxt)
                if not abs_nxt < inf:
                    break
                if pending and abs_nxt < total * guard:
                    total = inf
                bound = w * abs_z * num_cap / dd if k >= min_stop else 1.0
                if bound < 1.0:
                    tail = abs_nxt / (1.0 - bound)
                    if pending and not (total < sum_cap and tail > total * tol_m):
                        state = (abs_z, k if total < sum_cap else 0)
                        pending = False
                    abs_partial = abs(partial)
                    if not abs_partial < inf:
                        break
                    if tail <= tol * (abs_partial if abs_partial > 1.0 else 1.0):
                        return _new_tuple(EvalResult, (partial, k + 1, tail)), state
                total += abs_nxt
                partial += nxt
                term = nxt
                k += 1
            else:
                raise _ring_error(f"no certified stop within {TERM_CAP} terms", state)
        except (OverflowError, ZeroDivisionError):
            # abs() of a complex whose modulus overflows, or a den_k of 0.0.
            pass
        finally:
            if grown:
                self._table = table = (rows, *table[1:])
        # The sum left the double range.  The first uncovered row's den is
        # 0 only where den_0 is (den_j is nondecreasing), and then no sum
        # passes row 0, so the empty column covers every reachable row.
        covered = len(table[2])
        if covered < len(rows) and rows[covered][1]:
            self._table = (rows, *_overflow_radius(rows))
        raise _ring_error("series term left the double range", state)


def prepare_confluent_f(params: ConfluentParams) -> GaussianSeries:
    """The Gaussian-weighted entire series of ``params``, prepared for
    evaluation at many points; see eval_confluent_f."""
    return GaussianSeries(params.a_list, params.b_list, params.q.q, params.l, 1, False)


def eval_confluent_f(params: ConfluentParams, z: complex, tol: float) -> EvalResult:
    """Evaluate the Gaussian-weighted entire series at z.

    The stop rule certifies the tail through the term-ratio bound

        rho_K = q^{l(2K+1)} |z| prod_i (1+|a_i|) / ((1-q^{K+1}) prod_j (1-b_j)),

    which decreases to 0 because of the q^{l k^2} weight.  Raises
    NonConvergentError when a term or the partial sum leaves the double
    range, or when no stop is certified within TERM_CAP terms.  This is
    prepare_confluent_f(params).evaluate(z, tol); evaluating one prepared
    series at many points reuses its tabulated factors.
    """
    return prepare_confluent_f(params).evaluate(z, tol)


def prepare_phi(params: PhiParams) -> GaussianSeries:
    """The confluent basic hypergeometric sum of ``params``, prepared for
    evaluation at many points; see eval_phi."""
    m = params.confluence_order
    return GaussianSeries(params.a_list, params.b_list, params.q.q, m / 2.0, 0, bool(m % 2))


def eval_phi(params: PhiParams, z: complex, tol: float) -> EvalResult:
    """Evaluate the confluent basic hypergeometric sum at z by direct summation.

    term_k = prod_i (a_i;q)_k / (prod_j (b_j;q)_k (q;q)_k) z^k (-1)^{km} q^{m k(k-1)/2}
    with m = s + 1 - r, so the term ratio carries q^{mk} (-1)^m z: the one-sided
    series with weight m/2 and shift 0 at (-1)^m z.  Same truncation contract
    as eval_confluent_f.  This is prepare_phi(params).evaluate(z, tol).
    """
    return prepare_phi(params).evaluate(z, tol)


def _phi_weight_scale(params: PhiParams) -> tuple[float, float]:
    """(l, scale) = (m/2, (-1)^m q^{-l}) of phi_to_f, m = s + 1 - r; a base
    so small that q^{-l} overflows raises InvalidArgumentError."""
    m = params.confluence_order
    l = m / 2.0
    try:
        return l, ((-1.0) ** m) * params.q.q ** (-l)
    except OverflowError as exc:
        raise InvalidArgumentError(f"q^-l overflows at q = {params.q.q!r}, l = {l!r}") from exc


def phi_to_f(params: PhiParams) -> PhiReduction:
    """Rewrite a confluent hypergeometric sum in the Gaussian-weighted form.

    With m = s + 1 - r and l = m/2, the term identity
    (-q^{(k-1)/2})^{km} z^k = q^{l k^2} ((-1)^m q^{-l} z)^k gives

        phi(z) = f((-1)^m q^{-l} z)

    for the series with the same parameter lists and weight l.  A base so
    small that q^{-l} overflows raises InvalidArgumentError.
    """
    l, scale = _phi_weight_scale(params)
    reduced = ConfluentParams(a_list=params.a_list, b_list=params.b_list, l=l, q=params.q)
    return PhiReduction(params=reduced, scale=scale)


def eval_ramanujan_aq(q: QBase, z: complex, tol: float) -> EvalResult:
    """Ramanujan's entire function sum_k q^{k^2} (-z)^k / (q;q)_k."""
    return GaussianSeries((), (), q.q, 1.0, 1, True).evaluate(z, tol)


def _theta_stops(k: int, lq: float, log_m: float, log_tol: float) -> bool:
    """Whether K = k passes both conditions of _theta_stop_index."""
    ratio_log = (2 * k + 1) * lq + log_m
    if ratio_log > _LOG_HALF:
        return False
    rho = math.exp(ratio_log)
    return k * k * lq + k * log_m - math.log1p(-rho) <= log_tol


def _theta_stop_index(lq: float, log_m: float, log_tol: float) -> int:
    """Smallest K >= 1 with q^{2K+1} M <= 1/2 and
    q^{K^2} M^K / (1 - q^{2K+1} M) <= tol, from lq = log q, log_m = log M and
    log_tol = log tol.

    Once the first condition holds it holds for every larger K, and each step
    in K lowers the log of the second left side by more than log 2, so the
    test fails below the answer and passes from it on.  The search starts at
    the larger of the first condition's root and the root of the quadratic
    K^2 lq + K log_m = log_tol (the second condition without its log1p term),
    then walks to the first passing index.
    """
    guess = ((_LOG_HALF - log_m) / lq - 1.0) / 2.0
    disc = log_m * log_m + 4.0 * lq * log_tol
    if disc >= 0.0:
        guess = max(guess, (log_m + math.sqrt(disc)) / (-2.0 * lq))
    k = max(1, math.ceil(min(guess, TWO_SIDED_CAP)))
    while not _theta_stops(k, lq, log_m, log_tol):
        k += 1
        if k > TWO_SIDED_CAP:
            raise NonConvergentError(f"no certified stop within |k| <= {TWO_SIDED_CAP}")
    while k > 1 and _theta_stops(k - 1, lq, log_m, log_tol):
        k -= 1
    return k


def _transform_stop(c: float, lq: float, log_m: float, log_tol: float) -> tuple:
    """(tail, log_pref, rows) of the transformed theta sum, from
    c = pi / log(1/q), lq = log q, log_m = |log|z|| and log_tol = log tol.

    The prefactor's modulus is at most e^log_pref = sqrt(c) e^{log_m^2 / (4 log(1/q))}.
    Each omitted pair |n| = m > N of the transformed sum is at most
    2 e^{-c pi m (m - 1)} in modulus, and the exponent grows by at least
    2 c pi (N + 1) per step in m, so the pairs beyond N sum to at most
    2 e^{-c pi N (N + 1)} / (1 - e^{-2 c pi (N + 1)}).  N is the smallest
    index >= 1 whose product of the two, the tail, is at most tol.  Row n - 1
    holds (c n, pi n, cos(c n log_m), -sin(c n log_m)) for 1 <= n <= N.
    """
    log_pref = 0.5 * math.log(c) + log_m * log_m / (-4.0 * lq)
    c_pi = c * math.pi
    n = 1
    while True:
        log_tail = (_LOG_TWO + log_pref - c_pi * n * (n + 1)
                    - math.log1p(-math.exp(-2.0 * c_pi * (n + 1))))
        if log_tail <= log_tol:
            break
        n += 1
    rows = tuple((c * k, math.pi * k, math.cos(c * log_m * k), -math.sin(c * log_m * k))
                 for k in range(1, n + 1))
    return math.exp(log_tail), log_pref, rows


class ThetaSeries:
    """A prepared theta sum sum_{k in Z} q^{k^2} z^k.

    Every evaluation first finds the direct sum's stop index K in closed form
    (see eval_theta).  terms_used is 2K + 1 on both paths below: the depth of
    the direct sum that meets tol at z.  Both paths raise the overflow error
    at once when the direct sum's largest term, q^{k^2} M^k at the best
    1 <= k <= K, is above e^711 (that sum would overflow), so they return
    values on the same set of points.

    For q <= THETA_TRANSFORM_Q the series sums those 2K + 1 terms in one
    plain loop over the factors q^{2k-1}, 1 <= k <= K.  Its rounding error
    is about K u times the sum of the terms' moduli, which exceeds |theta|
    by at most about e^{pi^2 / (4L)} <= 35 away from the zeros of theta,
    with L = log(1/q) and u the unit roundoff.

    For q > THETA_TRANSFORM_Q, where that factor grows without bound as
    q -> 1, the series sums Jacobi's imaginary transformation instead
    (Whittaker and Watson, A Course of Modern Analysis, 21.51): with
    c = pi / L, a = log|z|, b = arg z and u_z = a + i b,

        theta(z) = sqrt(c) e^{u_z^2 / (4L)} sum_{n in Z} e^{-c n (pi n - i u_z)}.

    The n-th term has modulus e^{-c n (pi n - b)} <= e^{-c pi |n| (|n| - 1)}
    and the n = 0 term is 1, so the sum S loses no digits to cancellation
    away from the zeros of theta, which lie on the negative real axis.  S
    runs over |n| <= N, the smallest N >= 1 at which the geometric bound on
    the omitted terms, times sqrt(c) e^{a^2 / (4L)}, is at most tol; that
    product is tail_bound.  The rounding error is about
    u (1 + (|a| + 3 pi)^2 / (4L)) times the largest transformed term,
    sqrt(c) e^{(a^2 - b^2) / (4L)}: the exponent and the phases are formed
    from a and b in doubles.  The value is e^{log|theta|} times its phase,
    with log|theta| the prefactor's log plus log|S|, so it also raises the
    overflow error exactly where log|theta| leaves the doubles.

    Ring state.  The stop index, the overflow verdict, the direct path's
    tail and factors and the transformed path's N, tail, prefactor log and
    phases e^{-i c n |a|} depend on |z| only through log M = |log|z|| and on
    tol.  _step(z, tol, state), a point of a ring at one tol, hands them on
    with its result or error as (log M, K, tail, prefactor log, rows), and
    reuses a state of its log M (==, bit equality for log M >= 0); evaluate
    is _step(z, tol, None)[0].  The rows are the direct path's q^{2k-1},
    1 <= k <= K, formed by the same pow calls at every fill, or the
    transformed path's (c n, pi n, cos, -sin); a verdict has K = 0, no rows.
    """

    __slots__ = ("_q", "_lq", "_c")

    def __init__(self, q: QBase) -> None:
        self._q = q.q
        self._lq = q.log_q
        # c = pi / log(1/q) selects the transformed sum; 0.0 the direct one.
        self._c = math.pi / q.log_inv_q if q.q > THETA_TRANSFORM_Q else 0.0

    def evaluate(self, z: complex, tol: float) -> EvalResult:
        """The sum at z with its certified tail; see eval_theta."""
        return self._step(z, tol, None)[0]

    def _step(self, z: complex, tol: float, state) -> tuple:
        """(evaluate(z, tol), the ring's next state); see Ring state."""
        _require_pos_tol(tol)
        z = _require_finite(z)
        if z == 0:
            raise InvalidArgumentError("theta sum requires a nonzero argument")
        lq, c = self._lq, self._c
        abs_z = _modulus(z)
        if not abs_z < math.inf:
            raise NonConvergentError("theta sum overflowed the double range")
        log_z = math.log(abs_z)
        log_m = abs(log_z)
        if state and state[0] == log_m:
            _, k_stop, tail, log_pref, rows = state
        else:
            log_tol = math.log(tol)
            k_stop = _theta_stop_index(lq, log_m, log_tol)
            # Certain overflow, in closed form.  k^2 lq + k log_m is concave
            # in k, so its maximum on 1 <= k <= K is at the integer nearest
            # its vertex, clamped.  The sum forms that term in at most
            # TWO_SIDED_CAP products, each losing at most about 5u of relative
            # modulus (Brent, Percival and Zimmermann, Math. Comp. 76, 2007),
            # so above 711 > log(sqrt(2) DBL_MAX) = 710.13 the term has a
            # non-finite part.  An inf or nan part of the running sum never
            # becomes finite again, so the final check below would reject
            # that sum anyway.  The transformed sum raises there too: both
            # paths return values only where the direct sum's terms are
            # doubles, so a direct sum in extended precision can check every
            # value they return.
            k_peak = min(k_stop, max(1, round(log_m / (-2.0 * lq))))
            if k_peak * k_peak * lq + k_peak * log_m > 711.0:
                k_stop, tail, log_pref, rows = 0, 0.0, 0.0, ()
            elif c:
                tail, log_pref, rows = _transform_stop(c, lq, log_m, log_tol)
            else:
                rho2 = math.exp(min((2 * k_stop + 3) * lq + log_m, _LOG_HALF))
                tail = 2.0 * math.exp((k_stop + 1) ** 2 * lq + (k_stop + 1) * log_m) / (1.0 - rho2)
                qq = self._q
                log_pref, rows = 0.0, [qq ** (2 * k - 1) for k in range(1, k_stop + 1)]
            state = None if state is None else (log_m, k_stop, tail, log_pref, rows)
        if not k_stop:
            raise _ring_error("theta sum overflowed the double range", state)
        if c:
            # S = 1 + sum over 1 <= n <= N of the n-th and (-n)-th terms,
            # e^{-c n (pi n -+ b)} e^{-+i c n log|z|}; pi n -+ b is exact where
            # it is small.  log|z| < 0 negates the imaginary part.
            b = math.atan2(z.imag, z.real)
            s_re, s_im = 1.0, 0.0
            exp = math.exp
            for c_n, pi_n, cos_n, sin_n in rows:
                up, down = exp(c_n * (b - pi_n)), exp(-c_n * (pi_n + b))
                s_re += (up + down) * cos_n
                s_im += (up - down) * sin_n
            if log_z < 0.0:
                s_im = -s_im
            abs_s = math.hypot(s_re, s_im)
            inv_4l = -0.25 / lq
            log_theta = log_pref - b * b * inv_4l + (math.log(abs_s) if abs_s else -math.inf)
            try:
                modulus = exp(log_theta)
            except OverflowError:
                raise _ring_error("theta sum overflowed the double range", state) from None
            arg = 2.0 * log_z * b * inv_4l + math.atan2(s_im, s_re)
            return _new_tuple(EvalResult, (
                complex(modulus * math.cos(arg), modulus * math.sin(arg)), 2 * k_stop + 1, tail)), state

        value: complex = 1.0 + 0.0j
        plus: complex = 1.0 + 0.0j
        minus: complex = 1.0 + 0.0j
        z_inv = 1.0 / z
        for f in rows:
            plus *= f * z
            minus *= f * z_inv
            value += plus + minus
        if not _modulus(value) < math.inf:
            raise _ring_error("theta sum overflowed the double range", state)
        return _new_tuple(EvalResult, (value, 2 * k_stop + 1, tail)), state


def eval_theta(q: QBase, z: complex, tol: float) -> EvalResult:
    """Theta, sum_{k in Z} q^{k^2} z^k, with a certified absolute tail.

    K is the smallest index with q^{2K+1} M <= 1/2 and
    q^{K^2} M^K / (1 - q^{2K+1} M) <= tol, where M = max(|z|, 1/|z|), and
    terms_used is 2K + 1.  For q <= THETA_TRANSFORM_Q the value is the direct
    sum over k in [-K, K], and tail_bound is its rigorous two-wing geometric
    remainder.  For q > THETA_TRANSFORM_Q the value is Jacobi's imaginary
    transformation of theta, summed over the few terms that meet tol, and
    tail_bound bounds the transformed terms it omits.  Either way
    tail_bound <= tol covers truncation only; ThetaSeries states the
    rounding error of each path.  Raises NonConvergentError when K would
    exceed TWO_SIDED_CAP, in closed form before any factor is tabulated when
    the direct sum's largest term is above e^711, and when the value leaves
    the double range.  This is ThetaSeries(q).evaluate(z, tol).
    """
    return ThetaSeries(q).evaluate(z, tol)


class LaurentSeries:
    """A prepared two-sided expansion of a LaurentSpec.

    coeff(k), coeff(-k) and the weights of the stop rule are tabulated per
    index the first time an evaluation reaches it, and later evaluations
    reuse them, so coeff is called once per index.  The log-space tail test
    is screened by a lower bound on its left side that costs one addition;
    the full test runs only at indices where the screen cannot rule it out,
    and the screen never changes its verdict.

    Before summing, an evaluation whose stop rule is still blocked where
    w^k or w^-k certainly leaves the double range raises "Laurent sum
    overflowed the double range" at once, without calling coeff for any
    k >= 1: the sum would raise that error by then.

    Zero tail.  Beside its rows the series keeps z0, the start of the
    trailing run of rows whose coeff(k) and coeff(-k) are exactly zero (a
    stream such as q^{k^2} underflows long before its stop rule passes).
    From z0 >= 2 on, while both powers of w are finite, a row adds zeros,
    which change no part of the partial sum but a -0.0 one (that falls back
    to the loop); the loop's other events are its stop test, now with a
    fixed target, and the cap.  Each decay is within a few u of
    (alpha+1) k^alpha log q, which decreases in k, so a row whose ratio test
    fails by 1e-12 of its size rules out every earlier one: a bisection
    finds the last such row, and a walk from it runs the loop's tests up to
    the first passing index K.  The powers up to K are finite where
    K log M <= 708 (|w| >= e^-708 is normal, and they keep all but e^-0.001
    of |w|^{+-k}) and not from ceil(711 / log M) on, as above: at most K,
    that index makes the series raise the overflow error, and the band
    between falls back to the loop.  With no passing index, a table at
    LAURENT_K_CAP raises the cap error likewise; a shorter one falls back.
    """

    __slots__ = ("_spec", "_lq", "_ap1", "_log_c", "_c0", "_table")

    def __init__(self, spec: LaurentSpec) -> None:
        self._spec = spec
        self._lq = spec.q.log_q
        self._ap1 = spec.alpha + 1.0
        self._log_c = math.log(spec.c_weighted)
        self._c0: complex | None = None
        # (rows, z0).  Row k - 1: (coeff(k), coeff(-k), (alpha+1) k^alpha log q,
        # (k+1)^(alpha+1) log q), each -inf where its power leaves the
        # doubles.  An evaluation that needs more rows extends a private copy
        # and publishes it with its z0 in one assignment.
        self._table: tuple = ([], 1)

    def evaluate(self, z: complex, tol: float) -> EvalResult:
        """The expansion at z with its certified tail; see eval_laurent."""
        _require_pos_tol(tol)
        spec = self._spec
        z = _require_finite(z)
        w = z - spec.center
        if w == 0:
            raise CenterPoleError(f"evaluation point equals the expansion center {spec.center!r}")
        abs_w = _modulus(w)
        if not abs_w < math.inf:
            raise NonConvergentError("Laurent sum overflowed the double range")
        law = math.log(abs_w)
        log_m = abs(law)
        log_c = self._log_c

        c0 = self._c0
        if c0 is None:
            c0 = self._c0 = complex(spec.coeff(0))
        partial = c0
        rows, z0 = self._table
        size = len(rows)
        grown = False
        plus: complex = 1.0 + 0.0j
        minus: complex = 1.0 + 0.0j
        w_inv = 1.0 / w
        # Certain overflow, in closed form.  Each complex product loses at
        # most sqrt(5) u of relative modulus (Brent, Percival and Zimmermann,
        # Math. Comp. 76, 2007), and 1.0 / w is within a few u of 1/w (a
        # subnormal w coarsens that only where k_ovf <= 2), so for
        # k <= LAURENT_K_CAP the k-th power that the sum forms keeps all but
        # a factor e^-0.001 of |w|^k or |w|^-k.  At k_ovf = ceil(711 / log_m)
        # the growing wing is then above sqrt(2) DBL_MAX = e^710.13, so it has
        # a non-finite part, and so does every later power and partial sum.
        # The row's ratio expression falls as k grows, so a sum still blocked
        # at k_ovf - 1 cannot have returned before k_ovf <= LAURENT_K_CAP; it
        # raises there, before its stop test, unless it raised the same error
        # sooner.  An infinite log_m gives k_ovf = 1; log_m = 0 or nan skips
        # the test, and the sum runs as before.
        if log_m > 0.0:
            k_ovf = max(1, math.ceil(711.0 / log_m))
            # A power beyond the doubles reads as inf: the ratio is -inf.
            if k_ovf <= LAURENT_K_CAP and (
                    self._ap1 * _power(k_ovf - 1, spec.alpha) * self._lq + log_m > _LOG_HALF):
                raise NonConvergentError("Laurent sum overflowed the double range")
        k = 0
        inf, log, log_half, k_cap = math.inf, math.log, _LOG_HALF, LAURENT_K_CAP
        try:
            while True:
                k += 1
                if k > k_cap:
                    raise NonConvergentError(
                        f"weighted tail did not meet tol within |k| <= {LAURENT_K_CAP}"
                    )
                if k > size:
                    # Extend a private copy; the finally clause publishes it.
                    if not grown:
                        rows = list(rows)
                        coeff, alpha, ap1, lq = spec.coeff, spec.alpha, self._ap1, self._lq
                        grown = True
                    up, down = coeff(k), coeff(-k)
                    rows.append((up, down, ap1 * _power(k, alpha) * lq, _power(k + 1, ap1) * lq))
                    if up or down:
                        z0 = k + 1
                    size += 1
                elif k == z0 and k > 1:
                    found = _zero_tail(rows, k, log_m, law, log_c, partial, abs_partial, tol)
                    if found is not None:
                        return found
                up, down, decay, next_weight = rows[k - 1]
                plus *= w
                minus *= w_inv
                partial += up * plus + down * minus
                try:
                    abs_partial = abs(partial)
                except OverflowError:
                    abs_partial = inf
                if not abs_partial < inf:
                    raise NonConvergentError("Laurent sum overflowed the double range")
                if decay + log_m > log_half:
                    continue
                target_log = log(tol * (abs_partial if abs_partial > 1.0 else 1.0))
                # Screen: the wing whose sign is that of law computes exactly
                # next_weight + (k + 1) * log_m and then subtracts
                # log1p(-wing_rho) <= 0; hi is at least that wing, the
                # log1p(exp(min - hi)) term below is >= 0, and rounding is
                # monotone.  So log_c + (next_weight + (k + 1) * log_m) is a
                # lower bound on the tail_log computed below, and while it
                # exceeds target_log the tail test cannot pass.
                if log_c + (next_weight + (k + 1) * log_m) > target_log:
                    continue
                tail_log = _tail_log(k, decay, next_weight, law, log_c)
                if tail_log <= target_log:
                    return _new_tuple(EvalResult, (partial, 2 * k + 1, math.exp(tail_log)))
        finally:
            if grown:
                self._table = (rows, z0)


def _power(k: int, e: float) -> float:
    """k^e, or inf where it leaves the doubles: a stop-rule weight times
    log q < 0 is then -inf, the log of q^inf = 0."""
    try:
        return k**e
    except OverflowError:
        return math.inf


def _tail_log(k: int, decay: float, next_weight: float, law: float, log_c: float) -> float:
    """The log of LaurentSeries's two-wing tail bound past index k."""
    # The majorant term just past the current index can still exceed
    # the double range, so the wing tails are compared in log space.
    wing_logs = []
    for sgn in (1.0, -1.0):
        wing_rho = math.exp(decay + sgn * law)
        wing_logs.append(next_weight + sgn * (k + 1) * law - math.log1p(-wing_rho))
    hi = max(wing_logs)
    if hi == -math.inf:  # both wings vanish: a weight beyond the doubles
        return hi
    return log_c + hi + math.log1p(math.exp(min(wing_logs) - hi))


def _zero_tail(rows: list, k0: int, log_m: float, law: float, log_c: float, partial: complex,
               abs_partial: float, tol: float) -> EvalResult | None:
    """LaurentSeries's outcome over its trailing zero rows from k0 >= 2 on,
    given the partial sum and its modulus before row k0: the result, a
    raised error, or None where the loop must decide (see the class)."""
    if any(not part and math.copysign(1.0, part) < 0.0 for part in (partial.real, partial.imag)):
        return None
    target_log = math.log(tol * (abs_partial if abs_partial > 1.0 else 1.0))
    size = len(rows)
    # Bisect for lo: rows k0 - 1 (checked by the loop) to lo fail their
    # ratio tests, and row hi <= size + 1 does not fail it by the margin.
    lo, hi = k0 - 1, size + 1
    while hi - lo > 1:
        mid = (lo + hi) // 2
        decay = rows[mid - 1][2]
        if decay + log_m > _LOG_HALF + 1e-12 * (1.0 - decay + log_m):
            lo = mid
        else:
            hi = mid
    k_stop = 0
    for k in range(lo + 1, size + 1):
        _, _, decay, next_weight = rows[k - 1]
        if decay + log_m > _LOG_HALF or log_c + (next_weight + (k + 1) * log_m) > target_log:
            continue
        tail_log = _tail_log(k, decay, next_weight, law, log_c)
        if tail_log <= target_log:
            k_stop = k
            break
    k_last = k_stop or size
    if k_last * log_m > 708.0:
        if math.ceil(711.0 / log_m) <= k_last:
            raise NonConvergentError("Laurent sum overflowed the double range")
        return None
    if k_stop:
        return _new_tuple(EvalResult, (partial, 2 * k_stop + 1, math.exp(tail_log)))
    if size == LAURENT_K_CAP:
        raise NonConvergentError(f"weighted tail did not meet tol within |k| <= {LAURENT_K_CAP}")
    return None


def eval_laurent(spec: LaurentSpec, z: complex, tol: float) -> EvalResult:
    """Evaluate a two-sided expansion around its center with a majorant tail.

    The omitted indices |k| > K are bounded wing by wing through
    |coeff(k)| <= c_weighted q^{|k|^(alpha+1)}, using the superlinear growth
    of |k|^(alpha+1) to certify a geometric remainder.  Raises
    NonConvergentError if LAURENT_K_CAP is hit before the tail meets tol, or if the
    partial sum leaves the double range.  A stop-rule weight |k|^(alpha+1)
    beyond the doubles stands for q^inf = 0, so its wing tails vanish.  This
    is LaurentSeries(spec).evaluate(z, tol).
    """
    return LaurentSeries(spec).evaluate(z, tol)
