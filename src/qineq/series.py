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

Each family has a prepared series, built once per parameter set:
prepare_confluent_f and prepare_phi build a GaussianSeries, and ThetaSeries
and LaurentSeries take a base and a LaurentSpec.  Its evaluate(z, tol)
tabulates the terms' z-independent factors the first time an evaluation
needs them and reuses them at every later point, so a sweep over many z pays
for them once.  Each eval_* prepares a series and evaluates it once: one code
path, and the same bits either way.  A table grows by publishing an extended
copy with one assignment, so a prepared series may be shared between threads
without locks.
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
_LN2 = math.log(2.0)
# Steps between two checks that theta's running sum, or the powers of w that
# the Laurent overflow probe forms, are still finite.
_THETA_CHECK_EVERY = 32


def _require_finite_moduli(a_list: tuple[complex, ...]) -> None:
    # math.hypot, unlike abs(complex), returns inf instead of raising when
    # both parts are finite but the modulus is beyond the double range.
    for a in a_list:
        if not math.isfinite(math.hypot(a.real, a.imag)):
            raise InvalidArgumentError(f"numerator parameters must have a finite modulus, got {a!r}")


@dataclass(frozen=True)
class ConfluentParams:
    """Parameters of the Gaussian-weighted entire class.

    ``a_list`` may be complex, each with a finite modulus; ``b_list`` entries
    must lie in [0, 1) and the weight exponent ``l`` must be positive.
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
        _require_finite_moduli(a_list)
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

    Requires s + 1 - r > 0 (the confluence condition), a finite modulus for
    each a_i and b_j in [0, 1).
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
        _require_finite_moduli(a_list)
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
    q^{|k|^(alpha+1)}.  ``coeff`` must be a pure function of k: a prepared
    series (LaurentSeries, and the audit target of a spec) calls it at
    most once per index and reuses the value at every later point, except
    that threads growing one table at the same moment may each call it.
    ``coeff`` must be safe for concurrent invocation; the library adds no
    synchronization of its own.
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
    """

    __slots__ = ("_a_list", "_b_list", "_q", "_l", "_shift", "_negate", "_num_cap",
                 "_den_floor", "_rows")

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
        # Row k: (num_k w_k, den_k, w_k, (1 - q^{k+1}) den_floor) with
        # w_k = q^{l(2k+shift)}.  An evaluation that needs more rows extends a
        # private copy and publishes it with one assignment, so a concurrent
        # reader never sees a half-grown table.
        self._rows: list[tuple[complex, float, float, float]] = []

    def evaluate(self, z: complex, tol: float) -> EvalResult:
        """The sum at z with its certified tail; see eval_confluent_f."""
        _require_pos_tol(tol)
        z = complex(z)
        if self._negate:
            z = -z
        if z == 0:
            return EvalResult(value=1.0 + 0.0j, terms_used=1, tail_bound=0.0)
        num_cap = self._num_cap
        rows = self._rows
        size = len(rows)
        grown = False
        term: complex = 1.0 + 0.0j
        partial = term
        k = 0
        try:
            abs_z = abs(z)
            while k <= TERM_CAP:
                if k == size:
                    # Extend a private copy; the finally clause publishes it.
                    if not grown:
                        rows = list(rows)
                        q, a_list, b_list = self._q, self._a_list, self._b_list
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
                    w = q ** (self._l * (2 * k + self._shift))
                    rows.append((num * w, den, w, one_minus * self._den_floor))
                    qk = qk1
                    size += 1
                nw, den, w, dd = rows[k]
                nxt = term * (nw * z / den)
                abs_nxt = abs(nxt)
                if not abs_nxt < math.inf:
                    raise NonConvergentError("series term left the double range")
                if k >= MIN_STOP_INDEX:
                    bound = w * abs_z * num_cap / dd
                    if bound < 1.0:
                        tail = abs_nxt / (1.0 - bound)
                        abs_partial = abs(partial)
                        if not abs_partial < math.inf:
                            raise NonConvergentError("series term left the double range")
                        if tail <= tol * max(1.0, abs_partial):
                            return EvalResult(value=partial, terms_used=k + 1, tail_bound=tail)
                partial += nxt
                term = nxt
                k += 1
        except OverflowError as exc:
            # abs() of a complex with finite parts raises once its modulus overflows.
            raise NonConvergentError("series term left the double range") from exc
        finally:
            if grown:
                self._rows = rows
        raise NonConvergentError(f"no certified stop within {TERM_CAP} terms")


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

    def stops(k: int) -> bool:
        ratio_log = (2 * k + 1) * lq + log_m
        if ratio_log > _LOG_HALF:
            return False
        rho = math.exp(ratio_log)
        return k * k * lq + k * log_m - math.log1p(-rho) <= log_tol

    guess = ((_LOG_HALF - log_m) / lq - 1.0) / 2.0
    disc = log_m * log_m + 4.0 * lq * log_tol
    if disc >= 0.0:
        guess = max(guess, (log_m + math.sqrt(disc)) / (-2.0 * lq))
    k = max(1, math.ceil(min(guess, TWO_SIDED_CAP)))
    while not stops(k):
        k += 1
        if k > TWO_SIDED_CAP:
            raise NonConvergentError(f"no certified stop within |k| <= {TWO_SIDED_CAP}")
    while k > 1 and stops(k - 1):
        k -= 1
    return k


class ThetaSeries:
    """A prepared theta sum sum_{k in Z} q^{k^2} z^k.

    The factors q^{2k-1} that step both wings are tabulated up to the largest
    index any evaluation has reached, and later evaluations reuse them.  The
    running sum is checked every 32 terms, so a sum that leaves the double
    range raises as soon as one of its parts is not finite instead of after
    the last term.  The table grows 32 entries at a time with the sum and is
    published once, on return or on raise, so a sum that overflows early
    tabulates only the indices it reached.
    """

    __slots__ = ("_q", "_lq", "_powers")

    def __init__(self, q: QBase) -> None:
        self._q = q.q
        self._lq = math.log(q.q)
        # q^{2k-1} at index k - 1.  A longer list is built in a private copy
        # and published with one assignment; a published list is never
        # modified.
        self._powers: list[float] = []

    def evaluate(self, z: complex, tol: float) -> EvalResult:
        """The sum at z with its certified tail; see eval_theta."""
        _require_pos_tol(tol)
        z = complex(z)
        if z == 0:
            raise InvalidArgumentError("theta sum requires a nonzero argument")
        lq = self._lq
        try:
            abs_z = abs(z)
        except OverflowError as exc:
            raise NonConvergentError("theta sum overflowed the double range") from exc
        if not math.isfinite(abs_z):
            raise InvalidArgumentError(f"argument must be finite, got {z!r}")
        log_m = abs(math.log(abs_z))
        k_stop = _theta_stop_index(lq, log_m, math.log(tol))

        rho2 = math.exp(min((2 * k_stop + 3) * lq + log_m, _LOG_HALF))
        tail = 2.0 * math.exp((k_stop + 1) ** 2 * lq + (k_stop + 1) * log_m) / (1.0 - rho2)

        powers = self._powers
        size = len(powers)
        value: complex = 1.0 + 0.0j
        plus: complex = 1.0 + 0.0j
        minus: complex = 1.0 + 0.0j
        z_inv = 1.0 / z
        try:
            for lo in range(0, k_stop, _THETA_CHECK_EVERY):
                hi = min(lo + _THETA_CHECK_EVERY, k_stop)
                if hi > len(powers):
                    # Extend a private copy chunk by chunk with the sum; the
                    # finally clause publishes it.
                    if len(powers) == size:
                        powers = list(powers)
                    qq = self._q
                    powers += [qq ** (2 * k - 1) for k in range(len(powers) + 1, hi + 1)]
                for f in powers[lo:hi]:
                    plus *= f * z
                    minus *= f * z_inv
                    value += plus + minus
                # Complex addition works part by part, and an inf or nan part
                # never becomes finite again, so this rejects exactly the sums
                # that the final check below would reject, only sooner.
                if not (math.isfinite(value.real) and math.isfinite(value.imag)):
                    raise NonConvergentError("theta sum overflowed the double range")
        finally:
            if len(powers) > size:
                self._powers = powers
        try:
            abs_value = abs(value)
        except OverflowError:
            # Both parts finite, modulus beyond the double range.
            abs_value = math.inf
        if not abs_value < math.inf:
            raise NonConvergentError("theta sum overflowed the double range")
        return EvalResult(value=value, terms_used=2 * k_stop + 1, tail_bound=tail)


def eval_theta(q: QBase, z: complex, tol: float) -> EvalResult:
    """Two-sided theta sum over k in [-K, K] with a certified symmetric tail.

    K is the smallest index with q^{2K+1} M <= 1/2 and
    q^{K^2} M^K / (1 - q^{2K+1} M) <= tol, where M = max(|z|, 1/|z|); the
    reported tail_bound is the rigorous two-wing geometric remainder, which
    the stop rule keeps below tol.  Raises NonConvergentError when K would
    exceed TWO_SIDED_CAP or the sum leaves the double range.  This is
    ThetaSeries(q).evaluate(z, tol).
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

    Before summing, an evaluation whose stop rule stays blocked past the
    index where w^k or w^-k can leave the double range runs those powers
    alone, exactly as the sum forms them.  If one has a non-finite part
    before the stop rule can pass and within k_cap, the sum would raise
    "Laurent sum overflowed the double range" by then, so that error is
    raised at once and coeff is not called for any k >= 1.
    """

    __slots__ = ("_spec", "_lq", "_ap1", "_log_c", "_c0", "_rows", "_probe_cap",
                 "_probe_from", "_probe_screen")

    def __init__(self, spec: LaurentSpec) -> None:
        self._spec = spec
        self._lq = math.log(spec.q.q)
        self._ap1 = spec.alpha + 1.0
        self._log_c = math.log(spec.c_weighted)
        # The overflow probe looks no further than this cap; a cap beyond
        # 2^53 only shortens the probe, which stays exact.  A point is probed
        # only if k0 = floor(700 / log_m) < cap, that is log_m > 700 / cap,
        # and the ratio test is still blocked at k0: c k0^alpha < log_m + log 2
        # with c = (alpha + 1) log(1/q).  For log 2 <= log_m <= 350,
        # k0 >= 350 / log_m and log_m + log 2 <= 2 log_m, so that needs
        # log_m^(alpha+1) > c 350^alpha / 2; up to the root of that,
        # evaluate skips the test.  A skip never changes an outcome.
        self._probe_cap = min(spec.k_cap, 1 << 53)
        self._probe_from = 700.0 / self._probe_cap
        c = self._ap1 * -self._lq
        log_root = (math.log(c / 2.0) + spec.alpha * math.log(350.0)) / self._ap1
        self._probe_screen = min(350.0, math.exp(log_root))
        self._c0: complex | None = None
        # Row k - 1: (coeff(k), coeff(-k), (alpha+1) k^alpha log q,
        # (k+1)^(alpha+1) log q).  An evaluation that needs more rows extends a
        # private copy and publishes it with one assignment.
        self._rows: list[tuple[complex, complex, float, float]] = []

    def evaluate(self, z: complex, tol: float) -> EvalResult:
        """The expansion at z with its certified tail; see eval_laurent."""
        _require_pos_tol(tol)
        spec = self._spec
        z = complex(z)
        w = z - spec.center
        if w == 0:
            raise CenterPoleError(f"evaluation point equals the expansion center {spec.center!r}")
        try:
            abs_w = abs(w)
        except OverflowError as exc:
            raise NonConvergentError("Laurent sum overflowed the double range") from exc
        law = math.log(abs_w)
        log_m = abs(law)
        log_c = self._log_c

        c0 = self._c0
        if c0 is None:
            c0 = self._c0 = complex(spec.coeff(0))
        partial = c0
        rows = self._rows
        size = len(rows)
        grown = False
        plus: complex = 1.0 + 0.0j
        minus: complex = 1.0 + 0.0j
        w_inv = 1.0 / w
        if log_m > self._probe_from and not _LN2 <= log_m <= self._probe_screen:
            k0 = int(700.0 / log_m)
            # Probe only if the ratio test is still blocked at k0 (the row's
            # decay expression); below k0 neither power can reach e^700.
            if (self._ap1 * k0**spec.alpha * self._lq + log_m > _LOG_HALF
                    and self._powers_overflow(w, w_inv, log_m, k0)):
                raise NonConvergentError("Laurent sum overflowed the double range")
        k = 0
        try:
            while True:
                k += 1
                if k > spec.k_cap:
                    raise NonConvergentError(
                        f"weighted tail did not meet tol within |k| <= {spec.k_cap}"
                    )
                if k > size:
                    # Extend a private copy; the finally clause publishes it.
                    if not grown:
                        rows = list(rows)
                        coeff, alpha, ap1, lq = spec.coeff, spec.alpha, self._ap1, self._lq
                        grown = True
                    rows.append(
                        (coeff(k), coeff(-k), ap1 * k**alpha * lq, (k + 1) ** ap1 * lq)
                    )
                    size += 1
                up, down, decay, next_weight = rows[k - 1]
                plus *= w
                minus *= w_inv
                partial += up * plus + down * minus
                try:
                    abs_partial = abs(partial)
                except OverflowError:
                    abs_partial = math.inf
                if not abs_partial < math.inf:
                    raise NonConvergentError("Laurent sum overflowed the double range")
                if decay + log_m > _LOG_HALF:
                    continue
                target_log = math.log(tol * max(1.0, abs_partial))
                # Screen: the wing whose sign is that of law computes exactly
                # next_weight + (k + 1) * log_m and then subtracts
                # log1p(-wing_rho) <= 0; hi is at least that wing, the
                # log1p(exp(min - hi)) term below is >= 0, and rounding is
                # monotone.  So log_c + (next_weight + (k + 1) * log_m) is a
                # lower bound on the tail_log computed below, and while it
                # exceeds target_log the tail test cannot pass.
                if log_c + (next_weight + (k + 1) * log_m) > target_log:
                    continue
                # The majorant term just past the current index can still exceed
                # the double range, so the wing tails are compared in log space.
                wing_logs = []
                for sgn in (1.0, -1.0):
                    wing_rho = math.exp(decay + sgn * law)
                    wing_logs.append(next_weight + sgn * (k + 1) * law - math.log1p(-wing_rho))
                hi = max(wing_logs)
                tail_log = log_c + hi + math.log1p(math.exp(min(wing_logs) - hi))
                if tail_log <= target_log:
                    return EvalResult(
                        value=partial, terms_used=2 * k + 1, tail_bound=math.exp(tail_log)
                    )
        finally:
            if grown:
                self._rows = rows

    def _powers_overflow(self, w: complex, w_inv: complex, log_m: float, k0: int) -> bool:
        """Whether w^k or w^-k, formed as the sum forms them, has a non-finite
        part at some k <= min(kf - 1, k_cap), where kf > k0 is the first index
        whose decay passes the stop rule's ratio test.

        Below kf the sum only continues, and a non-finite power makes every
        later power and the running sum non-finite, so the sum then raises
        its overflow error by that k.  The powers are checked every
        _THETA_CHECK_EVERY steps and at the last index.  evaluate calls this
        only where the test is still blocked at k0 = floor(700 / log_m) <
        k_cap: below k0 neither power can reach e^700, so elsewhere a probe
        would seldom find what the sum does not find as fast, and skipping it
        changes no outcome.
        """
        alpha, ap1, lq, cap = self._spec.alpha, self._ap1, self._lq, self._probe_cap

        def blocked(k: int) -> bool:
            # The row's decay expression; it falls as k grows.
            return ap1 * k**alpha * lq + log_m > _LOG_HALF

        # kf from the root of ap1 k^alpha log q = log(1/2) - log_m, taken in
        # log space so that the power 1/alpha cannot overflow, then a walk.
        log_root = math.log((log_m - _LOG_HALF) / (ap1 * -lq)) / alpha
        if log_root >= math.log(cap + 1):
            k = cap + 1
        else:
            k = max(k0 + 1, math.ceil(math.exp(log_root)))
        while k <= cap and blocked(k):
            k += 1
        while k > k0 + 1 and not blocked(k - 1):
            k -= 1
        last = k - 1
        plus: complex = 1.0 + 0.0j
        minus: complex = 1.0 + 0.0j
        for lo in range(0, last, _THETA_CHECK_EVERY):
            for _ in range(min(_THETA_CHECK_EVERY, last - lo)):
                plus *= w
                minus *= w_inv
            if not (math.isfinite(plus.real) and math.isfinite(plus.imag)
                    and math.isfinite(minus.real) and math.isfinite(minus.imag)):
                return True
        return False


def eval_laurent(spec: LaurentSpec, z: complex, tol: float) -> EvalResult:
    """Evaluate a two-sided expansion around its center with a majorant tail.

    The omitted indices |k| > K are bounded wing by wing through
    |coeff(k)| <= c_weighted q^{|k|^(alpha+1)}, using the superlinear growth
    of |k|^(alpha+1) to certify a geometric remainder.  Raises
    NonConvergentError if spec.k_cap is hit before the tail meets tol, or if the
    partial sum leaves the double range.  This is
    LaurentSeries(spec).evaluate(z, tol).
    """
    return LaurentSeries(spec).evaluate(z, tol)
