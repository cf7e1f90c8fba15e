"""q-shifted factorial arithmetic shared by every evaluator in the package.

The base q always lies in (0, 1), so every infinite product here converges
absolutely.  Finite products are exact up to rounding; truncated infinite
products carry a certified bound on |log(true / computed)| so callers can
propagate rigorous error budgets instead of heuristics.

Every product runs through _products, which builds one table of q**k per
base, up to the largest factor count among the parameters it is given (or
to where q**k underflows to 0.0), and keeps for each parameter a running
product value *= 1 - x q^k, left to right from 1.0, with no list of factors,
so each has the bits of the plain loop value = value * (1 - x * q**k) however
many share the table; _factor_counts truncates every infinite product.
_products checks no value: _product_log takes the log of a product that has
left the normal doubles from its factors, and every public product whose
modulus is not a finite double raises NonConvergentError.  multishifted
multiplies the pochhammer values of its parameters one after another, and
_quotient_logs forms the envelope constants of bounds from one table.

It also holds the argument rules the other layers share: a positive tol, a
modulus that reads as inf where it overflows, and a q^l that rounds below 1.

Everything here is pure and reentrant.  QBase is an immutable value (see
FrozenValue) and PochhammerValue an immutable named tuple, so concurrent use
needs no coordination.
"""

from __future__ import annotations

import math
import sys
from typing import NamedTuple

from .errors import InvalidArgumentError, NonConvergentError

__all__ = [
    "QBase", "PochhammerValue", "pochhammer_finite", "pochhammer_infinite", "multishifted",
    "q_binomial",
]

DEFAULT_MAX_Q = 0.999999
FACTOR_CAP = 1_000_000
_MIN_NORMAL = sys.float_info.min
_MAX_LOG = math.log(sys.float_info.max)


_set = object.__setattr__
# Makes a named tuple with no Python frame.
_new_tuple = tuple.__new__


class FrozenValue:
    """Base of the validated parameter types: an immutable value with slots.

    ``_fields`` names the constructor's arguments in order, as a named
    tuple's does.  The constructor validates them and stores them with
    _set_fields, which also keeps their tuple, ``_key``.  As in a frozen
    dataclass, repr shows the fields, instances are equal when their classes
    are the same and their keys are equal, and the hash is that of the key.
    Assignment and deletion raise AttributeError.  ``_replace(**changes)``
    builds a validated copy with changed fields, and pickle and copy rebuild
    through the constructor.  Slots other than the fields and ``_key`` hold
    values derived from them and take no part in any of this.
    """

    __slots__ = ("_key",)
    _fields: tuple[str, ...] = ()

    def _set_fields(self, *values) -> None:
        for name, value in zip(self._fields, values):
            _set(self, name, value)
        _set(self, "_key", values)

    def _replace(self, **changes):
        return type(self)(**{**dict(zip(self._fields, self._key)), **changes})

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key == other._key

    def __hash__(self) -> int:
        return hash(self._key)

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self._key))
        return f"{type(self).__qualname__}({shown})"

    def __reduce__(self):
        return type(self), self._key


def _require_pos_tol(tol: float) -> None:
    if not tol > 0.0:
        raise InvalidArgumentError(f"tol must be positive, got {tol!r}")


def _modulus(x: complex | float) -> float:
    """|x|, or math.inf where finite parts give a modulus beyond the doubles."""
    try:
        return abs(x)
    except OverflowError:
        return math.inf


class QBase(FrozenValue):
    """Validated base with 0 < q <= DEFAULT_MAX_Q < 1.

    The guard DEFAULT_MAX_Q rejects bases so close to 1 that factor counts
    explode.  ``log_q`` (log q, always negative) and ``log_inv_q`` (log(1/q),
    always positive) are computed once, here.  They and the envelopes bounds
    keeps in ``_aq_envelope`` and ``_theta_envelopes`` (by alpha) take no
    part in repr, equality or hashing, which depend on q alone.
    """

    __slots__ = ("q", "log_q", "log_inv_q", "_aq_envelope", "_theta_envelopes")
    _fields = ("q",)

    def __init__(self, q: float) -> None:
        try:
            q = float(q)
        except (TypeError, ValueError) as exc:
            raise InvalidArgumentError(f"base must be a real number, got {q!r}") from exc
        if not 0.0 < q < 1.0:
            raise InvalidArgumentError(f"base must satisfy 0 < q < 1, got {q!r}")
        if q > DEFAULT_MAX_Q:
            raise InvalidArgumentError(
                f"base {q!r} exceeds the slow-convergence guard max_q={DEFAULT_MAX_Q!r}"
            )
        self._set_fields(q)
        _set(self, "log_q", math.log(q))
        _set(self, "log_inv_q", -math.log(q))
        _set(self, "_aq_envelope", None)
        _set(self, "_theta_envelopes", {})


def _q_power(q: QBase, l: float) -> float:
    """q^l; an l so small that q^l rounds to 1 raises InvalidArgumentError."""
    ql = q.q**l
    if ql == 1.0:
        raise InvalidArgumentError(f"q^l rounds to 1 at q = {q.q!r}, l = {l!r}")
    return ql


class PochhammerValue(NamedTuple):
    """A finite or truncated-infinite q-shifted factorial.

    ``factors_used`` is the count of factors actually multiplied;
    ``tail_log_bound`` certifies |log(true / computed)| and is 0 for finite
    products.
    """

    value: complex | float
    factors_used: int
    tail_log_bound: float = 0.0


def _products(xs: list | tuple, q: QBase, counts: list[int]) -> list:
    """(x_i;q)_{n_i} for each x_i and n_i, every factor from one table of q**k.

    Each product is the running product value *= 1 - x q^k over k < n from
    value = 1.0, the plain loop's factors in its order, real or complex, so
    the bits do not depend on how many products share the table.  The empty
    product is the float 1.0.  The table ends by the first B with
    q^B < e^-746, from where q**k is 0.0.  Each later factor is 1 - x * 0.0,
    and applying it more than twice changes no bit: for a finite x it is 1.0
    or a complex 1 with a zero imaginary part, which can flip the sign of a
    zero part only in its first two applications, and otherwise it holds a nan.
    """
    qq, top = q.q, max(counts, default=0)
    table = [qq**k for k in range(min(top, int(746.0 / q.log_inv_q) + 2))]
    m = len(table)
    products = []
    for x, n in zip(xs, counts):
        value = 1.0
        for p in table if n >= m else table[:n]:
            value *= 1.0 - x * p
        if n > m:
            for _ in range(min(n - m, 2)):
                value *= 1.0 - x * 0.0
        products.append(value)
    return products


def _product_log(value: float, xs: list, counts: list[int], qq: float) -> float:
    """The log of ``value``, the product of the _products of ``xs`` with
    ``counts`` factors each, multiplied left to right.

    A product that is not a normal double has lost its bits to underflow or
    overflow: its log is then math.fsum of log1p(-x q^k) over the same
    factors.
    """
    if _MIN_NORMAL <= value < math.inf:
        return math.log(value)
    return math.fsum(math.log1p(-x * qq**k) for x, n in zip(xs, counts) for k in range(n))


def _factor_counts(xs: list | tuple, q: QBase, tol: float) -> list[int]:
    """The smallest N_i with |x_i| q^N_i <= min(tol (1-q), 1/2) for each x_i in
    order (see pochhammer_infinite); the first x_i that cannot be counted raises."""
    _require_pos_tol(tol)
    qq, lq = q.q, q.log_q
    target = min(tol * (1.0 - qq), 0.5)
    log_target = math.log(target) if target else 0.0
    counts = []
    for x in xs:
        abs_x = _modulus(x)
        if not math.isfinite(abs_x):
            raise NonConvergentError(f"non-finite parameter {x!r} in infinite product")
        if abs_x == 0.0:
            counts.append(0)
            continue
        if not target:
            raise InvalidArgumentError(f"tol too small at q = {qq!r}: tol (1 - q) underflows to 0")
        n = max(0, math.ceil((log_target - math.log(abs_x)) / lq))
        if n > FACTOR_CAP:
            raise NonConvergentError(
                f"infinite product needs {n} factors, beyond the cap {FACTOR_CAP}")
        while abs_x * qq**n > target:
            n += 1
            if n > FACTOR_CAP:
                raise NonConvergentError(
                    f"infinite product did not meet tol within {FACTOR_CAP} factors")
        while n > 0 and abs_x * qq ** (n - 1) <= target:
            n -= 1
        counts.append(n)
    return counts


def _quotient_logs(nums: list, dens: list | tuple, x: float, q: QBase, tol: float) -> tuple:
    """(c, log c, log (x;q)_inf), c = prod_i (nums_i;q)_inf / prod_j (dens_j;q)_inf
    truncated at tol.  With nums_i <= 0 and dens_j in [0, 1), each factor of
    num is >= 1 and each of den <= 1, so each is a normal double exactly where
    it passes its one-sided test.  Where num, den and num / den are, c is
    num / den and log c math.log(c); elsewhere log c comes from _product_log
    and c is its exp, math.inf when that overflows."""
    xs = [*nums, *dens, x]
    counts = _factor_counts(xs, q, tol)
    values = _products(xs, q, counts)
    qq, r = q.q, len(nums)
    num, den = math.prod(values[:r], start=1.0), math.prod(values[r:-1], start=1.0)
    log_x = _product_log(values[-1], xs[-1:], counts[-1:], qq)
    if num < math.inf and den >= _MIN_NORMAL and num / den < math.inf:
        c = num / den
        return c, math.log(c), log_x
    log_c = (_product_log(num, xs[:r], counts[:r], qq)
             - _product_log(den, xs[r:-1], counts[r:-1], qq))
    return (math.inf if log_c > _MAX_LOG else math.exp(log_c)), log_c, log_x


def _finite(value: complex | float, kind: str) -> complex | float:
    """value, or NonConvergentError where its modulus is not a finite double."""
    if not _modulus(value) < math.inf:
        raise NonConvergentError(f"{kind} product overflowed the double range")
    return value


def pochhammer_finite(a: complex | float, q: QBase, n: int) -> PochhammerValue:
    """Product of the n factors (1 - a q^k), k = 0..n-1; the empty product is 1."""
    if not isinstance(n, int) or n < 0:
        raise InvalidArgumentError(f"factor count must be a nonnegative integer, got {n!r}")
    return PochhammerValue(_finite(_products((a,), q, [n])[0], "finite"), n)


def pochhammer_infinite(a: complex | float, q: QBase, tol: float) -> PochhammerValue:
    """Truncated infinite product with a certified log-tail bound.

    Truncates at the smallest N with |a| q^N <= min(tol (1-q), 1/2); the
    omitted factors then satisfy

        |log prod_{k>=N} (1 - a q^k)| <= |a| q^N / ((1-q)(1 - |a| q^N)),

    which is stored as ``tail_log_bound``.  The returned value is exactly
    ``pochhammer_finite(a, q, N).value``.
    """
    qq = q.q
    n = _factor_counts((a,), q, tol)[0]
    a_qn = abs(a) * qq**n
    value = _finite(_products((a,), q, [n])[0], "infinite")
    return PochhammerValue(value, n, a_qn / ((1.0 - qq) * (1.0 - a_qn)))


def multishifted(
    a_list: list | tuple,
    q: QBase,
    n: int | float,
    tol: float = 1e-15,
) -> PochhammerValue:
    """Product of shifted factorials over an iterable of parameters; none gives 1.

    ``n`` may be ``math.inf``, in which case ``tol`` drives each truncated
    factor and the log-tail bounds add up.  The value is the running product
    value = value * part.value, left to right from 1.0, over the
    pochhammer_finite or pochhammer_infinite value of each parameter, and the
    first of them that raises raises here.
    """
    infinite = n == math.inf
    if not infinite and (not isinstance(n, int) or n < 0):
        raise InvalidArgumentError(f"order must be a nonnegative integer or math.inf, got {n!r}")
    value: complex | float = 1.0
    tail = 0.0
    used = 0
    for a in a_list:
        part = pochhammer_infinite(a, q, tol) if infinite else pochhammer_finite(a, q, n)
        value = value * part.value
        tail += part.tail_log_bound
        used = max(used, part.factors_used)
    return PochhammerValue(_finite(value, "infinite" if infinite else "finite"), used, tail)


def q_binomial(n: int, k: int, q: QBase) -> float:
    """Gaussian binomial (q;q)_n / ((q;q)_k (q;q)_{n-k}), symmetric in k and n-k.

    The value is the product over i < min(k, n-k) of the ratios
    (1 - q^(n-i)) / (1 - q^(i+1)), each at least 1, so no partial product
    underflows where the three q-factorials would.  A value beyond the
    doubles raises NonConvergentError.
    """
    if not isinstance(n, int) or not isinstance(k, int) or n < 0 or k < 0 or k > n:
        raise InvalidArgumentError(f"need integers 0 <= k <= n, got n={n!r} k={k!r}")
    qq = q.q
    value = 1.0
    for i in range(min(k, n - k)):
        value *= (1.0 - qq ** (n - i)) / (1.0 - qq ** (i + 1))
    if value == math.inf:
        raise NonConvergentError(
            f"Gaussian binomial n={n!r} k={k!r} at q = {qq!r} overflowed the double range"
        )
    return value
