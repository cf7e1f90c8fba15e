"""q-shifted factorial arithmetic shared by every evaluator in the package.

The base q always lies in (0, 1), so every infinite product here converges
absolutely.  Finite products are exact up to rounding; truncated infinite
products carry a certified bound on |log(true / computed)| so callers can
propagate rigorous error budgets instead of heuristics.

Every product runs through one private routine that builds one table of
q**k per base, up to the largest factor count among the parameters it is
given, and multiplies each parameter's factors 1 - x q^k left to right.  A
list of parameters at one base (multishifted, or the envelope constants in
bounds) thus pays for each power once, and each product has the bits of the
plain loop value = value * (1 - x * q**k) however many share the table.

Everything here is pure and reentrant, and the returned values are frozen;
concurrent use needs no coordination.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import InvalidArgumentError, NonConvergentError, QSeriesError

DEFAULT_MAX_Q = 0.999999
FACTOR_CAP = 1_000_000


@dataclass(frozen=True)
class QBase:
    """Validated base with 0 < q <= DEFAULT_MAX_Q < 1.

    The guard DEFAULT_MAX_Q rejects bases so close to 1 that factor counts
    explode.
    """

    q: float

    def __post_init__(self) -> None:
        try:
            q = float(self.q)
        except (TypeError, ValueError) as exc:
            raise InvalidArgumentError(f"base must be a real number, got {self.q!r}") from exc
        if not 0.0 < q < 1.0:
            raise InvalidArgumentError(f"base must satisfy 0 < q < 1, got {q!r}")
        if q > DEFAULT_MAX_Q:
            raise InvalidArgumentError(
                f"base {q!r} exceeds the slow-convergence guard max_q={DEFAULT_MAX_Q!r}"
            )
        object.__setattr__(self, "q", q)

    @property
    def log_q(self) -> float:
        """log q, always negative."""
        return math.log(self.q)

    @property
    def log_inv_q(self) -> float:
        """log(1/q), always positive."""
        return -math.log(self.q)


@dataclass(frozen=True)
class PochhammerValue:
    """A finite or truncated-infinite q-shifted factorial.

    ``factors_used`` is the count of factors actually multiplied;
    ``tail_log_bound`` certifies |log(true / computed)| and is 0 for finite
    products.
    """

    value: complex | float
    factors_used: int
    tail_log_bound: float = 0.0


def _products(xs: list | tuple, qq: float, counts: list[int]) -> list:
    """(x_i;q)_{n_i} for each x_i and n_i, every factor from one table of q**k.

    Each product is math.prod over [1 - x q^k for k < n], which multiplies
    left to right from 1 exactly as a running loop value = value * (1 - x q^k)
    does, so the bits do not depend on how many products share the table.
    The empty product is the float 1.0.
    """
    top = max(counts, default=0)
    table = [qq**k for k in range(top)]
    products = []
    for x, n in zip(xs, counts):
        factors = [1.0 - x * p for p in (table if n == top else table[:n])]
        products.append(math.prod(factors) if n else 1.0)
    return products


def _factor_count(a: complex | float, qq: float, lq: float, tol: float) -> int:
    """Smallest N with |a| q^N <= min(tol (1-q), 1/2), lq = log q; see
    pochhammer_infinite."""
    if not tol > 0.0:
        raise InvalidArgumentError(f"tol must be positive, got {tol!r}")
    abs_a = abs(a)
    if not math.isfinite(abs_a):
        raise NonConvergentError(f"non-finite parameter {a!r} in infinite product")
    if abs_a == 0.0:
        return 0
    target = min(tol * (1.0 - qq), 0.5)
    guess = (math.log(target) - math.log(abs_a)) / lq
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
    return n_trunc


def _truncated_products(
    xs: list | tuple, q: QBase, tol: float
) -> tuple[list[int], list, Exception | None]:
    """(counts, values, error): the truncated (x_i;q)_inf of each x_i at one
    base, from one table of q**k, with their factor counts.

    Counting stops at the first x_i whose factor count raises.  The products
    of the parameters before it are returned together with that error, so a
    caller that checks them first raises what a product-by-product loop
    raised first.  Each value is pochhammer_finite(x_i, q, N_i).value; no
    value is checked here.
    """
    qq = q.q
    lq = math.log(qq)
    counts: list[int] = []
    error = None
    for x in xs:
        try:
            counts.append(_factor_count(x, qq, lq, tol))
        except (QSeriesError, OverflowError) as exc:
            error = exc
            break
    return counts, _products(xs, qq, counts), error


def _infinite_parts(xs: list | tuple, q: QBase, tol: float) -> list[PochhammerValue]:
    """pochhammer_infinite of each x_i, from one table of q**k.

    Raises on the first product that overflowed, then on the error that
    stopped the count, as a loop of pochhammer_infinite calls would.
    """
    counts, values, error = _truncated_products(xs, q, tol)
    qq = q.q
    parts = []
    for x, n, value in zip(xs, counts, values):
        if not abs(value) < math.inf:
            raise NonConvergentError("infinite product overflowed the double range")
        a_qn = abs(x) * qq**n
        tail = a_qn / ((1.0 - qq) * (1.0 - a_qn))
        parts.append(PochhammerValue(value=value, factors_used=n, tail_log_bound=tail))
    if error is not None:
        raise error
    return parts


def pochhammer_finite(a: complex | float, q: QBase, n: int) -> PochhammerValue:
    """Product of the n factors (1 - a q^k), k = 0..n-1; the empty product is 1."""
    if not isinstance(n, int) or n < 0:
        raise InvalidArgumentError(f"factor count must be a nonnegative integer, got {n!r}")
    return PochhammerValue(value=_products((a,), q.q, [n])[0], factors_used=n)


def pochhammer_infinite(a: complex | float, q: QBase, tol: float) -> PochhammerValue:
    """Truncated infinite product with a certified log-tail bound.

    Truncates at the smallest N with |a| q^N <= min(tol (1-q), 1/2); the
    omitted factors then satisfy

        |log prod_{k>=N} (1 - a q^k)| <= |a| q^N / ((1-q)(1 - |a| q^N)),

    which is stored as ``tail_log_bound``.  The returned value is exactly
    ``pochhammer_finite(a, q, N).value``.
    """
    return _infinite_parts((a,), q, tol)[0]


def multishifted(
    a_list: list | tuple,
    q: QBase,
    n: int | float,
    tol: float = 1e-15,
) -> PochhammerValue:
    """Product of shifted factorials over a parameter list; empty list gives 1.

    ``n`` may be ``math.inf``, in which case ``tol`` drives each truncated
    factor and the log-tail bounds add up.  Every factor of every parameter
    comes from one table of q**k, and the value has the bits of a
    parameter-by-parameter product of pochhammer_finite or
    pochhammer_infinite values.
    """
    infinite = n == math.inf
    if not infinite and (not isinstance(n, int) or n < 0):
        raise InvalidArgumentError(f"order must be a nonnegative integer or math.inf, got {n!r}")
    if infinite:
        parts = _infinite_parts(a_list, q, tol)
    else:
        values = _products(a_list, q.q, [n] * len(a_list))
        parts = [PochhammerValue(value=value, factors_used=n) for value in values]
    value: complex | float = 1.0
    tail = 0.0
    used = 0
    for part in parts:
        value = value * part.value
        tail += part.tail_log_bound
        used = max(used, part.factors_used)
    return PochhammerValue(value=value, factors_used=used, tail_log_bound=tail)


def q_binomial(n: int, k: int, q: QBase) -> float:
    """Gaussian binomial (q;q)_n / ((q;q)_k (q;q)_{n-k}), symmetric in k and n-k."""
    if not isinstance(n, int) or not isinstance(k, int) or n < 0 or k < 0 or k > n:
        raise InvalidArgumentError(f"need integers 0 <= k <= n, got n={n!r} k={k!r}")
    num = pochhammer_finite(q.q, q, n).value
    den = pochhammer_finite(q.q, q, k).value * pochhammer_finite(q.q, q, n - k).value
    return num / den
