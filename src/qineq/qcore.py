"""q-shifted factorial arithmetic shared by every evaluator in the package.

The base q always lies in (0, 1), so every infinite product here converges
absolutely.  Finite products are exact up to rounding; truncated infinite
products carry a certified bound on |log(true / computed)| so callers can
propagate rigorous error budgets instead of heuristics.

Everything here is pure and reentrant, and the returned values are frozen;
concurrent use needs no coordination.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import InvalidArgumentError, NonConvergentError

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


def pochhammer_finite(a: complex | float, q: QBase, n: int) -> PochhammerValue:
    """Product of the n factors (1 - a q^k), k = 0..n-1; the empty product is 1."""
    if not isinstance(n, int) or n < 0:
        raise InvalidArgumentError(f"factor count must be a nonnegative integer, got {n!r}")
    qq = q.q
    value: complex | float = 1.0
    for k in range(n):
        value = value * (1.0 - a * qq**k)
    return PochhammerValue(value=value, factors_used=n)


def pochhammer_infinite(a: complex | float, q: QBase, tol: float) -> PochhammerValue:
    """Truncated infinite product with a certified log-tail bound.

    Truncates at the smallest N with |a| q^N <= min(tol (1-q), 1/2); the
    omitted factors then satisfy

        |log prod_{k>=N} (1 - a q^k)| <= |a| q^N / ((1-q)(1 - |a| q^N)),

    which is stored as ``tail_log_bound``.  The returned value is exactly
    ``pochhammer_finite(a, q, N).value``.
    """
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


def multishifted(
    a_list: list | tuple,
    q: QBase,
    n: int | float,
    tol: float = 1e-15,
) -> PochhammerValue:
    """Product of shifted factorials over a parameter list; empty list gives 1.

    ``n`` may be ``math.inf``, in which case ``tol`` drives each truncated
    factor and the log-tail bounds add up.
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
    if not infinite:
        used = n if a_list else 0
    return PochhammerValue(value=value, factors_used=used, tail_log_bound=tail)


def q_binomial(n: int, k: int, q: QBase) -> float:
    """Gaussian binomial (q;q)_n / ((q;q)_k (q;q)_{n-k}), symmetric in k and n-k."""
    if not isinstance(n, int) or not isinstance(k, int) or n < 0 or k < 0 or k > n:
        raise InvalidArgumentError(f"need integers 0 <= k <= n, got n={n!r} k={k!r}")
    num = pochhammer_finite(q.q, q, n).value
    den = pochhammer_finite(q.q, q, k).value * pochhammer_finite(q.q, q, n - k).value
    return num / den
