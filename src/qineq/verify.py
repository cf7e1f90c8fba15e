"""Sweep harness, identity oracles and tightness search for the envelopes.

An audit walks a deterministic set of complex points, evaluates the tagged
function at each and its envelope once per modulus, and emits one record per
point with the ratio |value| / envelope computed in log space.  Every proved
envelope must dominate, so all-pass is the expected outcome; failures are
collected rather than raised, and records whose evaluation errored are
marked and excluded from pass statistics.

Records are produced in plan order, so output is reproducible byte for byte
for a fixed seed.

Only the extended-precision series sides of identity_euler and
identity_qbinomial_theorem use mpmath, and they import it when called;
importing this module, the package or the CLI does not load it.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

from . import bounds
from .errors import InvalidArgumentError, NonConvergentError, QSeriesError
from .qcore import QBase, pochhammer_infinite
from .series import (
    ConfluentParams,
    EvalResult,
    LaurentSeries,
    LaurentSpec,
    PhiParams,
    ThetaSeries,
    eval_confluent_f,
    eval_laurent,
    eval_phi,
    eval_theta,
    phi_to_f,
    prepare_confluent_f,
    prepare_phi,
)

if TYPE_CHECKING:
    import mpmath as mp

# Audits evaluate through prepared series, so eval_confluent_f, eval_phi and
# eval_laurent are not called here; perfbench/tracing.py rebinds all four
# eval_* names in this module and needs them to stay importable.

FUNCTION_TAGS = ("confluent_f", "phi", "aq", "theta", "laurent")
DEFAULT_SLACK = 1e-12
DEFAULT_TOL = 1e-14
L_CHOICES = (0.5, 1.0, 1.5, 2.5)
_TWO_PI = 2.0 * math.pi


def log_grid(lo: float, hi: float, count: int) -> tuple[float, ...]:
    """Geometrically spaced moduli from lo to hi inclusive."""
    if not (0.0 < lo <= hi) or not math.isfinite(hi):
        raise InvalidArgumentError(f"need 0 < lo <= hi, got ({lo!r}, {hi!r})")
    if not isinstance(count, int) or count < 1:
        raise InvalidArgumentError(f"count must be a positive integer, got {count!r}")
    if count == 1:
        return (lo,)
    llo, lhi = math.log(lo), math.log(hi)
    step = (lhi - llo) / (count - 1)
    grid = [lo]
    for i in range(1, count - 1):
        grid.append(math.exp(llo + i * step))
    grid.append(hi)
    return tuple(grid)


@dataclass(frozen=True)
class SweepPlan:
    """Deterministic description of one audit sweep.

    Identical plans (including the seed) produce identical record lists in
    identical order.
    """

    abs_z_grid: tuple[float, ...]
    angle_count: int
    parameter_draws: int = 0
    seed: int = 0
    slack: float = DEFAULT_SLACK
    tol: float = DEFAULT_TOL

    def __post_init__(self) -> None:
        grid = tuple(float(r) for r in self.abs_z_grid)
        if not grid or any(not (math.isfinite(r) and r > 0.0) for r in grid):
            raise InvalidArgumentError("abs_z_grid must be a nonempty tuple of positive moduli")
        if not isinstance(self.angle_count, int) or self.angle_count < 1:
            raise InvalidArgumentError(f"angle_count must be >= 1, got {self.angle_count!r}")
        if not isinstance(self.parameter_draws, int) or self.parameter_draws < 0:
            raise InvalidArgumentError("parameter_draws must be a nonnegative integer")
        if not self.slack >= 0.0:
            raise InvalidArgumentError(f"slack must be nonnegative, got {self.slack!r}")
        if not self.tol > 0.0:
            raise InvalidArgumentError(f"tol must be positive, got {self.tol!r}")
        object.__setattr__(self, "abs_z_grid", grid)


@dataclass(frozen=True)
class AuditRecord:
    """One sweep sample: input point, |value|, envelope and the pass verdict.

    ``passed`` is equivalent to log|value| <= envelope_log + log1p(slack);
    a nonempty ``error`` marks an evaluation failure, excluded from pass
    statistics.
    """

    function_tag: str
    q: float
    l: float | None
    param_digest: str
    z: complex
    abs_value: float
    envelope_log: float
    ratio: float
    passed: bool
    terms_used: int
    tail_bound: float
    error: str = ""


@dataclass(frozen=True)
class AuditTarget:
    """A tagged function bundled with its envelope, ready for sweeping."""

    function_tag: str
    q: float
    l: float | None
    param_digest: str
    center: complex
    evaluate: Callable[[complex, float], EvalResult]
    envelope_log: Callable[[float], float]


def format_complex(value: complex) -> str:
    """Render a complex number as <re>[+|-]<im>i with full float precision."""
    value = complex(value)
    sign = "+" if value.imag >= 0 or math.isnan(value.imag) else "-"
    return f"{value.real!r}{sign}{abs(value.imag)!r}i"


def _digest_confluent(params: ConfluentParams) -> str:
    a = ",".join(format_complex(a) for a in params.a_list)
    b = ",".join(repr(b) for b in params.b_list)
    return f"a={a};b={b}"


def _entire_envelope_log(params: ConfluentParams) -> Callable[[float], float]:
    _, log_c, log_ql = bounds._entire_constants(params)
    offset = log_c - log_ql
    l, q = params.l, params.q
    return lambda abs_z: offset + bounds.term_peak(abs_z, l, q)


def audit_target(function_tag: str, fixed_params) -> AuditTarget:
    """Bundle a tagged function with its envelope for sweeping.

    ``fixed_params`` is tag-specific: ConfluentParams for "confluent_f",
    PhiParams for "phi", QBase for "aq", a (QBase, alpha) pair for "theta"
    and a LaurentSpec for "laurent".  The "aq" target evaluates the
    Gaussian-weight series itself, i.e. the entire function at -z of
    Ramanujan's normalization; its envelope depends on |z| only, so the sweep
    coverage is the same.

    ``evaluate`` is the method of a prepared series (GaussianSeries,
    ThetaSeries or LaurentSeries) that the target holds, so every point of a
    sweep reuses the z-independent term factors that earlier points
    tabulated.  The table lives and dies with the target and holds only what
    its evaluations needed, so a target used once pays nothing extra.
    """
    if function_tag == "confluent_f":
        params: ConfluentParams = fixed_params
        return AuditTarget(
            function_tag=function_tag,
            q=params.q.q,
            l=params.l,
            param_digest=f"{_digest_confluent(params)};l={params.l!r}",
            center=0.0 + 0.0j,
            evaluate=prepare_confluent_f(params).evaluate,
            envelope_log=_entire_envelope_log(params),
        )
    if function_tag == "phi":
        phi_params: PhiParams = fixed_params
        reduction = phi_to_f(phi_params)
        inner = _entire_envelope_log(reduction.params)
        scale = abs(reduction.scale)
        return AuditTarget(
            function_tag=function_tag,
            q=phi_params.q.q,
            l=reduction.params.l,
            param_digest=_digest_confluent(reduction.params),
            center=0.0 + 0.0j,
            evaluate=prepare_phi(phi_params).evaluate,
            envelope_log=lambda abs_z: inner(abs_z * scale),
        )
    if function_tag == "aq":
        qb: QBase = fixed_params
        aq_params = ConfluentParams(a_list=(), b_list=(), l=1.0, q=qb)
        return AuditTarget(
            function_tag=function_tag,
            q=qb.q,
            l=1.0,
            param_digest="",
            center=0.0 + 0.0j,
            evaluate=prepare_confluent_f(aq_params).evaluate,
            envelope_log=lambda abs_z: bounds.envelope_aq_gaussian(qb, abs_z).log_bound,
        )
    if function_tag == "theta":
        theta_q, alpha = fixed_params
        log_c = math.log(bounds._theta_constant(alpha, theta_q))
        merom = bounds._meromorphic_params(alpha, theta_q)
        return AuditTarget(
            function_tag=function_tag,
            q=theta_q.q,
            l=None,
            param_digest=f"alpha={float(alpha)!r}",
            center=0.0 + 0.0j,
            evaluate=ThetaSeries(theta_q).evaluate,
            envelope_log=lambda abs_z: log_c + merom.exponent(abs_z),
        )
    if function_tag == "laurent":
        spec: LaurentSpec = fixed_params
        merom = bounds._meromorphic_params(spec.alpha, spec.q)
        log_c = math.log(spec.c_weighted)
        return AuditTarget(
            function_tag=function_tag,
            q=spec.q.q,
            l=None,
            param_digest=f"alpha={spec.alpha!r};c_weighted={spec.c_weighted!r}",
            center=spec.center,
            evaluate=LaurentSeries(spec).evaluate,
            envelope_log=lambda dist: log_c + merom.exponent(dist),
        )
    raise InvalidArgumentError(f"unknown function tag {function_tag!r}; expected {FUNCTION_TAGS}")


def _ratio(result: EvalResult, envelope_log: float) -> tuple[float, float, float]:
    """(|value|, log|value|, clamped ratio) of a result against its envelope."""
    abs_value = abs(result.value)
    if abs_value == 0.0:
        return abs_value, -math.inf, 0.0
    log_value = math.log(abs_value)
    return abs_value, log_value, math.exp(min(log_value - envelope_log, bounds._MAX_LOG))


def _error_record(target: AuditTarget, z: complex, exc: QSeriesError) -> AuditRecord:
    return AuditRecord(
        function_tag=target.function_tag,
        q=target.q,
        l=target.l,
        param_digest=target.param_digest,
        z=z,
        abs_value=math.nan,
        envelope_log=math.nan,
        ratio=math.nan,
        passed=False,
        terms_used=0,
        tail_bound=math.nan,
        error=str(exc) or exc.__class__.__name__,
    )


def _records_at(
    target: AuditTarget,
    abs_z: float,
    units: tuple[complex, ...],
    tol: float,
    log_slack: float,
    records: list[AuditRecord],
) -> None:
    """Append the records of the target at abs_z times each unit, in order.

    Each point is evaluated first; an evaluation error is that record's
    error.  The envelope depends on |z| only, so it is computed once, when
    the first evaluation at this modulus succeeds, and an envelope error
    becomes the error of every record here whose evaluation succeeded.
    """
    envelope: float | QSeriesError | None = None
    for unit in units:
        z = target.center + abs_z * unit
        try:
            result = target.evaluate(z, tol)
        except QSeriesError as exc:
            records.append(_error_record(target, z, exc))
            continue
        if envelope is None:
            try:
                envelope = target.envelope_log(abs_z)
            except QSeriesError as exc:
                envelope = exc
        if isinstance(envelope, QSeriesError):
            records.append(_error_record(target, z, envelope))
            continue
        abs_value, log_value, ratio = _ratio(result, envelope)
        records.append(
            AuditRecord(
                function_tag=target.function_tag,
                q=target.q,
                l=target.l,
                param_digest=target.param_digest,
                z=z,
                abs_value=abs_value,
                envelope_log=envelope,
                ratio=ratio,
                passed=log_value <= envelope + log_slack,
                terms_used=result.terms_used,
                tail_bound=result.tail_bound,
            )
        )


def _unit(angle: float) -> complex:
    return complex(math.cos(angle), math.sin(angle))


def _draw_disk(rng: random.Random, radius: float) -> complex:
    r = radius * math.sqrt(rng.random())
    ang = rng.uniform(0.0, _TWO_PI)
    return complex(r * math.cos(ang), r * math.sin(ang))


def draw_confluent_params(rng: random.Random) -> ConfluentParams:
    """One random parameter set: q uniform on [0.05, 0.95], a_i on the disk
    |a| <= 2, b_j in [0, 0.95] and l from {0.5, 1, 1.5, 2.5}."""
    qb = QBase(rng.uniform(0.05, 0.95))
    r = rng.randint(0, 2)
    s = rng.randint(0, 3)
    a = tuple(_draw_disk(rng, 2.0) for _ in range(r))
    b = tuple(rng.uniform(0.0, 0.95) for _ in range(s))
    return ConfluentParams(a_list=a, b_list=b, l=rng.choice(L_CHOICES), q=qb)


def draw_phi_params(rng: random.Random) -> PhiParams:
    """One random confluent hypergeometric parameter set: q uniform on
    [0.05, 0.95], s + 1 - r from {1, 2, 3}, r <= 2, s <= 3, a_i on the disk
    |a| <= 2 and b_j in [0, 0.95]."""
    qb = QBase(rng.uniform(0.05, 0.95))
    m = rng.choice((1, 2, 3))
    r = rng.randint(0, min(2, 4 - m))
    s = r + m - 1
    a = tuple(_draw_disk(rng, 2.0) for _ in range(r))
    b = tuple(rng.uniform(0.0, 0.95) for _ in range(s))
    return PhiParams(a_list=a, b_list=b, q=qb)


def audit_envelope(
    plan: SweepPlan, function_tag: str, fixed_params=None
) -> list[AuditRecord]:
    """Run one sweep and return its records in plan order.

    With ``fixed_params`` set, the sweep walks the full grid x angle lattice
    and computes the envelope once per grid modulus, since it depends on |z|
    only: at the first angle whose evaluation succeeds, which is where a
    per-point audit would first compute it.  An evaluation error is its
    record's error; an envelope error is the error of every record at that
    modulus whose evaluation succeeded.
    With ``fixed_params=None`` (supported for "confluent_f" and "phi"), each
    of ``plan.parameter_draws`` records gets freshly drawn parameters, a
    modulus log-uniform between the grid extremes and a uniform angle.
    """
    log_slack = math.log1p(plan.slack)
    records: list[AuditRecord] = []
    if fixed_params is not None:
        target = audit_target(function_tag, fixed_params)
        units = tuple(_unit(_TWO_PI * j / plan.angle_count) for j in range(plan.angle_count))
        for abs_z in plan.abs_z_grid:
            _records_at(target, abs_z, units, plan.tol, log_slack, records)
        return records
    if function_tag not in ("confluent_f", "phi"):
        raise InvalidArgumentError(
            f"random parameter draws are only supported for confluent_f and phi, got {function_tag!r}"
        )
    rng = random.Random(plan.seed)
    lo, hi = min(plan.abs_z_grid), max(plan.abs_z_grid)
    llo, lhi = math.log(lo), math.log(hi)
    for _ in range(plan.parameter_draws):
        if function_tag == "confluent_f":
            params = draw_confluent_params(rng)
        else:
            params = draw_phi_params(rng)
        target = audit_target(function_tag, params)
        abs_z = math.exp(rng.uniform(llo, lhi))
        angle = rng.uniform(0.0, _TWO_PI)
        _records_at(target, abs_z, (_unit(angle),), plan.tol, log_slack, records)
    return records


def audit_summary(records: list[AuditRecord]) -> dict[str, int]:
    """Pass/fail/error counts; errored records do not enter pass statistics."""
    errors = sum(1 for r in records if r.error)
    clean_failures = sum(1 for r in records if not r.error and not r.passed)
    passed = len(records) - errors - clean_failures
    return {
        "records": len(records),
        "passed": passed,
        "failed": clean_failures,
        "errors": errors,
    }


def coarse_layout(budget: int, abs_z_range: tuple[float, float]):
    """Deterministic coarse grid for tightness_search: (radii, angles)."""
    lo, hi = abs_z_range
    if not (0.0 < lo < hi):
        raise InvalidArgumentError(f"need 0 < lo < hi, got {abs_z_range!r}")
    n_angles = 8 if budget >= 128 else 4 if budget >= 64 else 2
    n_radii = max(5, budget // (2 * n_angles))
    if n_radii % 2 == 0:
        n_radii += 1
    radii = log_grid(lo, hi, n_radii)
    angles = tuple(_TWO_PI * j / n_angles for j in range(n_angles))
    return radii, angles


def tightness_search(
    function_tag: str,
    fixed_params,
    abs_z_range: tuple[float, float],
    budget: int,
) -> tuple[float, float, float]:
    """Largest observed |value| / envelope ratio over moduli and angles.

    Each point is evaluated at DEFAULT_TOL, the default audit tolerance.

    A coarse log-grid scan locates the best cell, then golden-section
    refinement in log-modulus at the best angle spends the remaining budget.
    The incumbent only ever improves, so the returned ratio is at least the
    ratio at every coarse grid point.  Deterministic for a fixed budget.
    Returns (best_abs_z, best_angle, best_ratio).
    """
    if not isinstance(budget, int) or budget < 32:
        raise InvalidArgumentError(f"budget must be an integer >= 32, got {budget!r}")
    target = audit_target(function_tag, fixed_params)
    radii, angles = coarse_layout(budget, abs_z_range)

    def ratio_at(abs_z: float, angle: float) -> float:
        result = target.evaluate(target.center + abs_z * _unit(angle), DEFAULT_TOL)
        return _ratio(result, target.envelope_log(abs_z))[2]

    best_ratio = -1.0
    best_r = radii[0]
    best_angle = angles[0]
    for r in radii:
        for ang in angles:
            rho = ratio_at(r, ang)
            if rho > best_ratio:
                best_ratio, best_r, best_angle = rho, r, ang
    i = radii.index(best_r)
    a = math.log(radii[max(0, i - 1)])
    b = math.log(radii[min(len(radii) - 1, i + 1)])
    remaining = budget - len(radii) * len(angles)
    if remaining >= 2 and b > a:
        invphi = (math.sqrt(5.0) - 1.0) / 2.0

        def probe(x: float) -> float:
            nonlocal best_ratio, best_r
            f = ratio_at(math.exp(x), best_angle)
            if f > best_ratio:
                best_ratio, best_r = f, math.exp(x)
            return f

        x1, x2 = b - invphi * (b - a), a + invphi * (b - a)
        f1, f2 = probe(x1), probe(x2)
        remaining -= 2
        while remaining > 0:
            if f1 < f2:
                a, x1, f1 = x1, x2, f2
                x2 = a + invphi * (b - a)
                f2 = probe(x2)
            else:
                b, x2, f2 = x2, x1, f1
                x1 = b - invphi * (b - a)
                f1 = probe(x1)
            remaining -= 1
    return best_r, best_angle, best_ratio


_SERIES_DPS = 40
# A double, so no mpmath number is built at import: it equals mpmath's
# 53-bit mpf("1e-28") exactly, and the stop test scales it at _SERIES_DPS.
_SERIES_STOP = 1e-28
_SERIES_CAP = 200_000


def _series_sum_mp(multiplier: Callable[[int], "mp.mpc"], rho: Callable[[int], float]) -> complex:
    """Extended-precision sum of term_0 = 1, term_{k+1} = term_k multiplier(k).

    The series sides of the identities cancel catastrophically for negative
    arguments (terms grow far beyond the sum), so both the multipliers and
    the accumulation run at extended precision; the double-precision residual
    then reflects the identity and the product route, not summation noise.
    ``rho(k)`` must bound the term ratio for indices >= k, as in the
    double-precision evaluators.
    """
    import mpmath as mp

    term = mp.mpc(1)
    partial = mp.mpc(1)
    k = 0
    while k <= _SERIES_CAP:
        term = term * multiplier(k)
        if k >= 8:
            bound = rho(k)
            if bound < 1.0 and abs(term) / (1.0 - bound) <= _SERIES_STOP * max(
                mp.mpf(1), abs(partial)
            ):
                return complex(partial)
        partial += term
        k += 1
    raise NonConvergentError(f"identity series did not settle within {_SERIES_CAP} terms")


def _series_side_modulus(z: complex) -> float:
    """|z|, which the series side of an identity needs below 1."""
    try:
        abs_z = abs(z)
    except OverflowError:
        # Both parts finite, modulus beyond the double range.
        abs_z = math.inf
    if not abs_z < 1.0:
        raise InvalidArgumentError(f"the series side needs |z| < 1, got |z| = {abs_z!r}")
    return abs_z


def identity_euler(q: QBase, z: complex, tol: float) -> float:
    """Residual |(z;q)_inf sum_k z^k/(q;q)_k - 1| from two independent routes.

    Requires |z| < 1 so the series side converges.  The product side runs in
    doubles through pochhammer_infinite at the given tol; the series side in
    extended precision.
    """
    import mpmath as mp

    z = complex(z)
    abs_z = _series_side_modulus(z)
    product = pochhammer_infinite(z, q, tol).value
    qq = q.q
    with mp.workdps(_SERIES_DPS):
        z_mp = mp.mpc(z.real, z.imag)
        q_mp = mp.mpf(qq)
        series = _series_sum_mp(
            lambda k: z_mp / (1 - q_mp ** (k + 1)),
            lambda k: abs_z / (1.0 - qq ** (k + 1)),
        )
    return abs(product * series - 1.0)


def identity_qbinomial_theorem(a: complex, q: QBase, z: complex, tol: float) -> float:
    """Residual |(az;q)_inf/(z;q)_inf - sum_k (a;q)_k z^k/(q;q)_k|.

    Requires |z| < 1.  The series stop uses the sharpened term-ratio bound
    (1 + |a| q^K)|z| / (1 - q^{K+1}), which tends to |z| < 1.
    """
    import mpmath as mp

    a = complex(a)
    z = complex(z)
    abs_z = _series_side_modulus(z)
    lhs = pochhammer_infinite(a * z, q, tol).value / pochhammer_infinite(z, q, tol).value
    qq = q.q
    abs_a = abs(a)
    with mp.workdps(_SERIES_DPS):
        a_mp = mp.mpc(a.real, a.imag)
        z_mp = mp.mpc(z.real, z.imag)
        q_mp = mp.mpf(qq)
        series = _series_sum_mp(
            lambda k: (1 - a_mp * q_mp**k) * z_mp / (1 - q_mp ** (k + 1)),
            lambda k: (1.0 + abs_a * qq**k) * abs_z / (1.0 - qq ** (k + 1)),
        )
    return abs(lhs - series)


def identity_ql_sum(l: float, q: QBase, tol: float) -> float:
    """Residual of sum_k q^{kl}/(q;q)_k against 1/(q^l;q)_inf.

    This is the Euler identity at z = q^l, which lies in (0, 1) for every
    l > 0, so no extra precondition arises.
    """
    l = float(l)
    if not (math.isfinite(l) and l > 0.0):
        raise InvalidArgumentError(f"exponent must be positive, got {l!r}")
    return identity_euler(q, q.q**l, tol)


def identity_theta_triple_product(q: QBase, z: complex, tol: float) -> float:
    """Normalized residual of the theta sum against its triple-product form.

    Compares sum_k q^{k^2} z^k with (q^2;q^2)_inf (-zq;q^2)_inf (-q/z;q^2)_inf,
    an external cross-check on eval_theta; the residual is scaled by
    1 + |theta|.
    """
    z = complex(z)
    if z == 0:
        raise InvalidArgumentError("the theta sum requires a nonzero argument")
    theta = eval_theta(q, z, tol).value
    q2 = QBase(q.q * q.q)
    product = (
        pochhammer_infinite(q2.q, q2, tol).value
        * pochhammer_infinite(-z * q.q, q2, tol).value
        * pochhammer_infinite(-q.q / z, q2, tol).value
    )
    return abs(theta - product) / (1.0 + abs(theta))
