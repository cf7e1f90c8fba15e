"""Sweep harness, identity oracles and tightness search for the envelopes.

An audit walks a deterministic set of complex points, evaluates the tagged
function at each and its envelope once per modulus, and emits one record per
point with the ratio |value| / envelope computed in log space.  Every proved
envelope must dominate, so all-pass is the expected outcome; failures are
collected rather than raised, and records whose evaluation errored are
marked and excluded from pass statistics.

Records are produced in plan order, so output is reproducible byte for byte
for a fixed seed.

Only _series_sum_mp, the extended-precision series side of identity_euler
and identity_qbinomial_theorem, imports mpmath, when it is called; importing
this module, the package or the CLI does not load it.  It leaves mpmath's
context alone; its docstring maps its mpmath.libmp calls.  Its one memo,
_power_memo, holds the 136-bit powers of q of the last base it was called at,
at most _POWER_ROWS rows of one base (about 0.3 MB); it starts empty and
changes no bit of any sum.
"""

from __future__ import annotations

import math
import random
from typing import Callable, NamedTuple

from . import bounds, qcore
from .errors import InvalidArgumentError, NonConvergentError, QSeriesError
from .qcore import FrozenValue, QBase, _modulus, _new_tuple, _q_power, _require_pos_tol
from .qcore import pochhammer_infinite
from .series import (
    ConfluentParams,
    EvalResult,
    LaurentSeries,
    LaurentSpec,
    PhiParams,
    ThetaSeries,
    _parameter_lists,
    eval_confluent_f,
    eval_laurent,
    eval_phi,
    eval_theta,
    prepare_confluent_f,
    prepare_phi,
)

# Audits evaluate through prepared series, so eval_confluent_f, eval_phi and
# eval_laurent are not called here; perfbench/tracing.py rebinds all four
# eval_* names in this module and needs them to stay importable.

__all__ = [
    "SweepPlan", "AuditRecord", "AuditTarget", "audit_target", "audit_envelope", "audit_summary",
    "tightness_search", "draw_confluent_params", "draw_phi_params", "format_complex", "log_grid",
    "identity_euler", "identity_qbinomial_theorem", "identity_ql_sum",
    "identity_theta_triple_product",
]

FUNCTION_TAGS = ("confluent_f", "phi", "aq", "theta", "laurent")
DEFAULT_TOL = 1e-14
# The slack of the pass test, for the rounding of the two logs it compares.
AUDIT_SLACK = 1e-12
_LOG_SLACK = math.log1p(AUDIT_SLACK)
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


class SweepPlan(FrozenValue):
    """Deterministic description of one audit sweep.

    Identical plans (including the seed) produce identical record lists in
    identical order.
    """

    __slots__ = _fields = ("abs_z_grid", "angle_count", "parameter_draws", "seed", "tol")

    def __init__(self, abs_z_grid: tuple[float, ...], angle_count: int, parameter_draws: int = 0,
                 seed: int = 0, tol: float = DEFAULT_TOL) -> None:
        grid = tuple(float(r) for r in abs_z_grid)
        if not grid or any(not (math.isfinite(r) and r > 0.0) for r in grid):
            raise InvalidArgumentError("abs_z_grid must be a nonempty tuple of positive moduli")
        if not isinstance(angle_count, int) or angle_count < 1:
            raise InvalidArgumentError(f"angle_count must be >= 1, got {angle_count!r}")
        if not isinstance(parameter_draws, int) or parameter_draws < 0:
            raise InvalidArgumentError("parameter_draws must be a nonnegative integer")
        _require_pos_tol(tol)
        self._set_fields(grid, angle_count, parameter_draws, seed, tol)


class AuditRecord(NamedTuple):
    """One sweep sample: input point, |value|, envelope and the pass verdict.

    ``passed`` is equivalent to log|value| <= envelope_log + log1p(AUDIT_SLACK);
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


class AuditTarget(NamedTuple):
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


def _digest_confluent(params: ConfluentParams | PhiParams) -> str:
    a = ",".join(format_complex(a) for a in params.a_list)
    b = ",".join(repr(b) for b in params.b_list)
    return f"a={a};b={b}"


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

    ``envelope_log`` is the log_bound method of the prepared envelope that the
    public envelope keeps on the parameter object, built and kept here if it
    is not kept yet, so a build error is raised here for every tag.
    """
    center = 0.0 + 0.0j
    if function_tag == "confluent_f":
        params: ConfluentParams = fixed_params
        q, l, digest = params.q.q, params.l, f"{_digest_confluent(params)};l={params.l!r}"
        evaluate = prepare_confluent_f(params).evaluate
        envelope_log = (params._envelope or bounds._entire_constants(params)).log_bound
    elif function_tag == "phi":
        phi_params: PhiParams = fixed_params
        envelope = phi_params._envelope or bounds._phi_constants(phi_params)
        q, l, digest = phi_params.q.q, envelope.l, _digest_confluent(phi_params)
        evaluate, envelope_log = prepare_phi(phi_params).evaluate, envelope.log_bound
    elif function_tag == "aq":
        qb: QBase = fixed_params
        envelope_log = (qb._aq_envelope or bounds._aq_constant(qb)).log_bound
        q, l, digest = qb.q, 1.0, ""
        evaluate = prepare_confluent_f(ConfluentParams((), (), 1.0, qb)).evaluate
    elif function_tag == "theta":
        theta_q, alpha = fixed_params
        envelope = theta_q._theta_envelopes.get(alpha) or bounds._theta_constant(alpha, theta_q)
        q, l, digest = theta_q.q, None, f"alpha={float(alpha)!r}"
        evaluate, envelope_log = ThetaSeries(theta_q).evaluate, envelope.log_bound
    elif function_tag == "laurent":
        spec: LaurentSpec = fixed_params
        shape = bounds.meromorphic_bound_params(spec.alpha, spec.q)
        envelope_log = bounds._meromorphic_constants(shape, spec.c_weighted).log_bound
        q, l, digest = spec.q.q, None, f"alpha={spec.alpha!r};c_weighted={spec.c_weighted!r}"
        center, evaluate = spec.center, LaurentSeries(spec).evaluate
    else:
        raise InvalidArgumentError(f"unknown function tag {function_tag!r}; expected {FUNCTION_TAGS}")
    return _new_tuple(AuditTarget, (function_tag, q, l, digest, center, evaluate, envelope_log))


def _error_record(target: AuditTarget, z: complex, exc: QSeriesError) -> AuditRecord:
    return _new_tuple(AuditRecord, (
        target.function_tag, target.q, target.l, target.param_digest, z,
        math.nan, math.nan, math.nan, False, 0, math.nan, str(exc) or exc.__class__.__name__,
    ))


def _records_at(
    target: AuditTarget,
    abs_z: float,
    units: tuple[complex, ...],
    tol: float,
    records: list[AuditRecord],
) -> None:
    """Append the records of the target at abs_z times each unit, in order.

    Each point is evaluated first; an evaluation error is that record's
    error.  The envelope depends on |z| only, so it is computed once, when
    the first evaluation at this modulus succeeds, and an envelope error
    becomes the error of every record here whose evaluation succeeded.
    """
    function_tag, q, l, digest, center, evaluate, envelope_log = target
    envelope: float | QSeriesError | None = None
    for unit in units:
        z = center + abs_z * unit
        try:
            result = evaluate(z, tol)
        except QSeriesError as exc:
            records.append(_error_record(target, z, exc))
            continue
        if envelope is None:
            try:
                envelope = envelope_log(abs_z)
            except QSeriesError as exc:
                envelope = exc
            else:
                pass_log = envelope + _LOG_SLACK
        if isinstance(envelope, QSeriesError):
            records.append(_error_record(target, z, envelope))
            continue
        abs_value = abs(result.value)
        if abs_value == 0.0:
            log_value, ratio = -math.inf, 0.0
        else:
            log_value = math.log(abs_value)
            ratio = math.exp(min(log_value - envelope, bounds._MAX_LOG))
        records.append(
            _new_tuple(AuditRecord, (
                function_tag, q, l, digest, z, abs_value, envelope, ratio,
                log_value <= pass_log, result.terms_used, result.tail_bound, "",
            ))
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
    records: list[AuditRecord] = []
    if fixed_params is not None:
        target = audit_target(function_tag, fixed_params)
        units = tuple(_unit(_TWO_PI * j / plan.angle_count) for j in range(plan.angle_count))
        for abs_z in plan.abs_z_grid:
            _records_at(target, abs_z, units, plan.tol, records)
        return records
    draw = {"confluent_f": draw_confluent_params, "phi": draw_phi_params}.get(function_tag)
    if draw is None:
        raise InvalidArgumentError(
            f"random parameter draws are only supported for confluent_f and phi, got {function_tag!r}"
        )
    rng = random.Random(plan.seed)
    lo, hi = min(plan.abs_z_grid), max(plan.abs_z_grid)
    llo, lhi = math.log(lo), math.log(hi)
    for _ in range(plan.parameter_draws):
        target = audit_target(function_tag, draw(rng))
        abs_z = math.exp(rng.uniform(llo, lhi))
        angle = rng.uniform(0.0, _TWO_PI)
        _records_at(target, abs_z, (_unit(angle),), plan.tol, records)
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

    Each point is scored as audit_envelope scores it, at DEFAULT_TOL, the
    default audit tolerance.  A point whose evaluation or envelope raises,
    which an audit marks an error record, is skipped; with no evaluable
    point the search returns (lo, 0.0, -1.0).

    A coarse log-grid scan locates the best cell, then golden-section
    refinement in log-modulus at the best angle spends the remaining budget.
    The incumbent only ever improves, so the returned ratio is at least the
    ratio at every evaluable coarse grid point.  Deterministic for a fixed
    budget.  Returns (best_abs_z, best_angle, best_ratio).
    """
    if not isinstance(budget, int) or budget < 32:
        raise InvalidArgumentError(f"budget must be an integer >= 32, got {budget!r}")
    target = audit_target(function_tag, fixed_params)
    radii, angles = coarse_layout(budget, abs_z_range)
    units = tuple(map(_unit, angles))
    # An error record's ratio is nan, which no comparison below adopts.
    best_ratio = -1.0
    best_r = radii[0]
    best_angle = angles[0]
    records: list[AuditRecord] = []
    for r in radii:
        _records_at(target, r, units, DEFAULT_TOL, records)
        for ang, record in zip(angles, records[-len(angles):]):
            if record.ratio > best_ratio:
                best_ratio, best_r, best_angle = record.ratio, r, ang
    i = radii.index(best_r)
    a = math.log(radii[max(0, i - 1)])
    b = math.log(radii[min(len(radii) - 1, i + 1)])
    remaining = budget - len(radii) * len(angles)
    if remaining >= 2 and b > a:
        invphi = (math.sqrt(5.0) - 1.0) / 2.0
        best_unit = (_unit(best_angle),)

        def probe(x: float) -> float:
            nonlocal best_ratio, best_r
            _records_at(target, math.exp(x), best_unit, DEFAULT_TOL, records)
            f = records[-1].ratio
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
# Guard bits of the carried powers of q, and the float screen's margins on
# |term| and |partial| (see _series_sum_mp).
_SERIES_GUARD = 64
_SCREEN_LOW = 1.0 - 2.0**-50
_SCREEN_HIGH = 1.0 + 2.0**-50
# _series_sum_mp's memo of its last base's powers (see its docstring):
# (q, q^k for k < n, 1 - q^{k+1} for k < n, the wide q^n), n <= _POWER_ROWS.
_POWER_ROWS = 1024
_NO_POWERS = (None, (), (), None)
_power_memo = _NO_POWERS


def _series_sum_mp(
    z: complex, abs_z: float, q: float, a: complex | None = None
) -> tuple[complex, int]:
    """Extended-precision sum_k (a;q)_k z^k / (q;q)_k and the index it stopped at.

    term_0 = 1 and term_{k+1} = term_k (1 - a q^k) z / (1 - q^{k+1}); with
    ``a=None`` the factor 1 - a q^k is not formed, which gives Euler's
    sum_k z^k / (q;q)_k.  The series sides of the identities cancel
    catastrophically for negative arguments (terms grow far beyond the sum),
    so the terms and the accumulation run at _SERIES_DPS digits; the
    double-precision residual then reflects the identity and the product
    route, not summation noise.

    The arithmetic is mpmath's, on its raw tuples: each step is the
    ``mpmath.libmp`` call that the mpc/mpf expression of the per-term loop
    (tests/reference_verify.py) makes, at prec = dps_to_prec(_SERIES_DPS) =
    136 bits and round_nearest.  1 - q^{k+1} is mpf_sub; the recurrence is
    mpc_div_mpf, mpc_mul and mpc_add; 1 - a q^k is mpc_mul_mpf, then mpc_sub
    from (1, 0); the exact stop test is mpc_abs, then mpf_div and mpf_mul
    against from_float of the doubles, compared by mpf_le; a carried power
    is read at 136 bits by normalize, as mp.mpf reads a tuple; the sum is
    returned by mpc_to_complex.  No mpmath number is built per term and the
    precision is an argument of every call, so the kernel neither reads nor
    sets mpmath's context: a caller's mp.prec stays as it was, and another
    thread using mpmath sees no change while a residual is computed.

    q^k and q^{k+1} are carried from one term to the next: q^{k+1} as a
    product rounded to _SERIES_GUARD bits beyond _SERIES_DPS digits, which
    each term reads rounded to _SERIES_DPS digits.  mpmath's ``q**n`` is
    the rounding of the exact power (for n >= 19, of a binary powering at
    4 log2(n) + 4 guard bits), so the two differ only where the exact power
    lies within about k 2^-_SERIES_GUARD ulp of a rounding midpoint.
    Without the guard bits the rounding errors of the powers add up: they
    moved a sum that cancels to 1e-32 of its largest term in its seventh
    digit.

    Those rows are kept for the last base, since an identity check evaluates
    several series at one q.  _power_memo is one tuple (q, powers,
    denominators, wide): for k below n <= _POWER_ROWS, powers[k] is the
    136-bit q^k (the normalize of the carried wide power) and
    denominators[k] the 136-bit 1 - q^{k+1}; wide is the carried q^n behind
    the last row.  A call at the memo's q reads the rows below n and carries
    the power on from wide; a call at another q first empties the memo, so
    the old rows can be freed before it makes its own, and the memo never
    holds two bases' rows.  A call that made rows below the cap publishes
    copies extended by them in one assignment, and a published tuple is
    never changed, so a call holds consistent rows whatever another thread
    publishes meanwhile.  Rows past the cap are made and dropped; at the cap
    the memo takes about 0.3 MB.  No bit can change: every row is the
    mpf_mul, normalize or mpf_sub of the same arguments as in a call with an
    empty memo, whose wide power starts at 1 (1 times q is q's own tuple), so
    the rows, sums and stop indices are that call's.

    From k = 8 on, with rho = (1 + |a| q^k) |z| / (1 - q^{k+1}) (|a| = 0 for
    a=None) in doubles, which bounds the term ratio for indices >= k, the sum
    stops before adding term_{k+1} at the first k where rho < 1 and the
    exact test |term_{k+1}| / d <= _SERIES_STOP max(1, |partial|) holds at
    _SERIES_DPS digits, d = 1 - rho in doubles; it returns (partial, k).

    The exact test runs only where a float screen says it can pass.  The
    screen compares t = max(|tr|, |ti|) (1 - 2^-50) / d with
    p = _SERIES_STOP max(1, (|pr| + |pi|) (1 + 2^-50)), where tr, ti, pr, pi
    are the doubles nearest the parts of term_{k+1} and of the partial sum,
    and it never skips an index where the exact test passes.  With
    u = 2^-53: where the parts are normal doubles, max(|tr|, |ti|) <=
    |term| (1 + u) and |pr| + |pi| >= |partial| (1 - u)^2, and each float
    operation adds at most a factor 1 + u, so t <= (1 - 2^-50)(1 + u)^3
    |term| / d < (1 - 4u) |term| / d, while p >= _SERIES_STOP max(1,
    |partial|) (1 + 4u) where the max takes the partial and p is exactly
    _SERIES_STOP where it takes 1.  The exact test rounds four times at 136
    bits, so where it passes |term| / d <= _SERIES_STOP max(1, |partial|)
    (1 + 2^-133), and then t <= p.  A subnormal part of the term gives t
    below 2^-968 (d >= 2^-53), far under _SERIES_STOP; a subnormal part of
    the partial sum matters only where |partial| < 1, where p is
    _SERIES_STOP.  A part beyond the doubles is infinite: t = inf skips only
    where p is finite, and |term| / d is then beyond the doubles too, so the
    exact test fails; p = inf never skips.

    The screen reads moduli only, so each of its doubles is
    math.ldexp(man, exp) of a part (sign, man, exp, bc), with an
    OverflowError read as inf.  That is |to_float(part, False, round_nearest)|,
    subnormals included: the int-to-float conversion rounds man to 53 bits,
    to nearest with ties to even, as to_float's normalize does, and ldexp then
    rounds the same real number once more only below the normal doubles.  (A
    gmpy integer backend may truncate instead; the screen's 2^-50 margins
    cover that second ulp, so it still never skips a passing index.)
    """
    global _power_memo
    from mpmath.libmp import (
        dps_to_prec, fone, from_float, fzero, mpc_abs, mpc_add, mpc_div_mpf, mpc_mul,
        mpc_mul_mpf, mpc_sub, mpc_to_complex, mpf_div, mpf_gt, mpf_le, mpf_mul, mpf_sub,
        normalize, round_nearest,
    )

    prec, rnd = dps_to_prec(_SERIES_DPS), round_nearest
    wide = prec + _SERIES_GUARD
    abs_a = 0.0 if a is None else abs(a)
    z_raw = (from_float(z.real), from_float(z.imag))
    a_raw = None if a is None else (from_float(a.real), from_float(a.imag))
    stop = from_float(_SERIES_STOP)
    one = term = partial = (fone, fzero)
    q_raw = from_float(q)
    memo = _power_memo
    if memo[0] != q:
        _power_memo = _NO_POWERS
        memo = (q, (), (), fone)
    _, powers, denominators, q_wide = memo
    rows = len(denominators)
    q_k1 = normalize(*q_wide, prec, rnd)
    made_powers, made_denominators = [], []
    ldexp, inf = math.ldexp, math.inf
    k = 0
    while k <= _SERIES_CAP:
        if k < rows:
            q_k, denominator = powers[k], denominators[k]
        else:
            q_k, q_wide = q_k1, mpf_mul(q_wide, q_raw, wide, rnd)
            q_k1 = normalize(*q_wide, prec, rnd)
            denominator = mpf_sub(fone, q_k1, prec, rnd)
            if k < _POWER_ROWS:
                made_powers.append(q_k)
                made_denominators.append(denominator)
                memo_wide = q_wide
        if a_raw is None:
            ratio = mpc_div_mpf(z_raw, denominator, prec, rnd)
        else:
            factor = mpc_mul(
                mpc_sub(one, mpc_mul_mpf(a_raw, q_k, prec, rnd), prec, rnd), z_raw, prec, rnd
            )
            ratio = mpc_div_mpf(factor, denominator, prec, rnd)
        term = mpc_mul(term, ratio, prec, rnd)
        if k >= 8:
            bound = (1.0 + abs_a * q**k) * abs_z / (1.0 - q ** (k + 1))
            if bound < 1.0:
                d = 1.0 - bound
                (tr, ti), (pr, pi) = term, partial
                try:
                    t = max(ldexp(tr[1], tr[2]), ldexp(ti[1], ti[2])) * _SCREEN_LOW / d
                except OverflowError:
                    t = inf
                try:
                    p = ldexp(pr[1], pr[2]) + ldexp(pi[1], pi[2])
                except OverflowError:
                    p = inf
                if t <= _SERIES_STOP * max(1.0, p * _SCREEN_HIGH):
                    size = mpc_abs(partial, prec, rnd)
                    if mpf_le(
                        mpf_div(mpc_abs(term, prec, rnd), from_float(d), prec, rnd),
                        mpf_mul(size if mpf_gt(size, fone) else fone, stop, prec, rnd),
                    ):
                        break
        partial = mpc_add(partial, term, prec, rnd)
        k += 1
    if made_powers:
        _power_memo = (
            q, powers + tuple(made_powers), denominators + tuple(made_denominators), memo_wide
        )
    if k > _SERIES_CAP:
        raise NonConvergentError(f"identity series did not settle within {_SERIES_CAP} terms")
    return mpc_to_complex(partial, False, rnd), k


def _series_side_modulus(z: complex) -> float:
    """|z|, which the series side of an identity needs below 1."""
    abs_z = _modulus(z)
    if not abs_z < 1.0:
        raise InvalidArgumentError(f"the series side needs |z| < 1, got |z| = {abs_z!r}")
    return abs_z


def _residual(difference: complex, product: complex, series: complex) -> float:
    """|difference|, or NonConvergentError naming both sides where it is not a finite double."""
    residual = _modulus(difference)
    if not residual < math.inf:
        raise NonConvergentError(
            f"identity residual is not a finite double: product {product!r}, series {series!r}"
        )
    return residual


def identity_euler(q: QBase, z: complex, tol: float) -> float:
    """Residual |(z;q)_inf sum_k z^k/(q;q)_k - 1| from two independent routes.

    Requires |z| < 1 so the series side converges.  The product side runs in
    doubles through pochhammer_infinite at the given tol; the series side in
    extended precision.  A residual that is not a finite double, as where the
    product underflows and the series overflows near q = 1, raises
    NonConvergentError.
    """
    return _euler_residual(q, z, tol)


def _euler_residual(q: QBase, z: complex, tol: float) -> float:
    """identity_euler's body.  identity_ql_sum calls it, not the public
    name, so a wrapper bound to verify.identity_euler (perfbench/tracing.py
    binds one) counts the Euler residuals alone."""
    z = complex(z)
    abs_z = _series_side_modulus(z)
    product = pochhammer_infinite(z, q, tol).value
    series = _series_sum_mp(z, abs_z, q.q)[0]
    return _residual(product * series - 1.0, product, series)


def identity_qbinomial_theorem(a: complex, q: QBase, z: complex, tol: float) -> float:
    """Residual |(az;q)_inf/(z;q)_inf - sum_k (a;q)_k z^k/(q;q)_k|.

    Requires |z| < 1 and a finite |a|.  The series stop uses the sharpened
    term-ratio bound (1 + |a| q^K)|z| / (1 - q^{K+1}), which tends to |z| < 1.
    A (z;q)_inf that underflows to 0, and a residual that is not a finite
    double, raise NonConvergentError.
    """
    a = complex(a)
    z = complex(z)
    abs_z = _series_side_modulus(z)
    _parameter_lists((a,), ())
    numerator = pochhammer_infinite(a * z, q, tol).value
    denominator = pochhammer_infinite(z, q, tol).value
    if not denominator:
        raise NonConvergentError(f"(z;q)_inf underflows to 0 at q = {q.q!r}, z = {z!r}")
    lhs = numerator / denominator
    series = _series_sum_mp(z, abs_z, q.q, a)[0]
    return _residual(lhs - series, lhs, series)


def identity_ql_sum(l: float, q: QBase, tol: float) -> float:
    """Residual of sum_k q^{kl}/(q;q)_k against 1/(q^l;q)_inf.

    This is the Euler identity at z = q^l, which lies in (0, 1) for every
    l > 0; an l so small that q^l rounds to 1 raises InvalidArgumentError,
    with the text of the entire envelope's check.
    """
    l = float(l)
    if not (math.isfinite(l) and l > 0.0):
        raise InvalidArgumentError(f"exponent must be positive, got {l!r}")
    return _euler_residual(q, _q_power(q, l), tol)


def identity_theta_triple_product(q: QBase, z: complex, tol: float) -> float:
    """Normalized residual of the theta sum against its triple-product form.

    Compares sum_k q^{k^2} z^k with (q^2;q^2)_inf (-zq;q^2)_inf (-q/z;q^2)_inf,
    an external cross-check on eval_theta; the residual is scaled by
    1 + |theta|.  A q so small that q^2 underflows to 0 raises
    InvalidArgumentError.
    """
    z = complex(z)
    if z == 0:
        raise InvalidArgumentError("the theta sum requires a nonzero argument")
    theta = eval_theta(q, z, tol).value
    if q.q * q.q == 0.0:
        raise InvalidArgumentError(f"q^2 underflows to 0 at q = {q.q!r}")
    q2 = QBase(q.q * q.q)
    # Looked up on qcore per call, where perfbench/tracing.py binds its wrapper.
    product = qcore.multishifted((q2.q, -z * q.q, -q.q / z), q2, math.inf, tol).value
    return _residual(theta - product, product, theta) / (1.0 + abs(theta))
