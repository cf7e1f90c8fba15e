"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Every tolerance is pinned here; nothing is deferred to calibration.  The
sweeps are deterministic (fixed seeds, fixed grids), so reruns are
reproducible bit for bit.
"""

import csv
import math
import random
import time

from qineq import (
    ConfluentParams,
    LaurentSpec,
    NonConvergentError,
    PhiParams,
    QBase,
    SweepPlan,
    audit_envelope,
    audit_summary,
    envelope_aq_gaussian,
    envelope_entire,
    eval_confluent_f,
    eval_laurent,
    eval_phi,
    eval_ramanujan_aq,
    eval_theta,
    identity_euler,
    identity_ql_sum,
    identity_qbinomial_theorem,
    identity_theta_triple_product,
    log_grid,
    meromorphic_bound_params,
    pochhammer_infinite,
    term_peak,
    theta_weighted_constant,
)
from qineq.cli import run
from qineq.verify import AUDIT_SLACK

import oracles
from reference_bounds import envelope_phi_routes

LOG_SLACK = math.log1p(1e-12)
TWO_PI = 2.0 * math.pi


def _report(number: int, name: str, ok: bool, detail: str, started: float) -> None:
    verdict = "PASS" if ok else "FAIL"
    elapsed = time.perf_counter() - started
    print(f"[criterion {number:02d}] {verdict} {name}: {detail} ({elapsed:.1f}s)")
    assert ok, f"criterion {number} failed: {detail}"


def _disk(rng: random.Random, radius: float) -> complex:
    r = radius * math.sqrt(rng.random())
    ang = rng.uniform(0.0, TWO_PI)
    return complex(r * math.cos(ang), r * math.sin(ang))


def _log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def _point(rng: random.Random, lo: float, hi: float) -> complex:
    ang = rng.uniform(0.0, TWO_PI)
    return _log_uniform(rng, lo, hi) * complex(math.cos(ang), math.sin(ang))


def test_criterion_01_entire_domination():
    started = time.perf_counter()
    # Records pass within the fixed audit slack of 1e-12.
    assert AUDIT_SLACK == 1e-12
    plan = SweepPlan(
        abs_z_grid=log_grid(1e-3, 1e3, 2),
        angle_count=1,
        parameter_draws=10_000,
        seed=20260808,
        tol=1e-14,
    )
    records = audit_envelope(plan, "confluent_f")
    summary = audit_summary(records)
    ok = summary["failed"] == 0 and summary["errors"] == 0 and summary["records"] == 10_000
    _report(1, "entire-class envelope domination", ok, f"{summary}", started)


def test_criterion_02_gaussian_specialization_equality():
    started = time.perf_counter()
    worst = 0.0
    grid = log_grid(1e-6, 1e6, 1000)
    for q in (0.1, 0.5, 0.9):
        base = QBase(q)
        params = ConfluentParams(a_list=(), b_list=(), l=1.0, q=base)
        for abs_z in grid:
            a = envelope_aq_gaussian(base, abs_z).log_bound
            b = envelope_entire(params, abs_z).log_bound
            worst = max(worst, abs(math.expm1(a - b)))
    _report(2, "Gaussian envelope specialization equality", worst <= 1e-13,
            f"max rel diff {worst:.3e} (gate 1e-13)", started)


def test_criterion_03_exponential_domination():
    started = time.perf_counter()
    rng = random.Random(3)
    violations = 0
    checked = 0
    for q in (0.3, 0.5, 0.7):
        base = QBase(q)
        for _ in range(1000):
            z = _disk(rng, 50.0)
            value = abs(eval_ramanujan_aq(base, z, 1e-14).value)
            cap = q * abs(z) / (1.0 - q) + LOG_SLACK
            checked += 1
            if value > 0.0 and math.log(value) > cap:
                violations += 1
    _report(3, "exponential envelope domination", violations == 0,
            f"{violations} violations over {checked} samples", started)


def test_criterion_04_term_peak_domination():
    started = time.perf_counter()
    rng = random.Random(4)
    worst_gap = -math.inf
    violations = 0
    for _ in range(500):
        abs_z = _log_uniform(rng, 1e-4, 1e4)
        l = rng.choice((0.5, 1.0, 1.5, 2.5))
        q = rng.uniform(0.05, 0.95)
        brute = oracles.peak_grid_max(abs_z, l, q, 60)
        closed = term_peak(abs_z, l, QBase(q))
        gap = brute - closed
        worst_gap = max(worst_gap, gap)
        if gap > 1e-12:
            violations += 1
    _report(4, "term-peak brute-force domination", violations == 0,
            f"worst log gap {worst_gap:.3e} (slack 1e-12)", started)


def test_criterion_05_phi_envelope_route_equality():
    started = time.perf_counter()
    rng = random.Random(5)
    worst = 0.0
    for _ in range(500):
        m = rng.choice((1, 2, 3))
        r = rng.randint(0, min(2, 4 - m))
        params = PhiParams(
            a_list=tuple(_disk(rng, 2.0) for _ in range(r)),
            b_list=tuple(rng.uniform(0.0, 0.95) for _ in range(r + m - 1)),
            q=QBase(rng.uniform(0.05, 0.95)),
        )
        abs_z = _log_uniform(rng, 1e-3, 1e3)
        direct, composed = envelope_phi_routes(params, abs_z)
        worst = max(worst, abs(math.expm1(direct.log_bound - composed.log_bound)))
    _report(5, "hypergeometric envelope route equality", worst <= 1e-12,
            f"max rel diff {worst:.3e} (gate 1e-12)", started)


def test_criterion_06_theta_domination():
    started = time.perf_counter()
    grid = log_grid(1e-4, 1e4, 41)
    total = 0
    failed = 0
    errored = 0
    for alpha in (0.25, 0.5, 0.75):
        for q in (0.1, 0.3, 0.6, 0.9):
            plan = SweepPlan(abs_z_grid=grid, angle_count=8, tol=1e-14)
            summary = audit_summary(audit_envelope(plan, "theta", (QBase(q), alpha)))
            total += summary["records"]
            failed += summary["failed"]
            errored += summary["errors"]
    ok = failed == 0 and errored == 0 and total == 3 * 4 * 41 * 8
    _report(6, "theta envelope domination", ok,
            f"{failed} violations, {errored} errors over {total} records", started)


def test_criterion_07_meromorphic_term_domination():
    started = time.perf_counter()
    rng = random.Random(7)
    violations = 0
    for _ in range(500):
        alpha = _log_uniform(rng, 0.05, 10.0)
        q = rng.uniform(0.05, 0.95)
        dist = _log_uniform(rng, 1e-3, 1e3)
        params = meromorphic_bound_params(alpha, QBase(q))
        cap = params.beta * abs(math.log(dist)) ** params.gamma + LOG_SLACK
        lq, ld = math.log(q), math.log(dist)
        for k in range(-40, 41):
            if abs(k) ** (alpha + 1.0) * lq + k * ld > cap:
                violations += 1
    _report(7, "weighted-power term domination", violations == 0,
            f"{violations} violations over 500 draws x 81 indices", started)


def test_criterion_08_identity_residuals():
    # Draw regions stay inside the preconditions with q <= 0.9, |z| <= 0.9;
    # the ratio identity residual is gated relative to the magnitude of the
    # compared quantities, which grow without bound near the q -> 1 corner.
    started = time.perf_counter()
    rng = random.Random(8)
    worst = {"euler": 0.0, "qbinomial": 0.0, "qlsum": 0.0, "triple": 0.0}
    for _ in range(1000):
        q = QBase(rng.uniform(0.05, 0.9))
        z = _disk(rng, 0.9)
        worst["euler"] = max(worst["euler"], identity_euler(q, z, 1e-14))

        a = _disk(rng, 2.0)
        scale = max(
            1.0,
            abs(
                pochhammer_infinite(a * z, q, 1e-14).value
                / pochhammer_infinite(z, q, 1e-14).value
            ),
        )
        worst["qbinomial"] = max(
            worst["qbinomial"], identity_qbinomial_theorem(a, q, z, 1e-14) / scale
        )

        worst["qlsum"] = max(
            worst["qlsum"], identity_ql_sum(rng.uniform(0.05, 8.0), q, 1e-14)
        )
    for _ in range(200):
        q = QBase(rng.uniform(0.05, 0.8))
        z = _point(rng, 0.2, 5.0)
        worst["triple"] = max(worst["triple"], identity_theta_triple_product(q, z, 1e-14))
    ok = all(v <= 1e-11 for v in worst.values())
    detail = ", ".join(f"{k} {v:.3e}" for k, v in worst.items())
    _report(8, "identity residuals", ok, f"worst residuals {detail} (gate 1e-11)", started)


def test_criterion_09_oracle_equivalence():
    started = time.perf_counter()
    rng = random.Random(9)
    worst = 0.0

    def gate(diff: float, scale: float) -> float:
        return diff / max(1.0, scale)

    for _ in range(500):
        q = rng.uniform(0.05, 0.95)
        params = ConfluentParams(
            a_list=tuple(_disk(rng, 2.0) for _ in range(rng.randint(0, 2))),
            b_list=tuple(rng.uniform(0.0, 0.95) for _ in range(rng.randint(0, 3))),
            l=rng.choice((0.5, 1.0, 1.5, 2.5)),
            q=QBase(q),
        )
        z = _point(rng, 1e-3, 1e3)
        got = eval_confluent_f(params, z, 1e-14)
        want, t_max = oracles.confluent_f_direct(
            params.a_list, params.b_list, params.l, q, z, 2 * got.terms_used
        )
        worst = max(worst, gate(abs(got.value - want), max(abs(want), t_max)))

    for _ in range(500):
        q = rng.uniform(0.05, 0.95)
        m = rng.choice((1, 2, 3))
        r = rng.randint(0, min(2, 4 - m))
        params = PhiParams(
            a_list=tuple(_disk(rng, 2.0) for _ in range(r)),
            b_list=tuple(rng.uniform(0.0, 0.95) for _ in range(r + m - 1)),
            q=QBase(q),
        )
        z = _point(rng, 1e-3, 1e3)
        got = eval_phi(params, z, 1e-14)
        want, t_max = oracles.phi_direct(params.a_list, params.b_list, q, z, 2 * got.terms_used)
        worst = max(worst, gate(abs(got.value - want), max(abs(want), t_max)))

    for _ in range(500):
        base = QBase(rng.uniform(0.05, 0.95))
        z = _point(rng, 1e-3, 1e3)
        got = eval_ramanujan_aq(base, z, 1e-14)
        want, t_max = oracles.confluent_f_direct((), (), 1.0, base.q, -z, 2 * got.terms_used)
        worst = max(worst, gate(abs(got.value - want), max(abs(want), t_max)))

    for _ in range(500):
        base = QBase(rng.uniform(0.05, 0.95))
        z = _point(rng, 1e-3, 1e3)
        got = eval_theta(base, z, 1e-14)
        k_used = (got.terms_used - 1) // 2
        want, t_max = oracles.theta_direct(base.q, z, 2 * k_used)
        worst = max(worst, gate(abs(got.value - want), max(abs(want), t_max)))

    for _ in range(500):
        q = rng.uniform(0.1, 0.9)
        base = QBase(q)
        alpha = rng.uniform(0.5, 0.9)
        spec = LaurentSpec(
            center=0.0,
            coeff=lambda k, qq=q: qq ** (k * k),
            alpha=alpha,
            q=base,
            c_weighted=theta_weighted_constant(alpha, base, 1e-15),
        )
        z = _point(rng, 0.05, 20.0)
        got = eval_laurent(spec, z, 1e-14)
        k_used = (got.terms_used - 1) // 2
        want, t_max = oracles.laurent_direct(spec.coeff, 0.0, z, 2 * k_used)
        worst = max(worst, gate(abs(got.value - want), max(abs(want), t_max)))

    _report(9, "oracle equivalence at doubled depth", worst <= 1e-12,
            f"max scaled diff {worst:.3e} (gate 1e-12)", started)


def test_criterion_11_theta_values_near_q_one():
    # Theta's values against a direct sum in decimal arithmetic: 250 draws
    # per q, with |z| = e^U(-8, 8), alternately on the negative real axis and
    # at a uniform angle.  The direct sum in doubles was wrong, by the gates
    # below, in about half of these draws at q >= 0.9.  Where the oracle's
    # |theta| is beyond the doubles, or the direct sum's largest term is
    # above e^711, eval_theta must raise its overflow error.  Off the axis
    # the gate is 1e-12 max(1, |theta|).  On the axis, where theta has its
    # zeros and log|z| is itself rounded, it is
    # 1e-12 max(1, |theta|, largest term of the transformed sum).
    started = time.perf_counter()
    rng = random.Random(3)
    qs = (0.5, 0.9, 0.95, 0.99)
    worst = {(q, on_axis): 0.0 for q in qs for on_axis in (True, False)}
    raised = 0
    for i in range(4 * 250):
        q = qs[i % 4]
        on_axis = i // 4 % 2 == 0
        modulus = math.exp(rng.uniform(-8.0, 8.0))
        if on_axis:
            z = complex(-modulus, 0.0)
        else:
            ang = rng.uniform(0.0, TWO_PI)
            z = modulus * complex(math.cos(ang), math.sin(ang))
        theta = oracles.theta_accurate(q, z)
        overflow = theta is None or oracles.theta_log_peak(q, z) > 711.0
        try:
            got = eval_theta(QBase(q), z, 1e-14).value
        except NonConvergentError as exc:
            assert overflow and str(exc) == "theta sum overflowed the double range", (q, z)
            raised += 1
            continue
        assert not overflow, (q, z, got)
        scale = max(1.0, abs(theta))
        if on_axis:
            scale = max(scale, oracles.theta_transformed_peak(q, z))
        worst[q, on_axis] = max(worst[q, on_axis], abs(got - theta) / scale)

    # The reproducers of the direct sum's wrong values, with their true values.
    for q, x, want in ((0.99, -50.0, -6.71e59), (0.99, -3.0, -4.34e-93),
                       (0.95, -7.3, -1.75e-12), (0.9, -1e6, 7.09054e186)):
        got = eval_theta(QBase(q), x, 1e-14).value
        theta = oracles.theta_accurate(q, x, floor=1e-100)
        assert math.isclose(theta.real, want, rel_tol=5e-3 if q > 0.9 else 1e-6), (q, x, theta)
        scale = max(1.0, abs(theta), oracles.theta_transformed_peak(q, x))
        worst[q, True] = max(worst[q, True], abs(got - theta) / scale)

    detail = ", ".join(f"q={q} {'axis' if on_axis else 'angle'} {err:.1e}"
                       for (q, on_axis), err in worst.items())
    _report(11, "theta values near q = 1", max(worst.values()) <= 1e-12 and raised > 0,
            f"worst scaled errors {detail}; {raised} overflows (gate 1e-12)", started)


def test_criterion_10_audit_determinism(tmp_path):
    started = time.perf_counter()
    pairs = []
    for stem, argv in (
        ("theta", ["audit", "--function", "theta", "--q", "0.3", "--alpha", "0.5",
                   "--grid", "1e-3:1e3:11", "--angles", "4"]),
        ("draws", ["audit", "--function", "f", "--q", "0.5",
                   "--grid", "1e-3:1e3:2", "--angles", "1", "--draws", "200",
                   "--seed", "11"]),
    ):
        first = tmp_path / f"{stem}_a.csv"
        second = tmp_path / f"{stem}_b.csv"
        assert run(argv + ["--out", str(first)]) == 0
        assert run(argv + ["--out", str(second)]) == 0
        pairs.append(first.read_bytes() == second.read_bytes())
    _report(10, "audit byte determinism", all(pairs),
            f"{sum(pairs)}/2 reruns byte-identical", started)
