import functools
import gc
import io
import math
import random
import sys
import threading

import pytest

from qineq import (
    ConfluentParams,
    InvalidArgumentError,
    LaurentSpec,
    NonConvergentError,
    PhiParams,
    QBase,
    SweepPlan,
    audit_envelope,
    audit_summary,
    audit_target,
    draw_confluent_params,
    draw_phi_params,
    eval_theta,
    identity_euler,
    identity_ql_sum,
    identity_qbinomial_theorem,
    identity_theta_triple_product,
    log_grid,
    theta_weighted_constant,
    tightness_search,
)
from qineq import bounds, qcore, verify
from qineq.cli import _write_csv, run
from qineq.series import LAURENT_K_CAP
from qineq.verify import coarse_layout

import oracles
import reference_verify


def _constant_spec(c_weighted=1.0):
    return LaurentSpec(
        center=0.0,
        coeff=lambda k: 1.0 if k == 0 else 0.0,
        alpha=1.0,
        q=QBase(1.0 / math.e),
        c_weighted=c_weighted,
    )


class TestLogGrid:
    def test_endpoints_exact(self):
        grid = log_grid(1e-4, 1e4, 41)
        assert len(grid) == 41
        assert grid[0] == 1e-4
        assert grid[-1] == 1e4

    def test_single_point(self):
        assert log_grid(2.0, 5.0, 1) == (2.0,)

    def test_rejects_bad_range(self):
        with pytest.raises(InvalidArgumentError):
            log_grid(0.0, 1.0, 5)
        with pytest.raises(InvalidArgumentError):
            log_grid(1.0, 2.0, 0)


class TestAuditEnvelope:
    def test_degenerate_single_point(self):
        plan = SweepPlan(abs_z_grid=(1.0,), angle_count=1)
        records = audit_envelope(plan, "aq", QBase(0.5))
        assert len(records) == 1
        rec = records[0]
        assert rec.passed
        assert math.isclose(rec.ratio, oracles.RATIO_AQ_HALF_AT_ONE, rel_tol=1e-9)
        assert rec.l == 1.0
        assert rec.param_digest == ""

    def test_aq_default_sweep_all_pass(self):
        plan = SweepPlan(abs_z_grid=log_grid(1e-4, 1e4, 41), angle_count=8)
        records = audit_envelope(plan, "aq", QBase(0.5))
        assert len(records) == 328
        summary = audit_summary(records)
        assert summary == {"records": 328, "passed": 328, "failed": 0, "errors": 0}

    def test_theta_sweep_all_pass(self):
        plan = SweepPlan(abs_z_grid=log_grid(1e-4, 1e4, 41), angle_count=8)
        records = audit_envelope(plan, "theta", (QBase(0.3), 0.5))
        assert audit_summary(records)["failed"] == 0
        assert audit_summary(records)["errors"] == 0
        assert all(r.l is None for r in records)

    def test_confluent_fixed_sweep(self):
        plan = SweepPlan(abs_z_grid=log_grid(1e-2, 1e2, 11), angle_count=4)
        params = draw_confluent_params(__import__("random").Random(3))
        records = audit_envelope(plan, "confluent_f", params)
        assert len(records) == 44
        assert audit_summary(records)["failed"] == 0
        assert all(r.param_digest.endswith(f"l={params.l!r}") for r in records)

    def test_phi_fixed_sweep(self):
        plan = SweepPlan(abs_z_grid=log_grid(1e-2, 1e2, 11), angle_count=4)
        params = draw_phi_params(__import__("random").Random(5))
        records = audit_envelope(plan, "phi", params)
        assert audit_summary(records)["failed"] == 0

    def test_laurent_sweep_all_pass(self):
        base = QBase(0.5)
        spec = LaurentSpec(
            center=0.0,
            coeff=lambda k: base.q ** (k * k),
            alpha=0.5,
            q=base,
            c_weighted=theta_weighted_constant(0.5, base, 1e-15),
        )
        plan = SweepPlan(abs_z_grid=log_grid(1e-2, 1e2, 9), angle_count=4)
        records = audit_envelope(plan, "laurent", spec)
        assert audit_summary(records)["failed"] == 0

    def test_draw_mode_deterministic(self):
        plan = SweepPlan(
            abs_z_grid=log_grid(1e-3, 1e3, 2), angle_count=1, parameter_draws=200, seed=77
        )
        first = audit_envelope(plan, "confluent_f")
        second = audit_envelope(plan, "confluent_f")
        assert first == second
        assert len(first) == 200
        assert audit_summary(first)["failed"] == 0
        assert len({r.param_digest for r in first}) > 150

    def test_draw_mode_phi(self):
        plan = SweepPlan(
            abs_z_grid=log_grid(1e-3, 1e3, 2), angle_count=1, parameter_draws=100, seed=9
        )
        records = audit_envelope(plan, "phi")
        assert audit_summary(records) == {
            "records": 100,
            "passed": 100,
            "failed": 0,
            "errors": 0,
        }

    def test_draw_mode_rejected_for_singletons(self):
        plan = SweepPlan(abs_z_grid=(1.0,), angle_count=1, parameter_draws=10)
        with pytest.raises(InvalidArgumentError):
            audit_envelope(plan, "aq")

    def test_understated_constant_fails_audit(self):
        # A deliberately false weighted constant must produce failing records.
        base = QBase(0.5)
        spec = LaurentSpec(
            center=0.0,
            coeff=lambda k: base.q ** (k * k),
            alpha=0.5,
            q=base,
            c_weighted=0.01,
        )
        plan = SweepPlan(abs_z_grid=(1.0,), angle_count=2)
        records = audit_envelope(plan, "laurent", spec)
        assert audit_summary(records)["failed"] == len(records)

    def test_evaluation_errors_are_marked(self):
        # At q = 0.999, alpha = 1/4 and |z| = 1.05 the sum reaches the index cap.
        base = QBase(0.999)
        spec = LaurentSpec(
            center=0.0,
            coeff=lambda k: base.q ** (k * k),
            alpha=0.25,
            q=base,
            c_weighted=theta_weighted_constant(0.25, base, 1e-15),
        )
        plan = SweepPlan(abs_z_grid=(1.05,), angle_count=2)
        records = audit_envelope(plan, "laurent", spec)
        summary = audit_summary(records)
        assert summary["errors"] == 2
        assert summary["failed"] == 0
        assert all(r.error == f"weighted tail did not meet tol within |k| <= {LAURENT_K_CAP}"
                   for r in records)

    def test_envelope_error_of_a_real_target(self):
        # theta at q = 1/e, alpha = 0.005: the sum at |z| = 2.35e17 is finite,
        # and beta log(|z|)^201 overflows, so each record carries the
        # envelope's error.
        plan = SweepPlan(abs_z_grid=(2.35e17,), angle_count=2)
        records = audit_envelope(plan, "theta", (QBase(1.0 / math.e), 0.005))
        assert audit_summary(records) == {"records": 2, "passed": 0, "failed": 0, "errors": 2}
        assert [r.error for r in records] == [
            "envelope exponent overflowed the double range at abs_z = 2.35e+17"
        ] * 2
        assert all(math.isfinite(abs(eval_theta(QBase(1.0 / math.e), r.z, plan.tol).value))
                   for r in records)

    def test_zero_valued_records(self):
        # The zero stream sums to exactly 0 at every point: abs_value 0.0
        # has no log, so the record's ratio is 0.0 and it passes.
        spec = LaurentSpec(0j, lambda k: 0.0, 0.5, QBase(0.5), 1.0)
        plan = SweepPlan(abs_z_grid=(0.5, 2.0), angle_count=2)
        records = audit_envelope(plan, "laurent", spec)
        assert [r.z for r in records] == [0.5, complex(-0.5, 6.123233995736766e-17),
                                          2.0, complex(-2.0, 2.4492935982947064e-16)]
        tail = 3.684095299321098e-15
        for r in records:
            assert (r.abs_value, r.ratio, r.passed, r.terms_used, r.tail_bound, r.error) == (
                0.0, 0.0, True, 31, tail, "")
            assert math.copysign(1.0, r.abs_value) == math.copysign(1.0, r.ratio) == 1.0
            assert r.envelope_log == 0.10268847119406596
        stream = io.StringIO()
        _write_csv(records, stream)
        prefix = "laurent,0.5,,alpha=0.5;c_weighted=1.0"
        cells = "0.0,0.10268847119406596,0.0,true,31,3.684095299321098e-15,"
        assert stream.getvalue().splitlines()[1:] == [
            f"{prefix},0.5,0.0,{cells}",
            f"{prefix},-0.5,6.123233995736766e-17,{cells}",
            f"{prefix},2.0,0.0,{cells}",
            f"{prefix},-2.0,2.4492935982947064e-16,{cells}",
        ]

    def test_knobs_are_constants(self):
        # The slack and the Laurent index cap are fixed, not per-plan settings.
        with pytest.raises(TypeError):
            SweepPlan(abs_z_grid=(1.0,), angle_count=1, slack=1.0)
        with pytest.raises(TypeError):
            LaurentSpec(0.0, lambda k: 0.0j, 0.5, QBase(0.5), 1.0, k_cap=3)
        assert (verify.AUDIT_SLACK, LAURENT_K_CAP) == (1e-12, 10_000)

    def test_unknown_tag_rejected(self):
        with pytest.raises(InvalidArgumentError):
            audit_target("bessel", QBase(0.5))


class TestRingStateHandedOn:
    """_records_at hands a step's state on only within one modulus: the
    first angle gets (), each later angle the state that the step before
    returned or handed on with its error, and a single unit gets None."""

    @staticmethod
    def _spy(monkeypatch):
        """Make audit_target's targets log (|z|, state) at each step, and
        hand on a fresh marker, raised with an error at every third step."""
        calls = []
        build = verify.audit_target

        def spied(tag, params):
            target = build(tag, params)

            def step(z, tol, state):
                calls.append((abs(z), state))
                marker = ("handed", len(calls))
                if len(calls) % 3 == 0:
                    error = NonConvergentError("spy")
                    error._ring_state = marker
                    raise error
                return target.step(z, tol, None)[0], marker

            return target._replace(step=step)

        monkeypatch.setattr(verify, "audit_target", spied)
        return calls

    @staticmethod
    def _check_rings(calls, size):
        for i, (abs_z, state) in enumerate(calls):
            if i % size:
                assert abs_z == pytest.approx(calls[i - 1][0]) and state == ("handed", i), i
            else:
                assert state == (), i

    def test_lattice_sweep(self, monkeypatch):
        calls = self._spy(monkeypatch)
        records = audit_envelope(SweepPlan(log_grid(0.5, 2.0, 3), 4), "aq", QBase(0.5))
        assert len(calls) == len(records) == 12
        assert [r.error for r in records[2::3]] == ["spy"] * 4
        self._check_rings(calls, 4)

    def test_draws_are_one_shot(self, monkeypatch):
        calls = self._spy(monkeypatch)
        audit_envelope(SweepPlan((1e-3, 1e3), 1, parameter_draws=6, seed=3), "confluent_f")
        assert [state for _, state in calls] == [None] * 6

    def test_tightness_search_rings_then_probes(self, monkeypatch):
        # Budget 40: 11 radii at 2 angles, then 18 golden-section probes.
        calls = self._spy(monkeypatch)
        tightness_search("aq", QBase(0.5), (1e-2, 1e2), 40)
        assert len(calls) == 40
        self._check_rings(calls[:22], 2)
        assert [state for _, state in calls[22:]] == [None] * 18


class TestSharedEnvelopeConstants:
    def test_targets_read_cached_constants(self, monkeypatch):
        base = QBase(0.5)
        targets = (
            ("confluent_f", ConfluentParams((0.3 + 0.1j,), (0.2,), 1.5, QBase(0.7))),
            ("phi", PhiParams((0.5,), (0.3, 0.6), QBase(0.9))),
            ("aq", QBase(0.7)),
            ("theta", (QBase(0.3), 0.5)),
            ("laurent", LaurentSpec(0.0, lambda k: base.q ** (k * k), 0.5, base, 3.5)),
        )
        moduli = (1e-3, 0.5, 2.0, 1e3)
        first = [[audit_target(tag, p).envelope_log(r) for r in moduli] for tag, p in targets]

        def recomputed(*args, **kwargs):
            raise AssertionError("an envelope constant was recomputed")

        for name in ("constant_c", "pochhammer_infinite", "theta_weighted_constant"):
            monkeypatch.setattr(bounds, name, recomputed)
        monkeypatch.setattr(verify, "pochhammer_infinite", recomputed)
        # Each Laurent target build, one per modulus here, recomputes beta and
        # gamma, two float expressions, and finds its envelope in the cache
        # keyed by their values.
        hits = bounds._meromorphic_constants.cache_info().hits
        again = [[audit_target(tag, p).envelope_log(r) for r in moduli] for tag, p in targets]
        assert again == first
        assert bounds._meromorphic_constants.cache_info().hits == hits + len(moduli)
        plan = SweepPlan(abs_z_grid=log_grid(1e-2, 1e2, 5), angle_count=4)
        assert audit_summary(audit_envelope(plan, "aq", QBase(0.7)))["passed"] == 20

    def test_cli_audit_bytes_survive_cache_clear(self, capsys):
        grid = ["--grid", "1e-4:1e6:21", "--angles", "4"]
        argvs = (
            ["audit", "--function", "aq", "--q", "0.9", *grid],
            ["audit", "--function", "theta", "--q", "0.3", "--alpha", "0.5", *grid],
            ["audit", "--function", "f", "--q", "0.9", "--l", "1", "--a=1+1i", "--b", "0.2", *grid],
            ["audit", "--function", "phi", "--q", "0.5", "--a=0.5", "--b", "0.3", "--b", "0.6", *grid],
            ["audit", "--function", "laurent", "--q", "0.5", "--alpha", "0.5", *grid],
            ["audit", "--function", "f", "--q", "0.5", "--grid", "1e-3:1e3:2",
             "--draws", "300", "--seed", "7"],
            ["audit", "--function", "phi", "--q", "0.5", "--grid", "1e-3:1e3:2",
             "--draws", "300", "--seed", "7", "--format", "json"],
        )

        def outputs():
            got = []
            for argv in argvs:
                rc = run(argv)
                got.append((rc, capsys.readouterr().out))
            return got

        # Every run builds fresh parameter objects, so their memos start
        # empty; the meromorphic LRU is the one cache that outlives a run.
        bounds._meromorphic_constants.cache_clear()
        cold = outputs()
        warm = outputs()
        bounds._meromorphic_constants.cache_clear()
        assert outputs() == warm == cold
        assert all(rc == 0 and out.count("\n") > 20 for rc, out in cold)

    def test_draw_audits_keep_no_drawn_parameters(self, capsys):
        def live():
            gc.collect()
            return [obj for obj in gc.get_objects() if type(obj) in (ConfluentParams, PhiParams)]

        before = live()  # held here, so no object made later can reuse their ids
        old = {id(obj) for obj in before}
        for function in ("f", "phi"):
            argv = ["audit", "--function", function, "--q", "0.5", "--grid", "1e-3:1e3:2",
                    "--draws", "300", "--seed", "7"]
            assert run(argv) == 0
            assert capsys.readouterr().out.count("\n") == 301
            assert [obj for obj in live() if id(obj) not in old] == []

    @pytest.mark.parametrize("tag,make,public,builder,kept", [
        ("confluent_f", lambda: ConfluentParams((0.3 + 0.1j,), (0.2,), 1.5, QBase(0.7)),
         bounds.envelope_entire, "_entire_constants", lambda p: p._envelope),
        ("phi", lambda: PhiParams((0.5,), (0.3, 0.6), QBase(0.9)),
         bounds.envelope_phi, "_phi_constants", lambda p: p._envelope),
        ("aq", lambda: QBase(0.7),
         bounds.envelope_aq_gaussian, "_aq_constant", lambda p: p._aq_envelope),
        ("theta", lambda: (QBase(0.3), 0.5),
         lambda p, r: bounds.envelope_theta(p[1], p[0], r), "_theta_constant",
         lambda p: p[0]._theta_envelopes[p[1]]),
    ])
    def test_target_and_public_envelope_build_once(self, monkeypatch, tag, make, public, builder, kept):
        original, builds = getattr(bounds, builder), []

        def counting(*args):
            builds.append(args)
            return original(*args)

        monkeypatch.setattr(bounds, builder, counting)
        for target_first in (True, False):
            params = make()
            if target_first:
                target = audit_target(tag, params)
            log_bound = public(params, 2.0).log_bound
            if not target_first:
                target = audit_target(tag, params)
            assert len(builds) == 1
            assert target.envelope_log.__self__ is kept(params)
            assert target.envelope_log(2.0) == log_bound
            builds.clear()


def _draw_public_envelope(tag, rng):
    """Random fixed parameters for ``tag`` and the public envelope's log_bound at a modulus."""
    if tag == "confluent_f":
        params = draw_confluent_params(rng)
        return params, lambda r: bounds.envelope_entire(params, r).log_bound
    if tag == "phi":
        params = draw_phi_params(rng)
        return params, lambda r: bounds.envelope_phi(params, r).log_bound
    base = QBase(rng.uniform(0.05, 0.99))
    if tag == "aq":
        return base, lambda r: bounds.envelope_aq_gaussian(base, r).log_bound
    if tag == "theta":
        alpha = rng.uniform(0.05, 0.95)
        return (base, alpha), lambda r: bounds.envelope_theta(alpha, base, r).log_bound
    spec = LaurentSpec(
        center=0.0,
        coeff=lambda k: base.q ** (k * k),
        alpha=rng.uniform(0.1, 3.0),
        q=base,
        c_weighted=math.exp(rng.uniform(-3.0, 3.0)),
    )
    merom = bounds.meromorphic_bound_params(spec.alpha, base)
    return spec, lambda r: bounds.envelope_meromorphic(merom, spec.c_weighted, r).log_bound


class TestAuditCertifiesPublicEnvelope:
    @pytest.mark.parametrize("tag", verify.FUNCTION_TAGS)
    def test_envelope_log_is_the_public_log_bound(self, rng, tag):
        # 250 parameter sets x 8 moduli = 2000 (params, |z|) pairs per tag.
        mismatches = 0
        for _ in range(250):
            params, public_log_bound = _draw_public_envelope(tag, rng)
            target = audit_target(tag, params)
            for _ in range(8):
                r = math.exp(rng.uniform(math.log(1e-6), math.log(1e8)))
                mismatches += target.envelope_log(r).hex() != public_log_bound(r).hex()
        assert mismatches == 0


class TestTightnessSearch:
    def test_constant_stream_attains_equality(self):
        best_r, best_angle, best_ratio = tightness_search(
            "laurent", _constant_spec(), (0.5, 2.0), 64
        )
        assert best_ratio == 1.0
        assert best_r == 1.0

    def test_never_exceeds_slack(self):
        _, _, ratio = tightness_search("aq", QBase(0.5), (1e-3, 1e3), 200)
        assert 0.0 < ratio <= 1.0 + 1e-12

    def test_deterministic(self):
        first = tightness_search("aq", QBase(0.5), (1e-2, 1e2), 100)
        second = tightness_search("aq", QBase(0.5), (1e-2, 1e2), 100)
        assert first == second

    def test_refinement_only_improves_on_coarse_grid(self):
        budget = 96
        abs_z_range = (1e-2, 1e2)
        target = audit_target("aq", QBase(0.4))
        _, _, best_ratio = tightness_search("aq", QBase(0.4), abs_z_range, budget)
        radii, angles = coarse_layout(budget, abs_z_range)
        for r in radii:
            for ang in angles:
                z = r * complex(math.cos(ang), math.sin(ang))
                value = abs(target.step(z, 1e-14, None)[0].value)
                ratio = 0.0 if value == 0.0 else math.exp(
                    math.log(value) - target.envelope_log(r)
                )
                assert ratio <= best_ratio

    def test_rejects_small_budget(self):
        with pytest.raises(InvalidArgumentError):
            tightness_search("aq", QBase(0.5), (0.1, 10.0), 31)

    @pytest.mark.parametrize("tag, params", [("aq", QBase(0.99)), ("theta", (QBase(0.99), 0.5))])
    def test_unevaluable_points_are_skipped(self, tag, params):
        # At q = 0.99 the far moduli raise; the search scores the rest as an
        # audit of the coarse layout does.
        abs_z_range, budget = (1e-4, 1e6), 200
        _, _, ratio = tightness_search(tag, params, abs_z_range, budget)
        assert 0.0 < ratio <= 1.0 + 1e-12
        radii, angles = coarse_layout(budget, abs_z_range)
        plan = SweepPlan(abs_z_grid=radii, angle_count=len(angles))
        records = audit_envelope(plan, tag, params)
        assert any(r.error for r in records)
        assert all(r.ratio <= ratio for r in records if not r.error)
        if tag == "theta":
            assert ratio == pytest.approx(0.837, abs=1e-3)

    def test_no_evaluable_point(self):
        assert tightness_search("aq", QBase(0.99), (1e5, 1e6), 64) == (1e5, 0.0, -1.0)


class TestIdentities:
    def test_euler_at_zero(self):
        assert identity_euler(QBase(0.5), 0.0, 1e-14) == 0.0

    def test_euler_interior(self):
        assert identity_euler(QBase(0.5), 0.5, 1e-14) <= 1e-12

    def test_euler_stress(self):
        assert identity_euler(QBase(0.9), -0.8, 1e-14) <= 1e-11

    def test_euler_rejects_boundary(self):
        with pytest.raises(InvalidArgumentError):
            identity_euler(QBase(0.5), 1.0, 1e-14)

    def test_qbinomial_zero_parameter_matches_euler_region(self):
        assert identity_qbinomial_theorem(0.0, QBase(0.5), 0.3, 1e-14) <= 1e-12

    def test_qbinomial_interior(self):
        assert identity_qbinomial_theorem(0.5, QBase(0.5), 0.3, 1e-14) <= 1e-12

    def test_qbinomial_unit_parameter_collapses(self):
        assert identity_qbinomial_theorem(1.0, QBase(0.5), 0.7, 1e-14) <= 1e-14

    def test_qbinomial_rejects_a_parameter_whose_modulus_overflows(self):
        # Both parts are finite; abs(a) would raise OverflowError.
        with pytest.raises(InvalidArgumentError) as info:
            identity_qbinomial_theorem(1.5e308 + 1.5e308j, QBase(0.5), 1e-300, 1e-14)
        assert str(info.value) == (
            "numerator parameters must have a finite modulus, got (1.5e+308+1.5e+308j)"
        )

    def test_qlsum_basic(self):
        assert identity_ql_sum(1.0, QBase(0.5), 1e-14) <= 1e-12

    def test_qlsum_stress(self):
        assert identity_ql_sum(0.5, QBase(0.9), 1e-14) <= 1e-11

    def test_qlsum_large_exponent(self):
        assert identity_ql_sum(40.0, QBase(0.5), 1e-14) <= 1e-13

    def test_qlsum_rejects_an_exponent_that_rounds_q_to_the_l_to_one(self):
        with pytest.raises(InvalidArgumentError) as info:
            identity_ql_sum(1e-17, QBase(0.5), 1e-14)
        assert str(info.value) == "q^l rounds to 1 at q = 0.5, l = 1e-17"

    def test_triple_product_points(self):
        assert identity_theta_triple_product(QBase(0.5), 1.0, 1e-14) <= 1e-12
        assert identity_theta_triple_product(QBase(0.5), -2.0, 1e-14) <= 1e-12
        assert identity_theta_triple_product(QBase(0.3), 2.0 + 1.0j, 1e-14) <= 1e-12

    def test_triple_product_rejects_zero(self):
        with pytest.raises(InvalidArgumentError):
            identity_theta_triple_product(QBase(0.5), 0.0, 1e-14)

    def test_identities_sampled(self, rng):
        for _ in range(150):
            q = QBase(rng.uniform(0.05, 0.9))
            r = 0.8 * math.sqrt(rng.random())
            ang = rng.uniform(0.0, 2.0 * math.pi)
            z = r * complex(math.cos(ang), math.sin(ang))
            assert identity_euler(q, z, 1e-14) <= 1e-11
            assert identity_ql_sum(rng.uniform(0.1, 5.0), q, 1e-14) <= 1e-11


class TestIdentityCallsThroughRebindableNames:
    """A wrapper bound to verify.identity_euler or qcore.multishifted, as
    perfbench/tracing.py binds them, sees each direct call once: q^l sums do
    not pass through the public Euler name, and every triple product reaches
    the one on qcore."""

    def test_ql_sum_does_not_call_the_public_euler_name(self, monkeypatch):
        original, calls = identity_euler, []

        def counting(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(verify, "identity_euler", counting)
        q = QBase(0.7)
        residual = verify.identity_ql_sum(1.5, q, 1e-14)
        assert calls == []
        assert residual.hex() == original(q, 0.7**1.5, 1e-14).hex()
        verify.identity_euler(q, 0.3, 1e-14)
        assert len(calls) == 1

    def test_triple_product_reads_multishifted_from_qcore(self, monkeypatch):
        original, calls = qcore.multishifted, []

        def counting(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(qcore, "multishifted", counting)
        points = ((0.5, 1.0), (0.3, 2.0 + 1.0j), (0.05, -0.2j))
        for q, z in points:
            got = identity_theta_triple_product(QBase(q), z, 1e-14)
            assert got.hex() == reference_verify.triple(QBase(q), z, 1e-14).hex()
        assert len(calls) == len(points)
        assert not hasattr(verify, "multishifted")


def _disk(rng, radius):
    r = radius * math.sqrt(rng.random())
    ang = rng.uniform(0.0, 2.0 * math.pi)
    return complex(r * math.cos(ang), r * math.sin(ang))


class TestIdentitySeriesMatchesReference:
    """verify._series_sum_mp carries q^k from term to term and screens its
    stop test in floats; tests/reference_verify.py takes q**k afresh and
    runs the exact test at every index.  Each residual must have the
    reference's float.hex, and each series its bits and its stop index."""

    @pytest.fixture
    def sums(self, monkeypatch):
        """The (series, stop index) of every kernel call, in call order."""
        calls = []
        kernel = verify._series_sum_mp

        def recording(*args):
            calls.append(kernel(*args))
            return calls[-1]

        monkeypatch.setattr(verify, "_series_sum_mp", recording)
        return calls

    @staticmethod
    def _assert_same(residual, series_and_k, reference):
        ref_residual, ref_series, ref_k = reference
        series, k = series_and_k
        assert (residual.hex(), series.real.hex(), series.imag.hex(), k) == (
            ref_residual.hex(), ref_series.real.hex(), ref_series.imag.hex(), ref_k,
        )

    def _euler(self, sums, q, z):
        residual = identity_euler(QBase(q), z, 1e-14)
        self._assert_same(residual, sums[-1], reference_verify.euler(QBase(q), z, 1e-14))
        return sums[-1]

    def _qbinomial(self, sums, a, q, z):
        residual = identity_qbinomial_theorem(a, QBase(q), z, 1e-14)
        self._assert_same(
            residual, sums[-1], reference_verify.qbinomial(a, QBase(q), z, 1e-14)
        )
        return sums[-1]

    def _qlsum(self, sums, l, q):
        residual = identity_ql_sum(l, QBase(q), 1e-14)
        self._assert_same(
            residual, sums[-1], reference_verify.euler(QBase(q), q**l, 1e-14)
        )
        return sums[-1]

    def test_criterion_08_regions(self, sums):
        # Criterion 08's draw regions, on a seed of their own: q in
        # [0.05, 0.9], |z| <= 0.9, |a| <= 2 and l in [0.05, 8].
        rng = random.Random(19)
        for _ in range(500):
            q = rng.uniform(0.05, 0.9)
            z = _disk(rng, 0.9)
            self._euler(sums, q, z)
            self._qbinomial(sums, _disk(rng, 2.0), q, z)
            self._qlsum(sums, rng.uniform(0.05, 8.0), q)
        assert len(sums) == 1500

    def test_zero_argument_stops_at_the_first_tested_index(self, sums):
        assert self._euler(sums, 0.5, 0j) == (1 + 0j, 8)
        assert self._qbinomial(sums, 1.5 - 0.5j, 0.5, 0j) == (1 + 0j, 8)

    def test_zero_parameter_is_the_euler_series(self, sums):
        z = -0.6 + 0.3j
        assert self._qbinomial(sums, 0j, 0.7, z) == self._euler(sums, 0.7, z)

    @pytest.mark.parametrize("q", [0.05, 0.5, 0.9])
    @pytest.mark.parametrize("angle", [0.0, 2.0, math.pi])
    def test_modulus_near_one(self, sums, q, angle):
        z = 0.95 * complex(math.cos(angle), math.sin(angle))
        self._euler(sums, q, z)
        self._qbinomial(sums, 1.5 - 0.5j, q, z)

    def test_base_point_nine(self, sums):
        for z in (-0.85 + 0.2j, 0.85 - 0.2j, 0.3j):
            self._euler(sums, 0.9, z)
            self._qbinomial(sums, -2.0, 0.9, z)

    @pytest.mark.parametrize("q", [0.05, 0.5, 0.9])
    @pytest.mark.parametrize("l", [0.05, 40.0])
    def test_extreme_exponents(self, sums, q, l):
        self._qlsum(sums, l, q)

    def test_heavy_cancellation(self, sums):
        # a z = 1 up to rounding, so the sum (az;q)_inf/(z;q)_inf is about 0
        # while its terms grow past 1e6.
        q, z = 0.9, -0.9 + 0.0j
        a = 1.0 / z
        series, _ = self._qbinomial(sums, a, q, z)
        term, largest = 1.0, 1.0
        for k in range(400):
            term *= abs(1.0 - a * q**k) * abs(z) / (1.0 - q ** (k + 1))
            largest = max(largest, term)
        assert largest > 1e6 and abs(series) < 1e-6 * largest

    @pytest.mark.parametrize("z", [1e-35 + 0j, 1e-200 + 0j, 3e-170j, -1e-300 + 1e-300j])
    def test_terms_below_the_doubles(self, sums, z):
        # The first tested term, term_9, is subnormal as a double at |z| =
        # 1e-35; at the smaller moduli every term from term_2 on is below the
        # smallest subnormal, so the float screen sees zero.
        self._euler(sums, 0.5, z)
        self._qbinomial(sums, 1.5 - 0.5j, 0.5, z)

    @pytest.mark.parametrize("q", [0.05, 0.5, 0.9])
    @pytest.mark.parametrize("z", [-0.5, -0.9 + 0j, complex(-0.9, -0.0)])
    def test_real_negative_argument(self, sums, q, z):
        # Alternating sums that cancel.  mpmath has one zero, so the sum of
        # complex(-0.9, -0.0) is real with a +0.0 imaginary part.
        series, _ = self._euler(sums, q, z)
        assert series.imag == 0.0 and math.copysign(1.0, series.imag) == 1.0

    @pytest.mark.parametrize("q", [0.3, 0.7])
    @pytest.mark.parametrize("a", [-1.5, 1.9])
    @pytest.mark.parametrize("z", [0.4, -0.6])
    def test_qbinomial_at_a_real_parameter_and_argument(self, sums, q, a, z):
        self._qbinomial(sums, a, q, z)

    def test_raw_sums_keep_every_bit(self, monkeypatch):
        # The 136-bit sums themselves, read where each side hands its sum to
        # mpmath.libmp.mpc_to_complex: the kernel by name at each call, the
        # reference loop through complex() of an mpc.
        import mpmath.ctx_mp_python
        import mpmath.libmp

        raw = []
        convert = mpmath.libmp.mpc_to_complex

        def recording(z, *args, **kwargs):
            raw.append(z)
            return convert(z, *args, **kwargs)

        monkeypatch.setattr(mpmath.libmp, "mpc_to_complex", recording)
        monkeypatch.setattr(mpmath.ctx_mp_python, "mpc_to_complex", recording)
        rng = random.Random(53)
        cases = [(-0.9 + 0j, None), (complex(-0.9, -0.0), 1.0 / -0.9), (-0.5, -1.5)]
        for _ in range(40):
            cases.append((_disk(rng, 0.9), _disk(rng, 2.0)))
        for z, a in cases:
            for q in (0.3, 0.9):
                del raw[:]
                if a is None:
                    verify._series_sum_mp(z, abs(z), q)
                    reference_verify.euler_series(q, z)
                else:
                    verify._series_sum_mp(z, abs(z), q, complex(a))
                    reference_verify.qbinomial_series(a, q, z)
                assert len(raw) == 2 and raw[0] == raw[1], (z, a, q)


@pytest.fixture
def raw_sums(monkeypatch):
    """(thread id, 136-bit sum) of every kernel and reference call, in order:
    each side hands its sum to mpmath.libmp.mpc_to_complex, the kernel by
    name at each call, the reference loop through complex() of an mpc."""
    import mpmath.ctx_mp_python
    import mpmath.libmp

    raw = []
    convert = mpmath.libmp.mpc_to_complex

    def recording(z, *args, **kwargs):
        raw.append((threading.get_ident(), z))
        return convert(z, *args, **kwargs)

    monkeypatch.setattr(mpmath.libmp, "mpc_to_complex", recording)
    monkeypatch.setattr(mpmath.ctx_mp_python, "mpc_to_complex", recording)
    return raw


def _memo_rows(memo):
    """A copy of the kernel memo's rows, to compare after later calls."""
    key, powers, denominators, wide = memo
    return key, list(powers), list(denominators), wide


class TestIdentitySeriesMemo:
    """verify._series_sum_mp keeps the 136-bit q^k, 1 - q^{k+1} and the wide
    power behind them for its last base, at most verify._POWER_ROWS rows.  A
    call that reads, extends, caps or replaces those rows must return the
    136-bit sum and the stop index of a cold call (memo emptied first) and of
    tests/reference_verify.py."""

    @staticmethod
    def _kernel(raw, z, q, a):
        series, k = verify._series_sum_mp(z, abs(z), q, a)
        return raw[-1][1], series, k

    def _check(self, raw, monkeypatch, q, z, a=None):
        """(stop index, memo rows) of a warm call, checked against a cold
        call and the reference loop; the warm call's memo is kept."""
        z = complex(z)
        before = verify._power_memo
        kept = _memo_rows(before)
        warm = self._kernel(raw, z, q, a)
        after = verify._power_memo
        monkeypatch.setattr(verify, "_power_memo", verify._NO_POWERS)
        cold = self._kernel(raw, z, q, a)
        cold_memo = verify._power_memo
        monkeypatch.setattr(verify, "_power_memo", after)
        if a is None:
            series, k = reference_verify.euler_series(q, z)
        else:
            series, k = reference_verify.qbinomial_series(a, q, z)
        assert warm == cold == (raw[-1][1], series, k), (q, z, a)

        # Published rows are never mutated, and the memo holds one base's
        # rows, up to the cap, whose bits are the cold call's.
        assert _memo_rows(before) == kept
        key, powers, denominators, wide = after
        rows = len(denominators)
        assert key == q and len(powers) == rows
        assert rows == min(verify._POWER_ROWS, max(k + 1, len(kept[2]) if kept[0] == q else 0))
        cold_rows = len(cold_memo[2])
        assert cold_rows == min(verify._POWER_ROWS, k + 1)
        assert powers[:cold_rows] == cold_memo[1] and denominators[:cold_rows] == cold_memo[2]
        if rows == cold_rows:
            assert wide == cold_memo[3]
        return k, rows

    def test_reads_extends_caps_and_replaces(self, raw_sums, monkeypatch):
        check = functools.partial(self._check, raw_sums, monkeypatch)
        monkeypatch.setattr(verify, "_power_memo", verify._NO_POWERS)
        # One base: a short sum, a longer one with a complex parameter, a
        # read of rows already held, then a sum past the cap.
        assert check(0.9, 0.3) == (62, 63)
        assert check(0.9, -0.85 + 0.2j, 1.5 - 0.5j) == (463, 464)
        kept = verify._power_memo
        assert check(0.9, 0.3j, -2.0 + 0j) == (76, 464)
        assert verify._power_memo is kept
        assert check(0.9, 0.9**0.5) == (1247, 1024)
        assert check(0.9, -0.85, 0.5 + 1j)[1] == 1024
        # Another base in between, then back.
        assert check(0.5, -0.5 + 0.5j)[1] == 194
        assert check(0.5, 0.6, 1.5 - 0.5j)[1] == 194
        assert check(0.9, -0.6 + 0.3j, 1.5 - 0.5j)[1] < 1024
        # Past the cap from an empty memo: a real and a complex argument.
        assert check(0.99, 0.995)[0] == 13344
        assert check(0.99, 0.95j, 0.5 + 1j) == (2841, 1024)

    def test_two_threads_alternating_bases(self, raw_sums, monkeypatch):
        # Each thread takes a short and then a longer sum at one base, then
        # the same at the other base; the two start at the first base, so
        # the first call to run extends the memo captured below.
        bases = (0.9, 0.7)
        plans = [
            [(q, r * complex(math.cos(i + j), math.sin(i + j)), a)
             for j, q in enumerate(bases * 3)
             for r, a in ((0.3, None), (0.85, 1.5 - 0.5j))]
            for i in (0, 1)
        ]
        monkeypatch.setattr(verify, "_power_memo", verify._NO_POWERS)
        verify._series_sum_mp(0.2 + 0j, 0.2, bases[0])
        captured = verify._power_memo
        kept = _memo_rows(captured)
        assert 8 < len(captured[2]) < 100

        results = [[], []]
        unchanged = []

        def work(plan, out):
            for q, z, a in plan:
                before = verify._power_memo
                rows = _memo_rows(before)
                series, k = verify._series_sum_mp(z, abs(z), q, a)
                out.append((series, k))
                if before[0] == q and k + 1 > len(rows[2]):
                    unchanged.append(_memo_rows(before) == rows)

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=work, args=(plan, out)) for plan, out in zip(plans, results)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60.0)
            assert not any(thread.is_alive() for thread in threads)
        finally:
            sys.setswitchinterval(old)
        assert _memo_rows(captured) == kept
        assert all(unchanged)
        warm = {thread.ident: [] for thread in threads}
        for ident, raw in raw_sums:
            if ident in warm:
                warm[ident].append(raw)
        for thread, plan, out in zip(threads, plans, results):
            assert len(out) == len(warm[thread.ident]) == len(plan) == 12
            for (q, z, a), got, raw in zip(plan, out, warm[thread.ident]):
                monkeypatch.setattr(verify, "_power_memo", verify._NO_POWERS)
                assert (raw, *got) == self._kernel(raw_sums, z, q, a), (q, z, a)
        assert verify._power_memo[0] in bases and len(verify._power_memo[2]) <= verify._POWER_ROWS


def _outcome(call, *args):
    """("value", float.hex) of a residual, or (exception name, text)."""
    try:
        return "value", call(*args).hex()
    except Exception as exc:
        return type(exc).__name__, str(exc)


class TestTripleProductMatchesReference:
    """identity_theta_triple_product takes its product from multishifted;
    tests/reference_verify.py multiplies three pochhammer_infinite values by
    hand.  Each residual, or error, must be the reference's, bit for bit."""

    def test_criterion_08_region(self):
        # Criterion 08's triple region, on a seed of its own: q in
        # [0.05, 0.8] and |z| log-uniform in [0.2, 5].
        rng = random.Random(31)
        for _ in range(2000):
            q = QBase(rng.uniform(0.05, 0.8))
            r = math.exp(rng.uniform(math.log(0.2), math.log(5.0)))
            ang = rng.uniform(0.0, 2.0 * math.pi)
            z = complex(r * math.cos(ang), r * math.sin(ang))
            got = _outcome(identity_theta_triple_product, q, z, 1e-14)
            assert got == _outcome(reference_verify.triple, q, z, 1e-14), (q, z)
            assert got[0] == "value"

    @pytest.mark.parametrize("q", [1e-3, 0.05, 0.8, 0.95, 0.999])
    def test_edge_points(self, q):
        # Both ends of the region's moduli, real and imaginary axes, a -0.0
        # imaginary part, the product's zeros -1/q and -q up to rounding, and
        # points where the product or the theta sum leaves the doubles at
        # q = 0.999.
        for z in (1.0, -1.0, 1j, 0.2, 5.0, -5j, complex(-2.0, -0.0), -1.0 / q, -q,
                  1e-3, complex(0.0, -0.3), 1e3 + 1e3j):
            got = _outcome(identity_theta_triple_product, QBase(q), z, 1e-14)
            assert got == _outcome(reference_verify.triple, QBase(q), z, 1e-14), z


def _screen_double(part):
    """The raw mpf ``part`` as verify._series_sum_mp's float screen reads it,
    math.ldexp of its mantissa and exponent with an OverflowError read as an
    infinity; signed here, the screen takes the modulus."""
    sign, man, exp, _ = part
    try:
        return math.ldexp(-man if sign else man, exp)
    except OverflowError:
        return -math.inf if sign else math.inf


class TestSeriesKernelSurroundings:
    """The screen's doubles are mpmath's to_float at round_nearest, and the
    kernel leaves mpmath's context alone."""

    @staticmethod
    def _parts():
        from mpmath.libmp import bitcount, fzero, normalize, round_nearest

        def part(sign, man, exp):
            return normalize(sign, man, exp, bitcount(man), 136, round_nearest)

        rng = random.Random(41)
        parts = [fzero]
        for exp in (*range(-1300, 1100, 7), *range(-1215, -1150), *range(885, 895)):
            for _ in range(4):
                parts.append(part(rng.getrandbits(1), rng.getrandbits(136) | 1 << 135, exp))
        top = (1 << 136) - 1
        parts += [
            part(0, top, 1024 - 136),  # rounds up to 2^1024, beyond the doubles
            part(1, top, 1024 - 136),
            # Just below half an ulp above the largest double, and at half of
            # it, where ties to even round up beyond the doubles.
            part(0, ((1 << 53) - 1 << 83) + (1 << 82) - 1, 1024 - 136),
            part(0, ((1 << 53) - 1 << 83) + (1 << 82), 1024 - 136),
            part(0, 1, 1023), part(0, 1, 1024),
            # The least subnormal; half of it, which ties to 0.0; just above
            # half of it, which rounds up to it; and 1.5 of it, which ties to 2.
            part(0, 1, -1074), part(1, 1, -1075),
            part(0, 3, -1076), part(0, (1 << 135) + 1, -1075 - 135),
            part(0, 3, -1075),
            part(0, (1 << 53) - 1, -1022 - 53), part(0, (1 << 54) - 1, -1022 - 54),
            part(0, 1, -1022), part(0, top, -1022 - 136), part(0, top, -1200),
        ]
        return parts

    def test_screen_doubles_are_to_float(self):
        # Bit for bit on mpmath's Python integers, whose int-to-float
        # conversion rounds to nearest.  A gmpy backend may truncate the
        # 136-bit mantissa instead, within the one ulp the screen's margins
        # allow.
        from mpmath.libmp import BACKEND, round_nearest, to_float

        exact = BACKEND == "python"
        doubles = []
        for part in self._parts():
            want = to_float(part, False, round_nearest)
            got = _screen_double(part)
            if exact:
                assert got.hex() == want.hex(), part
            else:
                assert got == want or abs(got - want) <= math.ulp(want), part
            doubles.append(abs(got))
        assert len(doubles) > 1500
        assert 0.0 in doubles and math.inf in doubles and 2.0**-1074 in doubles
        assert any(0.0 < x < 2.0**-1022 for x in doubles)
        assert sys.float_info.max in doubles

    @staticmethod
    def _residuals():
        q = QBase(0.6)
        return [
            identity_euler(q, -0.85 + 0.2j, 1e-14).hex(),
            identity_euler(q, -0.85, 1e-14).hex(),
            identity_qbinomial_theorem(1.5 - 0.5j, q, -0.6 + 0.3j, 1e-14).hex(),
            identity_qbinomial_theorem(-1.5, q, 0.45, 1e-14).hex(),
            identity_ql_sum(0.3, q, 1e-14).hex(),
        ]

    @pytest.mark.parametrize("dps", [5, 60])
    def test_mpmath_context_neither_matters_nor_changes(self, dps):
        import mpmath

        outside = self._residuals()
        before = mpmath.mp.prec
        with mpmath.mp.workdps(dps):
            inside_prec = mpmath.mp.prec
            assert self._residuals() == outside
            assert mpmath.mp.prec == inside_prec
        assert mpmath.mp.prec == before

    def test_kernel_never_sets_mpmath_precision(self, monkeypatch):
        import mpmath

        writes = []
        context = type(mpmath.mp)
        for name in ("prec", "dps"):
            kept = getattr(context, name)

            def setter(ctx, value, name=name, kept=kept):
                writes.append((name, value))
                kept.fset(ctx, value)

            monkeypatch.setattr(context, name, property(kept.fget, setter))
        self._residuals()
        assert writes == []
