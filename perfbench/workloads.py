"""The four benchmark workloads, their seeded inputs and their correctness gates.

Every workload is a closed loop with one caller: the next operation starts
when the previous one returns.  Inputs come in rounds.  A round is a fixed
mix of operations whose parameters or order are drawn from the benchmark
seed, so a run that stops at a round boundary always holds the same mix
whatever the seed.  The library only ever sees the generated inputs.

Each workload calls the public API the way a user does and looks every
library function up on its module at call time, so the tracer's rebinding
sees the calls.
"""

from __future__ import annotations

import contextlib
import csv
import io
import math
import random
import re
from array import array
from time import perf_counter as _clock
from typing import NamedTuple

import oracle
import qineq.cli as cli
import speed
from qineq import bounds, qcore, series, verify
from qineq.errors import QSeriesError

TOL = 1e-14
SLACK = 1e-12
LOG_SLACK = math.log1p(SLACK)
IDENTITY_GATE = 1e-11
TWO_PI = 2.0 * math.pi
CALIBRATE_EVERY_S = 0.025

_SUMMARY = re.compile(r"records=(\d+) passed=(\d+) failed=(\d+) errors=(\d+)")


class Tally:
    """What one pass over the workload did: per-op latencies and counts.

    Raw per-op times go into a buffer allocated once at its full size, so the
    memory a run touches does not depend on how many operations fit into it.
    After every CALIBRATE_EVERY_S of operation time the speed reference is
    timed (see speed.py); ``normalized`` scales each op to the nominal host
    speed by the two reference timings around it.
    """

    def __init__(self, capacity: int):
        self.durations = array("d", bytes(8 * capacity))
        self.capacity = capacity
        self.ops = 0
        self.busy_s = 0.0
        self.results = 0
        self.errors = 0
        self.failed = 0
        self.output_bytes = 0
        self.failures: list[str] = []
        self.marks: list[tuple[int, float]] = []
        self._since_mark = 0.0

    @property
    def full(self) -> bool:
        return self.ops >= self.capacity

    def add(self, seconds: float, results: int, errors: int = 0) -> None:
        self.durations[self.ops] = seconds
        self.ops += 1
        self.busy_s += seconds
        self.results += results
        self.errors += errors
        self._since_mark += seconds
        if self._since_mark >= CALIBRATE_EVERY_S:
            self.calibrate()

    def calibrate(self) -> None:
        self.marks.append((self.ops, speed.reference_seconds()))
        self._since_mark = 0.0

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.failures) < 5:
            self.failures.append(message)

    def normalized(self) -> list[float]:
        """Per-op times at the nominal host speed; needs a mark at both ends."""
        if not self.marks or self.marks[-1][0] != self.ops:
            self.calibrate()
        out = []
        for (lo, before), (hi, after) in zip(self.marks, self.marks[1:]):
            factor = speed.scale(before, after)
            out.extend(d * factor for d in self.durations[lo:hi])
        return out


_NO_SPAN = contextlib.nullcontext()


def _op_scope(tracer, op: int, name: str):
    return _NO_SPAN if tracer is None else tracer.op_span(op, name)


def _cli(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.run(argv)
    return rc, out.getvalue(), err.getvalue()


def _disk(rng: random.Random, radius: float) -> complex:
    r = radius * math.sqrt(rng.random())
    ang = rng.uniform(0.0, TWO_PI)
    return complex(r * math.cos(ang), r * math.sin(ang))


def _point(rng: random.Random, lo: float, hi: float) -> complex:
    ang = rng.uniform(0.0, TWO_PI)
    mod = math.exp(rng.uniform(math.log(lo), math.log(hi)))
    return mod * complex(math.cos(ang), math.sin(ang))


def _theta_spec(qb, alpha: float, c_weighted: float):
    """The Laurent expansion the CLI audits: the theta coefficient stream."""
    qq = qb.q
    return series.LaurentSpec(
        center=0.0,
        coeff=lambda k: complex(qq ** (k * k)),
        alpha=alpha,
        q=qb,
        c_weighted=c_weighted,
    )


class Check:
    """Collects gate verdicts and the numbers printed next to them."""

    def __init__(self):
        self.failures: list[str] = []
        self.notes: list[str] = []
        self.worst_oracle = 0.0
        self.oracle_samples = 0

    def require(self, ok: bool, name: str, detail: str) -> None:
        if not ok:
            self.failures.append(f"{name}: {detail}")

    def oracle(self, name: str, result, reference) -> float:
        """Gate one evaluation against its reference; return the error relative to |value|."""
        got = result.value
        want, t_max = reference
        err = oracle.scaled_error(got, want, t_max)
        self.oracle_samples += 1
        self.worst_oracle = max(self.worst_oracle, err)
        self.require(err <= oracle.GATE, "oracle", f"{name} scaled error {err:.3e} > 1e-12")
        return abs(got - want) / abs(want) if want != 0 else math.inf


# ---------------------------------------------------------------- audits


class _AuditWorkload:
    """Shared loop and gate of the two in-process CLI audit workloads."""

    rerun_ops = 3
    rows_per_rerun = 4

    def __init__(self):
        self.kept: list[tuple] = []

    def run_round(self, specs, tally: Tally, tracer=None) -> None:
        for spec in specs:
            argv = spec[-1]
            with _op_scope(tracer, tally.ops, self.name):
                start = _clock()
                try:
                    rc, out, err = _cli(argv)
                except Exception as exc:  # an op that crashes is counted, not fatal
                    planned = self.planned_records(spec)
                    tally.add(_clock() - start, planned, planned)
                    tally.fail(f"{' '.join(argv[1:5])} raised {exc!r}")
                    continue
                seconds = _clock() - start
            match = _SUMMARY.search(err)
            records = int(match.group(1)) if match else 0
            errors = int(match.group(4)) if match else 0
            tally.add(seconds, records, errors)
            tally.output_bytes += len(out)
            if rc != 0 or match is None or records != self.planned_records(spec) or int(match.group(3)):
                tally.fail(f"{' '.join(argv[1:5])}: exit {rc}, summary {err.strip()!r}")
            if len(self.kept) < self.rerun_ops:
                self.kept.append((spec, out))

    def gate(self, check: Check) -> None:
        for spec, first in self.kept:
            argv = spec[-1]
            label = " ".join(argv[1:5])
            rc, out, _ = _cli(argv)
            check.require(rc == 0 and out == first, "rerun", f"{label} rerun (exit {rc}) is not byte-identical")
            rows = list(csv.DictReader(io.StringIO(out)))
            check.require(
                len(rows) == self.planned_records(spec),
                "record count",
                f"{label}: {len(rows)} rows, plan {self.planned_records(spec)}",
            )
            clean = [r for r in rows if r["abs_value"] != "nan"]
            for row in clean:
                abs_value = float(row["abs_value"])
                dominated = abs_value == 0.0 or math.log(abs_value) <= float(
                    row["envelope_log"]
                ) + LOG_SLACK
                check.require(
                    row["pass"] == "true" and dominated,
                    "domination",
                    f"{label} at z={row['re_z']}{row['im_z']}i",
                )
            step = max(1, len(clean) // self.rows_per_rerun)
            for row in clean[::step][: self.rows_per_rerun]:
                z = complex(float(row["re_z"]), float(row["im_z"]))
                result, reference = self.evaluate_row(spec, row, z)
                check.require(
                    repr(abs(result.value)) == row["abs_value"],
                    "record value",
                    f"{label} at z={z!r}: record {row['abs_value']} != {abs(result.value)!r}",
                )
                check.oracle(f"{label} z={z!r}", result, reference)


def _evaluate(tag: str, params, z: complex):
    """Direct evaluation of a tagged function and its 40-digit reference.

    Tags and parameters follow verify.audit_target ("aq" is the
    Gaussian-weight series at z, as the audit evaluates it); "ramanujan_aq"
    is A_q itself, with a QBase.
    """
    if tag == "theta":
        qb = params[0]
        result = series.eval_theta(qb, z, TOL)
        return result, oracle.theta(qb.q, z, 2 * ((result.terms_used - 1) // 2))
    if tag == "laurent":
        result = series.eval_laurent(params, z, TOL)
        return result, oracle.two_sided(params.coeff, z, 2 * ((result.terms_used - 1) // 2))
    if tag == "ramanujan_aq":
        result = series.eval_ramanujan_aq(params, z, TOL)
        return result, oracle.confluent_f((), (), 1.0, params.q, -z, 2 * result.terms_used)
    if tag == "phi":
        result = series.eval_phi(params, z, TOL)
        return result, oracle.phi(params.a_list, params.b_list, params.q.q, z, 2 * result.terms_used)
    if tag == "aq":
        params = series.ConfluentParams((), (), 1.0, params)
    result = series.eval_confluent_f(params, z, TOL)
    return result, oracle.confluent_f(
        params.a_list, params.b_list, params.l, params.q.q, z, 2 * result.terms_used
    )


def _digest_lists(digest: str):
    fields = dict(part.split("=", 1) for part in digest.split(";"))
    a = tuple(complex(t.replace("i", "j")) for t in fields["a"].split(",") if t)
    b = tuple(float(t) for t in fields["b"].split(",") if t)
    return a, b


class DrawsAudit(_AuditWorkload):
    """criterion 01 draw regions through the CLI, a fresh target per record."""

    name = "draws_audit"
    draws = 200
    argv_tail = ["--q", "0.5", "--grid", "1e-3:1e3:2", "--angles", "1"]

    def rounds(self, seed: int):
        rng = random.Random(f"{self.name}/{seed}")
        while True:
            specs = [(tag, rng.randrange(2**31)) for tag in ("f", "phi")]
            rng.shuffle(specs)
            yield [
                (tag, s, ["audit", "--function", tag, *self.argv_tail,
                          "--draws", str(self.draws), "--seed", str(s)])
                for tag, s in specs
            ]

    def planned_records(self, spec) -> int:
        return self.draws

    def first_target(self, seed: int):
        tag, s, _ = next(self.rounds(seed))[0]
        rng = random.Random(s)
        if tag == "f":
            return lambda: verify.audit_target("confluent_f", verify.draw_confluent_params(rng))
        return lambda: verify.audit_target("phi", verify.draw_phi_params(rng))

    def evaluate_row(self, spec, row, z):
        a, b = _digest_lists(row["param_digest"])
        qb = qcore.QBase(float(row["q"]))
        if row["function"] == "phi":
            return _evaluate("phi", series.PhiParams(a, b, qb), z)
        return _evaluate("confluent_f", series.ConfluentParams(a, b, float(row["l"]), qb), z)


class Sweep(NamedTuple):
    """One fixed-parameter CLI audit sweep."""

    function: str
    q: float
    a: tuple = ()
    b: tuple = ()
    l: float | None = None
    alpha: float | None = None

    def argv(self) -> list[str]:
        argv = ["audit", "--function", self.function, "--q", repr(self.q)]
        argv += [f"--a={verify.format_complex(a)}" for a in self.a]
        for b in self.b:
            argv += ["--b", repr(b)]
        if self.l is not None:
            argv += ["--l", repr(self.l)]
        if self.alpha is not None:
            argv += ["--alpha", repr(self.alpha)]
        return argv + ["--grid", LATTICE_GRID, "--angles", str(LATTICE_ANGLES)]

    def target(self):
        """(audit tag, fixed parameters) exactly as the CLI builds them."""
        qb = qcore.QBase(self.q)
        if self.function == "theta":
            return "theta", (qb, self.alpha)
        if self.function == "aq":
            return "aq", qb
        if self.function == "f":
            return "confluent_f", series.ConfluentParams(self.a, self.b, self.l, qb)
        if self.function == "phi":
            return "phi", series.PhiParams(self.a, self.b, qb)
        c = bounds.theta_weighted_constant(self.alpha, qb, 1e-15)
        return "laurent", _theta_spec(qb, self.alpha, c)


# q runs to 0.99 and |z| to 1e6, so the overflow region at q = 0.99 (error
# records) and the z = -1e6, q = 0.9 point of the f sweep stay in the mix.
# 25 sweeps: with whole rounds, p50 and p90 fall mid-way through one sweep's
# samples rather than on a step between two sweeps.
LATTICE_GRID = "1e-4:1e6:41"
LATTICE_ANGLES = 8
LATTICE_RECORDS = 41 * LATTICE_ANGLES
F_Q09 = Sweep("f", 0.9, l=1.0)
LATTICE_SWEEPS = (
    *(Sweep("theta", q, alpha=alpha) for q, alpha in
      ((0.1, 0.5), (0.3, 0.75), (0.5, 0.5), (0.9, 0.25), (0.95, 0.5), (0.99, 0.5))),
    *(Sweep("aq", q) for q in (0.1, 0.3, 0.5, 0.9, 0.99)),
    Sweep("f", 0.1, a=(0.5 + 0.5j,), b=(0.3,), l=0.5),
    Sweep("f", 0.3, a=(-1 + 1j,), l=2.5),
    Sweep("f", 0.5, a=(1 - 0.5j,), b=(0.2, 0.6), l=1.5),
    F_Q09,
    Sweep("f", 0.99, l=1.0),
    Sweep("phi", 0.1, a=(0.5,), b=(0.3,)),
    Sweep("phi", 0.3, b=(0.4, 0.7)),
    Sweep("phi", 0.5, b=(0.5,)),
    Sweep("phi", 0.9, a=(0.5,), b=(0.3,)),
    *(Sweep("laurent", q, alpha=alpha) for q, alpha in
      ((0.1, 0.5), (0.3, 0.75), (0.5, 0.5), (0.9, 0.5), (0.99, 0.5))),
)
# eval_phi lets a raw OverflowError escape at q = 0.99 instead of a typed
# error, which aborts the whole CLI audit.  The sweep is kept out of the
# timed mix (every op there would fail) and probed once per run instead, so
# the defect stays visible in the report until it is fixed.
PHI_Q099_PROBE = Sweep("phi", 0.99, a=(0.5,), b=(0.3,))


class LatticeAudit(_AuditWorkload):
    """Fixed-parameter grid x angle sweeps; one target per sweep."""

    name = "lattice_audit"

    def rounds(self, seed: int):
        rng = random.Random(f"{self.name}/{seed}")
        order = list(range(len(LATTICE_SWEEPS)))
        while True:
            rng.shuffle(order)
            yield [(i, LATTICE_SWEEPS[i].argv()) for i in order]

    def planned_records(self, spec) -> int:
        return LATTICE_RECORDS

    def first_target(self, seed: int):
        index, _ = next(self.rounds(seed))[0]
        return lambda: verify.audit_target(*LATTICE_SWEEPS[index].target())

    def evaluate_row(self, spec, row, z):
        return _evaluate(*LATTICE_SWEEPS[spec[0]].target(), z)

    def gate(self, check: Check) -> None:
        super().gate(check)
        # ROADMAP aim 3: at q = 0.9, l = 1, z = -1e6 the evaluator claims a
        # certified value that is off by ~1e-6 relative to |value|.  Criterion
        # 09's scaling (by the largest term) passes it; the relative error is
        # printed ungated so the defect stays in view.
        angle = TWO_PI * (LATTICE_ANGLES // 2) / LATTICE_ANGLES
        z = 1e6 * complex(math.cos(angle), math.sin(angle))
        result, reference = _evaluate(*F_Q09.target(), z)
        rel = check.oracle("f q=0.9 l=1 z=-1e6", result, reference)
        check.notes.append(f"ungated: f q=0.9 l=1 z=-1e6 error relative to |value| = {rel:.3e}")
        try:
            _cli(PHI_Q099_PROBE.argv())
            check.notes.append("probe: phi q=0.99 sweep no longer raises")
        except OverflowError as exc:
            check.notes.append(f"known defect (ungated): phi q=0.99 sweep raises OverflowError: {exc}")


# ------------------------------------------------------------- envelopes


class Table(NamedTuple):
    """One envelope tabulated over ``moduli`` seed-drawn moduli per round.

    ``tag`` and ``params`` name the function the envelope bounds, for the
    domination check by direct evaluation.
    """

    envelope: str
    args: tuple
    tag: str
    params: object
    moduli: int


def _envelope_tables() -> tuple[Table, ...]:
    """The parameter sets run from cheap (q = 0.1, no parameters) to expensive
    (q = 0.9, r = s = 2); each repeats on every round while the moduli change.

    Per-call cost is nearly constant within a table, so the latency
    distribution is a staircase; the moduli counts put the median inside the
    entire-class q = 0.1 table and p90 inside the q = 0.9, r = s = 2 table
    (costs measured at the seed code), never on a step between two tables.
    """
    QB, CP, PP = qcore.QBase, series.ConfluentParams, series.PhiParams

    def entire(params, moduli):
        return Table("envelope_entire", (params,), "confluent_f", params, moduli)

    def phi(params, moduli):
        return Table("envelope_phi", (params,), "phi", params, moduli)

    def aq(qb, moduli):
        return Table("envelope_aq_gaussian", (qb,), "ramanujan_aq", qb, moduli)

    def theta(alpha, qb, moduli):
        return Table("envelope_theta", (alpha, qb), "theta", (qb, alpha), moduli)

    def meromorphic(alpha, qb, moduli):
        c = bounds.theta_weighted_constant(alpha, qb, 1e-15)
        args = (bounds.meromorphic_bound_params(alpha, qb), c)
        return Table("envelope_meromorphic", args, "laurent", _theta_spec(qb, alpha, c), moduli)

    return (
        entire(CP((), (), 1.0, QB(0.1)), 512),
        entire(CP((0.5 + 0.5j,), (0.3,), 1.5, QB(0.5)), 288),
        entire(CP((1 + 1j, -0.5), (0.2, 0.6), 1.0, QB(0.9)), 384),
        phi(PP((), (), QB(0.1)), 288),
        phi(PP((0.5,), (0.3, 0.6), QB(0.9)), 128),
        aq(QB(0.1), 320),
        aq(QB(0.9), 256),
        theta(0.5, QB(0.1), 320),
        theta(0.25, QB(0.9), 320),
        meromorphic(0.5, QB(0.5), 384),
    )


class EnvelopeTable:
    """Direct envelope calls over dense modulus grids; one op is one call."""

    name = "envelope_table"
    gate_moduli = 8
    gate_angles = (0.0, 0.5 * math.pi, math.pi, 1.5 * math.pi)
    oracle_per_table = 2

    def __init__(self):
        self.tables = _envelope_tables()
        self.first_round: list[tuple] = []

    def rounds(self, seed: int):
        rng = random.Random(f"{self.name}/{seed}")
        order = list(range(len(self.tables)))
        lo, hi = math.log(1e-6), math.log(1e6)
        while True:
            rng.shuffle(order)
            yield [
                (i, tuple(sorted(math.exp(rng.uniform(lo, hi)) for _ in range(self.tables[i].moduli))))
                for i in order
            ]

    def run_round(self, specs, tally: Tally, tracer=None) -> None:
        keep = not self.first_round
        for index, moduli in specs:
            table = self.tables[index]
            fn = getattr(bounds, table.envelope)
            values = []
            for abs_z in moduli:
                with _op_scope(tracer, tally.ops, self.name):
                    start = _clock()
                    try:
                        env = fn(*table.args, abs_z)
                    except Exception as exc:  # an op that crashes is counted, not fatal
                        tally.add(_clock() - start, 1, 1)
                        tally.fail(f"{table.envelope} table {index} |z|={abs_z!r} raised {exc!r}")
                        continue
                    seconds = _clock() - start
                finite = math.isfinite(env.log_bound)
                tally.add(seconds, 1, 0 if finite else 1)
                if keep:
                    values.append(env.log_bound)
                if tally.full:
                    return
            if keep:
                self.first_round.append((index, moduli, values))

    def first_target(self, seed: int):
        index, moduli = next(self.rounds(seed))[0]
        table = self.tables[index]
        return lambda: getattr(bounds, table.envelope)(*table.args, moduli[0])

    def gate(self, check: Check) -> None:
        checked = 0
        for index, moduli, values in self.first_round:
            table = self.tables[index]
            label = f"{table.envelope} table {index}"
            check.require(len(values) == len(moduli), "record count",
                          f"{label}: {len(values)} values for {len(moduli)} moduli")
            step = max(1, len(values) // self.gate_moduli)
            evaluated = oracled = 0
            for abs_z, log_bound in list(zip(moduli, values))[::step]:
                for angle in self.gate_angles:
                    z = abs_z * complex(math.cos(angle), math.sin(angle))
                    try:
                        result, reference = _evaluate(table.tag, table.params, z)
                    except QSeriesError:
                        continue  # beyond the evaluator's double range
                    evaluated += 1
                    abs_value = abs(result.value)
                    check.require(
                        abs_value == 0.0 or math.log(abs_value) <= log_bound + LOG_SLACK,
                        "domination",
                        f"{label} at z={z!r}: log|value| {math.log(abs_value)!r} > {log_bound!r}",
                    )
                    if oracled < self.oracle_per_table:
                        check.oracle(f"{label} z={z!r}", result, reference)
                        oracled += 1
            check.require(evaluated > 0, "domination", f"{label}: no sampled modulus evaluable")
            checked += evaluated
        check.notes.append(f"envelope domination checked at {checked} points")


# ------------------------------------------------------------ identities


_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
_SILVER = math.sqrt(2.0) - 1.0


class IdentityResiduals:
    """criterion 08 draw regions; one op is one identity residual."""

    name = "identity_residuals"
    triples_per_round = 1
    draws_per_round = 5
    oracle_samples = 8

    def __init__(self):
        self.residuals: list[tuple] = []

    def rounds(self, seed: int):
        """Criterion 08's regions; q and l follow seeded Kronecker sequences.

        The cost of one residual grows without bound as q^l approaches 1, so
        independent draws make a run's total cost depend on how many of
        those rare inputs it meets.  Low-discrepancy q and l keep the same
        uniform regions while every run covers them evenly.
        """
        rng = random.Random(f"{self.name}/{seed}")
        q_at, l_at = rng.random(), rng.random()
        while True:
            specs = []
            for _ in range(self.draws_per_round):
                q_at = (q_at + _GOLDEN) % 1.0
                l_at = (l_at + _SILVER) % 1.0
                q = 0.05 + 0.85 * q_at
                z = _disk(rng, 0.9)
                specs.append(("identity_euler", (q, z)))
                specs.append(("identity_qbinomial_theorem", (_disk(rng, 2.0), q, z)))
                specs.append(("identity_ql_sum", (0.05 + 7.95 * l_at, q)))
            for _ in range(self.triples_per_round):
                specs.append(("identity_theta_triple_product", (rng.uniform(0.05, 0.8), _point(rng, 0.2, 5.0))))
            yield specs

    @staticmethod
    def _call_args(kind: str, args):
        if kind == "identity_qbinomial_theorem":
            a, q, z = args
            return (a, qcore.QBase(q), z, TOL)
        if kind == "identity_ql_sum":
            l, q = args
            return (l, qcore.QBase(q), TOL)
        q, z = args
        return (qcore.QBase(q), z, TOL)

    def run_round(self, specs, tally: Tally, tracer=None) -> None:
        for kind, args in specs:
            call_args = self._call_args(kind, args)
            with _op_scope(tracer, tally.ops, self.name):
                start = _clock()
                try:
                    residual = getattr(verify, kind)(*call_args)
                except Exception as exc:  # an op that crashes is counted, not fatal
                    tally.add(_clock() - start, 1, 1)
                    tally.fail(f"{kind}{args!r} raised {exc!r}")
                    continue
                seconds = _clock() - start
            tally.add(seconds, 1)
            self.residuals.append((kind, args, residual))

    def first_target(self, seed: int):
        kind, args = next(self.rounds(seed))[0]
        return lambda: getattr(verify, kind)(*self._call_args(kind, args))

    def gate(self, check: Check) -> None:
        worst: dict[str, float] = {}
        triples = []
        for kind, args, residual in self.residuals:
            if kind == "identity_qbinomial_theorem":
                a, q, z = args
                qb = qcore.QBase(q)
                scale = abs(
                    qcore.pochhammer_infinite(a * z, qb, TOL).value
                    / qcore.pochhammer_infinite(z, qb, TOL).value
                )
                residual /= max(1.0, scale)
            elif kind == "identity_theta_triple_product" and len(triples) < self.oracle_samples:
                triples.append(args)
            worst[kind] = max(worst.get(kind, 0.0), residual)
        for kind, value in worst.items():
            check.require(value <= IDENTITY_GATE, "identity residual",
                          f"{kind} worst residual {value:.3e} > 1e-11")
        check.notes.append(
            "worst residuals: " + ", ".join(f"{k.removeprefix('identity_')} {v:.3e}" for k, v in worst.items())
        )
        for q, z in triples:
            check.oracle(f"theta q={q!r} z={z!r}", *_evaluate("theta", (qcore.QBase(q), None), z))


WORKLOADS = {
    w.name: w for w in (DrawsAudit, LatticeAudit, EnvelopeTable, IdentityResiduals)
}


def make(name: str):
    return WORKLOADS[name]()

