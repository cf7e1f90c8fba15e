"""Audit reports: the CSV writer against a plain csv.writer reference, its
cell quoting, the error column and key, and one envelope per modulus in a
lattice sweep."""

import csv
import io
import itertools
import json
import math

import pytest

from qineq import (
    ConfluentParams,
    LaurentSpec,
    NonConvergentError,
    PhiParams,
    QBase,
    SweepPlan,
    audit_envelope,
    audit_target,
    log_grid,
    theta_weighted_constant,
)
from qineq import verify
from qineq.cli import CSV_COLUMNS, _csv_cell, _write_csv, run

import reference_report

_COMMA_ERROR = "infinite product needs 50656846 factors, beyond the cap 1000000"
_PLAN = SweepPlan(abs_z_grid=log_grid(1e-4, 1e6, 21), angle_count=4)
# aq at q = 0.9999 evaluates at |z| <= 1e-2 and overflows at |z| >= 1e-1.
_AQ_NEAR_ONE = QBase(0.9999)


def _failing_envelopes(monkeypatch):
    """Give every audit target an envelope that raises _COMMA_ERROR at each
    modulus, the error an envelope whose constant cannot be computed gives."""

    def target_with_failing_envelope(tag, params):
        def envelope_log(abs_z):
            raise NonConvergentError(_COMMA_ERROR)

        return audit_target(tag, params)._replace(envelope_log=envelope_log)

    monkeypatch.setattr(verify, "audit_target", target_with_failing_envelope)


def _theta_spec(q, alpha):
    base = QBase(q)
    return LaurentSpec(
        center=0.0,
        coeff=lambda k: complex(q ** (k * k)),
        alpha=alpha,
        q=base,
        c_weighted=theta_weighted_constant(alpha, base, 1e-15),
    )


def _written(write, records) -> str:
    stream = io.StringIO()
    write(records, stream)
    return stream.getvalue()


def _assert_matches_reference(records):
    assert _written(_write_csv, records) == _written(reference_report.write_csv, records)


_SWEEPS = {
    "f": ("confluent_f", ConfluentParams((0.5 + 0.5j,), (0.3,), 0.5, QBase(0.1))),
    "f digest with commas": (
        "confluent_f", ConfluentParams((1 - 0.5j,), (0.2, 0.6), 1.5, QBase(0.5))
    ),
    "f q=0.99": ("confluent_f", ConfluentParams((), (), 1.0, QBase(0.99))),
    "phi": ("phi", PhiParams((0.5,), (0.3,), QBase(0.9))),
    "phi q=0.99": ("phi", PhiParams((0.5,), (0.3,), QBase(0.99))),
    "aq": ("aq", QBase(0.5)),
    "theta": ("theta", (QBase(0.3), 0.75)),
    "theta q=0.99": ("theta", (QBase(0.99), 0.5)),
    "laurent": ("laurent", _theta_spec(0.5, 0.5)),
    "laurent q=0.99": ("laurent", _theta_spec(0.99, 0.5)),
}


class TestCsvWriterMatchesReference:
    def test_header(self):
        assert CSV_COLUMNS == reference_report.COLUMNS

    @pytest.mark.parametrize("name", sorted(_SWEEPS))
    def test_sweep(self, name):
        _assert_matches_reference(audit_envelope(_PLAN, *_SWEEPS[name]))

    def test_sweep_with_envelope_errors(self, monkeypatch):
        _failing_envelopes(monkeypatch)
        records = audit_envelope(_PLAN, "aq", _AQ_NEAR_ONE)
        assert {r.error for r in records} == {_COMMA_ERROR, "series term left the double range"}
        _assert_matches_reference(records)

    @pytest.mark.parametrize("tag", ["confluent_f", "phi"])
    def test_draws(self, tag):
        plan = SweepPlan(abs_z_grid=(1e-3, 1e3), angle_count=1, parameter_draws=300, seed=5)
        records = audit_envelope(plan, tag)
        assert len({(r.q, r.param_digest) for r in records}) == 300
        _assert_matches_reference(records)

    def test_interleaved_sweeps(self):
        # The repeated cells change from record to record and come back.
        a = audit_envelope(_PLAN, *_SWEEPS["f digest with commas"])
        b = audit_envelope(_PLAN, *_SWEEPS["theta"])
        records = [r for pair in zip(a, b, a) for r in pair]
        _assert_matches_reference(records)

    def test_cells_that_need_quoting(self):
        base = audit_envelope(SweepPlan(abs_z_grid=(0.5, 2.0), angle_count=2), "aq", QBase(0.5))[0]
        records = [
            base,
            base._replace(param_digest='note="a,b"\nc', l=None),
            base._replace(error='bad, "quoted"\r\nline', z=complex(-0.0, math.inf)),
            base._replace(error=" leading space", abs_value=math.nan),
            base._replace(error="plain"),
            base._replace(function_tag="theta", param_digest=""),
        ]
        _assert_matches_reference(records)
        assert len(list(csv.reader(io.StringIO(_written(_write_csv, records))))) == 7

    def test_digest_with_a_comma_beside_one_without(self):
        base = audit_envelope(SweepPlan(abs_z_grid=(0.5, 2.0), angle_count=2), "phi",
                              PhiParams((), (0.2, 0.6), QBase(0.5)))
        assert base[0].param_digest == "a=;b=0.2,0.6"
        records = [*base, *(r._replace(param_digest="a=;b=0.2") for r in base), base[0]]
        _assert_matches_reference(records)
        rows = list(csv.reader(io.StringIO(_written(_write_csv, records))))
        assert [row[3] for row in rows[1:]] == ["a=;b=0.2,0.6"] * 4 + ["a=;b=0.2"] * 4 + ["a=;b=0.2,0.6"]

    def test_empty(self):
        _assert_matches_reference([])


def _read_back(cell: str) -> list[list[str]]:
    return list(csv.reader(io.StringIO(cell + ",a\n", newline="")))


class TestCsvCell:
    def test_matches_csv_writer_on_short_strings(self):
        # All 41,371 strings of up to four characters over the CSV specials
        # and characters of float reprs and digests.  csv.writer may leave a
        # cell whose one special character is \r unquoted, and csv.reader
        # reads such a cell back whole only when it is quoted.
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        alphabet = 'a ,"\n\r;=.-+e0\t'
        strings = [""]
        for n in range(1, 5):
            strings += ["".join(chars) for chars in itertools.product(alphabet, repeat=n)]
        for text in strings:
            buffer.seek(0)
            buffer.truncate()
            writer.writerow((text, "a"))
            want = buffer.getvalue()[:-len(",a\n")]
            got = _csv_cell(text)
            if got != want:
                assert "\r" in text and not any(c in text for c in ',"\n'), repr(text)
                assert got == f'"{text}"'
            assert _read_back(got) == [[text, "a"]], repr(text)

    @pytest.mark.parametrize("text", ["\r", "a\rb", "\r0.5\r"])
    def test_a_lone_carriage_return_is_quoted(self, text):
        assert _csv_cell(text) == f'"{text}"'
        assert _read_back(_csv_cell(text)) == [[text, "a"]]
        assert _read_back(text) != [[text, "a"]]


class TestErrorColumn:
    def test_csv_and_json_carry_each_record_error(self, capsys):
        tag, params = _SWEEPS["phi q=0.99"]
        records = audit_envelope(_PLAN, tag, params)
        argv = ["audit", "--function", "phi", "--q", "0.99", "--a=0.5", "--b", "0.3",
                "--grid", "1e-4:1e6:21", "--angles", "4"]
        assert run(argv) == 0
        rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
        assert [row["error"] for row in rows] == [r.error for r in records]
        assert any(r.error for r in records) and not all(r.error for r in records)
        assert run(argv + ["--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert [row["error"] for row in payload] == [r.error or None for r in records]
        assert all(list(row)[-1] == "error" for row in payload)

    def test_error_with_a_comma_is_quoted(self, capsys, monkeypatch):
        _failing_envelopes(monkeypatch)
        argv = ["audit", "--function", "aq", "--q", "0.9999", "--grid", "1e-7:1e-1:3",
                "--angles", "2"]
        assert run(argv) == 0
        captured = capsys.readouterr()
        assert captured.err == "records=6 passed=0 failed=0 errors=6\n"
        lines = captured.out.splitlines()
        assert lines[0].endswith(",tail_bound,error")
        assert lines[1].endswith(f',nan,"{_COMMA_ERROR}"')
        errors = [row["error"] for row in csv.DictReader(lines)]
        assert errors == [_COMMA_ERROR] * 4 + ["series term left the double range"] * 2


class TestOneEnvelopePerModulus:
    def _counted(self, monkeypatch):
        calls = []

        def counting_target(tag, params):
            target = audit_target(tag, params)

            def envelope_log(abs_z):
                calls.append(abs_z)
                return target.envelope_log(abs_z)

            return target._replace(envelope_log=envelope_log)

        monkeypatch.setattr(verify, "audit_target", counting_target)
        return calls

    def test_lattice(self, monkeypatch):
        calls = self._counted(monkeypatch)
        records = audit_envelope(_PLAN, "theta", (QBase(0.99), 0.5))
        n = _PLAN.angle_count
        # Once at each modulus where some evaluation succeeded, in grid order.
        evaluated = [
            m for i, m in enumerate(_PLAN.abs_z_grid)
            if any(not r.error for r in records[i * n:(i + 1) * n])
        ]
        assert calls == evaluated
        assert 0 < len(evaluated) < len(_PLAN.abs_z_grid)

    def test_draws_stay_per_point(self, monkeypatch):
        calls = self._counted(monkeypatch)
        plan = SweepPlan(abs_z_grid=(1e-3, 1e3), angle_count=1, parameter_draws=50, seed=3)
        records = audit_envelope(plan, "confluent_f")
        assert len(calls) == sum(1 for r in records if not r.error) == 50

    def test_evaluation_error_comes_first(self, monkeypatch):
        # The envelope raises at every modulus, the evaluation succeeds at the
        # two smaller moduli only.  A record whose evaluation failed keeps
        # that error; the others carry the envelope's.
        _failing_envelopes(monkeypatch)
        plan = SweepPlan(abs_z_grid=(1e-7, 1e-4, 1e-1), angle_count=2)
        records = audit_envelope(plan, "aq", _AQ_NEAR_ONE)
        assert [r.error for r in records] == [_COMMA_ERROR] * 4 + [
            "series term left the double range"
        ] * 2

    def test_envelope_error_never_reached(self, capsys, monkeypatch):
        _failing_envelopes(monkeypatch)
        argv = ["audit", "--function", "aq", "--q", "0.9999", "--grid", "1e-1:1:2",
                "--angles", "2"]
        assert run(argv) == 0
        captured = capsys.readouterr()
        assert captured.err == "records=4 passed=0 failed=0 errors=4\n"
        assert len(captured.out.splitlines()) == 5
        assert _COMMA_ERROR not in captured.out
