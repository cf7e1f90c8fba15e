import csv
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from qineq import (
    ConfluentParams,
    PhiParams,
    QBase,
    audit_target,
    eval_confluent_f,
    eval_ramanujan_aq,
    format_complex,
)
from qineq import bounds, cli, verify
from qineq.cli import CSV_COLUMNS, build_parser, parse_complex, parse_grid, run
from qineq.series import LAURENT_K_CAP

import oracles

SRC_DIR = Path(__file__).resolve().parents[1] / "src"


class TestParsers:
    @pytest.mark.parametrize(
        "text,want",
        [
            ("0.3-0.4i", 0.3 - 0.4j),
            ("1+0i", 1.0 + 0.0j),
            ("-1-2i", -1.0 - 2.0j),
            ("2.5", 2.5 + 0.0j),
            ("1e-3+2.5i", 1e-3 + 2.5j),
            # Only a trailing i is the imaginary unit; inf keeps its own i.
            ("inf", complex(math.inf, 0.0)),
            ("-inf+0i", complex(-math.inf, 0.0)),
            (" 1+2i ", 1.0 + 2.0j),
        ],
    )
    def test_complex_literals(self, text, want):
        assert parse_complex(text) == want

    def test_rejects_garbage(self):
        import argparse

        with pytest.raises(argparse.ArgumentTypeError):
            parse_complex("spam")

    def test_grid(self):
        grid = parse_grid("1e-2:1e2:5")
        assert grid[0] == 1e-2 and grid[-1] == 1e2 and len(grid) == 5

    def test_grid_rejects_malformed(self):
        import argparse

        with pytest.raises(argparse.ArgumentTypeError):
            parse_grid("1:2")
        with pytest.raises(argparse.ArgumentTypeError):
            parse_grid("0:1:5")


class TestEvalCommand:
    def test_aq_value(self, capsys):
        assert run(["eval", "--function", "aq", "--q", "0.5", "--z", "1+0i"]) == 0
        tail = eval_ramanujan_aq(QBase(0.5), 1.0, 1e-14).tail_bound
        assert capsys.readouterr().out.splitlines() == [
            f"value = {oracles.AQ_HALF_AT_ONE!r}+0.0i",
            "terms_used = 9",
            f"tail_bound = {tail!r}",
        ]

    def test_entire_function_requires_weight(self, capsys):
        assert run(["eval", "--function", "f", "--q", "0.5", "--z", "1+0i"]) == 2
        assert "--l" in capsys.readouterr().err

    def test_entire_function_with_params(self, capsys):
        code = run(
            ["eval", "--function", "f", "--q", "0.5", "--z", "1+0i", "--l", "1",
             "--a", "0.3+0.1i", "--b", "0.2"]
        )
        assert code == 0
        assert "value = " in capsys.readouterr().out

    def test_theta_value(self, capsys):
        assert run(["eval", "--function", "theta", "--q", "0.5", "--z", "1+0i"]) == 0
        assert f"value = {oracles.THETA_HALF_AT_ONE!r}+0.0i" in capsys.readouterr().out

    def test_laurent_matches_theta(self, capsys):
        assert run(
            ["eval", "--function", "laurent", "--q", "0.5", "--z", "2+0i", "--alpha", "0.6"]
        ) == 0
        line = capsys.readouterr().out.splitlines()[0]
        got = parse_complex(line.removeprefix("value = "))
        want, _ = oracles.theta_direct(0.5, 2.0, 40)
        assert abs(got - want) <= 1e-10 * abs(want)

    def test_rejects_base_outside_range(self, capsys):
        assert run(["eval", "--function", "aq", "--q", "1.5", "--z", "1+0i"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_laurent_index_cap_reported(self, capsys):
        code = run(
            ["eval", "--function", "laurent", "--q", "0.999", "--z", "1.05+0i",
             "--alpha", "0.25"]
        )
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: weighted tail did not meet tol within |k| <= {LAURENT_K_CAP}\n")

    @pytest.mark.parametrize(
        "flag", [["--c-weighted", "1e-30"], ["--k-cap", "3"], ["--slack", "1e300"]])
    @pytest.mark.parametrize("subcommand", [
        ["eval", "--z", "2"], ["envelope", "--abs-z", "2"], ["audit", "--grid", "1:2:2"],
    ])
    def test_deleted_knobs_are_unrecognized(self, capsys, subcommand, flag):
        command, *rest = subcommand
        argv = [command, "--function", "laurent", "--q", "0.5", "--alpha", "0.5", *rest, *flag]
        assert run(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.endswith(f"error: unrecognized arguments: {' '.join(flag)}\n")


class TestEnvelopeCommand:
    def test_aq_gaussian(self, capsys):
        assert run(["envelope", "--function", "aq", "--q", "0.5", "--abs-z", "1"]) == 0
        out = capsys.readouterr().out
        bound = float(out.splitlines()[0].removeprefix("bound = "))
        assert math.isclose(bound, oracles.ENTIRE_ENV_HALF_AT_ONE, rel_tol=1e-12)
        assert "log_bound = " in out

    def test_aq_exponential_variant(self, capsys):
        assert run(
            ["envelope", "--function", "aq", "--q", "0.5", "--abs-z", "1",
             "--variant", "exponential"]
        ) == 0
        bound = float(capsys.readouterr().out.splitlines()[0].removeprefix("bound = "))
        assert math.isclose(bound, math.e, rel_tol=1e-14)

    def test_theta_variants(self, capsys):
        assert run(
            ["envelope", "--function", "theta", "--q", "0.5", "--abs-z", "10", "--alpha", "0.5"]
        ) == 0
        certified = capsys.readouterr().out
        assert run(
            ["envelope", "--function", "theta", "--q", "0.5", "--abs-z", "10",
             "--alpha", "0.5", "--variant", "as-printed"]
        ) == 0
        printed = capsys.readouterr().out
        assert certified != printed

    @staticmethod
    def _printed(text):
        return [float(line.split(" = ")[1]).hex() for line in text.splitlines()]

    @staticmethod
    def _fields(env):
        return [value.hex() for value in
                (env.bound, env.log_bound, env.constant_c, env.prefactor_log, env.exponent_term)]

    def test_phi_prints_the_library_envelope(self, capsys):
        assert run(["envelope", "--function", "phi", "--q", "0.5", "--a=0.5", "--b", "0.3",
                    "--abs-z", "3"]) == 0
        want = bounds.envelope_phi(PhiParams((0.5,), (0.3,), QBase(0.5)), 3.0)
        assert self._printed(capsys.readouterr().out) == self._fields(want)

    def test_laurent_prints_the_theta_constant_envelope(self, capsys):
        assert run(["envelope", "--function", "laurent", "--q", "0.5", "--alpha", "0.5",
                    "--abs-z", "2"]) == 0
        q = QBase(0.5)
        want = bounds.envelope_meromorphic(
            bounds.meromorphic_bound_params(0.5, q),
            bounds.theta_weighted_constant(0.5, q, bounds.THETA_CONSTANT_TOL), 2.0)
        assert self._printed(capsys.readouterr().out) == self._fields(want)

    def test_theta_requires_alpha(self, capsys):
        assert run(["envelope", "--function", "theta", "--q", "0.5", "--abs-z", "1"]) == 2
        assert "--alpha" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", [["--tol", "1e-10"], ["--k-cap", "3"]])
    def test_rejects_evaluation_flags(self, capsys, flag):
        code = run(["envelope", "--function", "laurent", "--q", "0.5", "--abs-z", "2",
                    "--alpha", "0.5", *flag])
        assert code == 2
        assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err


class TestAuditCommand:
    def test_theta_csv_report(self, tmp_path, capsys):
        out = tmp_path / "report.csv"
        code = run(
            ["audit", "--function", "theta", "--q", "0.3", "--alpha", "0.5",
             "--grid", "1e-4:1e4:41", "--angles", "8", "--out", str(out)]
        )
        assert code == 0
        assert "records=328 passed=328 failed=0 errors=0" in capsys.readouterr().err
        lines = out.read_text().splitlines()
        assert len(lines) == 329
        assert lines[0] == ",".join(CSV_COLUMNS)
        rows = list(csv.DictReader(lines))
        assert all(row["pass"] == "true" for row in rows)
        assert all(row["function"] == "theta" for row in rows)

    def test_csv_written_to_stdout_without_out(self, capsys):
        code = run(
            ["audit", "--function", "aq", "--q", "0.5", "--grid", "0.5:2:3", "--angles", "2"]
        )
        assert code == 0
        captured = capsys.readouterr()
        lines = captured.out.splitlines()
        assert lines[0] == ",".join(CSV_COLUMNS)
        assert len(lines) == 7

    def test_json_format(self, tmp_path):
        out = tmp_path / "report.json"
        code = run(
            ["audit", "--function", "aq", "--q", "0.5", "--grid", "1e-2:1e2:5",
             "--angles", "4", "--format", "json", "--out", str(out)]
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert len(payload) == 20
        assert list(payload[0].keys()) == list(CSV_COLUMNS[:4]) + [
            "re_z", "im_z", "abs_value", "envelope_log", "ratio", "pass",
            "terms_used", "tail_bound", "error",
        ]
        assert all(rec["pass"] is True and rec["error"] is None for rec in payload)

    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        argv = ["audit", "--function", "f", "--q", "0.5", "--grid", "1e-3:1e3:2",
                "--angles", "1", "--draws", "150", "--seed", "42"]
        assert run(argv + ["--out", str(a)]) == 0
        assert run(argv + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_understated_constant_exits_one(self, tmp_path, capsys, monkeypatch):
        # The envelope of a weighted constant of 0.01, far below the theta
        # stream's: every record but the two at angle pi and |z| != 1 exceeds it.
        def understated_target(tag, params):
            shape = bounds.meromorphic_bound_params(params.alpha, params.q)
            return audit_target(tag, params)._replace(
                envelope_log=lambda dist: bounds.envelope_meromorphic(shape, 0.01, dist).log_bound,
            )

        monkeypatch.setattr(verify, "audit_target", understated_target)
        code = run(
            ["audit", "--function", "laurent", "--q", "0.5", "--alpha", "0.5",
             "--grid", "0.5:2:3", "--angles", "2", "--out", str(tmp_path / "bad.csv")]
        )
        assert code == 1
        assert capsys.readouterr().err == "records=6 passed=2 failed=4 errors=0\n"
        rows = list(csv.DictReader((tmp_path / "bad.csv").read_text().splitlines()))
        assert [row["pass"] for row in rows] == ["false", "true", "false", "false", "false", "true"]

    def test_phi_overflow_region_reports_error_records(self, capsys):
        code = run(
            ["audit", "--function", "phi", "--q", "0.99", "--a=0.5", "--b", "0.3",
             "--grid", "1e-4:1e6:41", "--angles", "8"]
        )
        captured = capsys.readouterr()
        assert code == 0
        assert "records=328 passed=176 failed=0 errors=152" in captured.err
        rows = list(csv.DictReader(captured.out.splitlines()))
        assert len(rows) == 328
        assert sum(row["abs_value"] == "nan" for row in rows) == 152

        code = run(
            ["audit", "--function", "phi", "--q", "0.99", "--a=0.5", "--b", "0.3",
             "--grid", "1e-4:1e6:41", "--angles", "8", "--format", "json"]
        )
        assert code == 0

        def reject(token):
            raise ValueError(f"non-standard JSON constant {token}")

        payload = json.loads(capsys.readouterr().out, parse_constant=reject)
        assert len(payload) == 328
        errored = [row for row in payload if row["abs_value"] is None]
        assert len(errored) == 152
        for row in errored:
            assert row["envelope_log"] is None and row["ratio"] is None
            assert row["tail_bound"] is None and row["pass"] is False

    def test_draws_rejected_for_theta(self, capsys):
        code = run(
            ["audit", "--function", "theta", "--q", "0.3", "--alpha", "0.5",
             "--grid", "1e-1:1e1:3", "--draws", "5"]
        )
        assert code == 2

    @pytest.mark.parametrize("function", ["f", "phi"])
    @pytest.mark.parametrize("flag", [["--l", "1"], ["--a=0.5"], ["--b", "0.3"]])
    def test_draws_reject_fixed_parameters(self, capsys, function, flag):
        code = run(
            ["audit", "--function", function, "--q", "0.5", "--grid", "1e-1:1e1:3",
             "--draws", "5", *flag]
        )
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == "error: --draws draws its own parameters; drop --l, --a and --b\n"

    @pytest.mark.parametrize("draws", [[], ["--draws", "0"]])
    def test_seed_without_draws_is_a_usage_error(self, capsys, draws):
        # --seed seeds only the parameter draws, so without them it would be
        # silently ignored.
        code = run(
            ["audit", "--function", "theta", "--q", "0.5", "--alpha", "0.5", "--grid", "1:2:2",
             "--angles", "1", "--seed", "5", *draws]
        )
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == "error: --seed seeds the parameter draws; it needs --draws\n"

    def test_draws_without_seed_use_seed_zero(self, capsys):
        argv = ["audit", "--function", "f", "--q", "0.5", "--grid", "1e-1:1e1:2", "--angles", "1",
                "--draws", "20"]
        assert run(argv) == 0
        unseeded = capsys.readouterr().out
        assert run(argv + ["--seed", "0"]) == 0
        assert capsys.readouterr().out == unseeded

    def test_draws_ignore_angles_and_grid_count(self, capsys):
        # Only the grid's extremes bound the drawn moduli, and each record
        # draws its own angle, so --angles and the grid's count go unused.
        outputs = []
        for grid, angles in (("1e-3:1e3:2", "1"), ("1e-3:1e3:2", "5"), ("1e-3:1e3:7", "1")):
            code = run(["audit", "--function", "f", "--q", "0.5", "--grid", grid,
                        "--angles", angles, "--draws", "3", "--seed", "1"])
            outputs.append((code, *capsys.readouterr()))
        assert outputs[0] == outputs[1] == outputs[2]

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_unwritable_output_is_a_usage_error(self, tmp_path, capsys, fmt):
        out = tmp_path / "missing" / "x.csv"
        code = run(
            ["audit", "--function", "aq", "--q", "0.5", "--grid", "1e-1:1e1:3",
             "--format", fmt, "--out", str(out)]
        )
        err = capsys.readouterr().err
        assert code == 2
        assert len(err.splitlines()) == 1
        assert err.startswith("error: ") and str(out) in err
        assert not out.parent.exists()

    def test_csv_rows_reevaluate(self, tmp_path):
        out = tmp_path / "draws.csv"
        code = run(
            ["audit", "--function", "f", "--q", "0.5", "--grid", "1e-2:1e2:2",
             "--angles", "1", "--draws", "40", "--seed", "7", "--out", str(out)]
        )
        assert code == 0
        rows = list(csv.DictReader(out.read_text().splitlines()))
        assert len(rows) == 40
        for row in rows:
            fields = dict(part.split("=", 1) for part in row["param_digest"].split(";"))
            params = ConfluentParams(
                a_list=tuple(parse_complex(tok) for tok in fields["a"].split(",") if tok),
                b_list=tuple(float(tok) for tok in fields["b"].split(",") if tok),
                l=float(fields["l"]),
                q=QBase(float(row["q"])),
            )
            target = audit_target("confluent_f", params)
            z = complex(float(row["re_z"]), float(row["im_z"]))
            res = target.step(z, 1e-14, None)[0]
            envelope_log = target.envelope_log(abs(z))
            assert math.isclose(abs(res.value), float(row["abs_value"]), rel_tol=1e-12)
            assert math.isclose(envelope_log, float(row["envelope_log"]), rel_tol=1e-12)

    def test_theta_csv_rows_reevaluate(self, tmp_path):
        out = tmp_path / "theta.csv"
        assert run(
            ["audit", "--function", "theta", "--q", "0.3", "--alpha", "0.5",
             "--grid", "1e-2:1e2:5", "--angles", "4", "--out", str(out)]
        ) == 0
        rows = list(csv.DictReader(out.read_text().splitlines()))
        assert len(rows) == 20
        for row in rows:
            assert row["l"] == ""
            alpha = float(row["param_digest"].removeprefix("alpha="))
            target = audit_target("theta", (QBase(float(row["q"])), alpha))
            z = complex(float(row["re_z"]), float(row["im_z"]))
            res = target.step(z, 1e-14, None)[0]
            assert math.isclose(abs(res.value), float(row["abs_value"]), rel_tol=1e-12)
            assert math.isclose(
                target.envelope_log(abs(z)), float(row["envelope_log"]), rel_tol=1e-12
            )


# Both parts finite, modulus beyond the double range: the theta sum at this
# point, and the argument or numerator parameter itself at 1.5e308+1.5e308i.
_THETA_OVERFLOW_Z = "1.277810357463823e+19+1.2880739494306163e+19i"
_HUGE_Z = "1.5e308+1.5e308i"
_HUGE_A_MESSAGE = "numerator parameters must have a finite modulus, got (1.5e+308+1.5e+308j)"


class TestModulusOverflow:
    @pytest.mark.parametrize(
        "argv,message",
        [
            (["eval", "--function", "theta", "--q", "0.5", "--z", _THETA_OVERFLOW_Z],
             "theta sum overflowed the double range"),
            (["identity", "--which", "triple", "--q", "0.5", "--z", _THETA_OVERFLOW_Z],
             "theta sum overflowed the double range"),
            (["eval", "--function", "theta", "--q", "0.5", "--z", _HUGE_Z],
             "theta sum overflowed the double range"),
            (["eval", "--function", "f", "--q", "0.5", "--l", "1", "--z", _HUGE_Z],
             "series term left the double range"),
            (["eval", "--function", "phi", "--q", "0.5", "--z", _HUGE_Z],
             "series term left the double range"),
            (["eval", "--function", "laurent", "--q", "0.5", "--alpha", "0.5", "--z", _HUGE_Z],
             "Laurent sum overflowed the double range"),
            (["identity", "--which", "euler", "--q", "0.5", "--z", _HUGE_Z],
             "the series side needs |z| < 1, got |z| = inf"),
            (["identity", "--which", "qbinomial", "--q", "0.5", "--a=0.5", "--z", _HUGE_Z],
             "the series side needs |z| < 1, got |z| = inf"),
            (["eval", "--function", "f", "--q", "0.5", "--l", "1", f"--a={_HUGE_Z}", "--z", "1"],
             _HUGE_A_MESSAGE),
            (["eval", "--function", "phi", "--q", "0.5", f"--a={_HUGE_Z}", "--b", "0.3", "--z", "1"],
             _HUGE_A_MESSAGE),
            (["envelope", "--function", "f", "--q", "0.5", "--l", "1", f"--a={_HUGE_Z}",
              "--abs-z", "1"],
             _HUGE_A_MESSAGE),
            (["envelope", "--function", "phi", "--q", "0.5", f"--a={_HUGE_Z}", "--b", "0.3",
              "--abs-z", "1"],
             _HUGE_A_MESSAGE),
            (["audit", "--function", "f", "--q", "0.5", "--l", "1", f"--a={_HUGE_Z}",
              "--grid", "1:2:2", "--angles", "1"],
             _HUGE_A_MESSAGE),
            (["audit", "--function", "phi", "--q", "0.5", f"--a={_HUGE_Z}", "--b", "0.3",
              "--grid", "1:2:2", "--angles", "1"],
             _HUGE_A_MESSAGE),
            (["eval", "--function", "laurent", "--q", "0.5", "--alpha", "0.5", "--z", "1e309"],
             "argument must be finite, got (inf+0j)"),
            # Tiny alpha and l put envelope constants beyond the double range.
            (["envelope", "--function", "theta", "--q", "0.1", "--alpha", "0.001", "--abs-z", "2"],
             "alpha = 0.001 at q = 0.1 puts beta outside the positive doubles"),
            (["envelope", "--function", "theta", "--q", "0.9", "--alpha", "0.001", "--abs-z", "2"],
             "alpha = 0.001 at q = 0.9 puts beta outside the positive doubles"),
            (["envelope", "--function", "theta", "--q", "0.5", "--alpha", "0.001",
              "--abs-z", "1e300"],
             "envelope exponent overflowed the double range at abs_z = 1e+300"),
            (["envelope", "--function", "f", "--q", "0.5", "--l", "1e-17", "--abs-z", "2"],
             "q^l rounds to 1 at q = 0.5, l = 1e-17"),
            (["audit", "--function", "f", "--q", "0.5", "--l", "1e-17", "--grid", "1:2:2",
              "--angles", "2"],
             "q^l rounds to 1 at q = 0.5, l = 1e-17"),
            (["envelope", "--function", "aq", "--variant", "exponential", "--q", "0.999999",
              "--abs-z", "1.7e308"],
             "envelope exponent overflowed the double range at abs_z = 1.7e+308"),
            (["identity", "--which", "qbinomial", "--q", "0.5", f"--a={_HUGE_Z}", "--z", "1e-300"],
             _HUGE_A_MESSAGE),
            (["eval", "--function", "aq", "--q", "0.5", "--z", "inf"],
             "argument must be finite, got (inf+0j)"),
        ],
    )
    def test_is_a_typed_error(self, capsys, argv, message):
        assert run(argv) == 2
        assert capsys.readouterr().err == f"error: {message}\n"


_NEAR_ONE_BS = ["--b", "0.9999999999999999"] * 25


class TestDenominatorUnderflow:
    """25 denominator parameters at 1 - 2^-53: the product of the 1 - b_j
    underflows to 0.0, and the sums raise the typed overflow error."""

    def test_eval_exits_two_with_one_error_line(self, capsys):
        argv = ["eval", "--function", "f", "--q", "0.5", "--l", "1", "--z", "1", *_NEAR_ONE_BS]
        assert run(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: series term left the double range\n"

    def test_audit_reports_error_records(self, capsys):
        argv = ["audit", "--function", "phi", "--q", "0.5", "--a=0.5", "--grid", "1e-3:1e3:3",
                "--angles", "2", *_NEAR_ONE_BS]
        assert run(argv) == 0
        captured = capsys.readouterr()
        rows = list(csv.DictReader(captured.out.splitlines()))
        assert len(rows) == 6
        assert {row["error"] for row in rows} == {"series term left the double range"}
        assert captured.err == "records=6 passed=0 failed=0 errors=6\n"


class TestEnvelopesBeyondTheDoubleRange:
    """Audits at envelope exponents or scaled moduli beyond the double range
    give error records or verdicts, never an escaping exception."""

    @pytest.mark.parametrize(
        "argv,abs_z",
        [
            (["--q", "0.36787944117144233", "--alpha", "0.005", "--grid", "2.35e17:2.35e17:1"],
             "2.35e+17"),
            (["--q", "0.99", "--alpha", "0.0085", "--grid", "200:200:1"], "200.0"),
        ],
    )
    def test_overflowing_theta_exponent_is_an_error_record(self, capsys, argv, abs_z):
        # The sum is finite at this modulus; the envelope exponent is not.
        assert run(["audit", "--function", "theta", *argv, "--angles", "1",
                    "--format", "json"]) == 0
        captured = capsys.readouterr()
        assert captured.err == "records=1 passed=0 failed=0 errors=1\n"

        def reject(token):
            raise ValueError(f"non-standard JSON constant {token}")

        (row,) = json.loads(captured.out, parse_constant=reject)
        assert row["error"] == f"envelope exponent overflowed the double range at abs_z = {abs_z}"
        assert row["envelope_log"] is None and row["pass"] is False

    def test_phi_envelope_beyond_the_double_range_after_scaling(self, capsys):
        # |scale| = sqrt(2), so |scale| |z| overflows at |z| = 1.7e308; a = 1
        # makes phi the constant 1, so every record is a verdict.
        assert run(["audit", "--function", "phi", "--q", "0.5", "--a", "1", "--b", "0.3",
                    "--grid", "1e300:1.7e308:2", "--angles", "2"]) == 0
        captured = capsys.readouterr()
        assert captured.err == "records=4 passed=4 failed=0 errors=0\n"
        rows = list(csv.DictReader(captured.out.splitlines()))
        assert [row["abs_value"] for row in rows] == ["1.0"] * 4
        assert all(math.isfinite(float(row["envelope_log"])) for row in rows)

    def test_aq_envelope_where_the_modulus_over_sqrt_q_overflows(self, capsys):
        # At q = 1e-300, |z| / sqrt(q) = 1e350; the envelope's log is finite.
        assert run(["envelope", "--function", "aq", "--q", "1e-300", "--abs-z", "1e200"]) == 0
        assert "log_bound = 479.7052277070929\n" in capsys.readouterr().out
        assert run(["audit", "--function", "aq", "--q", "1e-300", "--grid", "1e200:1e200:1",
                    "--angles", "1", "--format", "json"]) == 0
        captured = capsys.readouterr()
        assert captured.err == "records=1 passed=1 failed=0 errors=0\n"
        (row,) = json.loads(captured.out)
        assert row["envelope_log"] == 479.7052277070929


class TestAuditBuildErrors:
    """Errors raised while an audit builds its target and envelope are usage
    errors, for every function."""

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["audit", "--function", "theta", "--q", "0.5", "--alpha", "1.5",
              "--grid", "1e-3:1e3:3", "--angles", "2"],
             "alpha must lie in (0, 1), got 1.5"),
            (["audit", "--function", "f", "--q", "0.999999", "--l", "1",
              "--grid", "1e-3:1e3:3", "--angles", "2"],
             "infinite product needs 50656846 factors, beyond the cap 1000000"),
            (["audit", "--function", "phi", "--q", "0.999999", "--b", "0.3",
              "--grid", "1e-3:1e3:3", "--angles", "2"],
             "infinite product needs 49452875 factors, beyond the cap 1000000"),
            (["audit", "--function", "aq", "--q", "0.999999", "--grid", "1e-3:1:2",
              "--angles", "2"],
             "infinite product needs 50656846 factors, beyond the cap 1000000"),
        ],
    )
    def test_exit_two_with_one_error_line(self, capsys, argv, message):
        assert run(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"


class TestInapplicableOptions:
    @pytest.mark.parametrize(
        "argv,message",
        [
            (["eval", "--function", "theta", "--q", "0.5", "--z", "1", "--l", "1", "--a=0.5"],
             "--a, --l do not apply to --function theta"),
            (["eval", "--function", "aq", "--q", "0.5", "--z", "1", "--a=0.5"],
             "--a does not apply to --function aq"),
            (["eval", "--function", "theta", "--q", "0.5", "--z", "1", "--b", "0.3"],
             "--b does not apply to --function theta"),
            (["eval", "--function", "laurent", "--q", "0.5", "--z", "2", "--alpha", "0.5",
              "--l", "1"],
             "--l does not apply to --function laurent"),
            (["eval", "--function", "phi", "--q", "0.5", "--z", "1", "--l", "1"],
             "--l does not apply to --function phi"),
            (["eval", "--function", "laurent", "--q", "0.5", "--z", "2", "--alpha", "0.5",
              "--a=0.5"],
             "--a does not apply to --function laurent"),
            (["envelope", "--function", "aq", "--q", "0.5", "--abs-z", "1", "--alpha", "0.5"],
             "--alpha does not apply to --function aq"),
            (["envelope", "--function", "aq", "--q", "0.5", "--abs-z", "1",
              "--variant", "as-printed"],
             "--variant as-printed does not apply to --function aq"),
            (["envelope", "--function", "theta", "--q", "0.5", "--alpha", "0.5", "--abs-z", "1",
              "--variant", "exponential"],
             "--variant exponential does not apply to --function theta"),
            (["envelope", "--function", "f", "--q", "0.5", "--l", "1", "--abs-z", "1",
              "--variant", "gaussian"],
             "--variant gaussian does not apply to --function f"),
            (["audit", "--function", "aq", "--q", "0.5", "--grid", "1:2:2", "--l", "2",
              "--b", "0.3"],
             "--b, --l do not apply to --function aq"),
            (["audit", "--function", "f", "--q", "0.5", "--grid", "1:2:2", "--draws", "5",
              "--alpha", "0.5"],
             "--alpha does not apply to --function f"),
            (["identity", "--which", "qlsum", "--q", "0.5", "--l", "1", "--z", "0.3"],
             "--z does not apply to --which qlsum"),
            (["identity", "--which", "euler", "--q", "0.5", "--z", "0.5", "--a=0.3", "--l", "1"],
             "--a, --l do not apply to --which euler"),
            (["identity", "--which", "triple", "--q", "0.5", "--z", "1", "--a=2"],
             "--a does not apply to --which triple"),
            (["identity", "--which", "qbinomial", "--q", "0.5", "--a=0.3", "--z", "0.2",
              "--l", "1"],
             "--l does not apply to --which qbinomial"),
            # eval reads --alpha for laurent only; envelope and audit need it for theta.
            (["eval", "--function", "theta", "--q", "0.5", "--z", "2", "--alpha", "-7"],
             "--alpha does not apply to --function theta"),
        ],
    )
    def test_exit_two_with_one_error_line(self, capsys, argv, message):
        assert run(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ["envelope", "--function", "aq", "--q", "0.5", "--abs-z", "1", "--variant", "gaussian"],
            ["envelope", "--function", "theta", "--q", "0.5", "--alpha", "0.5", "--abs-z", "1",
             "--variant", "certified"],
            ["eval", "--function", "laurent", "--q", "0.5", "--z", "2", "--alpha", "0.5",
             "--tol", "1e-10"],
            ["audit", "--function", "phi", "--q", "0.5", "--grid", "1:2:2", "--draws", "3"],
            ["identity", "--which", "qbinomial", "--q", "0.5", "--a=0.3", "--z", "0.2",
             "--tol", "1e-12"],
        ],
    )
    def test_applicable_options_still_accepted(self, capsys, argv):
        assert run(argv) == 0
        assert not capsys.readouterr().err.startswith("error:")


class TestIdentityCommand:
    def test_euler(self, capsys):
        assert run(["identity", "--which", "euler", "--q", "0.5", "--z", "0.5"]) == 0
        residual = float(capsys.readouterr().out.removeprefix("residual = "))
        assert residual <= 1e-12

    def test_qbinomial_requires_parameter(self, capsys):
        assert run(["identity", "--which", "qbinomial", "--q", "0.5", "--z", "0.3"]) == 2
        assert "--a" in capsys.readouterr().err

    def test_qlsum(self, capsys):
        assert run(["identity", "--which", "qlsum", "--q", "0.5", "--l", "1"]) == 0
        assert float(capsys.readouterr().out.removeprefix("residual = ")) <= 1e-12

    def test_triple(self, capsys):
        assert run(["identity", "--which", "triple", "--q", "0.5", "--z", "1+0i"]) == 0
        assert float(capsys.readouterr().out.removeprefix("residual = ")) <= 1e-12

    def test_precondition_violation_exits_two(self, capsys):
        assert run(["identity", "--which", "euler", "--q", "0.5", "--z", "2+0i"]) == 2

    def test_qlsum_rejects_an_exponent_that_rounds_q_to_the_l_to_one(self, capsys):
        # The text of the entire envelope's check, not a |z| the caller never gave.
        assert run(["identity", "--which", "qlsum", "--q", "0.5", "--l", "1e-17"]) == 2
        assert capsys.readouterr().err == "error: q^l rounds to 1 at q = 0.5, l = 1e-17\n"

    def test_triple_rejects_a_base_whose_square_underflows(self, capsys):
        # The q^2 check's text, not a base of 0.0 the caller never gave.
        assert run(["identity", "--which", "triple", "--q", "1e-200", "--z", "1"]) == 2
        assert capsys.readouterr().err == "error: q^2 underflows to 0 at q = 1e-200\n"

    def test_a_tol_whose_count_target_underflows_is_a_usage_error(self, capsys):
        # tol (1 - q) underflows to 0.0, which has no log to count factors by.
        assert run(["identity", "--which", "euler", "--q", "0.5", "--z", "0.5",
                    "--tol", "5e-324"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: tol too small at q = 0.5: tol (1 - q) underflows to 0\n"

    @pytest.mark.parametrize("argv, message", [
        # Near q = 1 the product underflows to 0 or 5e-324 while the series
        # side overflows, so the residual is nan or inf.
        (["--which", "euler", "--q", "0.999", "--z", "0.99"],
         "identity residual is not a finite double: product 0j, series (inf+0j)"),
        (["--which", "qlsum", "--q", "0.999", "--l", "3"],
         "identity residual is not a finite double: product 0j, series (inf+0j)"),
        (["--which", "euler", "--q", "0.999", "--z", "0.9"],
         "identity residual is not a finite double: product (5e-324+0j), series (inf+0j)"),
        (["--which", "qbinomial", "--q", "0.999", "--a=0.5", "--z", "0.99"],
         "(z;q)_inf underflows to 0 at q = 0.999, z = (0.99+0j)"),
    ])
    def test_sides_beyond_the_doubles_are_a_typed_error(self, capsys, argv, message):
        assert run(["identity", *argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"


class TestEnvironment:
    def test_module_entry_point(self):
        env = dict(os.environ, PYTHONPATH=str(SRC_DIR))
        proc = subprocess.run(
            [sys.executable, "-m", "qineq", "eval", "--function", "aq",
             "--q", "0.5", "--z", "1+0i"],
            capture_output=True,
            env=env,
        )
        assert proc.returncode == 0
        assert b"value = 0.1607637889320887" in proc.stdout

    def test_usage_error_exit_code(self):
        assert run(["eval", "--function", "nope", "--q", "0.5", "--z", "1"]) == 2

    def test_only_identity_residuals_load_mpmath(self):
        script = (
            "import sys, qineq, qineq.cli\n"
            "print('mpmath' in sys.modules)\n"
            "from qineq import QBase\n"
            "print(qineq.identity_euler(QBase(0.9), -0.85+0.2j, 1e-14).hex())\n"
            "print(qineq.identity_qbinomial_theorem(1.5-0.5j, QBase(0.7), -0.6+0.3j, 1e-14).hex())\n"
            "print('mpmath' in sys.modules)\n"
        )
        env = dict(os.environ, PYTHONPATH=str(SRC_DIR))
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, env=env, text=True
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == [
            "False", "0x1.7f72e6137a46ep-47", "0x1.8154be2773526p-48", "True",
        ]

    def test_import_loads_neither_dataclasses_nor_json(self):
        # -S keeps site-packages hooks from loading either module first;
        # only --format json imports json, inside the command.
        script = (
            "import sys, qineq, qineq.cli\n"
            "print(sorted({'dataclasses', 'json'} & set(sys.modules)))\n"
        )
        env = dict(os.environ, PYTHONPATH=str(SRC_DIR))
        proc = subprocess.run(
            [sys.executable, "-S", "-c", script], capture_output=True, env=env, text=True
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "[]\n"


class TestParserReuse:
    def test_parameters_do_not_leak_into_the_next_run(self, capsys, monkeypatch):
        built = []

        def counting_build_parser():
            built.append(1)
            return build_parser()

        monkeypatch.setattr(cli, "build_parser", counting_build_parser)
        cli._shared_parser.cache_clear()
        try:
            with_params = ["eval", "--function", "f", "--q", "0.5", "--l", "1",
                           "--a=0.3+0.1i", "--b", "0.2", "--z", "2+0i"]
            without = ["eval", "--function", "f", "--q", "0.5", "--l", "1", "--z", "2+0i"]
            assert run(with_params) == 0
            capsys.readouterr()
            assert run(without) == 0
            assert capsys.readouterr().out == _eval_lines(
                eval_confluent_f(ConfluentParams((), (), 1.0, QBase(0.5)), 2.0, 1e-14)
            )
            assert run(with_params) == 0
            assert capsys.readouterr().out == _eval_lines(
                eval_confluent_f(ConfluentParams((0.3 + 0.1j,), (0.2,), 1.0, QBase(0.5)),
                                 2.0, 1e-14)
            )
        finally:
            cli._shared_parser.cache_clear()
        assert len(built) == 1


def _eval_lines(result) -> str:
    return (
        f"value = {format_complex(result.value)}\n"
        f"terms_used = {result.terms_used}\n"
        f"tail_bound = {result.tail_bound!r}\n"
    )
