import csv
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from qineq import ConfluentParams, QBase, audit_target, eval_ramanujan_aq
from qineq.cli import CSV_COLUMNS, parse_complex, parse_grid, run

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
            ["eval", "--function", "laurent", "--q", "0.5", "--z", "100+0i",
             "--alpha", "0.5", "--k-cap", "3"]
        )
        assert code == 2
        assert "|k| <= 3" in capsys.readouterr().err


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
            "terms_used", "tail_bound",
        ]
        assert all(rec["pass"] is True for rec in payload)

    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        argv = ["audit", "--function", "f", "--q", "0.5", "--grid", "1e-3:1e3:2",
                "--angles", "1", "--draws", "150", "--seed", "42", "--l", "1"]
        assert run(argv + ["--out", str(a)]) == 0
        assert run(argv + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_understated_constant_exits_one(self, tmp_path, capsys):
        code = run(
            ["audit", "--function", "laurent", "--q", "0.5", "--alpha", "0.5",
             "--grid", "0.5:2:3", "--angles", "2", "--c-weighted", "0.01",
             "--out", str(tmp_path / "bad.csv")]
        )
        assert code == 1
        assert "failed=" in capsys.readouterr().err

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
             "--angles", "1", "--draws", "40", "--seed", "7", "--l", "1",
             "--out", str(out)]
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
            res = target.evaluate(z, 1e-14)
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
            res = target.evaluate(z, 1e-14)
            assert math.isclose(abs(res.value), float(row["abs_value"]), rel_tol=1e-12)
            assert math.isclose(
                target.envelope_log(abs(z)), float(row["envelope_log"]), rel_tol=1e-12
            )


# Both parts finite, modulus beyond the double range: the theta sum at this
# point, and the argument itself at 1.5e308+1.5e308i.
_THETA_OVERFLOW_Z = "1.277810357463823e+19+1.2880739494306163e+19i"
_HUGE_Z = "1.5e308+1.5e308i"


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
        ],
    )
    def test_is_a_typed_error(self, capsys, argv, message):
        assert run(argv) == 2
        assert capsys.readouterr().err == f"error: {message}\n"


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
