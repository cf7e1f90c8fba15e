"""Tests of the benchmark itself: seeded inputs, exact traced counts, restore.

Run from the repository root:  python3 -m pytest perfbench/tests -q
"""

import itertools
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH_DIR.parent / "src"))
sys.path.insert(0, str(BENCH_DIR))

import qineq.cli as cli  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from qineq import bounds, qcore, series, verify  # noqa: E402
from qineq.errors import QSeriesError  # noqa: E402

MODULES = {"qcore": qcore, "series": series, "bounds": bounds, "verify": verify, "cli": cli}


def _inputs(name: str, seed: int, rounds: int = 3):
    return list(itertools.islice(workloads.make(name).rounds(seed), rounds))


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_seed_determines_inputs(name):
    assert _inputs(name, 5) == _inputs(name, 5)
    assert _inputs(name, 5) != _inputs(name, 6)


def _traced_counts(name: str, seed: int):
    before = tracing.bound_attributes(MODULES)
    # A tiny --seconds replays a single fixed round.
    _, _, traced, tracer, n_rounds = run.run_traced(workloads, tracing, MODULES, name, seed, 1e-3)
    assert n_rounds == 1
    assert tracing.bound_attributes(MODULES) == before, "a wrapper stayed bound"
    counts = {
        layer: (entry["calls"], entry["work"], entry["errors"])
        for layer, entry in tracer.layer_stats().items()
    }
    return counts, traced.ops, traced.results, traced.errors, traced.output_bytes


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_traced_counts_repeat_exactly(name):
    first = _traced_counts(name, 3)
    assert first == _traced_counts(name, 3)
    assert first[0], "the traced round reached no layer"


def test_tracer_restores_every_binding_after_an_error():
    before = tracing.bound_attributes(MODULES)
    tracer = tracing.Tracer(MODULES, QSeriesError)
    tracer.install()
    try:
        assert all(
            getattr(fn, "__wrapped__", None) is not None
            for fn in tracing.bound_attributes(MODULES).values()
        )
        with pytest.raises(QSeriesError):
            series.eval_theta(qcore.QBase(0.5), 0.0, 1e-14)
    finally:
        tracer.uninstall()
    assert tracing.bound_attributes(MODULES) == before
    assert tracer.layer_stats()["series.eval_theta"]["errors"] == 1


def test_fails_without_source_tree(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__", "out", "tests"))
    child = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "draws_audit", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120, check=False,
    )
    assert child.returncode != 0
    assert '"metrics"' not in child.stdout
