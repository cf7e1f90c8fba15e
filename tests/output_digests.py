"""Print one sha256 per canonical CLI output, to show that a change keeps
every output byte for byte.

Run it from the repository root on the tree under test and on its parent,
and diff the two listings:

    PYTHONPATH=src python tests/output_digests.py > digests.txt

Each line is ``<sha256>  <label>``.  The digest covers the exit code, stdout
and stderr of one ``qineq`` command line, run in process through
``qineq.cli.run``.  The outputs are the benchmark's lattice sweeps (and the
phi q=0.99 sweep) in CSV and JSON, f and phi draw audits, dense theta,
Laurent and aq sweeps out to q = 0.999999 (Laurent also at k_cap 50), and
eval, envelope and identity commands, error paths included, with envelopes
whose constants leave the normal double range; a command that lets an exception escape
prints ``raised <exception>`` in place of a digest.  ``outputs()`` and
``run()`` are importable, for comparisons that first transform an output.
"""

from __future__ import annotations

import contextlib
import hashlib
import io

from qineq import cli

LATTICE_GRID = "1e-4:1e6:41"
LATTICE_ANGLES = "8"

# perfbench/workloads.py LATTICE_SWEEPS, plus the phi q=0.99 sweep.
_SWEEPS = (
    *(["theta", q, "--alpha", alpha] for q, alpha in
      (("0.1", "0.5"), ("0.3", "0.75"), ("0.5", "0.5"), ("0.9", "0.25"), ("0.95", "0.5"),
       ("0.99", "0.5"))),
    *(["aq", q] for q in ("0.1", "0.3", "0.5", "0.9", "0.99")),
    ["f", "0.1", "--a=0.5+0.5i", "--b", "0.3", "--l", "0.5"],
    ["f", "0.3", "--a=-1.0+1.0i", "--l", "2.5"],
    ["f", "0.5", "--a=1.0-0.5i", "--b", "0.2", "--b", "0.6", "--l", "1.5"],
    ["f", "0.9", "--l", "1.0"],
    ["f", "0.99", "--l", "1.0"],
    ["phi", "0.1", "--a=0.5+0.0i", "--b", "0.3"],
    ["phi", "0.3", "--b", "0.4", "--b", "0.7"],
    ["phi", "0.5", "--b", "0.5"],
    ["phi", "0.9", "--a=0.5+0.0i", "--b", "0.3"],
    *(["laurent", q, "--alpha", alpha] for q, alpha in
      (("0.1", "0.5"), ("0.3", "0.75"), ("0.5", "0.5"), ("0.9", "0.5"), ("0.99", "0.5"))),
    ["phi", "0.99", "--a=0.5+0.0i", "--b", "0.3"],
)

# Dense sweeps near q = 1, where sums overflow and envelopes can fail.
_EDGE_SWEEPS = (
    *(["theta", q, "--alpha", "0.5", "--grid", "1e-6:1e8:57", "--angles", "8"]
      for q in ("0.95", "0.99", "0.999", "0.9999", "0.999999")),
    *(["laurent", q, "--alpha", "0.5", "--grid", "1e-3:1e3:25", "--angles", "8"]
      for q in ("0.9", "0.99", "0.999")),
    *(["aq", q, "--grid", "1e-3:1e6:37", "--angles", "8"]
      for q in ("0.99", "0.999", "0.99999", "0.999999")),
    ["aq", "0.999999", "--grid", "1e-3:1:2", "--angles", "2"],
    *(["laurent", q, "--alpha", "0.5", "--grid", "1e-3:1e3:25", "--angles", "8", "--k-cap", "50"]
      for q in ("0.9", "0.99", "0.999")),
    *(["laurent", "0.999", "--alpha", alpha, "--grid", "1e-4:1e6:41", "--angles", "8"]
      for alpha in ("0.25", "0.9")),
)

_SINGLE = (
    ["eval", "--function", "aq", "--q", "0.5", "--z", "1+0i"],
    ["eval", "--function", "f", "--q", "0.5", "--l", "1", "--a", "0.3+0.1i", "--b", "0.2",
     "--z", "2+0i"],
    ["eval", "--function", "f", "--q", "0.9", "--l", "1", "--z=-1e6+0i"],
    ["eval", "--function", "phi", "--q", "0.7", "--a=0.5-0.2i", "--b", "0.3", "--z", "4-3i"],
    ["eval", "--function", "theta", "--q", "0.5", "--z", "1+0i"],
    ["eval", "--function", "theta", "--q", "0.99", "--z", "1e3+0i"],
    ["eval", "--function", "theta", "--q", "0.5",
     "--z", "1.277810357463823e+19+1.2880739494306163e+19i"],
    ["eval", "--function", "laurent", "--q", "0.5", "--alpha", "0.6", "--z", "2+0i"],
    ["eval", "--function", "laurent", "--q", "0.5", "--alpha", "0.5", "--z", "100+0i",
     "--k-cap", "3"],
    ["eval", "--function", "laurent", "--q", "0.99", "--alpha", "0.5", "--z", "1.5+0i"],
    ["eval", "--function", "f", "--q", "0.5", "--l", "1", "--z", "1.5e308+1.5e308i"],
    ["envelope", "--function", "aq", "--q", "0.5", "--abs-z", "1"],
    ["envelope", "--function", "aq", "--q", "0.5", "--abs-z", "1", "--variant", "exponential"],
    ["envelope", "--function", "aq", "--q", "0.999999", "--abs-z", "1"],
    ["envelope", "--function", "f", "--q", "0.5", "--l", "1", "--b", "0.2", "--abs-z", "3"],
    ["envelope", "--function", "phi", "--q", "0.5", "--a=0.5", "--b", "0.3", "--abs-z", "3"],
    ["envelope", "--function", "theta", "--q", "0.5", "--alpha", "0.5", "--abs-z", "10"],
    ["envelope", "--function", "theta", "--q", "0.5", "--alpha", "0.5", "--abs-z", "10",
     "--variant", "as-printed"],
    ["envelope", "--function", "laurent", "--q", "0.5", "--alpha", "0.5", "--abs-z", "2"],
    ["identity", "--which", "euler", "--q", "0.5", "--z", "0.5"],
    ["identity", "--which", "qbinomial", "--q", "0.7", "--a=1.5-0.5i", "--z=-0.6+0.3i"],
    ["identity", "--which", "qlsum", "--q", "0.5", "--l", "1"],
    ["identity", "--which", "triple", "--q", "0.5", "--z", "1+0i"],
    ["identity", "--which", "euler", "--q", "0.5", "--z", "2+0i"],
    # Envelope constants whose products leave the normal range.
    *(["envelope", "--function", fn, "--q", q, *rest, "--abs-z", "1"]
      for q in ("0.9977", "0.998", "0.999")
      for fn, *rest in (["aq"], ["f", "--l", "1"], ["f", "--l", "1", "--b", "0.9"],
                        ["phi", "--b", "0.9"])),
    # 0.562 e^{0.7i}: the sum overflows near k = 1235 of 634,396.
    ["eval", "--function", "theta", "--q", "0.999999",
     "--z", "0.4298413092538826+0.36205034022758237i"],
)


def outputs():
    """(label, argv) for every canonical output, in a fixed order."""
    for fmt in ("csv", "json"):
        for fn, q, *rest in _SWEEPS:
            argv = ["audit", "--function", fn, "--q", q, *rest, "--grid", LATTICE_GRID,
                    "--angles", LATTICE_ANGLES, "--format", fmt]
            yield " ".join(argv[1:]), argv
        for fn in ("f", "phi"):
            for seed in ("1", "7", "11"):
                argv = ["audit", "--function", fn, "--q", "0.5", "--grid", "1e-3:1e3:2",
                        "--angles", "1", "--draws", "2000", "--seed", seed, "--format", fmt]
                yield " ".join(argv[1:]), argv
        for fn, q, *rest in _EDGE_SWEEPS:
            argv = ["audit", "--function", fn, "--q", q, *rest, "--format", fmt]
            yield " ".join(argv[1:]), argv
    for argv in _SINGLE:
        yield " ".join(argv), list(argv)


def run(argv: list[str]) -> tuple[int, str, str]:
    """(exit code, stdout, stderr) of one command line."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run(argv)
    return code, out.getvalue(), err.getvalue()


def digest(code: int, out: str, err: str) -> str:
    blob = f"exit {code}\n".encode() + out.encode() + b"\0" + err.encode()
    return hashlib.sha256(blob).hexdigest()


def main() -> None:
    for label, argv in outputs():
        try:
            line = digest(*run(argv))
        except Exception as exc:  # an escaping exception is an output too
            line = f"raised {exc!r}"
        print(f"{line}  {label}")


if __name__ == "__main__":
    main()
