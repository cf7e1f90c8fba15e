"""Print one sha256 per canonical CLI output, to show that a change keeps
every output byte for byte.

Run it from the repository root on the tree under test and on its parent,
and diff the two listings:

    PYTHONPATH=src python tests/output_digests.py > digests.txt

Each line is ``<sha256>  <label>``.  The digest covers the exit code, stdout
and stderr of one ``qineq`` command line, run in process through
``qineq.cli.run``.  The outputs are the benchmark's lattice sweeps (and the
phi q=0.99 sweep) in CSV and JSON, f and phi draw audits, dense theta,
Laurent and aq sweeps out to q = 0.999999, an f sweep at tol 1e-300, and
eval, envelope and identity
commands, error paths included (audits that fail while building their
target among them, Laurent's index cap, tiny alpha and l, phi at a base
whose scale overflows, aq at a base where |z| / sqrt(q) overflows,
options that no longer exist, identity options that do not apply to
--which, a q^l that rounds to 1, a tol that is not positive or whose
tol (1 - q) underflows, arguments whose modulus overflows, a
denominator parameter outside [0, 1), identities whose sides leave the
doubles near q = 1, and an eval and an audit whose 25 denominator
parameters at 1 - 2^-53 make the product of the 1 - b_j underflow to 0;
last, three identities at one base whose series stop below, within and
past the rows of the identity kernel's memo of powers of q),
with envelopes
whose constants or exponents leave the double range; a command that lets
an exception escape prints ``raised <exception>`` in place of a digest.
Last come library calls that no command line reaches, labelled
``library ...``: a Laurent eval at alpha = 2000, whose stop-rule weights
leave the doubles, an audit of the zero stream in CSV and JSON, five
tightness_search calls, each printing the float.hex of its three values
(at q = 0.99 the far moduli raise, and the search skips them), and
GaussianSeries evaluations at |z| = 10.0, a few ulps off it and at the
eight audit phases of 10.0, on one prepared series.
``outputs()`` and ``run()`` are importable, for comparisons that first
transform an output.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import sys

from qineq import (
    ConfluentParams, LaurentSpec, QBase, SweepPlan, audit_envelope, cli, eval_laurent,
    prepare_confluent_f, tightness_search,
)

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
    *(["laurent", "0.999", "--alpha", alpha, "--grid", "1e-4:1e6:41", "--angles", "8"]
      for alpha in ("0.25", "0.9")),
    # Through the first modulus where a term of f exceeds e^711 (the
    # overflow radius starts there; the sum of its term moduli passes
    # 1e300 before, where the Gaussian memo's floor is 0); phi's records whose largest term is
    # near e^710.5 and must still be summed; Laurent sums that reach the
    # index cap in the stream's zero tail, on both sides of the band where
    # w^10000 leaves the doubles.
    ["f", "0.95", "--l", "1", "--grid", "1.1e5:1.6e5:41", "--angles", "8"],
    ["phi", "0.9", "--a=0.5", "--b", "0.3", "--grid", "1e5:1e6:21", "--angles", "8"],
    ["laurent", "0.999", "--alpha", "0.25", "--grid", "0.93:1.075:25", "--angles", "8"],
    # A tol far below the Gaussian memo's guard of 2^-960 S_k / dd_0.
    ["f", "0.9", "--l", "1", "--grid", "1e-2:1e3:16", "--angles", "8", "--tol", "1e-300"],
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
    # An infinite argument, and audits that fail while building their target.
    ["eval", "--function", "laurent", "--q", "0.5", "--alpha", "0.5", "--z", "1e309"],
    ["audit", "--function", "theta", "--q", "0.5", "--alpha", "1.5", "--grid", "1e-3:1e3:3",
     "--angles", "2"],
    ["audit", "--function", "f", "--q", "0.999999", "--l", "1", "--grid", "1e-3:1e3:3",
     "--angles", "2"],
    ["audit", "--function", "phi", "--q", "0.999999", "--b", "0.3", "--grid", "1e-3:1e3:3",
     "--angles", "2"],
    # The sum reaches the Laurent index cap.
    ["eval", "--function", "laurent", "--q", "0.999", "--alpha", "0.25", "--z", "1.05"],
    # Tiny alpha: beta outside the doubles, then an exponent that overflows.
    *(["envelope", "--function", "theta", "--q", q, "--alpha", "0.001", "--abs-z", abs_z]
      for q, abs_z in (("0.1", "2"), ("0.5", "1e300"), ("0.9", "2"))),
    ["audit", "--function", "theta", "--q", "0.36787944117144233", "--alpha", "0.005",
     "--grid", "2.35e17:2.35e17:1", "--angles", "1"],
    ["audit", "--function", "theta", "--q", "0.99", "--alpha", "0.0085", "--grid", "200:200:1",
     "--angles", "1", "--format", "json"],
    # Tiny l: q^l rounds to 1.
    ["envelope", "--function", "f", "--q", "0.5", "--l", "1e-17", "--abs-z", "2"],
    ["audit", "--function", "f", "--q", "0.5", "--l", "1e-17", "--grid", "1:2:2",
     "--angles", "2"],
    # phi's envelope where |scale| |z| overflows.
    ["audit", "--function", "phi", "--q", "0.5", "--a", "1", "--b", "0.3",
     "--grid", "1e300:1.7e308:2", "--angles", "2"],
    # A base so small that phi's scale q^-l overflows.
    ["envelope", "--function", "phi", "--q", "1e-300", "--b", "0.3", "--b", "0.6", "--abs-z", "1"],
    ["audit", "--function", "phi", "--q", "1e-300", "--b", "0.3", "--b", "0.6",
     "--grid", "1:2:2", "--angles", "2"],
    # aq at a base so small that |z| / sqrt(q) overflows, and an exponential
    # envelope whose exponent leaves the doubles.
    ["envelope", "--function", "aq", "--q", "1e-300", "--abs-z", "1e200"],
    *(["audit", "--function", "aq", "--q", "1e-300", "--grid", "1e200:1e200:1", "--angles", "1",
       "--format", fmt] for fmt in ("csv", "json")),
    ["envelope", "--function", "aq", "--variant", "exponential", "--q", "0.999999",
     "--abs-z", "1.7e308"],
    # Options that no longer exist.
    ["eval", "--function", "laurent", "--q", "0.5", "--alpha", "0.5", "--z", "2",
     "--c-weighted", "1e-30"],
    ["audit", "--function", "laurent", "--q", "0.5", "--alpha", "0.5", "--grid", "0.5:2:3",
     "--angles", "2", "--slack", "1e300"],
    # identity options that do not apply to --which, and q^l rounding to 1.
    ["identity", "--which", "qlsum", "--q", "0.5", "--l", "1", "--z", "0.3"],
    ["identity", "--which", "euler", "--q", "0.5", "--z", "0.5", "--a=0.3", "--l", "1"],
    ["identity", "--which", "triple", "--q", "0.5", "--z", "1+0i", "--a=2"],
    ["identity", "--which", "qbinomial", "--q", "0.7", "--a=1.5-0.5i", "--z=-0.6+0.3i",
     "--l", "1"],
    ["identity", "--which", "qlsum", "--q", "0.5", "--l", "1e-17"],
    # --alpha given to eval of theta, which reads none.
    ["eval", "--function", "theta", "--q", "0.5", "--z", "2", "--alpha", "-7"],
    # A base whose square underflows, and an infinite argument read as a plain real.
    ["identity", "--which", "triple", "--q", "1e-200", "--z", "1"],
    ["eval", "--function", "aq", "--q", "0.5", "--z", "inf"],
    # A tol that is not positive, a modulus beyond the double range and a
    # denominator parameter outside [0, 1).
    ["eval", "--function", "theta", "--q", "0.5", "--z", "2", "--tol", "0"],
    ["audit", "--function", "aq", "--q", "0.5", "--grid", "1:2:2", "--angles", "1",
     "--tol", "nan"],
    ["identity", "--which", "euler", "--q", "0.5", "--z", "0.5", "--tol", "0"],
    ["identity", "--which", "euler", "--q", "0.5", "--z", "0.5", "--tol", "5e-324"],
    ["eval", "--function", "theta", "--q", "0.5", "--z=1.5e308+1.5e308i"],
    ["eval", "--function", "laurent", "--q", "0.5", "--alpha", "0.5", "--z=1.5e308+1.5e308i"],
    ["identity", "--which", "euler", "--q", "0.5", "--z=1.5e308+1.5e308i"],
    ["eval", "--function", "phi", "--q", "0.5", "--b", "1", "--z", "1"],
    # Identities near q = 1 whose product underflows while the series overflows.
    ["identity", "--which", "euler", "--q", "0.999", "--z", "0.99"],
    ["identity", "--which", "qlsum", "--q", "0.999", "--l", "3"],
    ["identity", "--which", "qbinomial", "--q", "0.999", "--a=0.5", "--z", "0.99"],
    ["identity", "--which", "euler", "--q", "0.999", "--z", "0.9"],
    # 25 denominator parameters at 1 - 2^-53, whose product 1 - b_j underflows to 0.
    ["eval", "--function", "f", "--q", "0.5", "--l", "1", "--z", "1",
     *["--b", "0.9999999999999999"] * 25],
    ["audit", "--function", "phi", "--q", "0.5", "--a=0.5", "--grid", "1e-3:1e3:3",
     "--angles", "2", *["--b", "0.9999999999999999"] * 25],
    # Three identity series at one base, stopping at k = 62, 463 and 1247:
    # the kernel's powers of q are made, then read and extended, then capped.
    ["identity", "--which", "euler", "--q", "0.9", "--z", "0.3"],
    ["identity", "--which", "qbinomial", "--q", "0.9", "--a=1.5-0.5i", "--z=-0.85+0.2i"],
    ["identity", "--which", "qlsum", "--q", "0.9", "--l", "0.5"],
)


def _laurent_eval(alpha: float) -> int:
    """eval_laurent of the theta stream at q = 0.5, c_weighted 3 and z = 2,
    printed as eval prints it; the CLI takes no alpha of 1 or more."""
    spec = LaurentSpec(0j, lambda k: 0.5 ** (k * k), alpha, QBase(0.5), 3.0)
    print(eval_laurent(spec, 2.0, 1e-14))
    return 0


def _zero_stream_audit(write) -> int:
    """An audit of the zero stream, whose records all have abs_value 0.0,
    written as the CLI writes a report; the CLI takes only the theta stream."""
    spec = LaurentSpec(0j, lambda k: 0.0, 0.5, QBase(0.5), 1.0)
    write(audit_envelope(SweepPlan(abs_z_grid=(0.5, 2.0), angle_count=2), "laurent", spec),
          sys.stdout)
    return 0


def _tightness(function_tag: str, fixed_params, abs_z_range, budget: int) -> int:
    """tightness_search's (best_abs_z, best_angle, best_ratio), bit for bit."""
    print(*(x.hex() for x in tightness_search(function_tag, fixed_params, abs_z_range, budget)))
    return 0


def _gaussian_ulp_ring() -> int:
    """f at q = 0.9, l = 1 on one prepared series: |z| = 10.0, its two
    neighbouring doubles and the eight audit phases of 10.0, in that order,
    each printed as the float.hex of the value's parts, terms_used and the
    float.hex of tail_bound.  In an audit ring the points a few ulps above
    10.0 reuse its stop floor; these one-shot bits are the ones they must
    give."""
    prepared = prepare_confluent_f(ConfluentParams(a_list=(), b_list=(), l=1.0, q=QBase(0.9)))
    phases = (10.0 * complex(math.cos(2.0 * math.pi * j / 8), math.sin(2.0 * math.pi * j / 8))
              for j in range(8))
    for z in (10.0, math.nextafter(10.0, math.inf), math.nextafter(10.0, 0.0), *phases):
        result = prepared.evaluate(z, 1e-14)
        print(result.value.real.hex(), result.value.imag.hex(), result.terms_used,
              result.tail_bound.hex())
    return 0


# The constant Laurent stream, whose search attains the ratio 1.
_CONSTANT_STREAM = LaurentSpec(0.0, lambda k: 1.0 if k == 0 else 0.0, 1.0, QBase(1.0 / math.e), 1.0)

# Library calls with no command line, each printing one output.
_LIBRARY = (
    ("library eval_laurent alpha=2000", lambda: _laurent_eval(2000.0)),
    *((f"library audit zero stream --format {fmt}", lambda write=write: _zero_stream_audit(write))
      for fmt, write in (("csv", cli._write_csv), ("json", cli._write_json))),
    *((f"library tightness_search {label}", lambda args=args: _tightness(*args))
      for label, args in (
          ("aq q=0.5 1e-3:1e3 budget=200", ("aq", QBase(0.5), (1e-3, 1e3), 200)),
          ("theta q=0.3 alpha=0.5 1e-2:1e2 budget=100",
           ("theta", (QBase(0.3), 0.5), (1e-2, 1e2), 100)),
          ("laurent constant stream 0.5:2 budget=64",
           ("laurent", _CONSTANT_STREAM, (0.5, 2.0), 64)),
          ("aq q=0.99 1e-4:1e6 budget=200", ("aq", QBase(0.99), (1e-4, 1e6), 200)),
          ("theta q=0.99 alpha=0.5 1e-4:1e6 budget=200",
           ("theta", (QBase(0.99), 0.5), (1e-4, 1e6), 200)),
      )),
    ("library GaussianSeries ulp ring", _gaussian_ulp_ring),
)


def outputs():
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
    yield from _LIBRARY


def run(argv) -> tuple[int, str, str]:
    """(exit code, stdout, stderr) of one command line, or of one library
    call of _LIBRARY."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = argv() if callable(argv) else cli.run(argv)
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
