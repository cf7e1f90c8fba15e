"""A seeded smoke test of the typed-error contract.

On every input, each public evaluator, envelope and constant either returns
or raises a QSeriesError, and each ``qineq`` command line exits 0, 1 or 2
with no exception escaping ``cli.run``.  The inputs are drawn with a fixed
seed from pools of edge values: bases from 1e-300 to the guard 0.999999, up
to 40 denominator parameters near 1, alpha from 5e-324 to 1e300, l from
5e-324 to 1e300, tols down to 5e-324, and moduli of arguments and numerator
parameters from subnormal to beyond the doubles.  Only the kind of outcome
is checked, not the values.
"""

import contextlib
import io
import math
import random

from qineq import (
    ConfluentParams,
    LaurentSpec,
    PhiParams,
    QBase,
    QSeriesError,
    constant_c,
    envelope_aq_exponential,
    envelope_aq_gaussian,
    envelope_entire,
    envelope_meromorphic,
    envelope_phi,
    envelope_theta,
    eval_confluent_f,
    eval_laurent,
    eval_phi,
    eval_ramanujan_aq,
    eval_theta,
    laurent_weighted_constant,
    meromorphic_bound_params,
    multishifted,
    pochhammer_infinite,
    term_peak,
    theta_weighted_constant,
)
from qineq import cli

SEED = 3203
DRAWS = 250
CLI_DRAWS = 100

QS = (1e-300, 1e-3, 0.5, 0.9, 0.99, 0.999999)
MODULI = (5e-324, 1e-310, 1e-300, 1e-5, 1.0, 1.0000001, 1e5, 1e300, 1.7e308)
ANGLES = (0.0, 0.5 * math.pi, math.pi, 2.5)
NUMERATORS = (0.0, 5e-324, 0.5, -1.0, 3.0 + 4.0j, 1e300, 1e300j, complex(1.5e308, 1.5e308))
DENOMINATORS = (0.0, 0.5, 0.9, 0.999999, 1.0 - 2.0**-53)
DENOMINATOR_COUNTS = (0, 1, 3, 10, 25, 40)
LS = (5e-324, 1e-300, 1e-17, 0.5, 1.0, 1e300)
ALPHAS = (5e-324, 1e-300, 1e-3, 0.5, 1.0 - 2.0**-53, 1.0, 80.0, 2000.0, 1e300)
TOLS = (5e-324, 1e-300, 1e-14, 0.5)


def _draw_z(rng):
    if rng.random() < 0.1:
        return complex(1.5e308, 1.5e308)  # finite parts, modulus beyond the doubles
    angle = rng.choice(ANGLES)
    return rng.choice(MODULI) * complex(math.cos(angle), math.sin(angle))


def _draw_lists(rng):
    a_list = tuple(rng.choice(NUMERATORS) for _ in range(rng.choice((0, 1, 2))))
    b_list = (rng.choice(DENOMINATORS),) * rng.choice(DENOMINATOR_COUNTS)
    return a_list, b_list


def _entire_calls(rng, q, z, tol):
    a_list, b_list = _draw_lists(rng)
    params = ConfluentParams(a_list, b_list, rng.choice(LS), QBase(q))
    return [(eval_confluent_f, params, z, tol), (envelope_entire, params, rng.choice(MODULI)),
            (constant_c, params)]


def _phi_calls(rng, q, z, tol):
    a_list, b_list = _draw_lists(rng)
    params = PhiParams(a_list[:len(b_list)], b_list, QBase(q))
    return [(eval_phi, params, z, tol), (envelope_phi, params, rng.choice(MODULI))]


def _aq_calls(rng, q, z, tol):
    base = QBase(q)
    return [(eval_ramanujan_aq, base, z, tol),
            (envelope_aq_gaussian, base, rng.choice(MODULI)),
            (envelope_aq_exponential, base, rng.choice(MODULI)),
            (term_peak, rng.choice(MODULI), rng.choice(LS), base)]


def _theta_calls(rng, q, z, tol):
    base, alpha = QBase(q), rng.choice(ALPHAS)
    return [(eval_theta, base, z, tol), (theta_weighted_constant, alpha, base, tol),
            (envelope_theta, alpha, base, rng.choice(MODULI))]


def _meromorphic(alpha, base, c, dist):
    return envelope_meromorphic(meromorphic_bound_params(alpha, base), c, dist)


def _laurent_calls(rng, q, z, tol):
    base, alpha, c = QBase(q), rng.choice(ALPHAS), rng.choice((1.0, 3.0, 1e300))

    def stream(k):
        return q ** (k * k)

    spec = LaurentSpec(rng.choice((0j, 1.0, 1e300)), stream, alpha, base, c)
    return [(eval_laurent, spec, z, tol), (laurent_weighted_constant, stream, alpha, base),
            (_meromorphic, alpha, base, c, rng.choice(MODULI))]


def _product_calls(rng, q, z, tol):
    base = QBase(q)
    a_list, b_list = _draw_lists(rng)
    return [(pochhammer_infinite, rng.choice(NUMERATORS), base, tol),
            (multishifted, a_list + b_list, base, math.inf, tol)]


FAMILIES = (_entire_calls, _phi_calls, _aq_calls, _theta_calls, _laurent_calls, _product_calls)


def _draw_argv(rng):
    q = repr(rng.choice(QS))
    z = repr(_draw_z(rng)).strip("()").replace("j", "i")
    bs = ["--b", repr(rng.choice(DENOMINATORS))] * rng.choice(DENOMINATOR_COUNTS)
    kind = rng.randrange(5)
    if kind == 0:
        return ["eval", "--function", "f", "--q", q, "--l", repr(rng.choice(LS)), f"--z={z}", *bs]
    if kind == 1:
        return ["eval", "--function", "phi", "--q", q, "--a=0.5", f"--z={z}", *bs]
    if kind == 2:
        return ["envelope", "--function", "f", "--q", q, "--l", repr(rng.choice(LS)),
                "--abs-z", repr(rng.choice(MODULI)), *bs]
    if kind == 3:
        return ["audit", "--function", "phi", "--q", q, "--a=0.5", "--grid", "1e-3:1e3:3",
                "--angles", "2", *bs]
    return ["eval", "--function", rng.choice(("theta", "laurent")), "--q", q,
            "--alpha", repr(rng.choice(ALPHAS)), f"--z={z}", "--tol", repr(rng.choice(TOLS))]


def test_library_calls_return_or_raise_typed_errors():
    rng = random.Random(SEED)
    escaped = []
    for _ in range(DRAWS):
        family = rng.choice(FAMILIES)
        q, z, tol = rng.choice(QS), _draw_z(rng), rng.choice(TOLS)
        try:
            calls = family(rng, q, z, tol)  # builds the parameter objects
        except QSeriesError:
            continue
        for call, *args in calls:
            try:
                call(*args)
            except QSeriesError:
                pass
            except Exception as exc:  # noqa: BLE001 - every other exception is the failure
                escaped.append((call.__name__, q, args, repr(exc)))
    assert escaped == []


def test_command_lines_exit_with_a_code():
    rng = random.Random(SEED)
    escaped = []
    for _ in range(CLI_DRAWS):
        argv = _draw_argv(rng)
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            try:
                code = cli.run(argv)
            except Exception as exc:  # noqa: BLE001 - an escaping exception is the failure
                code = repr(exc)
        if code not in (0, 1, 2):
            escaped.append((" ".join(argv), code))
    assert escaped == []
