"""Command-line front end: evaluate, bound, audit and identity-check.

Complex literals use the shell-safe form <re>[+|-]<im>i (a plain real is
accepted as zero-imaginary); pass negatives as --z=-1+0i so the leading dash
is not read as a flag.  Modulus grids are log-spaced lo:hi:count.  Audit
output is CSV (default) or JSON with a fixed column order, reproducible byte
for byte for a fixed seed; errored records have null measurements in JSON,
and the last column, error, says why (empty in CSV and null in JSON when
the record has no error).  An option that does not apply to --function is a
usage error; --draws accepts and ignores --q, --angles and the grid count.

Exit codes: 0 success, and for audit that no record violated its envelope;
1 at least one audit record failed; 2 usage or validation errors or an
output file that cannot be written.  Audit records whose evaluation errored
are neither passes nor failures: they leave the exit code alone and are
counted in the summary line on stderr.
"""

from __future__ import annotations

import argparse
import functools
import sys

from . import bounds
from .errors import InvalidArgumentError, QSeriesError
from .qcore import QBase
from .series import (
    ConfluentParams,
    LaurentSpec,
    PhiParams,
    eval_confluent_f,
    eval_laurent,
    eval_phi,
    eval_ramanujan_aq,
    eval_theta,
)
from .verify import (
    DEFAULT_TOL,
    SweepPlan,
    audit_envelope,
    audit_summary,
    format_complex,
    identity_euler,
    identity_ql_sum,
    identity_qbinomial_theorem,
    identity_theta_triple_product,
    log_grid,
)

CSV_COLUMNS = (
    "function",
    "q",
    "l",
    "param_digest",
    "re_z",
    "im_z",
    "abs_value",
    "envelope_log",
    "ratio",
    "pass",
    "terms_used",
    "tail_bound",
    "error",
)


def parse_complex(text: str) -> complex:
    """Parse <re>[+|-]<im>i or a plain real literal."""
    literal = text.strip()
    if literal[-1:] in ("i", "I"):  # the imaginary unit alone: inf and infinity keep their i
        literal = literal[:-1] + "j"
    try:
        return complex(literal)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a complex literal like 0.3-0.4i, got {text!r}"
        ) from None


def parse_grid(text: str) -> tuple[float, ...]:
    """Parse lo:hi:count into a log-spaced modulus grid."""
    parts = text.split(":")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(f"expected lo:hi:count, got {text!r}")
    try:
        lo, hi, count = float(parts[0]), float(parts[1]), int(parts[2])
        return log_grid(lo, hi, count)
    except (ValueError, InvalidArgumentError) as exc:
        raise argparse.ArgumentTypeError(f"bad grid {text!r}: {exc}") from None


def _theta_stream(q: QBase):
    qq = q.q

    def coeff(k: int) -> complex:
        return complex(qq ** (k * k))

    return coeff


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qineq",
        description="Evaluate q-series special functions and certify their envelopes.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_common(p: argparse.ArgumentParser, with_z: bool, evaluates: bool) -> None:
        p.add_argument("--function", required=True, choices=("f", "phi", "aq", "theta", "laurent"))
        p.add_argument("--q", type=float, required=True, help="base, 0 < q < 1")
        if with_z:
            p.add_argument("--z", type=parse_complex, required=True, help="argument, e.g. 0.3-0.4i")
        p.add_argument("--a", type=parse_complex, action="append", default=None,
                       help="numerator parameter, repeatable (f, phi)")
        p.add_argument("--b", type=float, action="append", default=None,
                       help="denominator parameter in [0,1), repeatable (f, phi)")
        p.add_argument("--l", type=float, default=None, help="Gaussian weight exponent (f)")
        p.add_argument("--alpha", type=float, default=None, help="decay exponent (theta, laurent)")
        if evaluates:
            p.add_argument("--tol", type=float, default=DEFAULT_TOL)

    p_eval = sub.add_parser("eval", help="evaluate a function at one point")
    add_common(p_eval, with_z=True, evaluates=True)
    p_eval.set_defaults(handler=_cmd_eval)

    p_env = sub.add_parser("envelope", help="closed-form envelope at one modulus")
    add_common(p_env, with_z=False, evaluates=False)
    p_env.add_argument("--abs-z", type=float, required=True, help="modulus |z| > 0")
    p_env.add_argument("--variant", choices=("gaussian", "exponential", "certified", "as-printed"),
                       default=None,
                       help="aq: gaussian (default) or exponential; theta: certified (default) or as-printed")
    p_env.set_defaults(handler=_cmd_envelope)

    p_audit = sub.add_parser("audit", help="sweep a grid and certify domination")
    add_common(p_audit, with_z=False, evaluates=True)
    p_audit.add_argument("--grid", type=parse_grid, required=True, help="log grid lo:hi:count")
    p_audit.add_argument("--angles", type=int, default=8)
    p_audit.add_argument("--draws", type=int, default=0,
                         help="random parameter draws instead of fixed parameters "
                              "(f, phi; not with --l, --a, --b)")
    p_audit.add_argument("--seed", type=int, default=None,
                         help="seed of the parameter draws (default 0; only with --draws)")
    p_audit.add_argument("--out", default=None, help="output path (default: stdout)")
    p_audit.add_argument("--format", choices=("csv", "json"), default="csv")
    p_audit.set_defaults(handler=_cmd_audit)

    p_ident = sub.add_parser("identity", help="residual of a summation identity")
    p_ident.add_argument("--which", required=True,
                         choices=("euler", "qbinomial", "qlsum", "triple"))
    p_ident.add_argument("--q", type=float, required=True)
    p_ident.add_argument("--z", type=parse_complex, default=None)
    p_ident.add_argument("--a", type=parse_complex, default=None)
    p_ident.add_argument("--l", type=float, default=None)
    p_ident.add_argument("--tol", type=float, default=DEFAULT_TOL)
    p_ident.set_defaults(handler=_cmd_identity)

    return parser


def _need(args, attr: str, flag: str, context: str):
    value = getattr(args, attr)
    if value is None:
        raise InvalidArgumentError(f"{flag} is required for {context}")
    return value


# Each function-specific option: (attribute, flag, the functions it applies to).
_FUNCTION_OPTIONS = (
    ("a", "--a", ("f", "phi")),
    ("b", "--b", ("f", "phi")),
    ("l", "--l", ("f",)),
    ("alpha", "--alpha", ("theta", "laurent")),
)
# eval reads --alpha for laurent's coefficients only; the theta series has no alpha.
_EVAL_OPTIONS = _FUNCTION_OPTIONS[:-1] + (("alpha", "--alpha", ("laurent",)),)
# Each identity-specific option: (attribute, flag, the identities it applies to, which require it).
_IDENTITY_OPTIONS = (
    ("z", "--z", ("euler", "qbinomial", "triple")),
    ("a", "--a", ("qbinomial",)),
    ("l", "--l", ("qlsum",)),
)
_VARIANT_FUNCTION = {
    "gaussian": "aq", "exponential": "aq", "certified": "theta", "as-printed": "theta",
}


def _reject_inapplicable(args, selector: str = "function", options=_FUNCTION_OPTIONS) -> None:
    """Raise InvalidArgumentError naming every given option that does not
    apply to the choice of --<selector>, so that none is silently ignored."""
    choice = getattr(args, selector)
    flags = [
        flag
        for attr, flag, choices in options
        if getattr(args, attr, None) is not None and choice not in choices
    ]
    variant = getattr(args, "variant", None)
    if variant is not None and _VARIANT_FUNCTION[variant] != choice:
        flags.append(f"--variant {variant}")
    if flags:
        verb = "does" if len(flags) == 1 else "do"
        raise InvalidArgumentError(f"{', '.join(flags)} {verb} not apply to --{selector} {choice}")


def _subject(args, qb: QBase):
    """What --function passes to its envelope and audit: ConfluentParams (f),
    PhiParams (phi), the base (aq), (base, alpha) (theta), or a LaurentSpec of
    the theta stream with its weighted constant (laurent)."""
    fn = args.function
    if fn == "f":
        l = _need(args, "l", "--l", "--function f")
        return ConfluentParams(a_list=tuple(args.a or ()), b_list=tuple(args.b or ()), l=l, q=qb)
    if fn == "phi":
        return PhiParams(a_list=tuple(args.a or ()), b_list=tuple(args.b or ()), q=qb)
    if fn == "aq":
        return qb
    alpha = _need(args, "alpha", "--alpha", f"--function {fn}")
    if fn == "theta":
        return qb, alpha
    c = bounds.theta_weighted_constant(alpha, qb, bounds.THETA_CONSTANT_TOL)
    return LaurentSpec(center=0.0 + 0.0j, coeff=_theta_stream(qb), alpha=alpha, q=qb, c_weighted=c)


def _cmd_eval(args) -> int:
    qb = QBase(args.q)
    _reject_inapplicable(args, options=_EVAL_OPTIONS)
    # Built per call, so a rebound module-level evaluator is the one called.
    evaluate = {"f": eval_confluent_f, "phi": eval_phi, "aq": eval_ramanujan_aq,
                "theta": eval_theta, "laurent": eval_laurent}[args.function]
    # The aq and theta series take the base alone: eval of theta reads no --alpha.
    subject = qb if args.function in ("aq", "theta") else _subject(args, qb)
    result = evaluate(subject, args.z, args.tol)
    print(f"value = {format_complex(result.value)}")
    print(f"terms_used = {result.terms_used}")
    print(f"tail_bound = {result.tail_bound!r}")
    return 0


def _cmd_envelope(args) -> int:
    qb = QBase(args.q)
    _reject_inapplicable(args)
    fn = args.function
    abs_z = args.abs_z
    subject = _subject(args, qb)
    if args.variant == "exponential":
        env = bounds.envelope_aq_exponential(qb, abs_z)
    elif args.variant == "as-printed":
        env = bounds.envelope_theta_as_printed(subject[1], qb, abs_z)
    elif fn == "f":
        env = bounds.envelope_entire(subject, abs_z)
    elif fn == "phi":
        env = bounds.envelope_phi(subject, abs_z)
    elif fn == "aq":
        env = bounds.envelope_aq_gaussian(qb, abs_z)
    elif fn == "theta":
        env = bounds.envelope_theta(subject[1], qb, abs_z)
    else:
        shape = bounds.meromorphic_bound_params(subject.alpha, qb)
        env = bounds.envelope_meromorphic(shape, subject.c_weighted, abs_z)
    print(f"bound = {env.bound!r}")
    print(f"log_bound = {env.log_bound!r}")
    print(f"constant_c = {env.constant_c!r}")
    print(f"prefactor_log = {env.prefactor_log!r}")
    print(f"exponent_term = {env.exponent_term!r}")
    return 0


def _csv_cell_l(l: float | None) -> str:
    return "" if l is None else repr(l)


def _csv_cell(text: str) -> str:
    """text as one CSV cell: in quotes, its quotes doubled, where it holds a
    comma, a quote or a line break (RFC 4180), and as it is otherwise."""
    if "," in text or '"' in text or "\n" in text or "\r" in text:
        return '"' + text.replace('"', '""') + '"'
    return text


def _write_csv(records, stream) -> None:
    """Write the report in one piece.

    The digest and error cells go through _csv_cell; the other cells are
    column names, float reprs, true/false and ints, which never need
    quoting, and are joined directly.  The function, q, l and param_digest
    cells repeat across a sweep, so each distinct run of them is rendered
    once, and so is each distinct error message.  An audit hands one
    envelope_log float object to every record at a modulus, so that cell is
    rendered again only when the object changes.  Theta and Laurent tails
    repeat across a modulus's angles, so the tail_bound cell is rendered
    again only when the float differs from the previous record's or is
    zero, whose two signs compare equal.
    """
    lines = [",".join(CSV_COLUMNS)]
    key = prefix = envelope_log = envelope_cell = tail = tail_cell = None
    error_cells: dict[str, str] = {}
    for (function_tag, q, l, digest, z, abs_value, envelope, ratio, passed, terms_used,
         tail_bound, error) in records:
        if (function_tag, q, l, digest) != key:
            key = (function_tag, q, l, digest)
            prefix = f"{function_tag},{q!r},{_csv_cell_l(l)},{_csv_cell(digest)}"
        if envelope is not envelope_log:
            envelope_log, envelope_cell = envelope, repr(envelope)
        if tail_bound != tail or not tail_bound:
            tail, tail_cell = tail_bound, repr(tail_bound)
        error_cell = error_cells.get(error)
        if error_cell is None:
            error_cell = error_cells[error] = _csv_cell(error)
        lines.append(
            f"{prefix},{z.real!r},{z.imag!r},{abs_value!r},{envelope_cell},{ratio!r},"
            f"{'true' if passed else 'false'},{terms_used},{tail_cell},{error_cell}"
        )
    lines.append("")
    stream.write("\n".join(lines))


def _write_json(records, stream) -> None:
    import json  # only --format json needs it; every other run skips its import

    payload = []
    for r in records:
        cells = [
            r.function_tag, r.q, r.l, r.param_digest, r.z.real, r.z.imag, r.abs_value,
            r.envelope_log, r.ratio, r.passed, r.terms_used, r.tail_bound, r.error or None,
        ]
        if r.error:  # abs_value, envelope_log, ratio and tail_bound are null
            cells[6] = cells[7] = cells[8] = cells[11] = None
        payload.append(dict(zip(CSV_COLUMNS, cells)))
    json.dump(payload, stream, indent=2, allow_nan=False)
    stream.write("\n")


def _cmd_audit(args) -> int:
    qb = QBase(args.q)
    fn = args.function
    plan = SweepPlan(
        abs_z_grid=args.grid,
        angle_count=args.angles,
        parameter_draws=args.draws,
        seed=args.seed or 0,
        tol=args.tol,
    )
    if args.draws > 0:
        if fn not in ("f", "phi"):
            raise InvalidArgumentError("--draws requires --function f or phi")
        if args.l is not None or args.a is not None or args.b is not None:
            raise InvalidArgumentError("--draws draws its own parameters; drop --l, --a and --b")
    elif args.seed is not None:
        raise InvalidArgumentError("--seed seeds the parameter draws; it needs --draws")
    _reject_inapplicable(args)
    tag = "confluent_f" if fn == "f" else fn
    if args.draws > 0:
        records = audit_envelope(plan, tag)
    else:
        records = audit_envelope(plan, tag, _subject(args, qb))

    write = _write_csv if args.format == "csv" else _write_json
    if args.out is None:
        write(records, sys.stdout)
    else:
        with open(args.out, "w", encoding="utf-8", newline="") as handle:
            write(records, handle)

    summary = audit_summary(records)
    print(
        "records={records} passed={passed} failed={failed} errors={errors}".format(**summary),
        file=sys.stderr,
    )
    return 1 if summary["failed"] > 0 else 0


def _cmd_identity(args) -> int:
    qb = QBase(args.q)
    _reject_inapplicable(args, "which", _IDENTITY_OPTIONS)
    which = args.which
    for attr, flag, identities in _IDENTITY_OPTIONS:
        if which in identities:
            _need(args, attr, flag, f"--which {which}")
    if which == "euler":
        residual = identity_euler(qb, args.z, args.tol)
    elif which == "qbinomial":
        residual = identity_qbinomial_theorem(args.a, qb, args.z, args.tol)
    elif which == "qlsum":
        residual = identity_ql_sum(args.l, qb, args.tol)
    else:
        residual = identity_theta_triple_product(qb, args.z, args.tol)
    print(f"residual = {residual!r}")
    return 0


@functools.cache
def _shared_parser() -> argparse.ArgumentParser:
    return build_parser()


def run(argv=None) -> int:
    """Run one command line and return its exit code.

    The parser is built on the first call and reused by every later call in
    the process: parsing leaves it unchanged, and repeatable options collect
    into a fresh list per call, so one run's arguments never reach the next.
    """
    try:
        args = _shared_parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.handler(args)
    except (QSeriesError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run())
