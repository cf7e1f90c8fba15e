"""The audit CSV report written the plain way: one ``csv.writer`` row per record.

``qineq.cli._write_csv`` renders the cells that repeat across a sweep once
and joins the others directly; it must write exactly what this loop writes.
"""

from __future__ import annotations

import csv

COLUMNS = (
    "function", "q", "l", "param_digest", "re_z", "im_z", "abs_value", "envelope_log",
    "ratio", "pass", "terms_used", "tail_bound", "error",
)


def write_csv(records, stream) -> None:
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(COLUMNS)
    for r in records:
        writer.writerow(
            (
                r.function_tag,
                repr(r.q),
                "" if r.l is None else repr(r.l),
                r.param_digest,
                repr(r.z.real),
                repr(r.z.imag),
                repr(r.abs_value),
                repr(r.envelope_log),
                repr(r.ratio),
                "true" if r.passed else "false",
                str(r.terms_used),
                repr(r.tail_bound),
                r.error,
            )
        )
