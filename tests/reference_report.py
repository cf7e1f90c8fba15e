"""The audit CSV report written the plain way: one ``csv.writer`` row per record.

``qineq.cli._write_csv`` renders the cells that repeat across a sweep once
and joins the others directly; it must write exactly what this loop writes.
Each row is written with the RFC 4180 terminator ``\r\n``, so that
``csv.writer`` quotes every cell holding a ``\r`` or a ``\n``, and that
terminator is then replaced with ``\n``.
"""

from __future__ import annotations

import csv
import io

COLUMNS = (
    "function", "q", "l", "param_digest", "re_z", "im_z", "abs_value", "envelope_log",
    "ratio", "pass", "terms_used", "tail_bound", "error",
)


def write_csv(records, stream) -> None:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\r\n")

    def writerow(row) -> None:
        buffer.seek(0)
        buffer.truncate()
        writer.writerow(row)
        stream.write(buffer.getvalue()[:-len("\r\n")] + "\n")

    writerow(COLUMNS)
    for r in records:
        writerow(
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
