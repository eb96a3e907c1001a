"""A table's CSV and JSON text as the csv and json modules write it, kept as a
reference implementation.

vlcpos.emit renders both formats itself, column by column and chunk by chunk.
These functions write the same table row by row through csv.writer and
json.dumps, with each float rounded by format_number, and the tests hold emit
to their text byte for byte.
"""

import csv
import io
import json

from vlcpos import format_number


def csv_reference(table):
    """The sorted metadata as '# key = value' lines, then the header and rows."""
    buffer = io.StringIO()
    buffer.writelines(f"# {key} = {value}\n" for key, value in sorted(table.metadata.items()))
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(table.columns)
    for row in table.rows:
        writer.writerow(["" if c is None else format_number(c) if isinstance(c, float) else c
                         for c in row])
    return buffer.getvalue()


def json_reference(table):
    """One indented document: name, columns, rows and the sorted metadata."""
    payload = {
        "name": table.name,
        "columns": list(table.columns),
        "rows": [[float(format_number(c)) if isinstance(c, float) else c for c in row]
                 for row in table.rows],
        "metadata": dict(sorted(table.metadata.items())),
    }
    return json.dumps(payload, indent=2) + "\n"
