"""Text renderings shared by every artifact renderer, and the one file writer.

Grids, traces and reports render themselves as text with these functions;
only the command line (:mod:`possfit.cli`) calls :func:`write_text`.

CSV: an optional block of ``#`` comment lines, one header row, data rows,
``\\n`` line ends.  JSON: indented two spaces, with an optional block of
leading keys, newline-terminated.  Files are written to a temporary name
and renamed into place, so a failed run leaves no partial file.
"""

from __future__ import annotations

import json
import os


def csv_text(header, columns, rows) -> str:
    return "\n".join([*header, ",".join(columns), *rows]) + "\n"


def json_text(doc: dict, header=None) -> str:
    return json.dumps({**(header or {}), **doc}, indent=2) + "\n"


def write_text(path, text: str) -> None:
    tmp = f"{path}.tmp-{os.getpid()}"
    with open(tmp, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)
    os.replace(tmp, path)
