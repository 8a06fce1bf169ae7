"""Parser for the plain-text b-file sequence format: one "<index> <value>"
pair per line, '#' comments and blank lines ignored, indices strictly
increasing.  Errors echo at most 60 characters of the offending line."""
from __future__ import annotations

import re
import sys
from collections import namedtuple

BFileEntry = namedtuple("BFileEntry", "index value")


def parse_bfile(content: str) -> list[BFileEntry]:
    entries: list[BFileEntry] = []
    for lineno, raw in enumerate(content.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        if len(fields) != 2:
            raise ValueError(f"line {lineno}: expected '<index> <value>', got {raw!r:.60}")
        # only ASCII decimal digits with an optional sign: int() would also
        # take underscores and the digits of other scripts
        if not all(re.fullmatch(r"[+-]?[0-9]+", f) for f in fields):
            raise ValueError(f"line {lineno}: non-integer field in {raw!r:.60}")
        try:
            index, value = int(fields[0]), int(fields[1])
        except ValueError:
            # int() rejects a field of plain decimal digits only past Python's limit
            limit = sys.get_int_max_str_digits()
            raise ValueError(f"line {lineno}: integer field over the {limit}-digit limit"
                             f" in {raw!r:.60}") from None
        if entries and index <= entries[-1].index:
            raise ValueError(f"line {lineno}: index {index} not increasing")
        entries.append(BFileEntry(index, value))
    return entries
