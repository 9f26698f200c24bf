"""What the program reads and writes: the type rule every read value
passes, the field checker built on it, the one input error, and the one
way a file is written. Imports only the standard library, so any module
can use it without loading another of the program.
"""

from __future__ import annotations

import os
import sys
import tempfile


class InputError(ValueError):
    """A file, a setting or an argument the program will not read."""


# -- reading input ------------------------------------------------------------
# Every value read from a file or --set is checked against a field table:
# key -> (type, test of the typed value or None, what it "must be"). In a
# record the program wrote (`exact`) ints are JSON integers, and the
# description states the type too and tells any fault.

_KIND_NAMES = {bool: "true or false", int: "an integer", float: "a number",
               list: "a list", dict: "an object"}


def checked(where: str, key: str, val, field: tuple, exact: bool = False):
    """`val`, an integral float for an int made an int, or one InputError
    that starts with `where` (the source) and names `key`. The type rule:
    bools are true/false only, ints take no fractional part, floats take
    ints, and every number is finite."""
    kind, test, what = field
    if kind in (int, float):
        ok = (isinstance(val, (int, float)) and not isinstance(val, bool)
              and abs(val) <= sys.float_info.max
              and (kind is float or isinstance(val, int)
                   or not exact and val.is_integer()))
    else:
        ok = isinstance(val, kind)
    if not (ok or exact):
        raise InputError(f"{where}key '{key}' needs {_KIND_NAMES[kind]}, "
                         f"got {val!r}")
    val = int(val) if ok and kind is int else val
    if not ok or test is not None and not test(val):
        raise InputError(f"{where}key '{key}' must be {what}, got {val!r}")
    return val


def check_fields(where: str, d, table: dict) -> dict:
    """The exact values of record `d` for every key of `table`; a missing
    key, or a `d` that is not an object, is an InputError."""
    for key in table:
        if not isinstance(d, dict) or key not in d:
            raise InputError(f"{where}missing key '{key}'")
    return {k: checked(where, k, d[k], f, exact=True)
            for k, f in table.items()}


# -- writing output -----------------------------------------------------------

def atomic_write(path: str, data: bytes) -> None:
    """The one way the program writes a file: through a temporary file in
    the same directory, so a reader sees the old file or the new one, never
    a part. An OSError names `path`, not the temporary file."""
    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(
            dir=os.path.dirname(os.path.abspath(path)), prefix=".tmp-")
        with os.fdopen(fd, "wb") as f:
            f.write(data)
        os.replace(tmp, path)
        tmp = None
    except OSError as e:
        raise OSError(e.errno, e.strerror, path) from e
    finally:
        if tmp is not None:
            os.unlink(tmp)
