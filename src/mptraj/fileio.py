"""Atomic file writing helpers.

Every artifact the library writes goes through a temp-file-plus-rename so a
failure mid-write leaves no partial output; staged_writes makes a block's
writes all or none.
"""
from __future__ import annotations

import contextlib
import json
import os
import tempfile

from .errors import IoError, ValidationError

# rows per format operation in write_csv_table; one for the whole table costs memory
CSV_BLOCK_ROWS = 4096

# the rename that completes an atomic write; staged_writes holds it back
_rename = os.replace


def atomic_write_text(path: str, text: str) -> None:
    _atomic_write(path, text.encode("utf-8"))


def atomic_write_bytes(path: str, data: bytes) -> None:
    _atomic_write(path, data)


def atomic_write_json(path: str, obj) -> None:
    # indent=1 keeps large float arrays diffable without bloating the file
    atomic_write_text(path, json.dumps(obj, indent=1) + "\n")


def write_csv_table(path: str, header, table) -> None:
    """A header line, then one line per row of the 2-D float array table,
    every value written with 17 significant digits (lossless double
    round-trip; integral values below 2**53 print as integers)."""
    row = ",".join(["%.17g"] * table.shape[1]) + "\n"
    parts = [",".join(header) + "\n"]
    for start in range(0, table.shape[0], CSV_BLOCK_ROWS):
        block = table[start:start + CSV_BLOCK_ROWS]
        parts.append(row * block.shape[0] % tuple(block.ravel().tolist()))
    atomic_write_text(path, "".join(parts))


def _atomic_write(path: str, data: bytes) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix="~")
        try:
            with os.fdopen(fd, "wb") as fh:
                fh.write(data)
            _rename(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
    # strerror, not the text of exc, which can name the random temp file
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc.strerror or exc}") from exc


@contextlib.contextmanager
def staged_writes():
    """Hold back the renames of the atomic writes inside the block until its
    clean exit; on any error remove every temp file and touch no destination."""
    global _rename
    held = []
    _rename = lambda tmp, path: held.append((tmp, path))
    try:
        yield
        try:
            for tmp, path in held:
                os.replace(tmp, path)
        except OSError as exc:
            raise IoError(f"cannot write {path}: {exc.strerror or exc}") from exc
    finally:
        _rename = os.replace
        for tmp, _ in held:
            if os.path.exists(tmp):
                os.unlink(tmp)


def read_text(path: str) -> str:
    """The UTF-8 text of path, without the byte-order mark that spreadsheet
    programs write."""
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            return fh.read()
    # ValueError: a NUL byte in the path, or contents that are not UTF-8
    except (OSError, ValueError) as exc:
        raise IoError(f"cannot read {path}: {exc}") from exc


def read_json(path: str):
    text = read_text(path)
    try:
        return json.loads(text)
    # beyond JSONDecodeError: integers over 4300 digits and too deep nesting
    except (ValueError, RecursionError) as exc:
        raise ValidationError(f"malformed JSON in {path}: {exc}") from exc
