"""Atomic file writing helpers.

Every artifact the library writes goes through a temp-file-plus-rename so a
failure mid-write leaves no partial output; staged_writes makes a block's
writes all or none.

write_csv_table is the one CSV table writer: the trajectory and the sample
CSVs are both its rows of (label,) time, values.  It writes every value as
the text of "%.17g" % value, made in two steps per block of rows and
streamed to the file: an exact numpy kernel makes each value's text, then
the texts are joined with their separators.  The text of the times and of
the labels, which repeat, is made once per file and copied into each block.
"""
from __future__ import annotations

import contextlib
import functools
import json
import os
import secrets

import numpy as np

from .errors import IoError, ValidationError

# rows per block of a CSV file: a table is formatted and written one block
# at a time, so no text of the whole table is ever held in memory
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


def write_csv_table(path: str, header, times, values, labels=None) -> None:
    """A header line, then for each group c of the float array values
    (B, T, W) and each time j the row labels[c] (when labels are given),
    times[j], values[c, j], every value written as the bytes of
    "%.17g" % value (lossless double round-trip; integral values below 2**53
    print as integers).

    The text of the times and of the labels is made once.  The values' text
    is made per block of at most CSV_BLOCK_ROWS rows of one group, by an
    exact integer kernel for zeros and 1e-4 <= |value| < 1e16, the values
    "%.17g" writes without an exponent, and by one "%" over the block's
    other values; each block goes to the file as it is made."""
    values = np.asarray(values, dtype=np.float64)
    groups, t_count, width = values.shape
    time_text = _cell_text(np.asarray(times, dtype=np.float64))
    if labels is not None:
        label_text = _cell_text(np.asarray(labels, dtype=np.float64))
    lead = 1 if labels is None else 2  # the columns before the values
    # "," after each value of a row, a newline after the last
    seps = np.array([44] * (lead + width - 1) + [10], np.uint8)

    def block(c, rows) -> bytes:
        text = np.empty((len(time_text[rows]), lead + width, _SLOTS - 1), np.uint8)
        if labels is not None:
            text[:, 0] = label_text[c]
        text[:, lead - 1] = time_text[rows]
        text[:, lead:] = _cell_text(values[c, rows])
        return _joined(text, seps)

    def chunks():
        yield (",".join(header) + "\n").encode("utf-8")
        # one call per block: a block's arrays are freed before the next is made
        for c in range(groups):
            for start in range(0, t_count, CSV_BLOCK_ROWS):
                yield block(c, slice(start, start + CSV_BLOCK_ROWS))

    _atomic_write(path, _Stream(chunks()))


# bytes per cell of a formatted block: the longest "%.17g" text,
# -2.2250738585072014e-308, then the separator
_SLOTS = 25
# 10**s for 0 <= s <= 22, exact in float64, and each split into halves of
# 26 bits, so that a product with them can be made exact (Dekker's product)
_POW10 = np.array([float(10 ** s) for s in range(23)])
_SPLITTER = 134217729.0  # 2**27 + 1
_POW10_HI = _POW10 * _SPLITTER - (_POW10 * _SPLITTER - _POW10)
_POW10_LO = _POW10 - _POW10_HI


def _cell_text(cells) -> np.ndarray:
    """(..., _SLOTS - 1) bytes: the text of "%.17g" % value for each value
    of the array cells, padded by NULs or spaces, which no text of a value
    holds."""
    with np.errstate(all="ignore"):
        fixed = ((np.abs(cells) >= 1e-4) & (np.abs(cells) < 1e16)) | (cells == 0.0)
        # made before the output, so that the kernel's temporaries and the
        # output are not held at once
        fixed_text = _fixed_text(cells[fixed])
        text = np.empty(cells.shape + (_SLOTS - 1,), np.uint8)
        text[fixed] = fixed_text
        text[~fixed] = _fallback_text(cells[~fixed])
    return text


def _joined(text, seps) -> bytes:
    """The bytes of the cell texts text (..., _SLOTS - 1), in order, each
    without its padding and followed by its separator in seps, which
    broadcasts against text.shape[:-1]."""
    padded = np.empty(text.shape[:-1] + (_SLOTS,), np.uint8)
    padded[..., :-1] = text
    padded[..., -1] = seps
    return padded.tobytes().translate(None, b" \0")


def _fallback_text(cells) -> np.ndarray:
    """(n, _SLOTS - 1) bytes: the text of "%.17g" % value for each value,
    right aligned by spaces, made by one "%" over all of them."""
    text = ("%24.17g" * cells.size % tuple(cells.tolist())).encode("ascii")
    return np.frombuffer(text, np.uint8).reshape(cells.size, _SLOTS - 1)


def _fixed_text(cells) -> np.ndarray:
    """(n, _SLOTS - 1) bytes: the text of "%.17g" % value for each value that
    is 0 or -0 or has 1e-4 <= |value| < 1e16, padded by NULs.

    Such a value is written in fixed notation with 16 - k decimals, k the
    exponent of its 17 significant digits: the sign, the digits and the
    point, without trailing zeros after the point."""
    size = np.abs(cells)
    zero = size == 0.0
    size[zero] = 1.0
    digits, exponent = _digits17(size)
    del size
    # character positions are int8: the (21, n) comparisons below run on bytes
    point = (4 + exponent).astype(np.int8)
    del exponent
    # the characters 0000ddddddddddddddddd: the 17 digits behind the four
    # zeros that a value below 1 writes before them (0.000ddd...); the point
    # goes after character point.  One row per character, so that each step
    # below runs on whole rows, and each temporary is freed once its digits
    # are laid out
    chars = np.full((21, cells.size), 48, np.uint8)
    last = np.full(cells.size, 4, np.int8)  # the last nonzero digit's
    digits4, trailing_zeros4 = _digits4()
    part = np.empty_like(digits)
    # the four 4-digit parts, split off from the end: the first nonzero one
    # found holds the last nonzero digit (a zero has none and keeps 4)
    for end in (20, 16, 12, 8):
        np.divmod(digits, 10 ** 4, out=(digits, part))
        np.take(digits4, part, axis=1, out=chars[end - 3:end + 1])
        found = (part != 0) & (last == 4)
        last[found] = end - trailing_zeros4[part[found]]
    del part
    # what is left is the leading digit; a zero's 1 (from size 1.0) is dropped
    digits[zero] = 0
    chars[4] += digits.astype(np.uint8)
    del digits
    # written: from the zero before the point (point < 4 below 1) up to the
    # last nonzero digit or the point, whichever comes later
    index = np.arange(21, dtype=np.int8)[:, None]
    slots = np.zeros((_SLOTS - 1, cells.size), np.uint8)
    slots[0] = np.signbit(cells) * np.uint8(45)
    mask = index >= np.minimum(point, 4)
    mask &= index <= point
    np.multiply(chars, mask, out=slots[1:22])
    np.greater(index, point, out=mask)
    mask &= index <= last
    chars *= mask
    del mask
    slots[2:23] += chars
    slots[point + 2, np.arange(cells.size)] = (last > point) * np.uint8(46)
    return slots.T


@functools.cache
def _digits4():
    """The four ASCII digits of each of 0..9999, one digit per row, and how
    many of them end in zeros (four for 0).  Made at first use: building
    them raises a process's peak memory by most of a megabyte."""
    digits = (48 + np.arange(10000) // np.array([[1000], [100], [10], [1]]) % 10).astype(np.uint8)
    zeros = (digits[::-1] == 48).cumprod(axis=0).sum(axis=0).astype(np.int8)
    # shared by every call
    digits.flags.writeable = zeros.flags.writeable = False
    return digits, zeros


def _digits17(size):
    """(digits, k) for each value of size, 1e-4 <= size < 1e16, with
    digits = size * 10**(16 - k) rounded half to even, an integer in
    [10**16, 10**17), as "%.17g" rounds it: k is the decimal exponent of size
    rounded to 17 significant digits."""
    exponent = np.floor(np.log10(size)).astype(np.int64)
    product, error = _scaled(size, exponent)
    while True:
        # log10 may put the exponent one off at a power of ten: step it so
        # that the exact product lies in [10**16, 10**17)
        step = (_at_least(product, error, 1e17).astype(np.int64)
                - ~_at_least(product, error, 1e16))
        off = np.flatnonzero(step)
        if not off.size:
            break
        exponent[off] += step[off]
        product[off], error[off] = _scaled(size[off], exponent[off])
    # product, >= 10**16 > 2**53, is an even integer, so adding its error
    # rounded half to even rounds the exact product half to even
    digits = product.astype(np.int64) + np.rint(error).astype(np.int64)
    carry = digits == 10 ** 17
    return np.where(carry, 10 ** 16, digits), exponent + carry


def _scaled(size, exponent):
    """size * 10**(16 - exponent) exactly, as a product rounded to a double
    and its rounding error (Dekker's product)."""
    scale = 16 - exponent
    product = size * np.take(_POW10, scale)
    split = size * _SPLITTER
    high = split - (split - size)
    low = size - high
    scale_high, scale_low = np.take(_POW10_HI, scale), np.take(_POW10_LO, scale)
    error = (((high * scale_high - product) + high * scale_low + low * scale_high)
             + low * scale_low)
    return product, error


def _at_least(product, error, bound):
    """Whether the exact product + error is >= bound, a double."""
    return (product > bound) | ((product == bound) & (error >= 0.0))


class _Stream:
    """Byte chunks made while they are written.  len() is the number of
    bytes made so far: once written, the size of the file, as it is for the
    bytes of a whole file (perfbench's fileio.bytes_written takes len() of
    what _atomic_write is given)."""

    def __init__(self, chunks):
        self._chunks = chunks
        self._size = 0

    def __iter__(self):
        for chunk in self._chunks:
            self._size += len(chunk)
            yield chunk

    def __len__(self) -> int:
        return self._size


def _atomic_write(path: str, data) -> None:
    """Write data, bytes or a _Stream of byte chunks, to path through a temp
    file renamed over it."""
    directory = os.path.dirname(os.path.abspath(path))
    tmp = os.path.join(directory, f".tmp-{secrets.token_hex(8)}~")
    try:
        # 0o666 under the umask, the mode open(path, "w") gives a new file;
        # tempfile.mkstemp would make it 0o600
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL
                     | getattr(os, "O_BINARY", 0), 0o666)
        try:
            with os.fdopen(fd, "wb") as fh:
                fh.writelines([data] if isinstance(data, bytes) else data)
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
