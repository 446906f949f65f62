"""CAN log parsing and the preprocessing chain: padding, windowing, splits."""
from __future__ import annotations

import csv
import io
import logging
from itertools import chain, islice, repeat
from operator import itemgetter
from pathlib import Path

import numpy as np

from .frames import LABELS, MAX_ARBITRATION_ID, MAX_DLC, FrameTable, Label, Window
from .nn import atomic_path

log = logging.getLogger(__name__)


class ParseError(ValueError):
    """Raised for malformed rows; carries the 1-based line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


COLUMNS = ("timestamp", "arbitration_id", "dlc", "payload", "label")  # a log's header


def _parse_hex(text: str, what: str) -> int:
    t = text.strip()
    if t.lower().startswith("0x"):
        t = t[2:]
    try:
        return int(t, 16)
    except ValueError:
        raise ValueError(f"malformed hex {what} {text!r}") from None


def _parse_payload(text: str) -> list:
    t = text.strip()
    if not t:
        return []
    if "," in t:
        parts = [p for p in t.split(",") if p.strip()]
    elif " " in t:
        parts = t.split()
    else:
        # one contiguous hex string, two digits per byte
        if len(t) % 2 != 0:
            raise ValueError(f"odd-length contiguous hex payload {text!r}")
        parts = [t[i : i + 2] for i in range(0, len(t), 2)]
    out = []
    for p in parts:
        v = _parse_hex(p, "payload byte")
        if v > 0xFF:
            raise ValueError(f"payload byte {p!r} exceeds 0xFF")
        out.append(v)
    if len(out) > MAX_DLC:
        raise ValueError(f"payload has {len(out)} bytes, max is {MAX_DLC}")
    return out


def _parse_id(text: str) -> int:
    return _parse_hex(text, "arbitration id")


def _convert(texts, convert, dtype, fast):
    """(values, rejected) for one column. An all-valid column takes one C-level pass
    over `fast` (None: no such pass); otherwise each cell is converted alone, a
    rejected or missing (None) cell becomes 0, and an integer too large for `dtype`
    becomes -1, which fails every range check."""
    n = len(texts)
    if fast is not None:
        try:
            return np.fromiter(fast, dtype, n), np.zeros(n, bool)
        except (TypeError, ValueError, OverflowError):  # TypeError: a missing cell
            pass
    values = np.zeros(n, dtype)
    rejected = np.zeros(n, bool)
    for i, text in enumerate(texts):
        if text is None:  # missing column
            rejected[i] = True
            continue
        try:
            values[i] = convert(text)
        except ValueError:
            rejected[i] = True
        except OverflowError:
            values[i] = -1
    return values, rejected


def _label_code(text: str) -> int:
    """Index of a label text in LABELS: empty text is Normal, an unknown label -1."""
    try:
        return LABELS.index(Label.from_string(text)) if text else 0
    except ValueError:
        return -1


def _reason(convert, text, missing: str = "") -> str:
    """Why `convert` rejects `text` (None: the column is missing)."""
    if text is None:
        return missing
    try:
        convert(text)
    except ValueError as e:
        return str(e)


_HEX_DIGITS = "0123456789abcdefABCDEF"
_DIGIT = np.full(256, 255, np.uint8)  # ASCII code -> digit value; 255 for a non-digit
_DIGIT[np.frombuffer(_HEX_DIGITS.encode(), np.uint8)] = [int(c, 16) for c in _HEX_DIGITS]
_MAX_WIDTH = {10: 18, 16: 15}  # the widest cells whose value always fits int64
_CANONICAL_WIDTH = 3 * MAX_DLC - 1  # "HH HH HH HH HH HH HH HH"


def _integers(texts, base: int, convert):
    """(int64 values, rejected) of an integer column. A column whose cells are all
    ASCII base-`base` digits of one width is decoded from one joined buffer through
    _DIGIT, to the values int(text, base) gives; any other takes one pass of
    int(text, base) or, failing that, `convert` cell by cell."""
    n = len(texts)
    try:
        joined = "".join(texts)
        width = len(joined) // n if n else 0
        one_width = (np.fromiter(map(len, texts), np.int64, n) == width).all()
    except TypeError:  # a missing cell (None)
        joined, width, one_width = "".join(filter(None, texts)), 0, False
    if one_width and 0 < width <= _MAX_WIDTH[base] and joined.isascii():
        digits = _DIGIT[np.frombuffer(joined.encode(), np.uint8)].reshape(n, width)
        if (digits < base).all():
            values = np.zeros(n, np.int64)
            for column in digits.T:
                values = values * base + column
            return values, np.zeros(n, bool)
    # int(text, 16) also reads "0x_1", which _parse_id rejects
    fast = None if "_" in joined else map(int, texts, repeat(base))
    return _convert(texts, convert, np.int64, fast)


def _decode_payloads(texts):
    """(payload uint8[N, 8], rejected bool[N]).

    The form write_log emits (two hex digits per byte, single spaces, at most 8
    bytes, or empty) is decoded for all rows at once from their ASCII bytes through
    _DIGIT; any other text goes through _parse_payload for that row alone."""
    n = len(texts)
    length = np.fromiter(map(len, texts), np.int64, n)
    try:  # one 3-byte slot per payload byte: two digits and a space, or the end
        chars = np.array(texts, f"S{3 * MAX_DLC}")  # a longer cell is cut, and fails on length
    except UnicodeEncodeError:  # a non-ASCII cell: every row goes through _parse_payload
        chars = np.zeros(n, f"S{3 * MAX_DLC}")
    slots = chars.view(np.uint8).reshape(n, MAX_DLC, 3)
    high, low = _DIGIT[slots[:, :, 0]], _DIGIT[slots[:, :, 1]]
    unused = np.arange(MAX_DLC) >= ((length + 1) // 3)[:, None]
    canonical = ((length % 3 == 2) | (length == 0)) & (length <= _CANONICAL_WIDTH)
    canonical &= (((high | low) < 16) | unused).all(axis=1)
    canonical &= ((slots[:, :-1, 2] == ord(" ")) | unused[:, 1:]).all(axis=1)
    payload = high << 4 | low
    payload[unused | ~canonical[:, None]] = 0
    rejected = np.zeros(n, bool)
    for i in np.flatnonzero(~canonical):
        try:
            data = _parse_payload(texts[i])
        except ValueError:
            rejected[i] = True
            continue
        payload[i, : len(data)] = data
    return payload, rejected


_BLOCK_ROWS = 4096  # lines read, or rows converted, at a time: bounds how much text is alive at once


def _parse_block(columns, lines) -> FrameTable:
    """Convert and validate the five text columns (in COLUMNS order) of consecutive
    non-blank rows; `lines[i]` is row i's physical line number. Raises ParseError
    for the first bad row."""
    ts_text, id_text, dlc_text, payload_text, label_text = columns
    n = len(ts_text)
    timestamp, ts_bad = _convert(ts_text, float, np.float64, map(float, ts_text))
    arb, id_bad = _integers(id_text, 16, _parse_id)
    dlc, dlc_bad = _integers(dlc_text, 10, int)
    payload, payload_bad = _decode_payloads(payload_text)
    payload[np.arange(MAX_DLC) >= dlc[:, None]] = 0  # the declared DLC wins
    codes = {text: _label_code(text) for text in set(label_text)}
    label = np.fromiter(map(codes.__getitem__, label_text), np.int8, n)

    # in the order a row is checked, so a row's message is its first failure
    checks = [
        (ts_bad, lambda i: _reason(float, ts_text[i], "missing column 'timestamp'")),
        (id_bad, lambda i: _reason(_parse_id, id_text[i], "missing column 'arbitration_id'")),
        (dlc_bad, lambda i: _reason(int, dlc_text[i], "missing column 'dlc'")),
        ((dlc < 0) | (dlc > MAX_DLC), lambda i: f"dlc {int(dlc_text[i])} outside [0, {MAX_DLC}]"),
        (payload_bad, lambda i: _reason(_parse_payload, payload_text[i])),
        (label < 0, lambda i: _reason(Label.from_string, label_text[i])),
        ((arb < 0) | (arb >= MAX_ARBITRATION_ID),
         lambda i: f"arbitration id {_parse_id(id_text[i]):#x} outside 29-bit range"),
    ]
    failed = np.logical_or.reduce([mask for mask, _ in checks])
    if failed.any():
        i = int(np.argmax(failed))
        raise ParseError(lines[i], next(message(i) for mask, message in checks if mask[i]))
    return FrameTable(timestamp, arb, dlc.astype(np.uint8), payload, label)


def _row_columns(rows, fields):
    """The five columns of csv rows, as _plain_columns gives them; where a row is
    too short, a cell is None, or the default text of an optional column."""
    width = min(map(len, rows), default=0)
    return [[default] * len(rows) if index is None
            else list(map(itemgetter(index), rows)) if index < width
            else [row[index] if index < len(row) else default for row in rows]
            for index, default in fields]


_CELL_ENDS = bytes.maketrans(b"\n", b",")


def _plain_columns(text: str, n: int, width: int, fields):
    """The five columns of a block of `n` lines, or None when the block is not plain
    (see parse_log) or a line is longer than csv's field size limit. `fields` holds
    each column's index in a row, or None and the text of an absent column."""
    if width < 2 or '"' in text:  # with one field, a blank line would pass for a row
        return None
    if not text.endswith("\n"):
        text += "\n"
    data = text.encode()
    array = np.frombuffer(data, np.uint8)
    separators = np.flatnonzero((array == ord(",")) | (array == ord("\n")))
    # width - 1 commas and then "\n" on every line: no line ends in a bare "\r"
    if (len(separators) != n * width
            or (array[separators].reshape(n, width)
                != np.frombuffer(b"," * (width - 1) + b"\n", np.uint8)).any()
            or len(data) > csv.field_size_limit()
            and np.diff(separators[width - 1 :: width], prepend=-1).max() > csv.field_size_limit()):
        return None
    del array, separators
    # every "\r" is the start of a "\r\n"
    cells = data.translate(_CELL_ENDS, b"\r").decode().split(",")
    stop = n * width
    return [[default] * n if index is None else cells[index:stop:width]
            for index, default in fields]


def _blocks(fh, width: int, fields, line: int):
    """(five columns, physical line numbers) of each block of rows in `fh`, which
    follows `line` lines of the file: plain blocks of _BLOCK_ROWS lines, then, from
    the first block that is not plain, csv rows _BLOCK_ROWS at a time. The dels
    free a block's text and cells before the next block is read: a suspended
    generator keeps its locals alive."""
    while True:
        lines = list(islice(fh, _BLOCK_ROWS))
        if not lines:
            return
        n, text = len(lines), "".join(lines)
        del lines
        columns = _plain_columns(text, n, width, fields)
        if columns is None:
            break
        del text
        yield columns, range(line + 1, line + n + 1)
        del columns
        line += n
    reader = csv.reader(chain(io.StringIO(text, newline=""), fh))  # a quoted cell can span lines
    del text
    rows, lines = [], []
    try:
        for row in reader:
            if row:
                rows.append(row)
                lines.append(line + reader.line_num)
                if len(rows) == _BLOCK_ROWS:
                    yield _row_columns(rows, fields), lines
                    rows, lines = [], []
    except csv.Error as e:  # a field over csv's size limit, for one
        raise ParseError(line + reader.line_num, str(e)) from None
    if rows:
        yield _row_columns(rows, fields), lines


def parse_log(path) -> FrameTable:
    r"""Parse a CSV CAN log into one FrameTable, rows in file order.

    The header row names the columns, in any order, with the names in COLUMNS; a log
    with no label column is all Normal. Blank lines are skipped. A malformed row
    raises ParseError naming its physical line (1-based, header included); when
    several rows are bad, the first in file order is named, with the first failing
    check of that row. Non-monotone timestamps produce a warning, not an error.

    The file is read _BLOCK_ROWS lines at a time. A plain block (no '"', every line
    ending in "\n" or "\r\n", no blank line, and as many fields on every line as the
    header has) is cut into cells by one str.split, and its line numbers follow from
    its first line. At the first block that is not plain, the rest of the file goes
    through csv.reader a row at a time, since a quoted cell can span lines. Both
    paths hand the same text columns to the same conversions and checks, so the
    table, the error with its line number and the warning's line are the same
    whichever path a row takes. Ids and DLCs whose cells are all ASCII digits of one
    width, and payloads in the form write_log emits ("HH HH ..."), are decoded for a
    whole block at once; "0x" prefixes, padding, comma-separated, contiguous
    ("A1B2C3"), non-ASCII and single-digit forms are parsed cell by cell. Payloads
    shorter than 8 bytes are zero-padded; a payload longer than the declared DLC is
    truncated to it.
    """
    path = Path(path)
    tables, block_lines = [], []
    with path.open(newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, None) or []
        except csv.Error as e:
            raise ParseError(reader.line_num, str(e)) from None
        # a repeated name maps to its last column, as in csv.DictReader
        position = {name: i for i, name in enumerate(header)}
        fields = [(position.get(name), default)
                  for name, default in zip(COLUMNS, (None, None, None, "", ""))]
        for columns, lines in _blocks(fh, len(header), fields, reader.line_num):
            tables.append(_parse_block(columns, lines))
            block_lines.append(lines)
            del columns
    table = FrameTable.concat(tables) if tables else _parse_block([[]] * len(COLUMNS), [])
    back = np.flatnonzero(table.timestamp[1:] < table.timestamp[:-1])
    if back.size:
        line = next(islice(chain.from_iterable(block_lines), int(back[0]) + 1, None))
        log.warning("%s: non-monotone timestamp at line %d (kept in file order)", path, line)
    return table


_HEX_TEXT = np.frombuffer(b"0123456789ABCDEF", np.uint8)


def write_log(table: FrameTable, path) -> None:
    """Write a frame table in the CSV schema parse_log reads back (round-trip safe),
    through a temp file and a rename. Columns are formatted a block of rows at a
    time; a payload is its first dlc bytes as "HH HH ..."."""
    label_text = np.array([member.value for member in LABELS])
    with atomic_path(path) as tmp, tmp.open("w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(COLUMNS)
        for start in range(0, len(table), _BLOCK_ROWS):
            t = table[start : start + _BLOCK_ROWS]
            text = np.full((len(t), _CANONICAL_WIDTH + 1), ord(" "), np.uint8)
            text[:, 0::3] = _HEX_TEXT[t.payload >> 4]
            text[:, 1::3] = _HEX_TEXT[t.payload & 0xF]
            # NUL out each row's tail: a bytes element of a numpy array drops trailing NULs
            text[np.arange(_CANONICAL_WIDTH + 1) >= 3 * t.dlc[:, None].astype(np.int64) - 1] = 0
            payload = text.view(f"S{_CANONICAL_WIDTH + 1}").ravel().astype(str)
            w.writerows(zip(t.timestamp.tolist(), map("{:03X}".format, t.arbitration_id.tolist()),
                            t.dlc.tolist(), payload.tolist(), label_text[t.label].tolist()))


def make_windows(table: FrameTable, window_size: int) -> list:
    """Split a frame table into non-overlapping windows of exactly window_size rows.

    A trailing run shorter than window_size is discarded. A window is labeled 1
    when any of its frames carries an attack label.
    """
    if window_size < 1:
        raise ValueError(f"window_size must be >= 1, got {window_size}")
    n_full = len(table) // window_size
    attack = table.label[: n_full * window_size].reshape(n_full, window_size).any(axis=1)
    return [Window(index=i, frames=table[i * window_size : (i + 1) * window_size],
                   label=int(attack[i]))
            for i in range(n_full)]


def split_dataset(windows, ratios=(0.6, 0.2, 0.2)):
    """Chronological train/val/test split; floor-rounded, remainder to test."""
    if len(ratios) != 3 or any(r <= 0 for r in ratios):
        raise ValueError(f"need three positive ratios, got {ratios}")
    if abs(sum(ratios) - 1.0) > 1e-9:
        raise ValueError(f"ratios must sum to 1, got {sum(ratios)}")
    n = len(windows)
    if n < 3:
        raise ValueError(f"need at least 3 windows to split, got {n}")
    n_train = int(n * ratios[0])
    n_val = int(n * ratios[1])
    train = windows[:n_train]
    val = windows[n_train : n_train + n_val]
    test = windows[n_train + n_val :]
    return train, val, test


def write_windows_csv(windows, path) -> None:
    """Dump a windowed dataset: one row per frame with its window index and features."""
    with atomic_path(path) as tmp, tmp.open("w", newline="") as fh:
        w = csv.writer(fh)
        header = ["window_index", "frame_ordinal", "dlc_norm"]
        header += [f"byte_bin{i}" for i in range(1, 9)]
        header += ["arbitration_id", "label"]
        w.writerow(header)
        for win in windows:
            t = win.frames
            rows = zip((t.dlc / MAX_DLC).tolist(), (t.payload > 0).astype(int).tolist(),
                       t.arbitration_id.tolist(), t.label.tolist())
            for j, (dlc_norm, byte_bin, arb, code) in enumerate(rows):
                w.writerow([win.index, j, repr(dlc_norm)] + byte_bin
                           + [f"{arb:03X}", LABELS[code].value])
