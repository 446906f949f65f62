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
        # one contiguous hex string, two digits per byte; one digit alone is one byte
        if len(t) % 2 and len(t) > 1:
            raise ValueError(f"odd-length contiguous hex payload {text!r}")
        parts = [t[i : i + 2] for i in range(0, len(t), 2)]
    out = []
    for p in parts:
        v = _parse_hex(p, "payload byte")
        if not 0 <= v <= 0xFF:
            raise ValueError(f"payload byte {p!r} outside 0x00..0xFF")
        out.append(v)
    if len(out) > MAX_DLC:
        raise ValueError(f"payload has {len(out)} bytes, max is {MAX_DLC}")
    return out


def _parse_id(text: str) -> int:
    return _parse_hex(text, "arbitration id")


_HEX_DIGITS = "0123456789abcdefABCDEF"
_DIGIT = np.full(256, 255, np.uint8)  # ASCII code -> digit value; 255 for a non-digit
_DIGIT[np.frombuffer(_HEX_DIGITS.encode(), np.uint8)] = [int(c, 16) for c in _HEX_DIGITS]
_MAX_WIDTH = {10: 18, 16: 15}  # the widest cells whose value always fits int64
_CANONICAL_WIDTH = 3 * MAX_DLC - 1  # "HH HH HH HH HH HH HH HH"


def _integers(texts, base: int, parse) -> np.ndarray:
    """The values of an integer column, tried three ways: int64 through _DIGIT from one
    joined buffer, if every cell is ASCII base-`base` digits of one width; int64 from
    one int(text, base) pass, if no cell holds "_" (int(text, 16) reads "0x_1", which
    _parse_id rejects); else Python ints from `parse` cell by cell, which raises
    ValueError for a cell it rejects. A missing cell (None) raises TypeError."""
    n = len(texts)
    joined = "".join(texts)
    width = len(joined) // n if n else 0
    if (0 < width <= _MAX_WIDTH[base] and joined.isascii()
            and (np.fromiter(map(len, texts), np.int64, n) == width).all()):
        digits = _DIGIT[np.frombuffer(joined.encode(), np.uint8)].reshape(n, width)
        if (digits < base).all():
            values = np.zeros(n, np.int64)
            for column in digits.T:
                values = values * base + column
            return values
    if "_" not in joined:
        try:
            return np.fromiter(map(int, texts, repeat(base)), np.int64, n)
        except (ValueError, OverflowError):  # "0x 1a", say, or a value beyond int64
            pass
    return np.fromiter(map(parse, texts), object, n)


def _decode_payloads(texts) -> np.ndarray:
    """The uint8[N, 8] payloads of a column. The form write_log emits (two hex digits
    per byte, single spaces, at most 8 bytes, or empty) is decoded for all rows at once
    from their ASCII bytes through _DIGIT; any other text goes through _parse_payload
    for that row alone, which raises ValueError for a cell it rejects."""
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
    for i in np.flatnonzero(~canonical):
        data = _parse_payload(texts[i])
        payload[i, : len(data)] = data
    return payload


_BLOCK_ROWS = 4096  # lines read, or rows converted, at a time: bounds how much text is alive at once


def _column(name: str, convert, *args):
    """convert(*args), where a missing cell (None) raises TypeError: its column is missing."""
    try:
        return convert(*args)
    except TypeError:
        raise ValueError(f"missing column {name!r}") from None


def _parse_block(columns, lines) -> FrameTable:
    """Convert and validate the five text columns (in COLUMNS order) of consecutive
    non-blank rows; `lines[i]` is row i's physical line number. Each column converts
    at once, and the checks run in a row's order: the timestamp, its finiteness, the
    id, the DLC, its range, the payload, the label and the id's range. A block that
    fails is converted again in halves, down to a block of its first bad row, whose
    first failing check raises a ParseError naming the row's line."""
    ts_text, id_text, dlc_text, payload_text, label_text = columns
    n = len(ts_text)
    try:
        timestamp = _column("timestamp", np.fromiter, map(float, ts_text), np.float64, n)
        for i in np.flatnonzero(~np.isfinite(timestamp))[:1]:
            raise ValueError(f"timestamp {ts_text[i]!r} is not finite")
        arb = _column("arbitration_id", _integers, id_text, 16, _parse_id)
        dlc = _column("dlc", _integers, dlc_text, 10, int)
        for i in np.flatnonzero((dlc < 0) | (dlc > MAX_DLC))[:1]:
            raise ValueError(f"dlc {dlc[i]} outside [0, {MAX_DLC}]")
        payload = _column("payload", _decode_payloads, payload_text)
        codes = {text: LABELS.index(Label.from_string(text)) if text else 0 for text in set(label_text)}
        label = np.fromiter(map(codes.__getitem__, label_text), np.int8, n)
        for i in np.flatnonzero((arb < 0) | (arb >= MAX_ARBITRATION_ID))[:1]:
            raise ValueError(f"arbitration id {arb[i]:#x} outside 29-bit range")
    except ValueError as e:
        if n == 1:
            raise ParseError(lines[0], str(e)) from None
        for half in (slice(n // 2), slice(n // 2, n)):
            _parse_block([column[half] for column in columns], lines[half])
        raise  # unreachable: a block fails only where one of its rows does
    payload[np.arange(MAX_DLC) >= dlc[:, None]] = 0  # the declared DLC wins
    return FrameTable(timestamp, arb.astype(np.int64, copy=False), dlc.astype(np.uint8), payload, label)


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

    The header row names the columns, in any order, with the names in COLUMNS; every
    column but label is required, and a log with no label column is all Normal. Blank
    lines are skipped. A malformed row raises ParseError naming its physical line
    (1-based, header included); when several rows are bad, the first in file order is
    named, with the first failing check of that row. A byte that is not UTF-8 (a BOM is
    skipped) is named when read, maybe ahead of earlier bad rows. Non-monotone timestamps
    produce a warning, not an error, naming the first row earlier than the row before it.

    The file is read _BLOCK_ROWS lines at a time. A plain block (no '"', every line
    ending in "\n" or "\r\n", no blank line, and as many fields on every line as the
    header has) is cut into cells by one str.split, and its line numbers follow from
    its first line. At the first block that is not plain, the rest of the file goes
    through csv.reader a row at a time, since a quoted cell can span lines. Both
    paths hand the same text columns to the same conversions and checks, so the
    table, the error with its line number and the warning's line are the same
    whichever path a row takes. Every block is converted column by column in
    _parse_block, the one place that orders a row's checks: ids and DLCs whose cells
    are all ASCII digits of one width, and payloads in the form write_log emits
    ("HH HH ..."), are decoded at once; other ids and DLCs ("0x" prefixes, padding)
    take one int() pass, or go cell by cell where that pass refuses them ("0x 1a",
    "1_0"), and other payloads (comma-separated, contiguous "A1B2C3", non-ASCII,
    single-digit) are parsed cell by cell. A block with a bad row is converted again
    in halves, down to that row. Payloads shorter than 8 bytes are zero-padded; a
    payload longer than the declared DLC is truncated to it.
    """
    path = Path(path)
    tables, back_line, last = [], None, -np.inf  # the first step back in time, the last timestamp
    try:
        with path.open(newline="", encoding="utf-8-sig") as fh:
            reader = csv.reader(fh)
            try:
                header = next(reader, None) or []
            except csv.Error as e:
                raise ParseError(reader.line_num, str(e)) from None
            # a repeated name maps to its last column, as in csv.DictReader
            position = {name: i for i, name in enumerate(header)}
            fields = [(position.get(name), "" if name == "label" else None) for name in COLUMNS]
            for columns, lines in _blocks(fh, len(header), fields, reader.line_num):
                tables.append(block := _parse_block(columns, lines))
                del columns
                back = np.flatnonzero(block.timestamp < np.append(last, block.timestamp[:-1]))
                if back_line is None and back.size:
                    back_line = lines[back[0]]
                last = block.timestamp[-1]
    except UnicodeDecodeError:  # at an offset into a read chunk: find the byte's line
        with path.open(newline="", encoding="utf-8-sig", errors="surrogateescape") as fh:
            line, bad = next((n, c) for n, text in enumerate(fh, 1) if not text.isascii()
                             for c in text if "\udc80" <= c <= "\udcff")  # byte b: chr(0xDC00 + b)
        raise ParseError(line, f"byte {ord(bad) - 0xDC00:#04x} is not UTF-8") from None
    table = FrameTable.concat(tables) if tables else _parse_block([[]] * len(COLUMNS), [])
    if back_line is not None:
        log.warning("%s: non-monotone timestamp at line %d (kept in file order)", path, back_line)
    return table


_HEX_TEXT = np.frombuffer(b"0123456789ABCDEF", np.uint8)
_LABEL_TEXT = np.array([member.value for member in LABELS], "S")  # item c: label code c's text
_DLC_NORM_TEXT = np.array([repr(k / MAX_DLC) for k in range(MAX_DLC + 1)], "S")  # item k: repr(k / 8)


def _digits(values: np.ndarray, base: int, least: int) -> np.ndarray:
    """Non-negative integers as at least `least` upper-case digits, NUL-padded on the left."""
    powers = base ** np.arange(max(least, len(np.base_repr(int(values.max(initial=0)), base))))[::-1]
    return np.where((values[:, None] < powers) & (powers >= base**least), 0,
                    _HEX_TEXT[values[:, None] // powers % base])


def _write_csv(path, header, table: FrameTable, cells) -> None:
    """Write `header` and the rows of `table` as csv.writer would, through a temp file
    and a rename. `cells(start, t)` gives block t's columns as NUL-padded bytes or uint8
    text matrices, joined by "," and CRLF in one matrix whose padding one mask drops.
    First raises ValueError naming the first row whose id, DLC or label has no text."""
    arb, dlc, label = table.arbitration_id, table.dlc, table.label
    bad = (arb < 0) | (arb >= MAX_ARBITRATION_ID) | (dlc > MAX_DLC) | (label < 0) | (label >= len(LABELS))
    for i in np.flatnonzero(bad)[:1]:
        raise ValueError(f"row {i}: arbitration id {int(arb[i]):#x}, dlc {dlc[i]} or label code {label[i]} "
                         f"outside [0, {MAX_ARBITRATION_ID:#x}), [0, {MAX_DLC}] or [0, {len(LABELS)})")
    with atomic_path(path) as tmp, tmp.open("wb") as fh:
        fh.write(",".join(header).encode() + b"\r\n")
        for start in range(0, len(table), _BLOCK_ROWS):
            t = table[start : start + _BLOCK_ROWS]
            comma = np.full((len(t), 1), ord(","), np.uint8)
            parts = [part for c in cells(start, t) for part in (c.view(np.uint8).reshape(len(t), -1), comma)]
            parts[-1] = np.broadcast_to(np.frombuffer(b"\r\n", np.uint8), (len(t), 2))
            text = np.concatenate(parts, axis=1)
            fh.write(text[text != 0].tobytes())


def write_log(table: FrameTable, path) -> None:
    """Write a frame table in the CSV schema parse_log reads back (round-trip safe), as
    csv.writer would: the timestamp's repr (the only cell formatted one at a time), the
    id in at least 3 hex digits, the DLC, the first dlc payload bytes as "HH HH ..." and
    the label. An id outside [0, 2**29), a DLC above 8 or a label code outside LABELS
    raises ValueError naming its row, and the previous file is kept."""
    def cells(start, t):
        payload = np.full((len(t), _CANONICAL_WIDTH), ord(" "), np.uint8)
        payload[:, 0::3], payload[:, 1::3] = _HEX_TEXT[t.payload >> 4], _HEX_TEXT[t.payload & 0xF]
        payload[np.arange(_CANONICAL_WIDTH) >= 3 * t.dlc[:, None].astype(np.int64) - 1] = 0
        return [np.array(list(map(repr, t.timestamp.tolist())), "S"), _digits(t.arbitration_id, 16, 3),
                (t.dlc + ord("0"))[:, None], payload, _LABEL_TEXT[t.label]]

    _write_csv(path, COLUMNS, table, cells)


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
    """Dump a windowed dataset: one row per frame with its window index and features
    (its ordinal in the window, repr(dlc / 8), the eight 0/1 byte bins, the id and the
    label), written and checked as write_log writes and checks a log."""
    sizes = np.array([len(w.frames) for w in windows], np.int64)
    index = np.repeat(np.array([w.index for w in windows], np.int64), sizes)
    ordinal = np.arange(len(index)) - np.repeat(np.cumsum(sizes) - sizes, sizes)
    table = FrameTable.concat([_parse_block([[]] * len(COLUMNS), []), *(w.frames for w in windows)])

    def cells(start, t):
        rows = slice(start, start + len(t))
        bins = np.full((len(t), 2 * MAX_DLC - 1), ord(","), np.uint8)
        bins[:, 0::2] = (t.payload > 0) + ord("0")
        return [_digits(index[rows], 10, 1), _digits(ordinal[rows], 10, 1), _DLC_NORM_TEXT[t.dlc],
                bins, _digits(t.arbitration_id, 16, 3), _LABEL_TEXT[t.label]]

    _write_csv(path, ["window_index", "frame_ordinal", "dlc_norm", *(f"byte_bin{i}" for i in range(1, 9)),
                      "arbitration_id", "label"], table, cells)
