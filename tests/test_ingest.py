import csv
import io
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from canids import ingest
from canids.frames import LABELS, MAX_ARBITRATION_ID, MAX_DLC, FrameTable, Label
from canids.graph import ByteMode, build_graph
from canids.ingest import (ParseError, make_windows, parse_log, split_dataset, write_log,
                           write_windows_csv)
from canids.nn import atomic_path

from conftest import attack_kinds, make_frame, normal_frames, refuse, rows_of, table, windows_from


COLUMNS = ("timestamp", "arbitration_id", "dlc", "payload", "label")


def write_csv(tmp_path, rows, header="timestamp,arbitration_id,dlc,payload,label"):
    path = tmp_path / "log.csv"
    path.write_text(header + "\n" + "\n".join(rows) + "\n")
    return path


def assert_tables_equal(a, b):
    assert len(a) == len(b)
    for name in COLUMNS:
        x, y = getattr(a, name), getattr(b, name)
        assert x.dtype == y.dtype, name
        assert np.array_equal(x, y), name


class TestParseLog:
    def test_short_payload_is_zero_padded(self, tmp_path):
        path = write_csv(tmp_path, ["1.000,0x130,5,11 22 33 44 55,Normal"])
        t = parse_log(path)
        assert len(t) == 1
        assert t.payload[0].tolist() == [0x11, 0x22, 0x33, 0x44, 0x55, 0, 0, 0]
        assert t.dlc[0] == 5
        assert t.arbitration_id[0] == 0x130

    def test_dlc_zero_empty_payload(self, tmp_path):
        path = write_csv(tmp_path, ["1.0,130,0,,Normal"])
        t = parse_log(path)
        assert len(t) == 1
        assert t.payload[0].tolist() == [0] * 8

    def test_large_file_preserves_count_and_order(self, tmp_path):
        rows = [f"{i * 0.001},{0x100 + (i % 7):X},8,{'AA ' * 8},Normal" for i in range(1000)]
        path = write_csv(tmp_path, rows)
        t = parse_log(path)
        assert len(t) == 1000
        assert t.timestamp.tolist() == [i * 0.001 for i in range(1000)]

    def test_contiguous_hex_payload(self, tmp_path):
        path = write_csv(tmp_path, ["1.0,0x1,3,A1B2C3,Normal"])
        t = parse_log(path)
        assert t.payload[0, :3].tolist() == [0xA1, 0xB2, 0xC3]

    def test_a_lone_digit_is_one_byte_and_a_longer_odd_cell_is_an_error(self, tmp_path):
        t = parse_log(write_csv(tmp_path, ["1.0,0x1,1,9,Normal", "2.0,0x1,2,9 A,Normal"]))
        assert t.payload[:, :2].tolist() == [[9, 0], [9, 0xA]]
        with pytest.raises(ParseError, match=r"^line 2: odd-length contiguous hex payload 'ABC'$"):
            parse_log(write_csv(tmp_path, ["1.0,0x1,2,ABC,Normal"]))

    def test_comma_payload_without_label_column(self, tmp_path):
        path = write_csv(tmp_path, ['0.5,7FF,2,"01,02"'],
                         header="timestamp,arbitration_id,dlc,payload")
        t = parse_log(path)
        assert len(t) == 1
        assert t.payload[0, :2].tolist() == [1, 2]
        assert LABELS[t.label[0]] is Label.NORMAL

    @pytest.mark.parametrize("rows, header, line", [
        (["1.0,100,8,01 02 03 04 05 06 07 08,Normal", "1.1,100,2,AA BB,Normal"],
         "timestamp,arbitration_id,dlc,data,label", 2),
        (["1.0,100,2,01 02,Normal", "1.1,100,2"], "timestamp,arbitration_id,dlc,payload,label", 3),
    ], ids=["misnamed-header", "three-cell-row"])
    def test_payload_column_is_required(self, tmp_path, rows, header, line):
        with pytest.raises(ParseError, match=rf"^line {line}: missing column 'payload'$"):
            parse_log(write_csv(tmp_path, rows, header=header))

    def test_malformed_hex_names_line(self, tmp_path):
        path = write_csv(tmp_path, ["1.0,XYZ,8,00,Normal"])
        with pytest.raises(ParseError, match=r"^line 2: malformed hex arbitration id 'XYZ'$"):
            parse_log(path)

    def test_line_numbers_count_blank_lines(self, tmp_path):
        path = write_csv(tmp_path, ["1.0,100,0,,Normal", "", "", "1.0,XYZ,8,00,Normal"])
        with pytest.raises(ParseError, match=r"^line 5: malformed hex arbitration id 'XYZ'$") as e:
            parse_log(path)
        assert e.value.line_no == 5

    def test_first_bad_line_and_first_failing_check(self, tmp_path):
        # line 3 fails its label and its id range; line 4 fails earlier checks
        path = write_csv(tmp_path, ["1.0,100,0,,Normal", "1.1,20000000,0,,Bogus",
                                    "abc,XYZ,9,,Normal"])
        with pytest.raises(ParseError, match=r"^line 3: unknown label 'Bogus'$"):
            parse_log(path)

    @pytest.mark.parametrize("ts", ["nan", "inf", "-inf"])
    def test_non_finite_timestamp_names_line(self, tmp_path, ts):
        # the non-finite timestamp is line 3's first failure, ahead of its bad id
        path = write_csv(tmp_path, ["1.0,100,0,,Normal", f"{ts},XYZ,0,,Normal"])
        with pytest.raises(ParseError, match=rf"^line 3: timestamp '{ts}' is not finite$"):
            parse_log(path)

    @pytest.mark.parametrize("payload, byte", [("-1 02", "-1"), ('"01,-2"', "-2"), ("01 -0x2", "-0x2")])
    def test_signed_payload_byte_names_line(self, tmp_path, payload, byte):
        path = write_csv(tmp_path, ["1.0,100,2,01 02,Normal", f"1.1,100,2,{payload},Normal"])
        with pytest.raises(ParseError, match=rf"^line 3: payload byte '{byte}' outside 0x00..0xFF$"):
            parse_log(path)

    def test_leading_bom_is_skipped(self, tmp_path):
        path = write_csv(tmp_path, ["1.0,100,2,01 02,Normal", "1.1,0x7FF,0,,Flooding"])
        want = parse_log(path)
        path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
        assert_tables_equal(parse_log(path), want)

    @pytest.mark.parametrize("end", [b"\n", b"\r\n", b"\r"], ids=["lf", "crlf", "cr"])
    @pytest.mark.parametrize("bad, byte", [(b"\xff", "0xff"), (b"\xe9t", "0xe9"), (b"\xc3", "0xc3")],
                             ids=["invalid-start", "invalid-continuation", "truncated"])
    def test_byte_not_utf8_names_its_line(self, tmp_path, end, bad, byte):
        """Wherever the byte falls, in the first read chunk or a later block, after a
        BOM or not, its physical line is named, ahead of a malformed row after it."""
        rows = [f"{i / 100},100,1,{i % 256:02X},Normal".encode() for i in range(2 * ingest._BLOCK_ROWS)]
        path = tmp_path / "log.csv"
        for bom, line in ((b"", 3), (b"\xef\xbb\xbf", 3), (b"", ingest._BLOCK_ROWS + 7)):
            lines = [b",".join(c.encode() for c in COLUMNS)] + rows
            lines[line - 1] = lines[line - 1].replace(b"Normal", b"Norm" + bad + b"al")
            lines[line] = b"1.0,XYZ,8,00,Normal"
            path.write_bytes(bom + end.join(lines) + end)
            with pytest.raises(ParseError, match=rf"^line {line}: byte {byte} is not UTF-8$"):
                parse_log(path)

    def test_dlc_out_of_range(self, tmp_path):
        path = write_csv(tmp_path, ["1.0,100,9,00,Normal"])
        with pytest.raises(ParseError, match="dlc"):
            parse_log(path)

    def test_overlong_payload_is_truncated_to_dlc(self, tmp_path):
        path = write_csv(tmp_path, ["1.0,100,2,01 02 03,Normal"])
        t = parse_log(path)
        assert t.payload[0].tolist() == [1, 2, 0, 0, 0, 0, 0, 0]

    def test_non_monotone_timestamps_warn_not_error(self, tmp_path, caplog):
        path = write_csv(tmp_path, ["1.0,100,0,,Normal", "", "0.5,100,0,,Normal"])
        with caplog.at_level("WARNING"):
            t = parse_log(path)
        assert len(t) == 2
        assert t.timestamp[1] == 0.5  # file order kept
        assert any("non-monotone timestamp at line 4" in r.message for r in caplog.records)

    def test_round_trip_is_identical(self, tmp_path):
        # more rows than write_log formats at a time
        frames = normal_frames(9000) + [make_frame(ts=9.0, label=Label.FUZZING, dlc=3, data=[9, 0, 1])]
        out = tmp_path / "out.csv"
        write_log(table(frames), out)
        assert_tables_equal(parse_log(out), table(frames))
        assert rows_of(parse_log(out)) == frames
        # serialize again: byte-for-byte stable
        out2 = tmp_path / "out2.csv"
        write_log(parse_log(out), out2)
        assert out.read_bytes() == out2.read_bytes()

    def test_write_log_formats_rows(self, tmp_path):
        out = tmp_path / "out.csv"
        write_log(table([make_frame(ts=0.1, arb=0x7, dlc=0, data=[]),
                         make_frame(ts=2.5, arb=0x1ABCDEF, dlc=3, data=[0, 0xA5, 0xFF],
                                    label=Label.SPOOFING)]), out)
        assert out.read_bytes() == (b"timestamp,arbitration_id,dlc,payload,label\r\n"
                                    b"0.1,007,0,,Normal\r\n"
                                    b"2.5,1ABCDEF,3,00 A5 FF,Spoofing\r\n")

    def test_failed_write_keeps_previous_file(self, tmp_path):
        out = tmp_path / "out.csv"
        t = table(normal_frames(5))
        write_log(t, out)
        before = out.read_bytes()
        bad_id = np.array([0x100, 0x200, None, 0x100, 0x200], object)  # fails at the third row
        with pytest.raises(TypeError):
            write_log(FrameTable(t.timestamp, bad_id, t.dlc, t.payload, t.label), out)
        assert out.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["out.csv"]


# --- the per-row parser this module replaced, kept as the oracle -----------------
# Line numbers are physical lines (csv reader's line_num) and a hex error carries
# one "line N:" prefix; otherwise it is the row-at-a-time parser unchanged.

def _oracle_hex(text, what, line_no):
    t = text.strip()
    if t.lower().startswith("0x"):
        t = t[2:]
    try:
        return int(t, 16)
    except ValueError:
        raise ParseError(line_no, f"malformed hex {what} {text!r}") from None


def _oracle_payload(text, line_no):
    t = text.strip()
    if not t:
        return []
    if "," in t:
        parts = [p for p in t.split(",") if p.strip()]
    elif " " in t:
        parts = t.split()
    else:
        if len(t) % 2 and len(t) > 1:
            raise ParseError(line_no, f"odd-length contiguous hex payload {text!r}")
        parts = [t[i : i + 2] for i in range(0, len(t), 2)]
    out = []
    for p in parts:
        v = _oracle_hex(p, "payload byte", line_no)
        if not 0 <= v <= 0xFF:
            raise ParseError(line_no, f"payload byte {p!r} outside 0x00..0xFF")
        out.append(v)
    if len(out) > 8:
        raise ParseError(line_no, f"payload has {len(out)} bytes, max is 8")
    return out


def oracle_parse_log(path):
    frames = []
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)

        def get(row, key):
            if key not in row or row[key] is None:
                raise KeyError(key)
            return row[key]

        for row in reader:
            line_no = reader.line_num
            if not row:
                continue
            try:
                ts = float(get(row, "timestamp"))
                if not math.isfinite(ts):
                    raise ParseError(line_no, f"timestamp {get(row, 'timestamp')!r} is not finite")
                arb = _oracle_hex(get(row, "arbitration_id"), "arbitration id", line_no)
                dlc = int(get(row, "dlc"))
            except KeyError as e:
                raise ParseError(line_no, f"missing column {e}") from None
            except ParseError:
                raise
            except ValueError as e:
                raise ParseError(line_no, str(e)) from None
            if not 0 <= dlc <= 8:
                raise ParseError(line_no, f"dlc {dlc} outside [0, 8]")
            try:
                raw = get(row, "payload")
            except KeyError as e:
                raise ParseError(line_no, f"missing column {e}") from None
            data = _oracle_payload(raw, line_no)[:dlc]
            label = Label.NORMAL
            try:
                text = get(row, "label")
            except KeyError:
                text = None
            if text:
                try:
                    label = Label.from_string(text)
                except ValueError as e:
                    raise ParseError(line_no, str(e)) from None
            if not 0 <= arb < MAX_ARBITRATION_ID:
                raise ParseError(line_no, f"arbitration id {arb:#x} outside 29-bit range")
            frames.append(make_frame(ts, arb, dlc, data, label))
    return frames


def _hex_byte_forms(data):
    canonical = " ".join(f"{b:02X}" for b in data)
    return st.sampled_from([
        canonical, canonical, canonical, canonical.lower(),
        ",".join(f"{b:02X}" for b in data),             # comma form
        "".join(f"{b:02X}" for b in data),              # contiguous form
        " ".join(f"{b:X}" for b in data),               # single-digit bytes
        " ".join(f"0x{b:02X}" for b in data),           # 0x-prefixed bytes
        " " + canonical,                                # padded
        "".join(chr(0xFF10 + int(c, 16)) if c.isdigit() else c
                for c in canonical),                    # fullwidth digits (non-ASCII)
    ])


@st.composite
def log_rows(draw, rate):
    """The fields of one row; about `rate` percent of them are drawn malformed."""
    def field(valid, invalid):
        return draw(invalid if rate and draw(st.integers(0, 99)) < rate else valid)

    ts = field(st.floats(0, 1000, allow_nan=False).map(repr) | st.sampled_from(["1e2", " 3.5"]),
               st.sampled_from(["abc", "", "1.2.3", "nan", "inf", " -inf", "NaN"]))
    arb = field(st.integers(0, 0x7FF).map(lambda v: f"{v:03X}")
                | st.integers(0, (1 << 29) - 1).map(hex)
                | st.sampled_from(["1_0", "0X1a", " 7ff "]),
                st.integers(1 << 29, 1 << 70).map(hex)
                | st.sampled_from(["XYZ", "-1", "", "0x", "0x_1F", "0x0x10", "1FFFFFFF", "20000000"]))
    dlc = field(st.integers(0, 8), st.integers(-1, 9)
                | st.sampled_from([99, 1 << 70]))
    n_bytes = draw(st.just(min(max(dlc, 0), 8)) | st.integers(0, 8))
    data = draw(st.lists(st.integers(0, 255), min_size=n_bytes, max_size=n_bytes))
    payload = field(_hex_byte_forms(data),
                    st.sampled_from(["ABC", "é1 02", "ZZ", "100,01", "1G", "-1 02", "01,-2",
                                     " ".join(["0A"] * 9), "01 02 03 04 05 06 07 08 09 0A"]))
    label = field(st.sampled_from(["Normal", "Normal", "Fuzzing", " replay", "SPOOFING",
                                   "Flooding", ""]),
                  st.sampled_from(["Bogus", " ", "Normal2"]))
    dlc_text = field(st.just(str(dlc)), st.sampled_from(["x", "", "8.0"]))
    row = [ts, arb, dlc_text, payload, label]
    if draw(st.integers(0, 29)) == 0:                   # a cell spanning lines
        i = draw(st.integers(0, 4))
        newline = draw(st.sampled_from(["\n", "\r\n"]))
        row[i] = draw(st.sampled_from([row[i] + newline, newline + row[i]]))
    if rate and draw(st.integers(0, 99)) < rate:
        row = row[: draw(st.integers(1, 4))]              # missing columns
    if draw(st.integers(0, 49)) == 0:
        row.append("extra")
    return row


@st.composite
def logs(draw):
    r"""The text of a log mixing valid and malformed rows and blank lines, with one
    line terminator: "\r\n" as write_log writes, "\n" or a bare "\r"."""
    rate = draw(st.sampled_from([0, 0, 0, 1, 5, 20]))
    terminator = draw(st.sampled_from(["\r\n", "\n", "\r"]))
    rows = draw(st.lists(log_rows(rate), max_size=12))
    layout = draw(st.sampled_from(["header", "header", "no-label", "permuted"]))
    names = ["timestamp", "arbitration_id", "dlc", "payload", "label"]
    order = list(range(5))
    if layout == "permuted":
        order = draw(st.permutations(order))
    if layout == "no-label":
        order = order[:4]
    out = io.StringIO()
    quoting = draw(st.sampled_from([csv.QUOTE_MINIMAL] * 4 + [csv.QUOTE_ALL]))
    writer = csv.writer(out, lineterminator=terminator, quoting=quoting)
    writer.writerow([names[i] for i in order])
    for row in rows:
        for _ in range(draw(st.integers(0, 1)) * draw(st.integers(0, 2))):
            out.write(terminator)
        cells = [row[i] for i in order if i < len(row)] + row[5:]
        writer.writerow(cells)
    return out.getvalue()


def outcome(parse, path):
    try:
        return parse(path), None
    except ParseError as e:
        return None, (e.line_no, str(e))


def assert_parses_like_row_parser(path):
    expected, expected_error = outcome(oracle_parse_log, path)
    got, error = outcome(parse_log, path)
    assert error == expected_error
    if expected is not None:
        assert_tables_equal(got, table(expected))


@pytest.fixture(scope="module")
def log_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("logs")


@given(logs(), st.sampled_from([2, 3, ingest._BLOCK_ROWS]))
@settings(max_examples=400, deadline=None)
def test_columnar_parse_matches_row_parser(log_dir, text, block_rows):
    path = log_dir / "log.csv"
    path.write_text(text, encoding="utf-8", newline="")
    with mock.patch.object(ingest, "_BLOCK_ROWS", block_rows):
        assert_parses_like_row_parser(path)


def mixed_frames(n):
    """n frames with every DLC and label, ids of 1 to 7 hex digits, and one step back
    in time in the third block of rows."""
    rng = np.random.default_rng(7)
    frames = [make_frame(ts=i * 0.001, arb=int(rng.choice([0x7, 0x100, 0x7FF, 0x1ABCDEF])),
                         dlc=i % 9, data=rng.integers(0, 256, 8).tolist(),
                         label=LABELS[i % len(LABELS)])
              for i in range(n)]
    back = 2 * ingest._BLOCK_ROWS + 3
    frames[back] = frames[back]._replace(timestamp=0.5)
    return frames, back


def block_sizes(monkeypatch):
    """The row count of each call of ingest._parse_block, in call order, its calls of
    itself on the halves of a failing block included."""
    sizes, parse_block = [], ingest._parse_block

    def spy(columns, lines):
        sizes.append(len(lines))
        return parse_block(columns, lines)
    monkeypatch.setattr(ingest, "_parse_block", spy)
    return sizes


def test_a_written_log_takes_only_plain_blocks(tmp_path, monkeypatch, caplog):
    """write_log's output is plain, block after block, so no row of it goes through
    the csv row path, and every block converts column-wise once, so none is converted
    again in halves; line numbers still count from the header."""
    frames, back = mixed_frames(2 * ingest._BLOCK_ROWS + 5)
    path = tmp_path / "log.csv"
    write_log(table(frames), path)
    refuse(monkeypatch, "ingest._row_columns")
    sizes = block_sizes(monkeypatch)
    with caplog.at_level("WARNING"):
        assert_tables_equal(parse_log(path), table(frames))
    assert sizes == [ingest._BLOCK_ROWS, ingest._BLOCK_ROWS, 5]
    assert [r.message for r in caplog.records] == [
        f"{path}: non-monotone timestamp at line {back + 2} (kept in file order)"]


@pytest.mark.parametrize("quoted", [False, True], ids=["plain", "csv"])
def test_a_step_back_at_a_block_boundary_names_its_line(tmp_path, caplog, quoted):
    """The first row of the third block is earlier than the last of the second: that
    row's line is named, whether the rows go through plain blocks or csv rows."""
    frames = [make_frame(ts=i * 0.001) for i in range(2 * ingest._BLOCK_ROWS + 5)]
    back = 2 * ingest._BLOCK_ROWS
    frames[back] = frames[back]._replace(timestamp=0.5)
    path = tmp_path / "log.csv"
    write_log(table(frames), path)
    if quoted:  # a quoted cell in the first block sends every row through csv.reader
        path.write_bytes(path.read_bytes().replace(b",Normal\r\n", b',"Normal"\r\n', 1))
    spy = mock.patch.object(ingest, "_row_columns", wraps=ingest._row_columns)
    with spy as row_columns, caplog.at_level("WARNING"):
        assert_tables_equal(parse_log(path), table(frames))
    assert row_columns.called == quoted
    assert [r.message for r in caplog.records] == [
        f"{path}: non-monotone timestamp at line {back + 2} (kept in file order)"]


# parse_log's valid forms other than write_log's, each as a rewrite of one of its rows
OTHER_FORMS = {
    "0x-ids": lambda row: [row[0], "0x" + row[1], *row[2:]],
    "padded-ids": lambda row: [row[0], f" {row[1]} ", *row[2:]],
    "comma-payloads": lambda row: [*row[:3], ",".join(row[3].split()), row[4]],
    "contiguous-payloads": lambda row: [*row[:3], row[3].replace(" ", ""), row[4]],
    "single-digit-bytes": lambda row: [*row[:3], " ".join(f"{int(b, 16):X}" for b in row[3].split()),
                                       row[4]],
    "no-label": lambda row: row[:4],
}


@pytest.mark.parametrize("form", OTHER_FORMS)
def test_other_valid_forms_convert_column_wise(tmp_path, monkeypatch, form):
    """A valid log in another documented form parses to the same table as write_log's
    form, and each block of it is converted column-wise once."""
    frames, _ = mixed_frames(2 * ingest._BLOCK_ROWS + 5)
    path = tmp_path / "log.csv"
    write_log(table(frames), path)
    with path.open(newline="") as fh:
        header, *rows = csv.reader(fh)
    rows = [OTHER_FORMS[form](row) for row in rows]
    with path.open("w", newline="") as fh:
        csv.writer(fh).writerows([header[: len(rows[0])], *rows])
    want = table(frames)
    if form == "no-label":
        want = FrameTable(want.timestamp, want.arbitration_id, want.dlc, want.payload, 0 * want.label)
    sizes = block_sizes(monkeypatch)
    assert_tables_equal(parse_log(path), want)
    assert sizes == [ingest._BLOCK_ROWS, ingest._BLOCK_ROWS, 5]


def test_a_quoted_cell_hands_the_rest_to_csv_on_the_same_lines(tmp_path, caplog):
    """A quoted payload spanning two lines in the second block: the rest of the file
    is read row by row, to the same table, with line numbers one further on."""
    frames, back = mixed_frames(2 * ingest._BLOCK_ROWS + 5)
    path = tmp_path / "log.csv"
    write_log(table(frames), path)
    lines = path.read_bytes().split(b"\r\n")  # the header, then row r on line r + 2
    quoted = ingest._BLOCK_ROWS + 10
    cells = lines[quoted + 1].split(b",")
    cells[3] = b'"' + cells[3] + b'\r\n"'
    lines[quoted + 1] = b",".join(cells)
    path.write_bytes(b"\r\n".join(lines))
    with caplog.at_level("WARNING"):
        assert_tables_equal(parse_log(path), table(frames))
    assert [r.message for r in caplog.records] == [
        f"{path}: non-monotone timestamp at line {back + 3} (kept in file order)"]

    bad = 2 * ingest._BLOCK_ROWS + 1
    cells = lines[bad + 1].split(b",")
    cells[1] = b"XYZ"
    lines[bad + 1] = b",".join(cells)
    path.write_bytes(b"\r\n".join(lines))
    with pytest.raises(ParseError, match=rf"^line {bad + 3}: malformed hex arbitration id 'XYZ'$"):
        parse_log(path)


@pytest.mark.parametrize("rows", [
    # 6 and 4 fields, 10 in all: a plain block has the header's count on every line
    ["1.0,100,8,00,Normal,extra", "1.1,100,0,Normal"],
    ["1.0,100,8,00", "1.1,100,0,,Normal,extra"],
    # a quote, needless or inside an unquoted cell
    ['"1.0","100","2","01 02","Normal"', "1.1,100,0,,Normal"],
    ['1.0,100,2,01 02,Nor"mal', "1.1,100,0,,Normal"],
    # one-width columns; 2**64 + 1 wraps to 1 in 64 bits, so too wide a cell must
    # not take the digit table
    ["1.0,111111111111111,8,,Normal", "1.1,111111111111111,8,,Normal"],
    ["1.0,10000000000000001,0,,Normal", "1.1,10000000000000001,0,,Normal"],
    ["1.0,7FF,18446744073709551617,,Normal", "1.1,7FF,18446744073709551617,,Normal"],
    ["1.0,7FF,08,,Normal", "1.1,7FF,08,,Normal"],
    # an id beyond int64 is range-checked last: the bad DLC of its row is named
    ["1.0,100,0,,Normal", "1.1,100000000000000000,9,,Normal"],
    # the bad row is the last of a full block
    [f"{i}.0,100,0,,Normal" for i in range(ingest._BLOCK_ROWS - 1)] + ["9999.0,100,0,,Bogus"],
])
def test_blocks_match_row_parser(tmp_path, rows):
    assert_parses_like_row_parser(write_csv(tmp_path, rows))


def test_an_overlong_field_fails_as_in_csv_reader(tmp_path):
    """csv.reader's error, as a ParseError naming the physical line: in a row, past
    a block of rows or in the header."""
    overlong = "0" * (csv.field_size_limit() + 2)
    rows = ["1.0,100,0,,Normal", f"1.1,100,0,{overlong},Normal"]
    for log, header, line in ((rows, COLUMNS, 3), (rows[:1] * 5 + rows, COLUMNS, 8),
                              (rows[:1], ("timestamp", overlong), 1)):
        path = write_csv(tmp_path, log, header=",".join(header))
        with pytest.raises(csv.Error) as expected:
            oracle_parse_log(path)
        with mock.patch.object(ingest, "_BLOCK_ROWS", 3), pytest.raises(ParseError) as got:
            parse_log(path)
        assert got.value.line_no == line
        assert str(got.value) == f"line {line}: {expected.value}"


@pytest.mark.parametrize("text", ["0x_1F", "1_0", "0x0x10", "0X1a", " 7ff ", "-0x1", "0x",
                                  "20000000", "1" * 20, "\uff11\uff10", "\uff11\uff10\uff10",
                                  "0x 1a", "0x+1a"])
def test_id_forms_match_row_parser(tmp_path, text):
    # "0x_1F" is read by int(text, 16) but rejected by the row parser; "0x 1a" and
    # "0x+1a" are read by the row parser only, so their block is valid row by row
    path = write_csv(tmp_path, ["1.0,100,0,,Normal", f"1.1,{text},0,,Normal"])
    assert_parses_like_row_parser(path)


# --- the csv.writer writers this module replaced, kept as the oracles -------------
# write_log and write_windows_csv as they were, with their own copy of the hex table.

_ORACLE_HEX = np.frombuffer(b"0123456789ABCDEF", np.uint8)
_ORACLE_WIDTH = 3 * MAX_DLC - 1  # "HH HH HH HH HH HH HH HH"


def oracle_write_log(table: FrameTable, path) -> None:
    label_text = np.array([member.value for member in LABELS])
    with atomic_path(path) as tmp, tmp.open("w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(COLUMNS)
        for start in range(0, len(table), ingest._BLOCK_ROWS):
            t = table[start : start + ingest._BLOCK_ROWS]
            text = np.full((len(t), _ORACLE_WIDTH + 1), ord(" "), np.uint8)
            text[:, 0::3] = _ORACLE_HEX[t.payload >> 4]
            text[:, 1::3] = _ORACLE_HEX[t.payload & 0xF]
            # NUL out each row's tail: a bytes element of a numpy array drops trailing NULs
            text[np.arange(_ORACLE_WIDTH + 1) >= 3 * t.dlc[:, None].astype(np.int64) - 1] = 0
            payload = text.view(f"S{_ORACLE_WIDTH + 1}").ravel().astype(str)
            w.writerows(zip(t.timestamp.tolist(), map("{:03X}".format, t.arbitration_id.tolist()),
                            t.dlc.tolist(), payload.tolist(), label_text[t.label].tolist()))


def oracle_write_windows_csv(windows, path) -> None:
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


@st.composite
def writable_tables(draw):
    """Tables as parse_log returns them, at and around one block of rows: every DLC
    and label, the ids where the hex text widens, and timestamps whose repr takes
    each form (signed zero, exponents, the smallest subnormal, negatives)."""
    n = draw(st.sampled_from([0, 1, ingest._BLOCK_ROWS - 1, ingest._BLOCK_ROWS, ingest._BLOCK_ROWS + 1]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    timestamps = [-0.0, 0.0, 1e-05, 1e-4, 1e16, 9999999999999998.0, 5e-324, -1.5, -3e-7, 0.1, 1234.5678]
    timestamps += draw(st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=4))
    ids = [0, 0xFFF, 0x1000, MAX_ARBITRATION_ID - 1]
    ids += draw(st.lists(st.integers(0, MAX_ARBITRATION_ID - 1), max_size=4))
    dlc = rng.integers(0, MAX_DLC + 1, n).astype(np.uint8)
    payload = rng.integers(0, 256, (n, MAX_DLC)).astype(np.uint8)
    payload[np.arange(MAX_DLC) >= dlc[:, None]] = 0
    return FrameTable(rng.choice(np.array(timestamps), n), rng.choice(np.array(ids), n), dlc, payload,
                      rng.integers(0, len(LABELS), n).astype(np.int8))


@given(writable_tables(), st.sampled_from([1, 2, 11, 101]), st.integers(0, 12))
@settings(max_examples=30, deadline=None, derandomize=True)
def test_writers_write_the_bytes_of_csv_writer(log_dir, t, window_size, skip):
    """Window indices cross 9 -> 10 and 99 -> 100 at W = 1 and 2, ordinals at W = 11
    and 101; `skip` drops the first windows, so the dump starts at any index."""
    write_log(t, log_dir / "got.csv")
    oracle_write_log(t, log_dir / "want.csv")
    assert (log_dir / "got.csv").read_bytes() == (log_dir / "want.csv").read_bytes()
    windows = make_windows(t, window_size)[skip:]
    write_windows_csv(windows, log_dir / "got.csv")
    oracle_write_windows_csv(windows, log_dir / "want.csv")
    assert (log_dir / "got.csv").read_bytes() == (log_dir / "want.csv").read_bytes()


@pytest.mark.parametrize("column, value", [("arbitration_id", -1), ("arbitration_id", MAX_ARBITRATION_ID),
                                           ("dlc", MAX_DLC + 1), ("label", -1), ("label", len(LABELS))])
@pytest.mark.parametrize("write", [write_log, lambda t, path: write_windows_csv(make_windows(t, 3), path)],
                         ids=["log", "windows"])
def test_a_row_with_no_text_is_a_value_error(tmp_path, write, column, value):
    """An id, DLC or label code that no text stands for, in rows 4 and 5: the error
    names row 4, and the previous file is kept. (A label code of -1 was written as
    Spoofing, and the others as logs that parse_log rejects.)"""
    t = table(normal_frames(6))
    out = tmp_path / "out.csv"
    write(t, out)
    before = out.read_bytes()
    getattr(t, column)[4:] = value
    with pytest.raises(ValueError, match=r"^row 4: arbitration id "):
        write(t, out)
    assert out.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["out.csv"]


def node_features(frame, mode):
    """Feature row of `frame` as build_graph computes it in the given byte mode."""
    (window,) = windows_from([frame, frame], 2)
    return build_graph(window, mode).node_features[0]


class TestNormalize:
    def test_maximal_values(self):
        frame = make_frame(dlc=8, data=[0xFF] + [0] * 7)
        norm = node_features(frame, ByteMode.NORMALIZED)
        binr = node_features(frame, ByteMode.BINARIZED)
        assert norm[0] == binr[0] == 1.0
        assert norm[1] == 1.0
        assert binr[1] == 1.0

    def test_zero_case(self):
        frame = make_frame(dlc=0, data=[])
        norm = node_features(frame, ByteMode.NORMALIZED)
        binr = node_features(frame, ByteMode.BINARIZED)
        assert norm[0] == binr[0] == 0.0
        assert norm[1:].tolist() == [0.0] * 8
        assert binr[1:].tolist() == [0.0] * 8

    def test_midrange_byte(self):
        frame = make_frame(dlc=8, data=[0, 0, 0, 0x80, 0, 0, 0, 0])
        assert node_features(frame, ByteMode.NORMALIZED)[4] == pytest.approx(128 / 255)
        assert node_features(frame, ByteMode.BINARIZED)[4] == 1.0

    @given(st.integers(0, 8), st.lists(st.integers(0, 255), min_size=0, max_size=8))
    def test_bounds_and_binarization(self, dlc, data):
        data = data[:dlc]
        frame = make_frame(dlc=dlc, data=data)
        norm = node_features(frame, ByteMode.NORMALIZED)
        binr = node_features(frame, ByteMode.BINARIZED)
        assert norm[0] == binr[0] == dlc / 8
        for b, bn, bb in zip(frame.payload, norm[1:], binr[1:]):
            assert 0.0 <= bn <= 1.0
            assert bn == b / 255.0
            assert bb == (1.0 if b > 0 else 0.0)


class TestFrameTable:
    def test_columns_match_frames(self):
        """concat and row indexing keep each column's values and dtype."""
        rows = [make_frame(ts=0.5, arb=0x1A0, dlc=2, data=[7, 0]),
                make_frame(ts=0.75, arb=0x7FF, dlc=8, label=Label.SPOOFING),
                make_frame(ts=1.0, arb=0x1FFFFFFF, dlc=0, label=Label.FUZZING)]
        dtypes = (np.float64, np.int64, np.uint8, np.uint8, np.int8)
        whole = FrameTable.concat([table(rows[:1]), table(rows[1:1]), table(rows[1:])])
        for t, expected in ((whole, rows), (whole[whole.label > 0], rows[1:]),
                            (whole[np.array([2, 0])], [rows[2], rows[0]]),
                            (whole[[1]], rows[1:2]), (whole[1:], rows[1:])):
            assert rows_of(t) == expected
            assert tuple(getattr(t, c).dtype for c in COLUMNS) == dtypes
            assert t.payload.shape == (len(expected), 8)

    def test_slices_are_views(self):
        t = table(normal_frames(10))
        part = t[2:6]
        assert len(part) == 4
        for name in ("timestamp", "arbitration_id", "dlc", "payload", "label"):
            assert np.shares_memory(getattr(part, name), getattr(t, name))

    def test_window_attack_kinds(self):
        frames = normal_frames(6)
        frames[1] = make_frame(ts=0.001, label=Label.REPLAY)
        frames[4] = make_frame(ts=0.004, label=Label.FLOODING)
        first, second = windows_from(frames, 3)
        assert attack_kinds(first) == {Label.REPLAY}
        assert attack_kinds(second) == {Label.FLOODING}
        assert attack_kinds(windows_from(normal_frames(3), 3)[0]) == set()


class TestMakeWindows:
    def test_trailing_partial_window_discarded(self):
        windows = windows_from(normal_frames(179), 100)
        assert len(windows) == 1
        assert windows[0].size == 100

    def test_disjoint_partition_all_normal(self):
        windows = windows_from(normal_frames(300), 100)
        assert [w.label for w in windows] == [0, 0, 0]

    def test_any_attack_labels_only_its_window(self):
        frames = normal_frames(200)
        frames[150] = make_frame(ts=0.150, label=Label.FUZZING)
        windows = windows_from(frames, 100)
        assert [w.label for w in windows] == [0, 1]

    def test_empty_input(self):
        assert make_windows(table([]), 10) == []

    @given(st.integers(0, 400), st.integers(1, 50))
    @settings(max_examples=60)
    def test_partition_property(self, n, w):
        windows = windows_from(normal_frames(n), w)
        assert len(windows) == n // w
        seen = [t for win in windows for t in win.frames.timestamp.tolist()]
        expected = [i * 0.001 for i in range((n // w) * w)]
        assert seen == expected  # disjoint, ordered, covers first floor(n/w)*w frames


class TestSplitDataset:
    @pytest.mark.parametrize("n,expected", [(10, (6, 2, 2)), (5, (3, 1, 1)), (1237, (742, 247, 248))])
    def test_sizes(self, n, expected):
        windows = windows_from(normal_frames(n * 2), 2)
        train, val, test = split_dataset(windows)
        assert (len(train), len(val), len(test)) == expected
        assert train + val + test == windows  # concatenation identity

    def test_too_few_windows(self):
        with pytest.raises(ValueError):
            split_dataset(windows_from(normal_frames(4), 2))

    def test_bad_ratios(self):
        windows = windows_from(normal_frames(20), 2)
        with pytest.raises(ValueError):
            split_dataset(windows, (0.5, 0.2, 0.2))


def test_windows_csv_dump(tmp_path):
    windows = windows_from(normal_frames(6), 3)
    path = tmp_path / "w.csv"
    write_windows_csv(windows, path)
    lines = path.read_text().splitlines()
    assert lines[0].startswith("window_index,frame_ordinal,dlc_norm,byte_bin1")
    assert len(lines) == 1 + 6


def test_windows_csv_rows(tmp_path):
    frames = normal_frames(3) + [make_frame(ts=0.003, arb=0x7, dlc=2, data=[0, 5],
                                            label=Label.FUZZING), *normal_frames(2)]
    path = tmp_path / "w.csv"
    write_windows_csv(windows_from(frames, 3)[1:], path)
    assert path.read_text().splitlines() == [
        "window_index,frame_ordinal,dlc_norm,byte_bin1,byte_bin2,byte_bin3,byte_bin4,"
        "byte_bin5,byte_bin6,byte_bin7,byte_bin8,arbitration_id,label",
        "1,0,0.25,0,1,0,0,0,0,0,0,007,Fuzzing",
        "1,1,1.0,0,1,1,1,1,1,1,1,100,Normal",
        "1,2,1.0,1,1,1,1,1,1,1,1,200,Normal"]


def test_failed_windows_csv_write_keeps_previous_file(tmp_path):
    windows = windows_from(normal_frames(6), 3)
    path = tmp_path / "w.csv"
    write_windows_csv(windows, path)
    before = path.read_bytes()
    with pytest.raises(AttributeError):
        write_windows_csv([windows[0], None], path)  # the second window has no frames
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["w.csv"]
