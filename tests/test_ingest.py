import csv
import io
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from canids import ingest
from canids.frames import LABELS, MAX_ARBITRATION_ID, FrameTable, Label
from canids.graph import ByteMode, build_graph
from canids.ingest import (ParseError, make_windows, parse_log, split_dataset, write_log,
                           write_windows_csv)

from conftest import make_frame, normal_frames, rows_of, table, windows_from


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

    def test_comma_payload_without_label_column(self, tmp_path):
        path = write_csv(tmp_path, ['0.5,7FF,2,"01,02"'],
                         header="timestamp,arbitration_id,dlc,payload")
        t = parse_log(path)
        assert len(t) == 1
        assert t.payload[0, :2].tolist() == [1, 2]
        assert LABELS[t.label[0]] is Label.NORMAL

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
        if len(t) % 2 != 0:
            raise ParseError(line_no, f"odd-length contiguous hex payload {text!r}")
        parts = [t[i : i + 2] for i in range(0, len(t), 2)]
    out = []
    for p in parts:
        v = _oracle_hex(p, "payload byte", line_no)
        if v > 0xFF:
            raise ParseError(line_no, f"payload byte {p!r} exceeds 0xFF")
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
            except KeyError:
                raw = ""
            data = _oracle_payload(raw or "", line_no)[:dlc]
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

    ts = field(st.floats(0, 1000, allow_nan=False).map(repr) | st.sampled_from(["1e2", " 3.5", "inf"]),
               st.sampled_from(["abc", "", "1.2.3"]))
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
                    st.sampled_from(["ABC", "é1 02", "ZZ", "100,01", "1G",
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


def test_a_written_log_takes_only_plain_blocks(tmp_path, monkeypatch, caplog):
    """write_log's output is plain, block after block, so no row of it goes through
    the csv row path; line numbers still count from the header."""
    frames, back = mixed_frames(2 * ingest._BLOCK_ROWS + 5)
    path = tmp_path / "log.csv"
    write_log(table(frames), path)

    def refuse(*args):
        raise AssertionError("a row of a plain block went through the csv row path")

    monkeypatch.setattr(ingest, "_row_columns", refuse)
    with caplog.at_level("WARNING"):
        assert_tables_equal(parse_log(path), table(frames))
    assert [r.message for r in caplog.records] == [
        f"{path}: non-monotone timestamp at line {back + 2} (kept in file order)"]


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
                                  "20000000", "1" * 20, "\uff11\uff10", "\uff11\uff10\uff10"])
def test_id_forms_match_row_parser(tmp_path, text):
    # "0x_1F" is read by int(text, 16) but rejected by the row parser
    path = write_csv(tmp_path, ["1.0,100,0,,Normal", f"1.1,{text},0,,Normal"])
    assert_parses_like_row_parser(path)


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
        assert first.attack_kinds() == {Label.REPLAY}
        assert second.attack_kinds() == {Label.FLOODING}
        assert windows_from(normal_frames(3), 3)[0].attack_kinds() == set()


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
        write_windows_csv([windows[0], None], path)  # fails after the first window's rows
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["w.csv"]
