import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from canids.frames import LABELS, CanFrame, FrameTable, Label, pad_payload
from canids.graph import ByteMode, build_graph
from canids.ingest import (ColumnMapping, ParseError, make_windows, parse_log,
                           split_dataset, write_log, write_windows_csv)

from conftest import make_frame, normal_frames, windows_from


def write_csv(tmp_path, rows, header="timestamp,arbitration_id,dlc,payload,label"):
    path = tmp_path / "log.csv"
    path.write_text(header + "\n" + "\n".join(rows) + "\n")
    return path


class TestParseLog:
    def test_short_payload_is_zero_padded(self, tmp_path):
        path = write_csv(tmp_path, ["1.000,0x130,5,11 22 33 44 55,Normal"])
        (frame,) = parse_log(path)
        assert frame.payload == bytes([0x11, 0x22, 0x33, 0x44, 0x55, 0, 0, 0])
        assert frame.dlc == 5
        assert frame.arbitration_id == 0x130

    def test_dlc_zero_empty_payload(self, tmp_path):
        path = write_csv(tmp_path, ["1.0,130,0,,Normal"])
        (frame,) = parse_log(path)
        assert frame.payload == b"\x00" * 8

    def test_large_file_preserves_count_and_order(self, tmp_path):
        rows = [f"{i * 0.001},{0x100 + (i % 7):X},8,{'AA ' * 8},Normal" for i in range(1000)]
        path = write_csv(tmp_path, rows)
        frames = parse_log(path)
        assert len(frames) == 1000
        assert [f.timestamp for f in frames] == [i * 0.001 for i in range(1000)]

    def test_contiguous_hex_payload(self, tmp_path):
        path = write_csv(tmp_path, ["1.0,0x1,3,A1B2C3,Normal"])
        (frame,) = parse_log(path)
        assert frame.payload[:3] == bytes([0xA1, 0xB2, 0xC3])

    def test_comma_payload_and_headerless_mapping(self, tmp_path):
        path = tmp_path / "log.csv"
        path.write_text('0.5,7FF,2,"01,02"\n')
        mapping = ColumnMapping(timestamp="0", arbitration_id="1", dlc="2",
                                payload="3", label=None, has_header=False)
        (frame,) = parse_log(path, mapping)
        assert frame.payload[:2] == bytes([1, 2])
        assert frame.label is Label.NORMAL

    def test_malformed_hex_names_line(self, tmp_path):
        path = write_csv(tmp_path, ["1.0,XYZ,8,00,Normal"])
        with pytest.raises(ParseError, match="line 2"):
            parse_log(path)

    def test_dlc_out_of_range(self, tmp_path):
        path = write_csv(tmp_path, ["1.0,100,9,00,Normal"])
        with pytest.raises(ParseError, match="dlc"):
            parse_log(path)

    def test_strict_mode_rejects_overlong_payload(self, tmp_path):
        path = write_csv(tmp_path, ["1.0,100,2,01 02 03,Normal"])
        with pytest.raises(ParseError):
            parse_log(path, strict=True)
        parse_log(path, strict=False)  # tolerated otherwise

    def test_non_monotone_timestamps_warn_not_error(self, tmp_path, caplog):
        path = write_csv(tmp_path, ["1.0,100,0,,Normal", "0.5,100,0,,Normal"])
        with caplog.at_level("WARNING"):
            frames = parse_log(path)
        assert len(frames) == 2
        assert frames[1].timestamp == 0.5  # file order kept
        assert any("non-monotone" in r.message for r in caplog.records)

    def test_round_trip_is_identical(self, tmp_path):
        frames = normal_frames(50) + [make_frame(ts=0.06, label=Label.FUZZING, dlc=3, data=[9, 0, 1])]
        out = tmp_path / "out.csv"
        write_log(frames, out)
        assert parse_log(out) == frames
        # serialize again: byte-for-byte stable
        out2 = tmp_path / "out2.csv"
        write_log(parse_log(out), out2)
        assert out.read_bytes() == out2.read_bytes()


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
        frames = [make_frame(ts=0.5, arb=0x1A0, dlc=2, data=[7, 0]),
                  make_frame(ts=0.75, arb=0x7FF, dlc=8, label=Label.SPOOFING)]
        t = FrameTable.from_frames(frames)
        assert len(t) == 2
        assert t.timestamp.tolist() == [0.5, 0.75]
        assert t.arbitration_id.tolist() == [0x1A0, 0x7FF]
        assert t.dlc.tolist() == [2, 8]
        assert t.payload.tolist() == [list(f.payload) for f in frames]
        assert [LABELS[c] for c in t.label] == [Label.NORMAL, Label.SPOOFING]
        assert (t.timestamp.dtype, t.arbitration_id.dtype, t.dlc.dtype, t.payload.dtype,
                t.label.dtype) == (np.float64, np.int64, np.uint8, np.uint8, np.int8)

    def test_slices_are_views(self):
        t = FrameTable.from_frames(normal_frames(10))
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
        assert make_windows(FrameTable.from_frames([]), 10) == []

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
