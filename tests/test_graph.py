import numpy as np
import pytest

from canids.frames import Label
from canids.graph import ByteMode, build_graph, normalized_adjacency

from conftest import make_frame, normal_frames, windows_from


class TestBuildGraph:
    @pytest.mark.parametrize("w", [50, 75, 100, 125, 150])
    def test_node_and_edge_counts(self, w):
        (window,) = windows_from(normal_frames(w), w)
        g = build_graph(window)
        assert g.num_nodes == w
        nodes = np.arange(w)
        band = np.abs(nodes[:, None] - nodes[None, :]) <= 1  # path edges + self-loops
        assert np.array_equal(normalized_adjacency(g.num_nodes) != 0, band)

    def test_binarized_features(self):
        frames = [make_frame(dlc=8, data=[0x1A, 0, 0, 0, 0, 0, 0, 0xFF]) for _ in range(2)]
        (window,) = windows_from(frames, 2)
        g = build_graph(window, ByteMode.BINARIZED)
        assert g.node_features[0].tolist() == [1.0, 1, 0, 0, 0, 0, 0, 0, 1]

    def test_normalized_features(self):
        frames = [make_frame(dlc=4, data=[0x80, 0xFF, 0, 51]) for _ in range(2)]
        (window,) = windows_from(frames, 2)
        g = build_graph(window, ByteMode.NORMALIZED)
        assert g.node_features[0] == pytest.approx([0.5, 128 / 255, 1.0, 0.0, 0.2, 0, 0, 0, 0])

    def test_identical_windows_identical_graphs(self):
        w1 = windows_from(normal_frames(10), 10)[0]
        w2 = windows_from(normal_frames(10), 10)[0]
        g1, g2 = build_graph(w1), build_graph(w2)
        assert np.array_equal(g1.node_features, g2.node_features)
        assert g1.num_nodes == g2.num_nodes

    def test_feature_injectivity(self):
        frames = normal_frames(10)
        other = list(frames)
        other[4] = make_frame(ts=frames[4].timestamp, data=[99, 0, 0, 0, 0, 0, 0, 0])
        ga = build_graph(windows_from(frames, 10)[0])
        gb = build_graph(windows_from(other, 10)[0])
        diff_rows = np.where(np.any(ga.node_features != gb.node_features, axis=1))[0]
        assert diff_rows.tolist() == [4]

    def test_window_too_small(self):
        (window,) = windows_from(normal_frames(1), 1)
        with pytest.raises(ValueError):
            build_graph(window)

    def test_label_copied(self):
        frames = normal_frames(5)
        frames[0] = make_frame(ts=0.0, label=Label.REPLAY)
        (window,) = windows_from(frames, 5)
        assert build_graph(window).label == 1


class TestNormalizedAdjacency:
    def test_single_node(self):
        a = normalized_adjacency(1)
        assert a.tolist() == [[1.0]]

    def test_two_node_path(self):
        a = normalized_adjacency(2)
        assert a == pytest.approx(np.full((2, 2), 0.5))

    def test_three_node_path_matches_dense_oracle(self):
        a = normalized_adjacency(3)
        adj = np.array([[1, 1, 0], [1, 1, 1], [0, 1, 1]], dtype=float)
        deg = adj.sum(axis=1)
        oracle = adj / np.sqrt(np.outer(deg, deg))
        assert a == pytest.approx(oracle, abs=1e-15)
        assert deg.tolist() == [2, 3, 2]

    @pytest.mark.parametrize("w", [2, 5, 50])
    def test_symmetry_and_row_sums(self, w):
        a = normalized_adjacency(w)
        assert np.allclose(a, a.T)
        sums = a.sum(axis=1)
        assert np.all(sums > 0) and np.all(sums <= w)

    def test_shared_per_size_and_read_only(self):
        a = normalized_adjacency(4)
        assert normalized_adjacency(4) is a
        with pytest.raises(ValueError):
            a[0, 0] = 0.0

    def test_constant_features_preserved_on_2_path(self):
        a = normalized_adjacency(2)
        x = np.full((2, 9), 0.25)
        assert a @ x == pytest.approx(x)
