import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import protofed as pf
from protofed.clustering import kmeans_plusplus
from helpers import kmeans_sse, lloyd_kmeans


class TestMinibatchKmeans:
    def test_identical_points_fixed_point(self):
        points = np.tile([0.3, 0.7], (25, 1))
        centers = pf.minibatch_kmeans(points, 3, seed=0)
        assert np.allclose(centers, [0.3, 0.7])

    def test_two_distinct_points(self):
        points = np.array([[0.0, 0.0]] * 10 + [[1.0, 1.0]] * 10)
        centers = pf.minibatch_kmeans(points, 2, seed=1)
        got = sorted(centers.tolist())
        assert np.allclose(got[0], [0.0, 0.0])
        assert np.allclose(got[1], [1.0, 1.0])

    def test_three_blobs_match_lloyd_oracle(self):
        rng = np.random.default_rng(2)
        true_centers = np.array([[0.0, 0.0], [2.0, 0.0], [0.0, 2.0]])
        points = np.vstack([rng.normal(c, 0.08, (70, 2)) for c in true_centers])
        centers = pf.minibatch_kmeans(points, 3, seed=3)
        for true in true_centers:
            assert np.linalg.norm(centers - true, axis=1).min() <= 0.1
        lloyd = lloyd_kmeans(points, true_centers.astype(float))
        assert kmeans_sse(points, centers) <= 1.10 * kmeans_sse(points, lloyd)

    def test_deterministic_per_seed(self):
        rng = np.random.default_rng(4)
        points = rng.random((60, 3))
        a = pf.minibatch_kmeans(points, 4, seed=9)
        b = pf.minibatch_kmeans(points, 4, seed=9)
        assert np.array_equal(a, b)

    def test_too_many_clusters_rejected(self):
        with pytest.raises(ValueError, match="^n_clusters=3 exceeds 2 points$"):
            pf.minibatch_kmeans(np.zeros((2, 2)), 3, seed=0)

    def test_seeding_more_centers_than_points_rejected(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError, match="^n_clusters=3 exceeds 2 points$"):
            kmeans_plusplus(np.zeros((2, 2)), 3, rng)

    def test_one_dimensional_points_rejected(self):
        with pytest.raises(ValueError, match=r"^points must be 2-D, got shape \(4,\)$"):
            pf.minibatch_kmeans(np.zeros(4), 1, seed=0)

    def test_centroids_stay_in_coordinate_bounds(self):
        rng = np.random.default_rng(5)
        points = rng.random((50, 4)) * 3 - 1
        centers = pf.minibatch_kmeans(points, 3, seed=6)
        assert (centers >= points.min(axis=0) - 1e-12).all()
        assert (centers <= points.max(axis=0) + 1e-12).all()


def reference_kmeans_plusplus(points, n_clusters, rng):
    """k-means++ seeding that folds in each center's distance row as it places it."""
    n = points.shape[0]
    centers = np.empty((n_clusters, points.shape[1]))
    centers[0] = points[rng.integers(n)]
    d2 = ((points - centers[0]) ** 2).sum(axis=1)
    for j in range(1, n_clusters):
        total = d2.sum()
        if total > 0:
            idx = rng.choice(n, p=d2 / total)
        else:
            idx = rng.integers(n)
        centers[j] = points[idx]
        d2 = np.minimum(d2, ((points - centers[j]) ** 2).sum(axis=1))
    return centers


@st.composite
def seeding_inputs(draw):
    """Points drawn from a small pool of rows, so duplicates are common, and a K in 1..5."""
    dims = draw(st.integers(1, 4))
    coordinate = st.one_of(st.sampled_from([0.0, 0.5, -1.0]), st.floats(-10.0, 10.0))
    pool = draw(st.lists(st.lists(coordinate, min_size=dims, max_size=dims), min_size=1, max_size=6))
    picks = draw(st.lists(st.integers(0, len(pool) - 1), min_size=1, max_size=12))
    points = np.array([pool[i] for i in picks], dtype=np.float64)
    return points, draw(st.integers(1, min(5, len(points)))), draw(st.integers(0, 2**32 - 1))


@settings(max_examples=80, deadline=None)
@given(seeding_inputs())
def test_kmeans_plusplus_equals_the_reference_bit_for_bit(inputs):
    points, n_clusters, seed = inputs
    rng, reference_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    centers = kmeans_plusplus(points, n_clusters, rng)
    assert centers.tobytes() == reference_kmeans_plusplus(points, n_clusters, reference_rng).tobytes()
    assert rng.bit_generator.state == reference_rng.bit_generator.state


class TestChooseClusterCount:
    def test_worked_example_nine_to_four(self):
        assert pf.choose_cluster_count(9) == 4

    def test_capped_by_availability(self):
        assert pf.choose_cluster_count(1) == 1

    def test_two_received_gives_one(self):
        # ceil(2 * 4 / 9) = 1
        assert pf.choose_cluster_count(2) == 1

    def test_cap_override(self):
        assert pf.choose_cluster_count(30) == 4

    @pytest.mark.parametrize("n, expected", [(3, 2), (4, 2), (8, 4), (10, 4)])
    def test_ceil_of_four_ninths_up_to_the_cap(self, n, expected):
        assert pf.choose_cluster_count(n) == expected

    def test_invalid_count_rejected(self):
        with pytest.raises(ValueError):
            pf.choose_cluster_count(0)


def proto_set(by_class):
    return pf.Prototypes(by_class)


class TestAggregatePrototypes:
    def test_single_client_single_class(self):
        ps = proto_set({2: [[0.1, 0.2], [0.3, 0.4], [0.5, 0.6]]})
        gp = pf.aggregate_prototypes([ps], seed=0)
        assert tuple(sorted(gp.by_class)) == (2,)

    def test_disjoint_clients_cover_all_classes(self):
        uploads = [
            proto_set({0: [[0.0, 0.0], [0.1, 0.1], [0.2, 0.0]]}),
            proto_set({1: [[1.0, 1.0], [1.1, 1.0], [0.9, 1.0]]}),
            proto_set({2: [[0.0, 1.0], [0.1, 1.0], [0.0, 0.9]]}),
        ]
        gp = pf.aggregate_prototypes(uploads, seed=1)
        assert tuple(sorted(gp.by_class)) == (0, 1, 2)

    def test_centroids_in_convex_hull_bounds(self):
        rng = np.random.default_rng(3)
        vectors = rng.random((8, 3))
        uploads = [proto_set({0: vectors[:4]}), proto_set({0: vectors[4:]})]
        gp = pf.aggregate_prototypes(uploads, seed=2)
        centers = gp.by_class[0]
        assert (centers >= vectors.min(axis=0) - 1e-12).all()
        assert (centers <= vectors.max(axis=0) + 1e-12).all()

    def test_client_order_invariance(self):
        rng = np.random.default_rng(4)
        a = proto_set({0: rng.random((3, 3)), 1: rng.random((1, 3))})
        b = proto_set({0: rng.random((2, 3)), 1: rng.random((1, 3))})
        gp_ab = pf.aggregate_prototypes([a, b], seed=5)
        gp_ba = pf.aggregate_prototypes([b, a], seed=5)
        for class_id in sorted(gp_ab.by_class):
            assert np.array_equal(gp_ab.by_class[class_id], gp_ba.by_class[class_id])

    def test_class_coverage_equals_union(self):
        uploads = [
            proto_set({0: [[0.1, 0.1]], 3: [[0.2, 0.9]]}),
            proto_set({1: [[0.5, 0.5]]}),
        ]
        gp = pf.aggregate_prototypes(uploads, seed=0)
        assert tuple(sorted(gp.by_class)) == (0, 1, 3)

    def test_cluster_count_follows_heuristic(self):
        rng = np.random.default_rng(6)
        uploads = [proto_set({0: rng.random((3, 4))}) for _ in range(3)]
        gp = pf.aggregate_prototypes(uploads, seed=7)
        # nine received prototypes -> four global centroids
        assert gp.by_class[0].shape == (4, 4)

    def test_empty_uploads_rejected(self):
        with pytest.raises(ValueError, match="no prototypes"):
            pf.aggregate_prototypes([], seed=0)


class TestGlobalPrototypesWire:
    """The server-to-client direction: prototypes as the server broadcasts them."""

    def test_float_count(self):
        protos = pf.Prototypes({0: np.array([[0.1, 0.2], [0.3, 0.4]]), 2: np.array([[0.5, 0.6]])})
        assert protos.floats == 3 * 2

    def test_invariants_enforced(self):
        with pytest.raises(ValueError, match="non-empty"):
            pf.Prototypes({0: np.empty((0, 2))})
        with pytest.raises(ValueError, match="non-empty"):
            pf.Prototypes({0: np.zeros(2)})

    def test_arrays_are_read_only_copies(self):
        rows = np.zeros((2, 3))
        protos = pf.Prototypes({0: rows})
        rows[0, 0] = 1.0
        assert protos.by_class[0][0, 0] == 0.0
        with pytest.raises(ValueError, match="read-only"):
            protos.by_class[0][0, 0] = 2.0
