import numpy as np
import pytest

import protofed as pf
from helpers import kmeans_sse, lloyd_kmeans


class TestMinibatchKmeans:
    def test_identical_points_fixed_point(self):
        points = np.tile([0.3, 0.7], (25, 1))
        centers = pf.minibatch_kmeans(points, 3, batch_size=8, n_iters=50, seed=0)
        assert np.allclose(centers, [0.3, 0.7])

    def test_two_distinct_points(self):
        points = np.array([[0.0, 0.0]] * 10 + [[1.0, 1.0]] * 10)
        centers = pf.minibatch_kmeans(points, 2, batch_size=8, n_iters=50, seed=1)
        got = sorted(centers.tolist())
        assert np.allclose(got[0], [0.0, 0.0])
        assert np.allclose(got[1], [1.0, 1.0])

    def test_three_blobs_match_lloyd_oracle(self):
        rng = np.random.default_rng(2)
        true_centers = np.array([[0.0, 0.0], [2.0, 0.0], [0.0, 2.0]])
        points = np.vstack([rng.normal(c, 0.08, (70, 2)) for c in true_centers])
        centers = pf.minibatch_kmeans(points, 3, batch_size=32, n_iters=100, seed=3)
        for true in true_centers:
            assert np.linalg.norm(centers - true, axis=1).min() <= 0.1
        lloyd = lloyd_kmeans(points, true_centers.astype(float))
        assert kmeans_sse(points, centers) <= 1.10 * kmeans_sse(points, lloyd)

    def test_deterministic_per_seed(self):
        rng = np.random.default_rng(4)
        points = rng.random((60, 3))
        a = pf.minibatch_kmeans(points, 4, 16, 40, seed=9)
        b = pf.minibatch_kmeans(points, 4, 16, 40, seed=9)
        assert np.array_equal(a, b)

    def test_too_many_clusters_rejected(self):
        with pytest.raises(ValueError, match="exceeds"):
            pf.minibatch_kmeans(np.zeros((2, 2)), 3, 2, 10, seed=0)

    def test_centroids_stay_in_coordinate_bounds(self):
        rng = np.random.default_rng(5)
        points = rng.random((50, 4)) * 3 - 1
        centers = pf.minibatch_kmeans(points, 3, 16, 80, seed=6)
        assert (centers >= points.min(axis=0) - 1e-12).all()
        assert (centers <= points.max(axis=0) + 1e-12).all()


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

    def test_invalid_count_rejected(self):
        with pytest.raises(ValueError):
            pf.choose_cluster_count(0)


def proto_set(by_class, sigma=0.01):
    return pf.Prototypes(by_class, sigma)


class TestAggregatePrototypes:
    def test_single_client_single_class(self):
        ps = proto_set({2: [[0.1, 0.2], [0.3, 0.4], [0.5, 0.6]]})
        gp = pf.aggregate_prototypes([ps], seed=0)
        assert gp.classes() == (2,)

    def test_disjoint_clients_cover_all_classes(self):
        uploads = [
            proto_set({0: [[0.0, 0.0], [0.1, 0.1], [0.2, 0.0]]}),
            proto_set({1: [[1.0, 1.0], [1.1, 1.0], [0.9, 1.0]]}),
            proto_set({2: [[0.0, 1.0], [0.1, 1.0], [0.0, 0.9]]}),
        ]
        gp = pf.aggregate_prototypes(uploads, seed=1)
        assert gp.classes() == (0, 1, 2)

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
        for class_id in gp_ab.classes():
            assert np.array_equal(gp_ab.by_class[class_id], gp_ba.by_class[class_id])

    def test_class_coverage_equals_union(self):
        uploads = [
            proto_set({0: [[0.1, 0.1]], 3: [[0.2, 0.9]]}),
            proto_set({1: [[0.5, 0.5]]}),
        ]
        gp = pf.aggregate_prototypes(uploads, seed=0)
        assert gp.classes() == (0, 1, 3)

    def test_cluster_count_follows_heuristic(self):
        rng = np.random.default_rng(6)
        uploads = [proto_set({0: rng.random((3, 4))}) for _ in range(3)]
        gp = pf.aggregate_prototypes(uploads, seed=7)
        # nine received prototypes -> four global centroids
        assert gp.by_class[0].shape == (4, 4)

    def test_cluster_count_override(self):
        rng = np.random.default_rng(7)
        uploads = [proto_set({0: rng.random((3, 4))}) for _ in range(3)]
        gp = pf.aggregate_prototypes(uploads, seed=7, cluster_count=2)
        assert gp.by_class[0].shape == (2, 4)

    def test_zero_cluster_count_is_not_the_heuristic(self):
        uploads = [proto_set({0: [[0.1, 0.2], [0.3, 0.4]]})]
        with pytest.raises(ValueError, match="n_clusters must be >= 1"):
            pf.aggregate_prototypes(uploads, seed=0, cluster_count=0)

    def test_sigma_taken_from_uploads(self):
        ps = proto_set({0: [[0.1, 0.2]]}, sigma=0.04)
        gp = pf.aggregate_prototypes([ps], seed=0)
        assert gp.noise_sigma == 0.04

    def test_empty_uploads_rejected(self):
        with pytest.raises(ValueError, match="no prototypes"):
            pf.aggregate_prototypes([], seed=0)


class TestGlobalPrototypesWire:
    """The server-to-client direction: prototypes as the server broadcasts them."""

    def test_float_count(self):
        protos = pf.Prototypes(
            {0: np.array([[0.1, 0.2], [0.3, 0.4]]), 2: np.array([[0.5, 0.6]])}, noise_sigma=0.01
        )
        assert protos.floats == 3 * 2

    def test_invariants_enforced(self):
        with pytest.raises(ValueError, match="non-empty"):
            pf.Prototypes({0: np.empty((0, 2))})
        with pytest.raises(ValueError, match="non-empty"):
            pf.Prototypes({0: np.zeros(2)})
        with pytest.raises(ValueError, match="noise_sigma"):
            pf.Prototypes({0: np.zeros((1, 2))}, noise_sigma=-0.01)

    def test_arrays_are_read_only_copies(self):
        rows = np.zeros((2, 3))
        protos = pf.Prototypes({0: rows})
        rows[0, 0] = 1.0
        assert protos.by_class[0][0, 0] == 0.0
        with pytest.raises(ValueError, match="read-only"):
            protos.by_class[0][0, 0] = 2.0
