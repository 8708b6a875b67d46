"""Multi-GPU k-means (``kmeans_composed``): parity and scaling behavior."""

import numpy as np
import pytest

from repro.cuda.device import Device
from repro.errors import ClusteringError
from repro.kmeans.gpu import kmeans_device
from repro.kmeans.init import kmeans_plus_plus
from repro.cusparse.partition import partition_bounds
from repro.kmeans.multi_gpu import kmeans_composed


@pytest.fixture
def big_blobs(rng):
    k, per, d = 6, 300, 8
    centers = rng.standard_normal((k, d)) * 10
    truth = np.repeat(np.arange(k), per)
    V = centers[truth] + 0.5 * rng.standard_normal((k * per, d))
    return V, truth, k


def composed_group(p):
    """p topology-aware devices on one shared timeline."""
    from repro.hw.costmodel import TransferCostModel
    from repro.hw.topology import paper_topology

    topo = paper_topology(p)
    primary = Device(device_index=0, topology=topo)
    primary.transfer_cost = TransferCostModel(primary.pcie, topo)
    return [primary] + [
        Device(primary.spec, primary.pcie, timeline=primary.timeline,
               device_index=d, topology=topo)
        for d in range(1, p)
    ]


def composed(n_dev, V, k, **kwargs):
    """``kmeans_composed`` over contiguous row blocks of a fresh group."""
    return kmeans_composed(
        composed_group(n_dev), partition_bounds(len(V), n_dev),
        V, k, **kwargs,
    )


class TestParity:
    @pytest.mark.parametrize("n_dev", [1, 2, 3, 4])
    def test_matches_single_device(self, big_blobs, n_dev):
        """Device-side k-means++ seeding consumes the RNG identically at
        every device count, so seeded runs match one device byte for byte."""
        V, _, k = big_blobs
        single = kmeans_device(Device(), V, k, seed=3)
        multi, _, _ = composed(n_dev, V, k, seed=3)
        assert multi.labels.tobytes() == single.labels.tobytes()
        assert multi.centroids.tobytes() == single.centroids.tobytes()
        assert single.n_iter == multi.n_iter

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("n_dev", [2, 3])
    def test_multi_seed_parity(self, seed, n_dev):
        """Sharded runs agree with one device across seeds and pool sizes."""
        r = np.random.default_rng(seed)
        V = r.random((400, 5))
        k = 6
        C0 = kmeans_plus_plus(V, k, np.random.default_rng(seed + 10))
        single = kmeans_device(Device(), V, k, initial_centroids=C0)
        multi, _, _ = composed(n_dev, V, k, initial_centroids=C0)
        assert multi.labels.tobytes() == single.labels.tobytes()
        assert multi.centroids.tobytes() == single.centroids.tobytes()
        assert single.n_iter == multi.n_iter
        assert single.converged == multi.converged

    @pytest.mark.parametrize("n_dev", [1, 2, 3])
    def test_empty_cluster_repair_parity(self, n_dev):
        """Duplicated points force the empty-cluster repair rule; the
        sharded path must apply it exactly like the single-device path."""
        r = np.random.default_rng(7)
        base = r.random((8, 3))
        V = np.repeat(base, 6, axis=0)  # 48 points, only 8 distinct
        k = 12  # more clusters than distinct points -> guaranteed repair
        C0 = V[:k] + r.random((k, 3)) * 1e-3
        single = kmeans_device(Device(), V, k, initial_centroids=C0)
        multi, _, _ = composed(n_dev, V, k, initial_centroids=C0)
        assert np.all(np.bincount(multi.labels, minlength=k) >= 1)
        assert multi.labels.tobytes() == single.labels.tobytes()
        assert multi.centroids.tobytes() == single.centroids.tobytes()

    def test_inertia_monotone(self, big_blobs):
        V, _, k = big_blobs
        res, _, _ = composed(2, V, k, seed=0)
        h = res.inertia_history
        assert all(h[i + 1] <= h[i] + 1e-9 for i in range(len(h) - 1))

    def test_recovers_blobs(self, big_blobs):
        from repro.metrics.external import adjusted_rand_index

        V, truth, k = big_blobs
        res, _, _ = composed(2, V, k, seed=0)
        assert adjusted_rand_index(res.labels, truth) > 0.98


class TestScaling:
    def test_parallel_time_beats_single_device(self, rng):
        # scaling shows only when per-shard work dominates the fixed
        # kernel-launch overheads — use a large-n workload, few iterations
        V = rng.random((120_000, 8))
        k = 8
        C0 = kmeans_plus_plus(V[:2000], k, np.random.default_rng(3))
        d1 = Device()
        kmeans_device(d1, V, k, initial_centroids=C0, max_iter=2)
        t1 = d1.timeline.total(tag="kmeans")
        _, timings, _ = composed(4, V, k, initial_centroids=C0, max_iter=2)
        # makespan clearly under the one-device time (launch overheads +
        # the peer-bus centroid allreduce keep it short of the ideal 4x)
        assert timings.parallel_seconds < 0.7 * t1

    def test_tiny_problem_launch_bound(self, big_blobs):
        """The flip side (Amdahl on launch latency): at tiny sizes adding
        devices buys almost nothing because each shard still pays the
        full per-iteration launch sequence."""
        V, _, k = big_blobs
        C0 = kmeans_plus_plus(V, k, np.random.default_rng(3))
        d1 = Device()
        kmeans_device(d1, V, k, initial_centroids=C0)
        t1 = d1.timeline.total(tag="kmeans")
        _, timings, _ = composed(4, V, k, initial_centroids=C0)
        assert timings.parallel_seconds > 0.5 * t1

    def test_per_device_times_balanced(self, big_blobs):
        V, _, k = big_blobs
        _, timings, _ = composed(2, V, k, seed=0)
        a, b = timings.per_device_seconds
        assert abs(a - b) < 0.3 * max(a, b)


class TestValidation:
    def test_no_devices(self, big_blobs):
        V, _, k = big_blobs
        with pytest.raises(ClusteringError):
            kmeans_composed([], [], V, k)

    def test_more_devices_than_points(self, rng):
        bounds = [0, 3, 3, 3, 3, 3]
        with pytest.raises(ClusteringError, match="5 devices for only 3"):
            kmeans_composed(composed_group(5), bounds, rng.random((3, 2)), 2)

    def test_bad_centroid_shape(self, big_blobs):
        V, _, k = big_blobs
        with pytest.raises(ClusteringError):
            composed(1, V, k, initial_centroids=np.zeros((k, 99)))

    def test_devices_memory_freed(self, big_blobs):
        """Shard buffers are released even when the call raises."""
        V, _, k = big_blobs
        devs = composed_group(2)
        with pytest.raises(ClusteringError):
            kmeans_composed(
                devs, partition_bounds(len(V), 2), V, k,
                initial_centroids=np.zeros((k, 99)),
            )
        for d in devs:
            assert d.allocator.used_bytes == 0


class TestComposed:
    """kmeans_composed: the one-plan fit's resident-shard k-means."""

    @pytest.mark.parametrize("n_dev", [1, 2, 4])
    def test_bitwise_matches_single_device(self, big_blobs, n_dev):
        V, _, k = big_blobs
        C0 = kmeans_plus_plus(V, k, np.random.default_rng(3))
        single = kmeans_device(Device(), V, k, initial_centroids=C0)
        res, _, _ = kmeans_composed(
            composed_group(n_dev), partition_bounds(len(V), n_dev),
            V, k, initial_centroids=C0,
        )
        assert res.labels.tobytes() == single.labels.tobytes()
        assert res.centroids.tobytes() == single.centroids.tobytes()
        assert np.array_equal(res.inertia_history, single.inertia_history)
        assert res.n_iter == single.n_iter

    @pytest.mark.parametrize("seed", [0, 5])
    def test_plus_plus_seeding_matches_device_rng(self, big_blobs, seed):
        """Composed k-means++ consumes the RNG exactly like the
        single-device device-side seeding path."""
        V, _, k = big_blobs
        single = kmeans_device(Device(), V, k, seed=seed)
        res, _, _ = kmeans_composed(
            composed_group(2), partition_bounds(len(V), 2),
            V, k, seed=seed,
        )
        assert res.labels.tobytes() == single.labels.tobytes()
        assert res.centroids.tobytes() == single.centroids.tobytes()

    def test_transfer_plan_matches_meters(self, big_blobs):
        V, _, k = big_blobs
        devs = composed_group(3)
        _, _, plan = kmeans_composed(
            devs, partition_bounds(len(V), 3), V, k, seed=0
        )
        assert plan["h2d_bytes"] == sum(d.bytes_h2d for d in devs)
        assert plan["d2h_bytes"] == sum(d.bytes_d2h for d in devs)
        assert plan["p2p_bytes"] == sum(d.bytes_p2p for d in devs)
        assert plan["elided_bytes"] == sum(d.bytes_elided for d in devs)
        assert plan["elided_count"] == sum(
            d.transfers_elided for d in devs
        )

    def test_resident_elides_shard_uploads(self, big_blobs):
        """resident=True converts every per-shard embedding upload into
        an elided transfer of the same size."""
        V, _, k = big_blobs
        C0 = kmeans_plus_plus(V, k, np.random.default_rng(3))
        bounds = partition_bounds(len(V), 2)
        _, _, cold = kmeans_composed(
            composed_group(2), bounds, V, k, initial_centroids=C0
        )
        devs = composed_group(2)
        res, _, warm = kmeans_composed(
            devs, bounds, V, k, initial_centroids=C0, resident=True
        )
        shard_bytes = V.nbytes
        assert cold["h2d_bytes"] - warm["h2d_bytes"] == shard_bytes
        assert warm["elided_bytes"] - cold["elided_bytes"] == shard_bytes
        assert warm["elided_count"] - cold["elided_count"] == 2
        assert sum(d.bytes_elided for d in devs) == warm["elided_bytes"]

    def test_resident_faster_than_cold(self, big_blobs):
        V, _, k = big_blobs
        C0 = kmeans_plus_plus(V, k, np.random.default_rng(3))
        bounds = partition_bounds(len(V), 2)
        _, cold, _ = kmeans_composed(
            composed_group(2), bounds, V, k, initial_centroids=C0
        )
        _, warm, _ = kmeans_composed(
            composed_group(2), bounds, V, k, initial_centroids=C0,
            resident=True,
        )
        assert warm.parallel_seconds < cold.parallel_seconds

    @pytest.mark.parametrize("bounds", [
        pytest.param(lambda n: [0, n], id="wrong-length"),
        pytest.param(lambda n: [1, n // 2, n], id="first-not-zero"),
        pytest.param(lambda n: [0, n // 2, n - 3], id="last-not-n"),
        pytest.param(lambda n: [0, n + 1, n], id="decreasing"),
        pytest.param(lambda n: [0, 0, n], id="empty-block"),
    ])
    def test_malformed_bounds_rejected(self, big_blobs, bounds):
        V, _, k = big_blobs
        with pytest.raises(ClusteringError):
            kmeans_composed(composed_group(2), bounds(len(V)), V, k)

    def test_devices_must_share_timeline(self, big_blobs):
        V, _, k = big_blobs
        with pytest.raises(ClusteringError):
            kmeans_composed(
                [Device(), Device()], partition_bounds(len(V), 2), V, k
            )

    def test_memory_freed(self, big_blobs):
        V, _, k = big_blobs
        devs = composed_group(2)
        kmeans_composed(devs, partition_bounds(len(V), 2), V, k, seed=0)
        for d in devs:
            assert d.allocator.used_bytes == 0
