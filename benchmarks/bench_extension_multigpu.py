"""Extension — multi-GPU k-means scalability.

The paper's platform model allows "several GPUs as co-processors" (§III.B)
though its evaluation uses one; this bench carries Algorithm 4 to 1-4
simulated K20c devices through ``kmeans_composed`` over contiguous
``partition_bounds`` row blocks and maps the strong-scaling curve,
including the launch-overhead floor that caps speedup on small shards."""

import numpy as np
import pytest

from bench_topology_composition import _device_group
from repro.cuda.device import Device
from repro.cusparse.partition import partition_bounds
from repro.kmeans.gpu import kmeans_device
from repro.kmeans.init import kmeans_plus_plus
from repro.kmeans.multi_gpu import kmeans_composed


@pytest.fixture(scope="module")
def workload(rng=None):
    r = np.random.default_rng(0)
    k, d, n = 16, 16, 80_000
    centers = r.standard_normal((k, d)) * 8
    V = centers[r.integers(0, k, n)] + r.standard_normal((n, d))
    C0 = kmeans_plus_plus(V[:4000], k, np.random.default_rng(1))
    return V, k, C0


def _composed(n_dev, V, k, C0, max_iter):
    res, tm, _ = kmeans_composed(
        _device_group(n_dev), partition_bounds(len(V), n_dev), V, k,
        initial_centroids=C0, max_iter=max_iter,
    )
    return res, tm


def test_extension_multigpu_report(workload, write_table):
    V, k, C0 = workload
    d1 = Device()
    base = kmeans_device(d1, V, k, initial_centroids=C0, max_iter=4)
    t1 = d1.timeline.total(tag="kmeans")

    rows = [f"{'1 (Alg. 4)':<12}{t1:>14.5f}{1.0:>10.2f}x"]
    speedups = {1: 1.0}
    for n_dev in (2, 3, 4):
        res, tm = _composed(n_dev, V, k, C0, max_iter=4)
        assert res.labels.tobytes() == base.labels.tobytes()
        s = t1 / tm.parallel_seconds
        speedups[n_dev] = s
        rows.append(f"{n_dev:<12}{tm.parallel_seconds:>14.5f}{s:>10.2f}x")

    lines = [
        f"Extension: multi-GPU k-means strong scaling "
        f"(n={V.shape[0]}, k={k}, d={V.shape[1]}, 4 iters)",
        f"{'devices':<12}{'makespan/s':>14}{'speedup':>11}",
        "-" * 38,
        *rows,
        "",
        "byte-identical labels on every configuration (asserted).",
    ]
    write_table("extension_multigpu", "\n".join(lines))

    # scaling is real but sub-linear (launch overheads + peer allreduce)
    assert speedups[2] > 1.3
    assert speedups[4] > speedups[2]
    assert speedups[4] < 4.0


def test_bench_two_devices(benchmark, workload):
    V, k, C0 = workload
    benchmark.pedantic(
        lambda: _composed(2, V, k, C0, max_iter=2),
        rounds=2, iterations=1,
    )
