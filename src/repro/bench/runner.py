"""Experiment runner: one Table II workload through all three columns.

:func:`run_comparison` executes the hybrid CUDA pipeline (simulated K20c
times) and the Matlab-like / Python-like baselines (modeled Xeon times) on
a scaled-down instance, collecting per-stage numbers, clustering quality
against ground truth, and the iteration counts the paper-scale projection
needs.

:func:`project_paper_scale` re-evaluates every cost model at the paper's
published workload parameters (Table II n/edges/k, d=90 for DTI), reusing
the measured restart and Lloyd-iteration counts — the two quantities that
depend on spectral structure rather than on raw size.  The projection is
what EXPERIMENTS.md compares against Tables III-VII.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.baselines import cost as bcost
from repro.baselines.cost import MATLAB_2015A, PYTHON_27
from repro.baselines.matlab_like import run_matlab_like
from repro.baselines.python_like import run_python_like
from repro.bench.paperdata import PAPER_TABLES, TABLE_OF_DATASET
from repro.core.pipeline import SpectralClustering
from repro.core.workflow import hybrid_eigensolver
from repro.cuda.device import Device
from repro.cusparse.matrices import coo_to_device
from repro.datasets.registry import PAPER_STATS, load_dataset
from repro.graph.components import connected_components, induced_subgraph
from repro.graph.laplacian import device_sym_normalize
from repro.hw.costmodel import CPUCostModel, GPUCostModel, TransferCostModel
from repro.hw.spec import K20C, PCIE_X16_GEN2, XEON_E5_2690
from repro.metrics.external import adjusted_rand_index


@dataclass
class ComparisonResult:
    """All three columns on one workload."""

    dataset: str
    scale: float
    n: int
    nnz_directed: int
    k: int
    #: stage -> column -> seconds (simulated for cuda, modeled for others)
    stages: dict
    #: column -> ARI against the generator's ground truth
    quality: dict
    #: measured counters reused by the projection
    counters: dict
    #: CUDA communication/computation seconds (Table VII axis)
    comm: float = 0.0
    comp: float = 0.0
    #: stage -> column -> seconds at the paper-scale workload
    projection: dict = field(default_factory=dict)
    #: the published Table III-VI rows for this dataset
    paper: dict = field(default_factory=dict)


def run_comparison(
    name: str,
    scale: float = 0.05,
    seed: int = 0,
    eig_tol: float = 1e-8,
    kmeans_max_iter: int = 100,
    project: bool = True,
) -> ComparisonResult:
    """Run one dataset through CUDA + Matlab-like + Python-like columns."""
    ds = load_dataset(name, scale=scale, seed=seed)
    point_input = ds.points is not None
    kw: dict = (
        dict(X=ds.points, edges=ds.edges)
        if point_input
        else dict(graph=ds.graph)
    )

    device = Device()
    sc = SpectralClustering(
        n_clusters=ds.n_clusters,
        eig_tol=eig_tol,
        kmeans_max_iter=kmeans_max_iter,
        seed=seed,
        device=device,
    )
    res = sc.fit(**kw)

    mat = run_matlab_like(
        n_clusters=ds.n_clusters, seed=seed, eig_tol=eig_tol,
        kmeans_max_iter=kmeans_max_iter, **kw,
    )
    py = run_python_like(
        n_clusters=ds.n_clusters, seed=seed, eig_tol=eig_tol,
        kmeans_max_iter=kmeans_max_iter, **kw,
    )

    stage_names = (
        ["similarity", "eigensolver", "kmeans"]
        if point_input
        else ["eigensolver", "kmeans"]
    )
    stages = {
        s: {
            "cuda": res.timings.simulated.get(s, 0.0)
            + (res.timings.simulated.get("laplacian", 0.0) if s == "eigensolver" else 0.0),
            "matlab": mat.modeled[s],
            "python": py.modeled[s],
        }
        for s in stage_names
    }

    quality = {}
    if ds.labels is not None:
        quality = {
            "cuda": adjusted_rand_index(res.labels, ds.labels),
            "matlab": adjusted_rand_index(mat.labels, ds.labels),
            "python": adjusted_rand_index(py.labels, ds.labels),
        }

    counters = dict(
        n_op=res.eig_stats["n_op"],
        n_restarts=res.eig_stats["n_restarts"],
        m=res.eig_stats["m"],
        cuda_kmeans_iters=res.kmeans.n_iter,
        matlab_kmeans_iters=mat.result.kmeans.n_iter,
        python_kmeans_iters=py.result.kmeans.n_iter,
    )
    if res.eig_stats.get("n_locked", 0) and not point_input:
        # the disconnected stand-in's fit locked its components' analytic
        # eigenvectors and restarted less (or not at all); the paper's
        # graph is one component, so the projection restarts as the
        # plain solve of the stand-in's largest component does
        counters["n_restarts"], n_lcc = _largest_component_restarts(
            ds.graph, ds.n_clusters, eig_tol, seed
        )
        counters["restarts_source"] = f"largest component (n={n_lcc})"
    out = ComparisonResult(
        dataset=name,
        scale=scale,
        n=ds.n,
        nnz_directed=ds.n_edges,
        k=ds.n_clusters,
        stages=stages,
        quality=quality,
        counters=counters,
        comm=res.profile.communication,
        comp=res.profile.computation,
        paper=PAPER_TABLES.get(TABLE_OF_DATASET[name], {}),
    )
    if project:
        out.projection = project_paper_scale(name, counters)
    return out


def _largest_component_restarts(graph, k: int, eig_tol: float, seed):
    """``(IRLM restarts, nodes)`` of one hybrid solve of ``graph``'s
    largest connected component with the fit's defaults."""
    _, comp = connected_components(graph)
    nodes = np.flatnonzero(comp == np.argmax(np.bincount(comp)))
    sub = induced_subgraph(graph, nodes)
    device = Device()
    op = device_sym_normalize(
        coo_to_device(device, sub.to_coo().sorted_by_row())
    )
    _, _, stats = hybrid_eigensolver(device, op, k=k, tol=eig_tol, seed=seed)
    return stats.n_restarts, int(nodes.size)


def _cuda_eigensolver_projection(
    n: int, nnz_sym: int, k: int, m: int, n_op: int, n_restarts: int
) -> tuple[float, float]:
    """(computation, communication) seconds of Algorithm 3 at a workload.

    Models the device-resident RCI path: the iteration vector and Lanczos
    basis live on the GPU, so each reverse-communication step is two
    on-device gemv sweeps plus the SpMV with **no** per-op PCIe round
    trip.  Only ARPACK's small tridiagonal state crosses the bus per
    restart, plus one seed upload and one result download.
    """
    gpu = GPUCostModel(K20C)
    cpu = CPUCostModel(XEON_E5_2690)
    pcie = TransferCostModel(PCIE_X16_GEN2)
    j_avg = (k + m) / 2.0
    gemv = gpu.kernel_time(
        2.0 * j_avg * n, (j_avg * n + 2.0 * n) * 8.0, kind="stream"
    )
    per_op_comp = 2.0 * gemv + gpu.spmv_time(n, nnz_sym)
    comp = n_op * per_op_comp
    # restart: host tridiagonal math + on-device basis rotation V <- V Q
    comp += n_restarts * (
        cpu.blas3_time(15.0 * m**3, threads=1)
        + cpu.blas3_time(6.0 * (m - k) * m * m, threads=1)
        + gpu.gemm_time(n, k, m)
    )
    comp += gpu.gemm_time(n, k, m)  # Ritz-vector assembly
    comm = pcie.h2d_time(n * 8)  # seed vector up
    comm += n_restarts * (
        pcie.d2h_time(2 * m * 8) + pcie.h2d_time(m * k * 8)
    )
    comm += pcie.d2h_time(n * k * 8)  # embedding down
    return comp, comm


def _cuda_kmeans_projection(n: int, d: int, k: int, iters: int) -> float:
    """Algorithm 4 per-iteration cost at a workload (gemm + argmin + sort)."""
    gpu = GPUCostModel(K20C)
    per_iter = (
        gpu.gemm_time(n, k, d)
        + gpu.kernel_time(float(n) * k, float(n) * k * 8, kind="stream")  # init S
        + gpu.kernel_time(float(n) * k, float(n) * k * 8, kind="stream")  # argmin
        + gpu.sort_time(n)
        + gpu.kernel_time(float(n) * d, float(n) * d * 8 * 2, kind="stream")  # reduce
    )
    init = gpu.gemm_time(n, k, d) * 0.5  # k-means++ distance passes
    return iters * per_iter + init


def _cuda_similarity_projection(n: int, d: int, nnz_dir: int) -> float:
    """Algorithm 1 at a workload: transfers + the three kernels + sort."""
    gpu = GPUCostModel(K20C)
    pcie = TransferCostModel(PCIE_X16_GEN2)
    t = pcie.h2d_time(n * d * 8) + pcie.h2d_time(nnz_dir * 16)
    t += gpu.kernel_time(float(n) * d, float(n) * d * 8, kind="stream")  # average
    t += gpu.kernel_time(3.0 * n * d, 2.0 * n * d * 8, kind="stream")  # update
    t += gpu.kernel_time(
        2.0 * nnz_dir * d, 2.0 * nnz_dir * d * 8, kind="stream"
    )  # similarity
    t += gpu.sort_time(2 * nnz_dir)
    return t


def project_paper_scale(name: str, counters: dict) -> dict:
    """Evaluate all cost models at the paper's Table II workload.

    Restart counts and Lloyd iteration counts are carried over from the
    measured scaled run (restarts from its largest component when the
    stand-in is disconnected, see ``counters["restarts_source"]``);
    ``n_op`` is recomputed from the paper-scale basis
    size via the IRAM schedule ``n_op = m + restarts · (m - k)``.
    """
    stats = PAPER_STATS[name]
    n = stats["nodes"]
    nnz_dir = stats["edges"]
    nnz_sym = 2 * nnz_dir
    k = stats["clusters"]
    d = stats.get("dim", k)  # embedding dim for kmeans is k
    m = min(n, 2 * k + 1)
    restarts = counters["n_restarts"]
    n_op = m + restarts * (m - k)

    proj: dict = {}
    if name == "dti":
        proj["similarity"] = {
            "cuda": _cuda_similarity_projection(n, stats["dim"], nnz_dir),
            "matlab": bcost.similarity_serial_time(MATLAB_2015A, nnz_dir),
            "python": bcost.similarity_serial_time(PYTHON_27, nnz_dir),
            "matlab_vectorized": bcost.similarity_vectorized_time(
                MATLAB_2015A, nnz_dir
            ),
            "python_vectorized": bcost.similarity_vectorized_time(
                PYTHON_27, nnz_dir
            ),
        }
    comp, comm = _cuda_eigensolver_projection(n, nnz_sym, k, m, n_op, restarts)
    proj["eigensolver"] = {
        "cuda": comp + comm,
        "cuda_communication": comm,
        "matlab": bcost.eigensolver_time(
            MATLAB_2015A, n=n, nnz=nnz_sym, k=k, m=m,
            n_op=n_op, n_restarts=restarts,
        ),
        "python": bcost.eigensolver_time(
            PYTHON_27, n=n, nnz=nnz_sym, k=k, m=m,
            n_op=n_op, n_restarts=restarts,
        ),
    }
    proj["kmeans"] = {
        "cuda": _cuda_kmeans_projection(n, k, k, counters["cuda_kmeans_iters"]),
        "matlab": bcost.kmeans_time(
            MATLAB_2015A, n=n, d=k, k=k, iters=counters["matlab_kmeans_iters"]
        ),
        "python": bcost.kmeans_time(
            PYTHON_27, n=n, d=k, k=k, iters=counters["python_kmeans_iters"]
        ),
    }
    return proj
