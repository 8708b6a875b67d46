"""Component surgery: a disconnected graph's analytic eigenvectors are
locked out of the IRLM.

On ``c`` components the operator's top eigenvalue repeats exactly ``c``
times with known eigenvectors.  With ``c >= k`` the fit returns them and
runs no Lanczos; with ``2 <= c < k`` the IRLM solves only for the other
``k - c`` pairs; a connected graph runs the plain IRLM unchanged.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.core.pipeline import SpectralClustering
from repro.datasets.registry import load_dataset
from repro.graph.components import component_block, connected_components
from repro.serve.request import ClusterRequest
from repro.serve.service import ClusterService, ServiceConfig
from repro.sparse.construct import from_edge_list


def disjoint_graph(sizes, seed=0, p=0.25):
    """Weighted random components of the given sizes (each kept
    connected by a path), with vertex ids shuffled across components."""
    rng = np.random.default_rng(seed)
    blocks, off = [], 0
    for s in sizes:
        iu, ju = np.triu_indices(s, 1)
        chord = (ju > iu + 1) & (rng.random(iu.size) < p)
        path = np.column_stack([np.arange(s - 1), np.arange(1, s)])
        blocks.append(np.vstack([path, np.column_stack([iu[chord], ju[chord]])]) + off)
        off += s
    edges = np.vstack(blocks)
    perm = rng.permutation(off)
    weights = rng.uniform(0.5, 1.5, size=len(edges))
    return from_edge_list(perm[edges], weights=weights, n_nodes=off)


def component_reference(W, objective="ncut"):
    """Per-component dense spectra: the top of each (eigenvalue 1 of
    D^-1/2 W D^-1/2, or 0 of L) dropped, the rest pooled, best first."""
    A = W.to_dense()
    _, labels = connected_components(W)
    rest = []
    for c in np.unique(labels):
        idx = np.flatnonzero(labels == c)
        B = A[np.ix_(idx, idx)]
        d = B.sum(axis=1)
        if objective == "ratiocut":
            ev = np.sort(np.linalg.eigvalsh(np.diag(d) - B))  # ascending
        else:
            s = 1.0 / np.sqrt(d)
            ev = np.sort(np.linalg.eigvalsh(s[:, None] * B * s[None, :]))[::-1]
        rest.append(ev[1:])
    pooled = np.concatenate(rest)
    return np.sort(pooled) if objective == "ratiocut" else np.sort(pooled)[::-1]


#: c = 6 components, two of size 40 (ties break by first vertex)
MANY = (50, 40, 40, 30, 20, 12)
#: c = 3 components
FEW = (60, 45, 35)


@pytest.fixture(scope="module")
def many():
    return disjoint_graph(MANY, seed=1)


@pytest.fixture(scope="module")
def few():
    return disjoint_graph(FEW, seed=2)


def fit(W, k, **kw):
    kw.setdefault("seed", 0)
    return SpectralClustering(n_clusters=k, **kw).fit(graph=W)


class TestComponentBlock:
    def test_columns_orthonormal_and_canonical(self, many):
        n_comp, labels = connected_components(many)
        deg = many.to_dense().sum(axis=1)
        B = component_block(labels, n_comp, np.sqrt(deg))
        assert B.shape == (many.shape[0], len(MANY))
        np.testing.assert_allclose(B.T @ B, np.eye(len(MANY)), atol=1e-14)
        # size descending, ties by first vertex
        sizes = [int(np.count_nonzero(B[:, j])) for j in range(B.shape[1])]
        assert sizes == sorted(MANY, reverse=True)
        firsts = [int(np.flatnonzero(B[:, j])[0]) for j in (1, 2)]
        assert firsts[0] < firsts[1]

    def test_n_cols_truncates(self, many):
        n_comp, labels = connected_components(many)
        full = component_block(labels, n_comp, np.ones(many.shape[0]))
        part = component_block(labels, n_comp, np.ones(many.shape[0]), n_cols=4)
        assert np.array_equal(part, full[:, :4])

    def test_eigenvectors_of_the_operator(self, few):
        A = few.to_dense()
        d = A.sum(axis=1)
        S = A / np.sqrt(np.outer(d, d))
        n_comp, labels = connected_components(few)
        B = component_block(labels, n_comp, np.sqrt(d))
        np.testing.assert_allclose(S @ B, B, atol=1e-13)


class TestThreeCases:
    def test_connected_graph_locks_nothing(self, rng):
        W = disjoint_graph((80,), seed=3)
        res = fit(W, 4)
        assert res.eig_stats["n_locked"] == 0
        assert res.eig_stats["n_op"] > 0

    @pytest.mark.parametrize("operator", ["sym", "rw"])
    def test_c_at_least_k_runs_no_lanczos(self, many, operator):
        k = 4
        res = fit(many, k, operator=operator)
        st = res.eig_stats
        assert res.eigenvalues.tolist() == [1.0] * k
        assert st["n_op"] == 0 and st["n_restarts"] == 0
        assert st["n_locked"] == k and st["spmv_bytes"] == 0
        # the k largest components each form one cluster
        _, comp = connected_components(many)
        sizes = np.bincount(comp)
        for c in np.argsort(-sizes, kind="stable")[:k]:
            assert np.unique(res.labels[comp == c]).size == 1

    def test_c_at_least_k_ratiocut(self, many):
        res = fit(many, 5, objective="ratiocut")
        assert res.eigenvalues.tolist() == [0.0] * 5
        assert res.eig_stats["n_op"] == 0

    def test_c_at_least_k_reduced_precision_moves_no_bytes(self, many):
        res = fit(many, 4, precision="fp32")
        assert res.eigenvalues.tolist() == [1.0] * 4
        assert res.eig_stats["spmv_bytes"] == 0
        assert res.eig_stats["refine_residual"] is None

    def test_c_below_k_matches_component_reference(self, few):
        k = 7
        res = fit(few, k, eig_tol=0.0)
        c = len(FEW)
        assert res.eig_stats["n_locked"] == c
        assert res.eigenvalues[:c].tolist() == [1.0] * c
        assert np.count_nonzero(res.eigenvalues == 1.0) == c
        ref = component_reference(few)[: k - c]
        np.testing.assert_allclose(res.eigenvalues[c:], ref, rtol=0, atol=1e-10)

    def test_c_below_k_ratiocut_matches_component_reference(self, few):
        k = 6
        res = fit(few, k, objective="ratiocut", eig_tol=0.0)
        c = len(FEW)
        assert res.eigenvalues[:c].tolist() == [0.0] * c
        ref = component_reference(few, "ratiocut")[: k - c]
        np.testing.assert_allclose(res.eigenvalues[c:], ref, rtol=0, atol=1e-10)

    def test_c_below_k_rw_locks_the_block(self, few):
        res = fit(few, 6, operator="rw")
        assert res.eigenvalues[:3].tolist() == [1.0] * 3
        assert res.eig_stats["n_locked"] == 3


def _digest(labels):
    return hashlib.sha256(np.ascontiguousarray(labels).tobytes()).hexdigest()


PLACEMENTS = {
    "host": dict(eig_residency="host"),
    "eig_devices=2": dict(eig_devices=2),
    "fit_devices=2": dict(fit_devices=2),
    "fit_devices=2,rows": dict(fit_devices=2, partition_mode="rows"),
}


class TestPlacementsAgree:
    @pytest.mark.parametrize("graph,k", [("many", 4), ("few", 6)])
    def test_labels_byte_equal_everywhere(self, graph, k, request):
        W = request.getfixturevalue(graph)
        base = fit(W, k)
        for name, kw in PLACEMENTS.items():
            res = fit(W, k, **kw)
            assert _digest(res.labels) == _digest(base.labels), name
            assert res.eigenvalues.tobytes() == base.eigenvalues.tobytes(), name
        est = SpectralClustering(n_clusters=k, seed=0)
        staged = est.fit_embedding(est.embed(graph=W))
        assert _digest(staged.labels) == _digest(base.labels)

        reqs = [
            ClusterRequest(request_id=f"r{i}", graph=W, n_clusters=k, arrival=float(i))
            for i in range(2)
        ]
        responses, _ = ClusterService(ServiceConfig()).process(reqs)
        assert responses[1].cache_hit
        for resp in responses:
            assert resp.ok
            assert _digest(resp.labels) == _digest(base.labels)

    def test_served_build_led_by_another_embedding(self, few):
        """A Lanczos solve sharing an operator build with a power-method
        leader labels the graph itself and still matches a cold fit."""
        reqs = [
            ClusterRequest(request_id="pw", graph=few, n_clusters=6, embedding="power"),
            ClusterRequest(request_id="lz", graph=few, n_clusters=6),
        ]
        responses, _ = ClusterService(ServiceConfig()).process(reqs)
        assert all(r.ok for r in responses)
        assert responses[0].batch_id == responses[1].batch_id
        base = fit(few, 6)
        assert _digest(responses[1].labels) == _digest(base.labels)
        # the block is exact; the IRLM pairs of a solve served after
        # another embedding's agree with a cold fit to rounding only (on
        # connected graphs too)
        assert responses[1].eigenvalues[:3].tolist() == [1.0] * 3
        np.testing.assert_allclose(
            responses[1].eigenvalues, base.eigenvalues, rtol=0, atol=1e-12
        )

    def test_composed_c_at_least_k_keeps_shards_resident(self, many):
        res = fit(many, 4, fit_devices=2)
        assert res.eig_stats["n_op"] == 0
        # each device receives its row slice of the analytic block
        assert res.eig_stats["bytes_h2d"] == many.shape[0] * 4 * 8


#: labels sha256 and eigenvalues of the connected bench graphs as the
#: plain IRLM computes them (no component is locked on any of them)
CONNECTED_PINS = {
    ("dti", 0.01): (
        "d0e79f81708a5f07358cd20abadb48c231774e0b41992e81735d6f8bfa74d399",
        [
            0.9999999999999992, 0.9750600274990557, 0.9646324696817187,
            0.9606849460441577, 0.9330013653603513,
        ],
    ),
    ("fb", 0.5): (
        "1e0b2a6d5cafc4b9194f5827ff1727cb85bd91f1d239f75d1f9e96b45fda79a9",
        [
            1.0000000000000002, 0.9759049339108814, 0.9742245922246708,
            0.9711223119712545, 0.97011350140454, 0.9669927927490053,
            0.959211546671826, 0.9580457865939883, 0.9542127633847368,
            0.943367383519037,
        ],
    ),
    ("sbm50k", 0.02): (
        "b47f169e13bf206cb6c7209613da2eb0d24133d2d44d016507bd602526a8b746",
        [
            0.9999999999999987, 0.7775506558384925, 0.7756712014683077,
            0.7712087627180295, 0.7689840527290026, 0.7633767652292208,
            0.7611441948568909, 0.7567930859587674, 0.7508898159567793,
            0.7446397849813893, 0.7412744010036519, 0.7385695582074167,
            0.7377220550634511, 0.7331907621203838, 0.7305497028353328,
            0.7293290737910603, 0.7260171870259862, 0.719063260085436,
            0.7137318752670233, 0.7094693397007821,
        ],
    ),
    ("syn200", 0.1): (
        "e9aab63b7154b9a06631e8988ebe9743eebae5b648134bf4ff7f6feb037add40",
        [
            0.9999999999999996, 0.6273751132527862, 0.6264787841969106,
            0.6225956325788115, 0.6204636843558128, 0.6199812478312144,
            0.6177744960376669, 0.6151877323752432, 0.613862555954509,
            0.6109952346658659, 0.6103381736378259, 0.6092925360478141,
            0.6054264588128498, 0.60292546449695, 0.6009089641321033,
            0.5999940350588333, 0.5945231823873309, 0.5940291619286819,
            0.5913832205297516, 0.5898960408063665,
        ],
    ),
}


@pytest.mark.parametrize("name,scale", sorted(CONNECTED_PINS))
def test_connected_bench_graphs_unchanged(name, scale):
    digest, eig = CONNECTED_PINS[(name, scale)]
    ds = load_dataset(name, scale=scale, seed=0)
    sc = SpectralClustering(n_clusters=ds.n_clusters, eig_tol=1e-8, seed=0)
    if ds.points is not None:
        res = sc.fit(X=ds.points, edges=ds.edges)
    else:
        res = sc.fit(graph=ds.graph)
    assert res.eig_stats["n_locked"] == 0
    assert _digest(res.labels) == digest
    np.testing.assert_allclose(res.eigenvalues, eig, rtol=0, atol=1e-12)


_THREADS_SCRIPT = """
import hashlib
from repro.core.pipeline import SpectralClustering
from repro.datasets.registry import load_dataset
for seed in (0, 5):  # c = 13 >= k and c = 3 < k
    ds = load_dataset("dblp", scale=0.02, seed=seed)
    res = SpectralClustering(
        n_clusters=ds.n_clusters, eig_tol=1e-8, seed=0
    ).fit(graph=ds.graph)
    print(seed, res.eig_stats["n_locked"],
          hashlib.sha256(res.labels.tobytes()).hexdigest())
"""


def test_dblp_labels_independent_of_blas_threads():
    """The repeated eigenvalue 1 of the disconnected dblp stand-in no
    longer leaves a basis for BLAS rounding to pick: the fit's labels
    are the same under 1 and 2 BLAS threads."""
    src = str(Path(__file__).resolve().parents[2] / "src")
    out = {}
    for threads in ("1", "2"):
        env = dict(
            os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
            PYTHONPATH=src,
        )
        proc = subprocess.run(
            [sys.executable, "-c", _THREADS_SCRIPT],
            capture_output=True, text=True, env=env, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr[-2000:]
        out[threads] = proc.stdout.split("\n")
    assert out["1"] == out["2"]
    assert [line.split()[1] for line in out["1"] if line] == ["10", "3"]
