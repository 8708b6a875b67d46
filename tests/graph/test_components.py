"""Connected components and isolated-node surgery."""

import numpy as np
import pytest

from repro.graph.components import connected_components, remove_isolated
from repro.sparse.construct import from_edge_list


class TestConnectedComponents:
    def test_single_chain(self):
        W = from_edge_list(np.array([[0, 1], [1, 2], [2, 3]]), n_nodes=4)
        nc, labels = connected_components(W)
        assert nc == 1
        assert len(set(labels.tolist())) == 1

    def test_two_components_plus_isolated(self):
        W = from_edge_list(np.array([[0, 1], [2, 3]]), n_nodes=5)
        nc, labels = connected_components(W)
        assert nc == 3
        assert labels[0] == labels[1]
        assert labels[2] == labels[3]
        assert labels[0] != labels[2] != labels[4]

    def test_empty_graph_each_node_own_component(self):
        W = from_edge_list(np.empty((0, 2), dtype=np.int64), n_nodes=4)
        nc, labels = connected_components(W)
        assert nc == 4

    def test_matches_networkx(self, rng):
        import networkx as nx

        edges = rng.integers(0, 40, size=(30, 2))
        edges = edges[edges[:, 0] != edges[:, 1]]
        W = from_edge_list(edges, n_nodes=40)
        nc, labels = connected_components(W)
        G = nx.Graph()
        G.add_nodes_from(range(40))
        G.add_edges_from(edges.tolist())
        assert nc == nx.number_connected_components(G)
        # same partition: nodes sharing a nx component share a label
        for comp in nx.connected_components(G):
            comp = sorted(comp)
            assert len(set(labels[comp].tolist())) == 1

    def test_count_of_zero_laplacian_eigenvalues(self, rng):
        """#components == multiplicity of eigenvalue 0 of L (spectral
        graph theory sanity, ties components to the Laplacian)."""
        from repro.graph.laplacian import laplacian

        W = from_edge_list(np.array([[0, 1], [1, 2], [3, 4]]), n_nodes=6)
        nc, _ = connected_components(W)
        w = np.linalg.eigvalsh(laplacian(W).to_dense())
        assert np.count_nonzero(np.abs(w) < 1e-9) == nc


def _frontier_components(W):
    """The earlier per-seed Python frontier BFS, kept as the reference
    for the vectorized labelling (same first-seen label order)."""
    csr = W.to_csr()
    n = csr.shape[0]
    labels = np.full(n, -1, dtype=np.int64)
    comp = 0
    for seed in range(n):
        if labels[seed] != -1:
            continue
        labels[seed] = comp
        frontier = np.array([seed], dtype=np.int64)
        while frontier.size:
            take = np.concatenate(
                [csr.indices[s:e] for s, e in
                 zip(csr.indptr[frontier], csr.indptr[frontier + 1])]
            )
            fresh = np.unique(take[labels[take] == -1])
            if fresh.size == 0:
                break
            labels[fresh] = comp
            frontier = fresh
        comp += 1
    return comp, labels


class TestVectorizedLabelling:
    @pytest.mark.parametrize("seed", range(8))
    def test_matches_frontier_bfs(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(20, 300))
        m = int(rng.integers(0, 2 * n))
        edges = rng.integers(0, n, size=(m, 2))
        edges = edges[edges[:, 0] != edges[:, 1]]
        W = from_edge_list(edges, n_nodes=n)
        nc, labels = connected_components(W)
        ref_nc, ref_labels = _frontier_components(W)
        assert nc == ref_nc
        assert np.array_equal(labels, ref_labels)

    def test_shuffled_path_is_one_component(self):
        """A long path in random vertex order needs several hooking
        rounds before every pointer reaches the smallest vertex."""
        perm = np.random.default_rng(0).permutation(2000)
        W = from_edge_list(np.column_stack([perm[:-1], perm[1:]]), n_nodes=2000)
        nc, labels = connected_components(W)
        assert nc == 1 and not labels.any()

    def test_accepts_coo_and_csr(self):
        W = from_edge_list(np.array([[3, 4], [0, 2]]), n_nodes=6)
        a = connected_components(W)
        b = connected_components(W.to_csr())
        assert a[0] == b[0] == 4
        assert np.array_equal(a[1], b[1])
        assert a[1].tolist() == [0, 1, 0, 2, 2, 3]


class TestRemoveIsolated:
    def test_noop_when_all_connected(self):
        W = from_edge_list(np.array([[0, 1], [1, 2]]), n_nodes=3)
        sub, kept = remove_isolated(W)
        assert kept.tolist() == [0, 1, 2]
        assert np.array_equal(sub.to_dense(), W.to_dense())

    def test_drops_and_remaps(self):
        W = from_edge_list(np.array([[0, 2], [2, 4]]), n_nodes=5)
        sub, kept = remove_isolated(W)
        assert kept.tolist() == [0, 2, 4]
        assert sub.shape == (3, 3)
        d = sub.to_dense()
        assert d[0, 1] == 1.0 and d[1, 2] == 1.0

    def test_all_isolated(self):
        W = from_edge_list(np.empty((0, 2), dtype=np.int64), n_nodes=3)
        sub, kept = remove_isolated(W)
        assert kept.size == 0
        assert sub.shape == (0, 0)

    def test_weights_preserved(self):
        W = from_edge_list(
            np.array([[1, 3]]), weights=np.array([2.5]), n_nodes=5
        )
        sub, kept = remove_isolated(W)
        assert sub.to_dense()[0, 1] == 2.5
