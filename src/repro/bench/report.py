"""Fixed-width reporting for the benchmark harness."""

from __future__ import annotations

from repro.bench.runner import ComparisonResult


def speedup(baseline: float, ours: float) -> float:
    """Baseline-over-ours ratio; inf-safe."""
    if ours <= 0:
        return float("inf")
    return baseline / ours


def format_comparison(r: ComparisonResult) -> str:
    """Render one workload's three-column stage table (the Table III-VI
    layout), on the measured scaled workload."""
    lines = [
        f"dataset {r.dataset!r} @ scale {r.scale} — "
        f"n={r.n} edges={r.nnz_directed} k={r.k}",
        f"{'stage':<14}{'CUDA(sim)/s':>14}{'Matlab/s':>12}{'Python/s':>12}"
        f"{'vsM':>8}{'vsP':>8}",
        "-" * 68,
    ]
    for stage, cols in r.stages.items():
        lines.append(
            f"{stage:<14}{cols['cuda']:>14.5f}{cols['matlab']:>12.5f}"
            f"{cols['python']:>12.5f}"
            f"{speedup(cols['matlab'], cols['cuda']):>7.1f}x"
            f"{speedup(cols['python'], cols['cuda']):>7.1f}x"
        )
    if r.quality:
        q = ", ".join(f"{k}={v:.3f}" for k, v in r.quality.items())
        lines.append(f"ARI vs ground truth: {q}")
    lines.append(
        f"CUDA comm {r.comm:.5f}s vs comp {r.comp:.5f}s "
        f"({100 * r.comm / max(r.comm + r.comp, 1e-30):.1f}% on PCIe)"
    )
    return "\n".join(lines)


def format_paper_check(r: ComparisonResult) -> str:
    """Paper-scale projection next to the published numbers, with the
    shape verdict (same winner? factor within the same order?)."""
    if not r.projection or not r.paper:
        return "(no projection/paper data)"
    lines = [
        f"paper-scale projection for {r.dataset!r} "
        f"(n={r.n} scaled run drove the iteration counts)",
        f"{r.counters.get('n_restarts')} restarts (from the "
        f"{r.counters.get('restarts_source', 'scaled fit')}), Lloyd "
        f"iterations cuda/matlab/python {r.counters.get('cuda_kmeans_iters')}/"
        f"{r.counters.get('matlab_kmeans_iters')}/"
        f"{r.counters.get('python_kmeans_iters')} (from the scaled fit)",
        f"{'stage':<14}{'column':<10}{'paper/s':>12}{'projected/s':>14}{'ratio':>8}",
        "-" * 58,
    ]
    for stage, pub in r.paper.items():
        proj = r.projection.get(stage, {})
        for col in ("cuda", "matlab", "python"):
            if col in pub and col in proj:
                ratio = proj[col] / pub[col] if pub[col] > 0 else float("inf")
                lines.append(
                    f"{stage:<14}{col:<10}{pub[col]:>12.4f}"
                    f"{proj[col]:>14.4f}{ratio:>7.2f}x"
                )
    # shape verdict: does the projected winner match the published winner?
    verdicts = []
    for stage, pub in r.paper.items():
        proj = r.projection.get(stage, {})
        cols = [c for c in ("cuda", "matlab", "python") if c in pub and c in proj]
        if len(cols) >= 2:
            pub_win = min(cols, key=lambda c: pub[c])
            proj_win = min(cols, key=lambda c: proj[c])
            verdicts.append(
                f"{stage}: winner {'MATCHES' if pub_win == proj_win else 'DIFFERS'}"
                f" (paper={pub_win}, projected={proj_win})"
            )
    lines.extend(verdicts)
    return "\n".join(lines)
