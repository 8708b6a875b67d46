"""Extension — mixed-precision eigensolver ablation with tolerance bands.

The mixed-precision axis trades eigensolver *bits* for *bytes*: fp32/fp16
operator and iteration-vector storage shrinks every SpMV/SpMM's modeled
device-memory traffic (values stream at the storage width while the
accumulation stays fp64), and an fp64 iterative-refinement pass recovers
the accuracy the quantized iteration lost.  This bench sweeps the
``precision x embedding`` grid over the four Table II workloads at bench
scale and records, per cell:

* ``spmv_bytes`` — modeled SpMV/SpMM device-memory traffic (the roofline
  byte expressions, summed) and its reduction vs the fp64 baseline;
* ``ari`` / ``ari_vs_exact`` — quality against ground truth and against
  the exact fp64 Lanczos labels;
* ``refine_residual`` / ``refine_steps`` — the refinement pass evidence.

The tolerance bands live *here*, next to the measurements they gate, and
are copied into ``BENCH_regression.json`` so ``check_regression.py`` can
enforce them in CI:

* the fp64 Lanczos cell must be **bit-identical** to a default fit — the
  precision axis is invisible at full width;
* reduced Lanczos cells gate on ``ari_vs_exact`` >= the per-dataset band
  and ``refine_residual`` <= the precision's tolerance floor;
* the fp32 cell must cut modeled byte traffic by >=
  ``MIN_FP32_BYTE_REDUCTION`` on every dataset whose fp64 cell moves SpMV
  bytes;
* power-embedding cells are recorded as evidence (the embedding is
  approximate by design — Boutsidis et al. bound its k-means cost, not
  its subspace angle) but only gated on byte-traffic creep.

The bands are set *honestly* from measured behavior: fp16 keeps fb and
syn200 at full agreement and degrades dti mildly.  The dblp bench graph
has 13 components for k = 10, so every Lanczos cell returns the same
analytic component block: no SpMV runs, nothing is refined, and the
byte reduction is undefined (recorded as null).  The fp16 "cliff" the
dblp band was set for (ari_vs_exact ~0.14) came from the solver picking
an arbitrary basis of the repeated eigenvalue 1, not from fp16 itself.
"""

import numpy as np
import pytest

from repro.core.pipeline import SpectralClustering
from repro.datasets.registry import load_dataset
from repro.metrics.external import adjusted_rand_index
from repro.precision import TOL_FLOORS

from conftest import BENCH_SCALES

#: (precision, embedding) cells swept per dataset; the fp64 Lanczos cell
#: is the exact baseline the others are measured against
PRECISION_CELLS = (
    ("fp64", "lanczos"),
    ("fp32", "lanczos"),
    ("fp16", "lanczos"),
    ("fp32", "power"),
)

#: reduced-precision Lanczos cells must agree with the exact fp64 labels
#: at least this well (ARI), per dataset — measured headroom below the
#: observed values, not aspirational targets
ARI_VS_EXACT_BANDS = {
    "dti": {"fp32": 0.95, "fp16": 0.75},
    "fb": {"fp32": 0.95, "fp16": 0.95},
    "syn200": {"fp32": 0.95, "fp16": 0.95},
    "dblp": {"fp32": 0.90, "fp16": 0.10},
}

#: the acceptance bar: fp32 storage must cut modeled SpMV byte traffic by
#: at least this factor on every bench dataset whose fp64 solve moves any
MIN_FP32_BYTE_REDUCTION = 1.5


def _cell_key(precision: str, embedding: str) -> str:
    return f"{precision}_{embedding}"


def _fit(ds, **kw):
    sc = SpectralClustering(
        n_clusters=ds.n_clusters, eig_tol=1e-8, seed=0, **kw
    )
    if ds.points is not None:
        return sc.fit(X=ds.points, edges=ds.edges)
    return sc.fit(graph=ds.graph)


def precision_ablation_summary() -> dict:
    """Machine-readable precision grid (consumed by BENCH_regression.json).

    Per dataset: one entry per (precision, embedding) cell with the byte
    traffic, quality, and refinement evidence, plus the tolerance bands
    the regression gate enforces.  ``fp64_bit_identical`` is the global
    exact-path flag: every dataset's fp64 Lanczos cell reproduced the
    default fit bit-for-bit.
    """
    out: dict = {
        "cells": [_cell_key(p, e) for p, e in PRECISION_CELLS],
        "min_fp32_byte_reduction": MIN_FP32_BYTE_REDUCTION,
        "residual_floors": {
            p: TOL_FLOORS[p] for p in ("fp32", "fp16")
        },
        "datasets": {},
    }
    bit_identical = True
    for name in sorted(BENCH_SCALES):
        ds = load_dataset(name, scale=BENCH_SCALES[name], seed=0)
        default = _fit(ds)  # no precision axis: the pre-axis behavior
        cells: dict = {}
        exact_labels = None
        b64 = None
        for precision, embedding in PRECISION_CELLS:
            res = _fit(ds, precision=precision, embedding=embedding)
            stats = res.eig_stats
            if (precision, embedding) == ("fp64", "lanczos"):
                exact_labels = res.labels
                b64 = stats["spmv_bytes"]
                bit_identical = bit_identical and (
                    np.array_equal(res.labels, default.labels)
                    and res.eigenvalues.tobytes()
                    == default.eigenvalues.tobytes()
                    and res.embedding.tobytes()
                    == default.embedding.tobytes()
                )
            cells[_cell_key(precision, embedding)] = {
                "spmv_bytes": stats["spmv_bytes"],
                "spmv_kernel_s": stats["spmv_kernel_s"],
                "communication_s": res.profile.communication,
                # undefined when the fp64 solve moved no SpMV bytes (the
                # graph's components answered it analytically)
                "byte_reduction_vs_fp64": (
                    b64 / stats["spmv_bytes"] if b64 else None
                ),
                "ari": (
                    adjusted_rand_index(res.labels, ds.labels)
                    if ds.labels is not None
                    else None
                ),
                "ari_vs_exact": adjusted_rand_index(
                    res.labels, exact_labels
                ),
                "refine_residual": stats["refine_residual"],
                "refine_steps": stats["refine_steps"],
                "gated": embedding == "lanczos",
            }
        out["datasets"][name] = {
            "scale": BENCH_SCALES[name],
            "k": ds.n_clusters,
            "n": int(default.embedding.shape[0]),
            "bands": dict(ARI_VS_EXACT_BANDS[name]),
            "cells": cells,
        }
    out["fp64_bit_identical"] = bit_identical
    return out


@pytest.fixture(scope="module")
def summary():
    return precision_ablation_summary()


def test_precision_ablation_report(summary, write_table):
    lines = [
        "Extension: mixed-precision eigensolver ablation "
        "(storage width vs modeled SpMV bytes, fp64 accumulate + refine)",
        f"{'dataset':<9}{'cell':<14}{'spmv bytes':>13}{'reduction':>10}"
        f"{'ari':>7}{'vs exact':>9}{'refine res':>12}",
        "-" * 74,
    ]
    for name, wl in summary["datasets"].items():
        for cell, c in wl["cells"].items():
            rres = (
                f"{c['refine_residual']:.2e}"
                if c["refine_residual"] is not None
                else "-"
            )
            ari = f"{c['ari']:.3f}" if c["ari"] is not None else "-"
            red = c["byte_reduction_vs_fp64"]
            red = f"{red:.2f}x" if red is not None else "-"
            lines.append(
                f"{name:<9}{cell:<14}{c['spmv_bytes']:>13,.0f}"
                f"{red:>10}"
                f"{ari:>7}{c['ari_vs_exact']:>9.3f}{rres:>12}"
            )
    lines.append(
        f"fp64 bit-identical: {summary['fp64_bit_identical']}  |  "
        f"fp32 byte-reduction bar: "
        f">={summary['min_fp32_byte_reduction']}x on every dataset that "
        f"moves SpMV bytes"
    )
    write_table("precision_ablation", "\n".join(lines))


def test_exact_cell_is_bit_identical(summary):
    assert summary["fp64_bit_identical"] is True


def test_reduced_cells_inside_tolerance_bands(summary):
    """The tolerance-banded accuracy contract, asserted at bench time so
    a violation fails even before the check_regression.py CI gate."""
    for name, wl in summary["datasets"].items():
        for precision in ("fp32", "fp16"):
            c = wl["cells"][_cell_key(precision, "lanczos")]
            band = wl["bands"][precision]
            assert c["ari_vs_exact"] >= band, (
                f"{name} {precision}: ari_vs_exact {c['ari_vs_exact']:.3f}"
                f" below band {band}"
            )
            if c["spmv_bytes"] == 0:
                # the analytic component block: exact, nothing to refine
                assert c["refine_residual"] is None
                assert c["refine_steps"] == 0
                continue
            assert c["refine_residual"] is not None
            assert c["refine_residual"] <= TOL_FLOORS[precision], (
                f"{name} {precision}: refined residual "
                f"{c['refine_residual']:.3g} above floor "
                f"{TOL_FLOORS[precision]}"
            )
            assert c["refine_steps"] >= 1


def test_fp32_byte_reduction_clears_bar(summary):
    """The acceptance criterion: fp32 cuts modeled SpMV byte traffic by
    >= 1.5x vs fp64 on every dataset whose fp64 solve moves SpMV bytes,
    while staying inside its band."""
    gated = 0
    for name, wl in summary["datasets"].items():
        red = wl["cells"]["fp32_lanczos"]["byte_reduction_vs_fp64"]
        if wl["cells"]["fp64_lanczos"]["spmv_bytes"] == 0:
            assert red is None, name
            continue
        gated += 1
        assert red >= summary["min_fp32_byte_reduction"], (
            f"{name}: fp32 byte reduction {red:.3f}x below "
            f"{summary['min_fp32_byte_reduction']}x bar"
        )
    assert gated >= 3


def test_byte_traffic_orders_with_storage_width(summary):
    for name, wl in summary["datasets"].items():
        b = {c: wl["cells"][c]["spmv_bytes"] for c in wl["cells"]}
        if b["fp64_lanczos"] == 0:
            # the analytic component block: no Lanczos cell moves a byte
            assert b["fp32_lanczos"] == b["fp16_lanczos"] == 0, name
            continue
        assert b["fp64_lanczos"] > b["fp32_lanczos"] > b["fp16_lanczos"] > 0
