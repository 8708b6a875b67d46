"""The fit configuration: one declaration of every fit parameter.

:class:`FitConfig` is the single parameterization of the Figure 2
workflow (Algorithms 1-5).  The estimator validates and reads it, a
served :class:`~repro.serve.request.ClusterRequest` *is* one, a fitted
model keeps the one it was fitted under, and the disk store writes its
:meth:`~FitConfig.to_dict`.  Runtime objects (device, fault plan,
resilience policy) are not fit parameters and stay off it.

Which field enters which cache key is declared once, below, and the
operator, embedding and model keys derive from it.  Each key covers
every parameter that shaped its artifact, so a cache hit is bit-identical
to a cold fit; placements are bit-identical by the fp64 contract and
never keyed, so one cached result serves them all.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

from repro.compressive.filters import DEFAULT_FILTER_ORDER, default_n_signals
from repro.compressive.lift import LIFT_MODES
from repro.core.workflow import EMBEDDING_MODES
from repro.cusparse.partition import PARTITION_MODES
from repro.errors import ClusteringError
from repro.precision import PRECISIONS

#: embedding algorithms the pipeline accepts: the eigensolver-backed
#: modes plus the compressive tier (which has its own device driver)
PIPELINE_EMBEDDINGS = (*EMBEDDING_MODES, "compressive")

#: fields of the operator key (after the workload fingerprint), in key
#: order: everything that shapes the device operator build (stages 1-2)
OPERATOR_FIELDS = ("operator", "objective", "handle_isolated")
#: fields the embedding key appends to the operator key: every further
#: parameter that shapes stage 3.  ``seed`` seeds the Lanczos start
#: vector; ``precision`` and ``embedding`` select tolerance-band paths
#: that must never shadow the exact one; ``filter_order``/``n_signals``
#: shape the compressive sketch and key as None on the other embeddings
EMBEDDING_FIELDS = (
    "n_clusters", "m", "eig_tol", "eig_maxiter", "seed", "normalize_rows",
    "precision", "embedding", "filter_order", "n_signals",
)
#: fields the model key appends to the embedding key: the stage-4 knobs
#: that shape a fitted model's centroids (``seed`` already rides in the
#: embedding key and seeds k-means too)
STAGE4_FIELDS = ("kmeans_init", "kmeans_max_iter")
#: placements: bit-identical under the fp64 contract, so never keyed —
#: one cached result serves every placement
PLACEMENT_FIELDS = (
    "eig_residency", "eig_spmv_format", "eig_devices", "fit_devices",
    "partition_mode", "kmeans_update", "kmeans_fused",
)
#: keyed elsewhere or not at all: ``similarity``/``sigma`` shape the
#: point-input graph and enter its content fingerprint; ``sample_frac``/
#: ``lift`` act after the cached embedding on the compressive tier, which
#: fits no model
UNKEYED_FIELDS = ("similarity", "sigma", "sample_frac", "lift")

#: canonical key form of the keyed fields whose callers may pass a
#: looser type (an int tolerance, a numpy int k)
_KEY_CASTS = {
    "n_clusters": int, "eig_tol": float, "normalize_rows": bool,
    "precision": str, "embedding": str,
    "kmeans_init": str, "kmeans_max_iter": int,
}


@dataclass(frozen=True, kw_only=True)
class FitConfig:
    """Every parameter of one spectral clustering fit.

    Fields
    ------
    n_clusters:
        Number of clusters k.
    similarity:
        Measure for the point-input path: 'crosscorr' (paper's DTI
        choice), 'cosine' or 'expdecay'.
    sigma:
        Bandwidth for 'expdecay'.
    operator:
        'sym' (default) iterates with the symmetric ``D^{-1/2}WD^{-1/2}``
        and maps eigenvectors back through ``D^{-1/2}`` — the numerically
        sound realization of the paper's ``D⁻¹W`` largest-eigenvector
        formulation (identical spectrum, and exactly the generalized
        eigenvectors of ``Lx = λDx``).  'rw' feeds ``D⁻¹W`` to the
        symmetric Lanczos machinery verbatim, as the paper describes;
        offered for ablation.
    objective:
        'ncut' (default): the paper's normalized-cut relaxation via
        ``operator``.  'ratiocut': the Eq. 3 relaxation — smallest
        eigenvectors of the *unnormalized* ``L = D - W``, computed on the
        device through a Gershgorin shift (``operator`` is then ignored);
        ``result.eigenvalues`` holds λ(L) ascending in that mode.
    m:
        Lanczos basis size (default ``min(n, max(2k+1, 20))``, the paper's
        ``m = 2k`` rule).
    eig_tol:
        Eigensolver relative tolerance (0 = machine eps).
    eig_maxiter:
        Restart cap.
    eig_residency:
        Iteration-vector placement for Algorithm 3: 'device' (default)
        keeps the Lanczos vectors GPU-resident so only ARPACK's small
        tridiagonal state crosses PCIe at restart boundaries; 'host' is
        the paper's original ship-the-vector-twice-per-step loop.  Both
        produce bit-identical eigenpairs.
    eig_spmv_format:
        SpMV operand format for the eigensolver: 'auto' (default) lets
        the row-length-statistics autotuner choose between 'csr', 'ell'
        and 'hyb'; or force one.  Format only changes charged time.
    eig_devices:
        Shard the eigensolver across this many simulated GPUs (default
        1).  The normalized operator splits into row blocks with
        local/halo column separation; each SpMV overlaps the local
        kernel with device-to-device halo exchange on copy streams
        (:mod:`repro.cusparse.partition`).  Spectra, embeddings and
        labels are bit-identical to the single-device run — only the
        charged makespan changes.  Requires ``eig_residency='device'``
        and a CSR-compatible ``eig_spmv_format`` ('auto' or 'csr').
    fit_devices:
        Compose the *whole* fit — graph upload, Laplacian, sharded
        eigensolve, and multi-device k-means — as one multi-device plan
        spanning this many simulated GPUs (default 1).  Rows are
        partitioned once (``partition_mode``) right after the operator
        stage; the eigensolver reuses that plan and keeps its Ritz block
        sharded (the result D2H is elided), and the k-means stage runs
        on the still-resident shards — no re-gather/re-scatter between
        stages.  Labels, spectra and embeddings stay bit-identical to
        ``fit_devices=1`` at every device count.  Requires
        ``eig_residency='device'``, an exact eigensolver embedding
        ('lanczos' or 'power'), ``precision='fp64'``, a CSR-compatible
        ``eig_spmv_format``, and ``eig_devices`` either 1 or equal to
        ``fit_devices``.  Composition evidence (partition mode, halo
        bytes, k-means transfer plan) lands on
        ``result.eig_stats['composed']``.
    partition_mode:
        Row partitioner for every multi-device path (``eig_devices`` or
        ``fit_devices`` > 1): 'nnz' (default) balances nonzeros per
        device with contiguous row blocks; 'rows' is the uniform
        row-count split.  Both are bit-identical; only charged
        transfer/kernel time changes.
    precision:
        Storage precision for the eigensolver's operator values and
        iteration vectors: 'fp64' (default — the exact path, bit-identical
        to builds without this knob), 'fp32' or 'fp16'.  Reduced solves
        accumulate in fp64 and finish with fp64 iterative-refinement
        steps against the full-precision operator
        (:mod:`repro.precision`); accuracy is gated by the tolerance
        bands in the regression harness rather than bit-identity.
    embedding:
        Spectral embedding algorithm: 'lanczos' (default) is the full
        IRLM reverse-communication loop; 'power' is the block
        power-iteration embedding of Boutsidis et al. — pure repeated
        SpMM, no restarts — whose embedding is approximate by design but
        k-means-equivalent on clusterable graphs.  'compressive' is the
        Chebyshev graph-filtering tier of Tremblay et al.
        (:mod:`repro.compressive`): no eigenvectors at all — an order-p
        polynomial filter applied to O(log k) seeded random signals
        yields the feature sketch, k-means runs on a coherence-sampled
        vertex subset, and labels lift back by regularized
        interpolation.  Requires ``objective='ncut'`` (the filter's
        pass band targets the normalized operators' top-k spectrum).
    filter_order:
        Chebyshev polynomial degree for ``embedding='compressive'``
        (default :data:`repro.compressive.DEFAULT_FILTER_ORDER`).  One
        SpMM per degree; higher = sharper band edge = better ARI.
    n_signals:
        Random-signal count d for ``embedding='compressive'``
        (default ``max(8, ceil(4·log2(k+1)))``).
    sample_frac:
        Fraction of vertices the compressive k-means clusters (default:
        the ``O(k log k / n)`` heuristic, saturating at 1.0 on small
        graphs, where downsampling and lifting are skipped entirely).
    lift:
        Label-lifting mode for ``embedding='compressive'``: 'interp'
        (default) is the regularized sketch-space interpolation;
        'nearest' assigns by nearest sampled centroid (cheap mode).
    kmeans_init:
        'k-means++' (paper's choice) or 'random'.
    kmeans_max_iter:
        Lloyd iteration cap.
    kmeans_update:
        Centroid update for Algorithm 4: 'spmm' (default) builds the
        one-hot membership CSR on-device and computes centroid sums with
        one ``cusparseDcsrmm``; 'sort' is the paper's §IV.C
        sort + segmented-reduction formulation.  Results are bit-identical;
        only charged time differs.
    kmeans_fused:
        Fuse the per-tile distance init, gemm, argmin and label-change
        count into one kernel (default True), with inertia computed by a
        charged device kernel.  False keeps the discrete kernel sequence
        for ablation; bit-identical results either way.
    normalize_rows:
        Scale embedding rows to unit norm before k-means (the
        Ng-Jordan-Weiss variant; the paper does not, so default False).
    handle_isolated:
        'remove' (default) drops zero-degree nodes and labels them ``-1``;
        'error' raises (the paper's stated assumption is ``D_ii > 0``).
    seed:
        Seeds the eigensolver start vector and the k-means initialization.
    """

    n_clusters: int
    similarity: str = "crosscorr"
    sigma: float = 1.0
    operator: str = "sym"
    objective: str = "ncut"
    m: int | None = None
    eig_tol: float = 0.0
    eig_maxiter: int | None = None
    eig_residency: str = "device"
    eig_spmv_format: str = "auto"
    eig_devices: int = 1
    fit_devices: int = 1
    partition_mode: str = "nnz"
    precision: str = "fp64"
    embedding: str = "lanczos"
    filter_order: int | None = None
    n_signals: int | None = None
    sample_frac: float | None = None
    lift: str = "interp"
    kmeans_init: str = "k-means++"
    kmeans_max_iter: int = 300
    kmeans_update: str = "spmm"
    kmeans_fused: bool = True
    normalize_rows: bool = False
    handle_isolated: str = "remove"
    seed: int | None = 0

    # ------------------------------------------------------------------
    def check(self) -> None:
        """Reject an invalid configuration with a :class:`ClusteringError`."""
        if self.n_clusters < 2:
            raise ClusteringError(f"n_clusters must be >= 2, got {self.n_clusters}")
        if self.operator not in ("sym", "rw"):
            raise ClusteringError(
                f"operator must be 'sym' or 'rw', got {self.operator!r}"
            )
        if self.objective not in ("ncut", "ratiocut"):
            raise ClusteringError(
                f"objective must be 'ncut' or 'ratiocut', got {self.objective!r}"
            )
        if self.handle_isolated not in ("remove", "error"):
            raise ClusteringError(
                "handle_isolated must be 'remove' or 'error', "
                f"got {self.handle_isolated!r}"
            )
        if self.eig_residency not in ("device", "host"):
            raise ClusteringError(
                f"eig_residency must be 'device' or 'host', got {self.eig_residency!r}"
            )
        if self.eig_spmv_format not in ("auto", "csr", "ell", "hyb"):
            raise ClusteringError(
                f"eig_spmv_format must be 'auto', 'csr', 'ell' or 'hyb', "
                f"got {self.eig_spmv_format!r}"
            )
        if not isinstance(self.eig_devices, int) or self.eig_devices < 1:
            raise ClusteringError(
                f"eig_devices must be an int >= 1, got {self.eig_devices!r}"
            )
        if self.eig_devices > 1 and self.eig_residency != "device":
            raise ClusteringError(
                "eig_devices > 1 requires eig_residency='device'"
            )
        if self.eig_devices > 1 and self.eig_spmv_format not in ("auto", "csr"):
            raise ClusteringError(
                "eig_devices > 1 requires eig_spmv_format 'auto' or 'csr' "
                "(row blocks are stored as split local/halo CSR)"
            )
        if not isinstance(self.fit_devices, int) or self.fit_devices < 1:
            raise ClusteringError(
                f"fit_devices must be an int >= 1, got {self.fit_devices!r}"
            )
        if self.partition_mode not in PARTITION_MODES:
            raise ClusteringError(
                f"partition_mode must be one of {PARTITION_MODES}, "
                f"got {self.partition_mode!r}"
            )
        if self.fit_devices > 1:
            if self.eig_residency != "device":
                raise ClusteringError(
                    "fit_devices > 1 requires eig_residency='device'"
                )
            if self.embedding not in EMBEDDING_MODES:
                raise ClusteringError(
                    "fit_devices > 1 requires an eigensolver embedding "
                    f"({EMBEDDING_MODES}); the compressive tier shards via "
                    "eig_devices instead"
                )
            if self.precision != "fp64":
                raise ClusteringError(
                    "fit_devices > 1 requires precision='fp64' (the "
                    "composed plan partitions the fp64 operator once)"
                )
            if self.eig_spmv_format not in ("auto", "csr"):
                raise ClusteringError(
                    "fit_devices > 1 requires eig_spmv_format 'auto' or "
                    "'csr' (row blocks are stored as split local/halo CSR)"
                )
            if self.eig_devices not in (1, self.fit_devices):
                raise ClusteringError(
                    f"eig_devices ({self.eig_devices}) must be 1 or equal to "
                    f"fit_devices ({self.fit_devices}) when composing the fit"
                )
            if self.kmeans_update != "spmm" or not self.kmeans_fused:
                raise ClusteringError(
                    "fit_devices > 1 requires the default k-means path "
                    "(kmeans_update='spmm', kmeans_fused=True)"
                )
        if self.precision not in PRECISIONS:
            raise ClusteringError(
                f"precision must be one of {PRECISIONS}, got {self.precision!r}"
            )
        if self.embedding not in PIPELINE_EMBEDDINGS:
            raise ClusteringError(
                f"embedding must be one of {PIPELINE_EMBEDDINGS}, "
                f"got {self.embedding!r}"
            )
        if self.embedding == "compressive" and self.objective != "ncut":
            raise ClusteringError(
                "embedding='compressive' requires objective='ncut' (the "
                "Chebyshev filter's pass band targets the normalized "
                "operators' top-k spectrum)"
            )
        if self.filter_order is not None and (
            not isinstance(self.filter_order, int) or self.filter_order < 1
        ):
            raise ClusteringError(
                f"filter_order must be an int >= 1, got {self.filter_order!r}"
            )
        if self.n_signals is not None and (
            not isinstance(self.n_signals, int) or self.n_signals < 1
        ):
            raise ClusteringError(
                f"n_signals must be an int >= 1, got {self.n_signals!r}"
            )
        if self.sample_frac is not None and not (0.0 < float(self.sample_frac) <= 1.0):
            raise ClusteringError(
                f"sample_frac must be in (0, 1], got {self.sample_frac!r}"
            )
        if self.lift not in LIFT_MODES:
            raise ClusteringError(
                f"lift must be one of {LIFT_MODES}, got {self.lift!r}"
            )
        if self.kmeans_update not in ("spmm", "sort"):
            raise ClusteringError(
                f"kmeans_update must be 'spmm' or 'sort', got {self.kmeans_update!r}"
            )

    # ------------------------------------------------------------------
    # cache keys
    # ------------------------------------------------------------------
    def _canonical(self, names: tuple) -> tuple:
        """Key values of ``names`` in canonical form.

        The compressive knobs canonicalize so that an explicit engine
        default shares a slot with an unset one, and key as None on the
        eigenvector embeddings (where they are inert) — compressive keys
        can never collide with exact or power keys for one workload.
        """
        out = []
        for name in names:
            value = getattr(self, name)
            if name in ("filter_order", "n_signals"):
                if self.embedding != "compressive":
                    value = None
                elif name == "filter_order":
                    value = int(value or DEFAULT_FILTER_ORDER)
                else:
                    value = int(value or default_n_signals(self.n_clusters))
            elif name in _KEY_CASTS:
                value = _KEY_CASTS[name](value)
            out.append(value)
        return tuple(out)

    def operator_key(self, fingerprint: str) -> tuple:
        """Batch-compatibility key: configs sharing it (on one workload)
        can share one graph upload + Laplacian build (stages 1-2)."""
        return (fingerprint, *self._canonical(OPERATOR_FIELDS))

    def embedding_key(self, fingerprint: str) -> tuple:
        """Embedding-cache key: every parameter that shapes stages 1-3."""
        return self.operator_key(fingerprint) + self._canonical(EMBEDDING_FIELDS)

    def model_key(self, fingerprint: str) -> tuple:
        """Fitted-model cache key: the embedding key plus the stage-4
        knobs that shape the centroids.  The ``'model'`` prefix keeps the
        key space disjoint from embeddings in a shared cache."""
        return (
            ("model",) + self.embedding_key(fingerprint)
            + self._canonical(STAGE4_FIELDS)
        )

    # ------------------------------------------------------------------
    # JSON form
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """Every fit field by name (JSON-serializable for JSON inputs)."""
        return {name: getattr(self, name) for name in FIT_FIELDS}

    @classmethod
    def from_dict(cls, obj) -> "FitConfig":
        """Decode :meth:`to_dict` output: every fit field, JSON-typed.

        Raises :class:`ClusteringError` for a non-object, a missing or
        unknown field, a wrongly typed value, or a configuration
        :meth:`check` rejects.
        """
        if not isinstance(obj, dict):
            raise ClusteringError(
                f"fit config must be an object, got {type(obj).__name__}"
            )
        unknown = sorted(set(obj) - set(FIT_FIELDS))
        missing = sorted(set(FIT_FIELDS) - set(obj))
        if unknown or missing:
            raise ClusteringError(
                f"fit config has unknown fields {unknown} and lacks {missing}"
            )
        for name, value in obj.items():
            problem = json_type_error(value, FIELD_KINDS[name])
            if problem:
                raise ClusteringError(f"fit config field {name!r} {problem}")
        config = cls(**obj)
        config.check()
        return config


#: the fit fields in declaration order
FIT_FIELDS = tuple(f.name for f in fields(FitConfig))


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


#: JSON type checks by kind: (predicate, what an error says was expected)
_JSON_KINDS = {
    "int": (_is_int, "an integer"),
    "number": (_is_number, "a number"),
    "str": (lambda v: isinstance(v, str), "a string"),
    "bool": (lambda v: isinstance(v, bool), "a boolean"),
    "object": (lambda v: isinstance(v, dict), "an object"),
}

_KIND_OF_TYPE = {"int": "int", "float": "number", "str": "str", "bool": "bool"}

#: JSON kind of every fit field, derived from its annotation; a trailing
#: ``?`` also admits null
FIELD_KINDS = {
    f.name: (
        _KIND_OF_TYPE[f.type.removesuffix(" | None")]
        + ("?" if f.type.endswith(" | None") else "")
    )
    for f in fields(FitConfig)
}


def json_type_error(value, kind: str) -> str | None:
    """Why ``value`` does not have JSON kind ``kind``, or None if it does."""
    if value is None and kind.endswith("?"):
        return None
    ok, expected = _JSON_KINDS[kind.rstrip("?")]
    return None if ok(value) else f"must be {expected}, got {value!r}"
