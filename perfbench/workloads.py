"""The three benchmark workloads: input generation, timed runs, checks.

Each workload is a class with the same three steps:

* ``__init__(seed, seconds)`` — set-up: generate every input through the
  program's seeded dataset generators (a fixed corpus, varied by the seed
  as each workload says) and build what the timed region needs.
  ``run.py`` times this as ``setup_s``.
* ``run(tracer)`` — the timed region.  With ``tracer=None`` it measures
  the end-to-end numbers; with a tracer it runs each operation untraced
  and then traced, checks that both give identical modeled results and
  keeps the spans for the per-layer numbers.
* ``check()`` — correctness checks, each failure charged to the
  operation it concerns.

The size of a run is a deterministic plan derived from ``--seconds``
(operations per second of run length, at the reference speed), never from
the clock, so a fixed seed always runs the same inputs and every modeled
number repeats exactly.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
import re
import time

import numpy as np

from repro.core.pipeline import SpectralClustering
from repro.cuda.device import Device
from repro.datasets import registry
from repro.metrics import adjusted_rand_index
from repro.serve import (
    ClusterRequest,
    ClusterService,
    PredictRequest,
    synthetic_predict_trace,
    verify_against_cold,
)

# ---------------------------------------------------------------------------
# constants fixed by the benchmark, never derived from the code under test
# ---------------------------------------------------------------------------

#: fit-dblp: the Table VI dblp stand-in at its regression scale
DBLP_SCALE = 0.02
#: fits per second of ``--seconds`` (about 0.85 host s per fit)
DBLP_FITS_PER_S = 1.2
#: every n-th fit's spectrum is checked against an exact reference
DBLP_EIG_CHECK_EVERY = 8
#: absolute eigenvalue tolerance against the reference spectrum (the
#: solver runs at eig_tol=1e-8 on a unit-norm operator)
DBLP_EIG_TOL = 1e-6
#: components up to this many nodes are solved densely in the reference
DBLP_DENSE_COMPONENT = 400
#: fewest copies of eigenvalue 1 a fit may return when more are due: the
#: fewest the solver resolved at the time the benchmark was written (4, on
#: data seed 0's 13 components, over solver seeds 1-10 of checked graphs
#: 0, 8, 16 and 24), so the deficit may not grow
DBLP_ONES_FLOOR = 4

#: fit-compressive: the sbm50k stand-in at a reduced scale (n = 2500)
COMPRESSIVE_SCALE = 0.05
#: fits per second of ``--seconds`` (about 3 host s per fit)
COMPRESSIVE_FITS_PER_S = 0.32
#: declared band of the compressive tier (docs/compressive.md, default
#: cell): ARI >= this share of the exact path's ARI on the same graphs
COMPRESSIVE_ARI_RATIO = 0.9

#: serve-mixed: the repository's serving trace generator
#: (repro.serve.traceio.synthetic_predict_trace) with its defaults -- 90%
#: predicts, fit specs syn200@0.1 and fb@0.3 x k in {2, 3}, a deadline of
#: arrival + 0.25 s on every 3rd predict, priorities cycling 0-2 -- and a
#: fixed trace seed, at SERVE_REQUESTS_PER_S requests per second of run
#: length.  Two changes, both drawn from --seed, are made to it (below).
SERVE_PREDICT_FRACTION = 0.9
SERVE_TRACE_SEED = 0
SERVE_REQUESTS_PER_S = 24.0
#: (1) each predict's new vertices are drawn uniformly from this range,
#: whose mean is the generator's constant 8: with one payload size every
#: predict costs the same modeled time, so the median latency is one fixed
#: service time, the same for every seed
SERVE_PREDICT_N_NEW = (1, 15)
#: (2) every fit of this dataset is a one-off: its spec with a solver
#: seed used once, so it misses the caches, while the other dataset's fits
#: repeat and hit them.  The cold fits then form one population, and the
#: latency tail lies among them; with cold fits of both datasets, the
#: median host time of a cold fit falls between the two, and its spread
#: over ten seeds was 36-38%.
SERVE_ONE_OFF_DATASET = "syn200"

#: offered rate (simulated requests/s) of the nominal replay
SERVE_NOMINAL_RPS = 500.0
#: replays of the nominal trace whose median host time gives
#: serve_wall_s_per_req
SERVE_NOMINAL_REPEATS = 3
#: serve_max_rps_sim: tail latency limit and the bisection bracket/steps
SERVE_TAIL_LIMIT_S = 0.02
SERVE_RPS_BRACKET = (1000.0, 16000.0)
SERVE_BISECT_STEPS = 6
#: the bisection replays this many leading requests of the trace
SERVE_BISECT_REQUESTS = 200
#: simulated seconds between the warm-up requests (one fit and one
#: predict per recurring spec, filling the caches) and the measured trace
SERVE_WARMUP_S = 0.2
#: a replay's backlog is growing when more than this share of its
#: measured requests are still in flight at the last arrival
SERVE_MAX_BACKLOG = 0.1

#: per-layer kernel families, matched against timeline kernel names
#: (storage-width letter D/S/H after the library prefix)
KERNEL_FAMILIES = (
    ("cusparse.csrmv", re.compile(r"cusparse[DSH](csr|ell|hyb)mv")),
    ("cusparse.spmm", re.compile(r"cusparse[DSH](csr|ell|hyb)mm")),
    ("cublas.gemv", re.compile(r"cublas[DSH]gemv")),
    ("cublas.gemm", re.compile(r"cublas[DSH]gemm")),
    ("thrust", re.compile(r"thrust::")),
)


#: per-layer metrics of the layers a workload does not exercise; each
#: workload lists the ones it reports as 0, and any other missing metric
#: is an error
SERVE_ONLY = (
    "serve.queue_wait_sim_s.p50", "serve.queue_wait_sim_s.tail",
    "serve.batch_size.mean", "serve.cache.hit_rate", "serve.cache.evictions",
    "serve.cache_hit_share", "serve.cold_fits", "serve.model_hits",
    "serve.preemptions", "serve.occupancy", "serve_deadline_miss_frac",
    "model.predict.sim_s",
)
COMPRESSIVE_ONLY = (
    "compressive.embed.sim_s", "compressive.filter_order", "compressive.n_signals",
    "compressive.sim_ratio_vs_exact", "compressive.below_band_frac",
)
LANCZOS_ONLY = (
    "linalg.eigensolver.sim_s", "linalg.n_op", "linalg.n_restarts", "linalg.m",
)


def kernel_family(name: str) -> str | None:
    """Which per-layer kernel family a timeline kernel name belongs to."""
    for family, pattern in KERNEL_FAMILIES:
        if pattern.match(name):
            return family
    return None


def tail_rank(n: int) -> int:
    """1-based rank of the tail sample: the highest percentile with at
    least ten samples beyond it, never below the median."""
    return max(n // 2 + 1, n - 10)


def p50(values) -> float:
    return float(np.median(values)) if len(values) else 0.0


def tail(values) -> float:
    if not len(values):
        return 0.0
    return float(sorted(values)[tail_rank(len(values)) - 1])


def labels_digest(labels) -> str:
    return hashlib.sha256(np.ascontiguousarray(labels).tobytes()).hexdigest()


def _modeled_signature(res) -> tuple:
    """Everything modeled about one fit that must repeat exactly."""
    return (
        res.timings.total_simulated(),
        tuple(sorted(res.timings.simulated.items())),
        labels_digest(res.labels),
        res.eigenvalues.tobytes(),
        res.profile.kernel_launches,
    )


def _add(acc: dict, key: str, value: float) -> None:
    acc[key] = acc.get(key, 0.0) + float(value)


def profile_layers(acc: dict, profile) -> None:
    """Accumulate the modeled per-layer counters of one ProfileReport
    (a kernel family that never launched counts 0)."""
    for family, _ in KERNEL_FAMILIES:
        _add(acc, f"{family}.launches", 0)
        _add(acc, f"{family}.sim_s", 0.0)
    for name, slot in profile.kernels.items():
        fam = kernel_family(name)
        if fam is not None:
            _add(acc, f"{fam}.launches", slot["count"])
            _add(acc, f"{fam}.sim_s", slot["seconds"])
    tr = profile.transfers
    _add(acc, "cuda.h2d_bytes", tr.get("bytes_h2d", 0))
    _add(acc, "cuda.d2h_bytes", tr.get("bytes_d2h", 0))
    _add(acc, "cuda.transfers", tr.get("n_h2d", 0) + tr.get("n_d2h", 0))
    _add(acc, "cuda.transfers_elided", tr.get("transfers_elided", 0))
    _add(acc, "cuda.comm_sim_s", profile.communication)
    _add(acc, "cuda.alloc.hits", profile.allocator.get("hits", 0))
    _add(acc, "cuda.alloc.malloc_calls", profile.allocator.get("misses", 0))
    _add(acc, "cuda.kernel_launches", profile.kernel_launches)


def _finish(acc: dict, ops: int) -> dict:
    """Per-operation means of the accumulated counters, plus the
    allocator hit rate (a ratio of sums, not a mean)."""
    out = {k: v / ops for k, v in acc.items() if k != "cuda.alloc.hits"}
    hits = acc.get("cuda.alloc.hits", 0.0)
    total = hits + acc.get("cuda.alloc.malloc_calls", 0.0)
    out["cuda.alloc.hit_rate"] = hits / total if total else 0.0
    return out


# ---------------------------------------------------------------------------
# fit workloads
# ---------------------------------------------------------------------------

@dataclasses.dataclass
class FitRecord:
    """One timed fit: its host wall seconds and modeled outputs."""

    index: int
    wall_s: float
    sim_s: float
    elapsed_sim_s: float
    events: int
    ari: float
    signature: tuple
    result: object


class FitWorkload:
    """Independent graph-input NCut fits over a fixed corpus of graphs,
    each solved with its own solver seed; no input repeats in a run."""

    dataset = ""
    scale = 0.0
    fits_per_s = 1.0
    embedding = None  # None = the estimator's default configuration

    def __init__(self, seed: int, seconds: float, traced: bool = False) -> None:
        n = max(2, round(seconds * self.fits_per_s))
        if traced:
            # a traced run fits each input twice (untraced, then traced)
            n = max(2, n // 2)
        # a fixed corpus of graphs (data seeds 0..n-1), solved with
        # solver seeds drawn from --seed: a graph's modeled cost varies
        # 4x across data seeds, which would swamp the run-to-run spread
        self.seeds = [seed * 1000 + i for i in range(n)]
        self.inputs = [registry.load_dataset(self.dataset, self.scale, i) for i in range(n)]
        self.records: list[FitRecord] = []
        self.traced_walls: list[float] = []
        self.failed: set[int] = set()
        self.problems: list[str] = []

    def fit(self, i: int, **overrides):
        """Fit input ``i`` on a fresh device: (result, device, host s)."""
        dev = Device()
        kw = {"n_clusters": self.inputs[i].n_clusters, "seed": self.seeds[i],
              "device": dev}
        if self.embedding is not None:
            kw["embedding"] = self.embedding
        est = SpectralClustering(**{**kw, **overrides})
        t0 = time.perf_counter()
        res = est.fit(graph=self.inputs[i].graph)
        return res, dev, time.perf_counter() - t0

    def warm_up(self) -> None:
        """One untimed fit of a small graph, so lazy imports and first-call
        costs stay out of the timed region."""
        ds = registry.load_dataset("syn200", 0.03, 0)
        SpectralClustering(n_clusters=ds.n_clusters, seed=0,
                           embedding=self.embedding or "lanczos").fit(graph=ds.graph)

    def run(self, tracer=None) -> None:
        for i in range(len(self.inputs)):
            res, dev, wall = self.fit(i)
            self.records.append(FitRecord(
                index=i, wall_s=wall, sim_s=res.timings.total_simulated(),
                elapsed_sim_s=dev.elapsed, events=len(dev.timeline),
                ari=adjusted_rand_index(res.labels, self.inputs[i].labels),
                signature=_modeled_signature(res), result=res,
            ))
            if tracer is None:
                continue
            with tracer.active(f"fit{i}"):
                tres, _, twall = self.fit(i)
            self.traced_walls.append(twall)
            if _modeled_signature(tres) != self.records[-1].signature:
                self.fail(i, f"fit {i}: traced run changed modeled results")

    def fail(self, i: int, msg: str) -> None:
        self.failed.add(i)
        self.problems.append(msg)

    def check(self) -> None:
        raise NotImplementedError

    # -- metrics ---------------------------------------------------------
    @property
    def attempted(self) -> int:
        return len(self.records)

    def end_to_end(self) -> dict:
        sim = [r.sim_s for r in self.records]
        wall = [r.wall_s for r in self.records]
        # fits are issued closed-loop, one at a time on one device: a
        # fit's latency is its modeled time and the saturated rate is
        # fits per modeled second
        return {
            "fit_sim_s.p50": p50(sim),
            "fit_sim_s.tail": tail(sim),
            "fit_wall_s.p50": p50(wall),
            "fit_wall_s.tail": tail(wall),
            "serve_lat_sim_s.p50": p50(sim),
            "serve_lat_sim_s.tail": tail(sim),
            "serve_max_rps_sim": len(sim) / sum(sim),
            "serve_wall_s_per_req": sum(wall) / len(wall),
            "serve_deadline_met_frac": 1.0,
        }

    def notes(self) -> list[str]:
        return []

    def samples(self) -> dict:
        n = len(self.records)
        return {"fit_sim_s": n, "fit_wall_s": n, "serve_lat_sim_s": n}

    def per_layer(self) -> dict:
        acc: dict = {}
        ops = len(self.records)
        for rec in self.records:
            res = rec.result
            stages = res.timings.simulated
            stats = res.eig_stats
            if stats.get("embedding") == "compressive":
                _add(acc, "compressive.embed.sim_s", stages.get("eigensolver", 0.0))
                _add(acc, "compressive.filter_order", stats.get("filter_order", 0))
                _add(acc, "compressive.n_signals", stats.get("n_signals", 0))
            else:
                _add(acc, "linalg.eigensolver.sim_s", stages.get("eigensolver", 0.0))
            _add(acc, "graph.laplacian.sim_s", stages.get("laplacian", 0.0))
            _add(acc, "kmeans.sim_s", stages.get("kmeans", 0.0))
            profile_layers(acc, res.profile)
            _add(acc, "cuda.overlap_sim_s",
                 sum(res.profile.by_category.values()) - rec.sim_s)
            _add(acc, "recon.stage_sum_minus_clock_s", rec.sim_s - rec.elapsed_sim_s)
            _add(acc, "hw.events", rec.events)
        out = _finish(acc, ops)
        out["hw.host_s_per_event"] = (
            sum(r.wall_s for r in self.records) / sum(r.events for r in self.records)
        )
        out["ari.p50"] = p50([r.ari for r in self.records])
        untraced = sum(r.wall_s for r in self.records)
        out["trace.overhead_frac"] = sum(self.traced_walls) / untraced - 1.0
        return out


class FitDblp(FitWorkload):
    dataset = "dblp"
    scale = DBLP_SCALE
    fits_per_s = DBLP_FITS_PER_S
    not_measured = SERVE_ONLY + COMPRESSIVE_ONLY

    def check(self) -> None:
        self.missed_ones: list[int] = []
        for rec in self.records:
            if rec.index % DBLP_EIG_CHECK_EVERY:
                continue
            problem, missed = _spectrum_check(self.inputs[rec.index].graph, rec.result)
            self.missed_ones.append(missed)
            if problem:
                self.fail(rec.index, f"fit {rec.index}: {problem}")
        again, _, _ = self.fit(0)
        if labels_digest(again.labels) != labels_digest(self.records[0].result.labels):
            self.fail(0, "fit 0: two fits of one seed gave different labels")

    def per_layer(self) -> dict:
        out = super().per_layer()
        out["linalg.eig_ones_missed"] = sum(self.missed_ones) / len(self.missed_ones)
        return out


def _component_spectra(graph, k: int) -> tuple[np.ndarray, int]:
    """The leading eigenvalues of D^-1/2 W D^-1/2, built here in scipy
    over the non-isolated nodes, and its number of connected components.

    The spectrum of a disconnected graph is the union of its components'
    spectra, so each component is solved on its own: its top k+1
    eigenvalues (the simple eigenvalue 1, then the k largest others) are
    exact (dense) on a small component and eigsh's on a large one.  A
    solver run on the whole operator cannot stand in for this: eigenvalue
    1 repeats once per component, and a single-vector Krylov solver
    (eigsh included) returns fewer copies of it than are due.
    """
    import scipy.sparse as sp
    from scipy.sparse.csgraph import connected_components
    from scipy.sparse.linalg import eigsh

    W = sp.coo_matrix((graph.data, (graph.row, graph.col)), shape=graph.shape).tocsr()
    deg = np.asarray(W.sum(axis=1)).ravel()
    kept = np.flatnonzero(deg > 0)
    W = W[kept][:, kept]
    inv = 1.0 / np.sqrt(deg[kept])
    A = (sp.diags(inv) @ W @ sp.diags(inv)).tocsr()
    n_comp, comp = connected_components(W, directed=False)
    spectra = []
    for c in range(n_comp):
        idx = np.flatnonzero(comp == c)
        B = A[idx][:, idx]
        if idx.size <= DBLP_DENSE_COMPONENT:
            ev = np.linalg.eigvalsh(B.toarray())
        else:
            ev = eigsh(B, k=k + 1, which="LA", tol=1e-12, v0=np.ones(idx.size))[0]
        spectra.append(np.sort(ev)[::-1][: k + 1])
    return np.sort(np.concatenate(spectra))[::-1], n_comp


def _spectrum_check(graph, res) -> tuple[str | None, int]:
    """Check a fit's eigenvalues against the exact per-component spectrum.

    Returns (a problem or None, copies of eigenvalue 1 missed).  The copies
    of 1 and the other eigenvalues are checked apart:

    * the values other than 1 must equal the operator's leading values
      other than 1, one for one, within DBLP_EIG_TOL -- a skipped or
      unconverged eigenvalue fails;
    * the fit may return no more copies of 1 than there are components,
      and no fewer than DBLP_ONES_FLOOR (or all that are due, if fewer).
      The single-vector IRLM misses copies when the graph has more
      components than it resolves; the floor keeps that count from
      growing, and ``linalg.eig_ones_missed`` reports it.
    """
    theta = np.sort(res.eigenvalues)[::-1]
    k = theta.size
    ref, n_comp = _component_spectra(graph, k)
    is_one = np.abs(theta - 1.0) <= DBLP_EIG_TOL
    ones, due = int(is_one.sum()), min(n_comp, k)
    rest = theta[~is_one]
    ref_rest = ref[np.abs(ref - 1.0) > DBLP_EIG_TOL][: rest.size]
    problem = None
    if rest.size > ref_rest.size:
        problem = f"{rest.size} eigenvalues other than 1, the operator has {ref_rest.size}"
    elif rest.size and np.max(np.abs(rest - ref_rest)) > DBLP_EIG_TOL:
        err = float(np.max(np.abs(rest - ref_rest)))
        problem = (f"eigenvalues other than 1 are {err:.3g} from the operator's "
                   f"leading ones (tolerance {DBLP_EIG_TOL})")
    elif ones > n_comp:
        problem = f"{ones} copies of eigenvalue 1 on {n_comp} components"
    elif ones < min(due, DBLP_ONES_FLOOR):
        problem = (f"{ones} copies of eigenvalue 1, fewer than "
                   f"{min(due, DBLP_ONES_FLOOR)} ({n_comp} components)")
    return problem, due - ones


class FitCompressive(FitWorkload):
    dataset = "sbm50k"
    scale = COMPRESSIVE_SCALE
    fits_per_s = COMPRESSIVE_FITS_PER_S
    embedding = "compressive"
    not_measured = SERVE_ONLY + LANCZOS_ONLY + ("linalg.eig_ones_missed",)

    def check(self) -> None:
        self.exact_sim: list[float] = []
        self.exact_ari: list[float] = []
        for rec in self.records:
            exact, _, _ = self.fit(rec.index, embedding="lanczos")
            self.exact_sim.append(exact.timings.total_simulated())
            self.exact_ari.append(
                adjusted_rand_index(exact.labels, self.inputs[rec.index].labels))
        # the band is declared per dataset (one default fit each); over a
        # run it applies to the median fit.  Single randomized sketches
        # fall below it now and then (per_layer counts them).
        ari = p50([r.ari for r in self.records])
        if not ari >= COMPRESSIVE_ARI_RATIO * p50(self.exact_ari):
            self.fail(-1, f"median compressive ARI {ari:.3f} < {COMPRESSIVE_ARI_RATIO}"
                      f" x median exact ARI {p50(self.exact_ari):.3f}")

    def per_layer(self) -> dict:
        out = super().per_layer()
        out["compressive.sim_ratio_vs_exact"] = (
            sum(r.sim_s for r in self.records) / sum(self.exact_sim)
        )
        out["compressive.below_band_frac"] = sum(
            r.ari < COMPRESSIVE_ARI_RATIO * e for r, e in zip(self.records, self.exact_ari)
        ) / len(self.records)
        return out


# ---------------------------------------------------------------------------
# serve-mixed
# ---------------------------------------------------------------------------

class ServeMixed:
    """Open-loop replay of the repository's serving trace through
    ClusterService.

    Arrivals are Poisson on the simulated clock.  The trace is a list of
    arrival times handed to the service in one call, so the generator is
    never late; each request's latency runs from its arrival time.  A
    traced run replays the same trace (``traced`` changes nothing here).
    """

    # the lanes are shared, so no device clock belongs to one fit
    not_measured = COMPRESSIVE_ONLY + ("linalg.eig_ones_missed",
                                       "recon.stage_sum_minus_clock_s")

    def __init__(self, seed: int, seconds: float, traced: bool = False) -> None:
        # the arrival schedule and the fit/predict pattern are one fixed
        # trace (SERVE_TRACE_SEED), like a recorded one, so where the cold
        # fits land among the arrivals is the same on every seed.  --seed
        # draws the predict payloads and the one-off fits' solver seeds.
        self.n = max(24, round(seconds * SERVE_REQUESTS_PER_S))
        rng = np.random.default_rng([seed, 7])
        #: per trace request, the field --seed changes: a predict's payload
        #: size, a one-off fit's solver seed
        lo, hi = SERVE_PREDICT_N_NEW
        self.changes = []
        for req in self.trace(SERVE_NOMINAL_RPS):
            if isinstance(req, PredictRequest):
                self.changes.append({"n_new": int(rng.integers(lo, hi + 1))})
            elif req.dataset == SERVE_ONE_OFF_DATASET:
                self.changes.append({"seed": int(rng.integers(1, 2**31))})
            else:
                self.changes.append({})
        self.warm = self.warm_up_requests()
        # the service resolves datasets itself; generating them here keeps
        # that cost in set-up, as the dataset memo is process-wide
        self.truth = {}
        for req in self.warm + self.requests(SERVE_NOMINAL_RPS):
            fit = req.fit if isinstance(req, PredictRequest) else req
            ref = (fit.dataset, fit.scale, fit.data_seed)
            if ref not in self.truth:
                self.truth[ref] = registry.load_dataset(*ref).labels
        self.service = ClusterService()
        self.failed: set[int] = set()
        self.problems: list[str] = []
        self.replays: list[dict] = []
        self.cold_walls: list[float] = []

    def trace(self, rps: float) -> list:
        """The generator's trace at ``rps``: the same requests at every
        rate, with every arrival scaled by 1/rps."""
        return synthetic_predict_trace(
            n_requests=self.n, predict_fraction=SERVE_PREDICT_FRACTION,
            mean_interarrival=1.0 / rps, seed=SERVE_TRACE_SEED,
        )

    def warm_up_requests(self) -> list:
        """One fit and one predict per recurring fit spec of the trace,
        filling the caches before the measured requests arrive."""
        out, specs = [], []
        for req in self.trace(SERVE_NOMINAL_RPS):
            fit = req.fit if isinstance(req, PredictRequest) else req
            spec = (fit.dataset, fit.scale, fit.n_clusters)
            if spec in specs:
                continue
            specs.append(spec)
            j = len(specs) - 1
            fit = ClusterRequest(request_id=f"w{j}", dataset=spec[0], scale=spec[1],
                                 n_clusters=spec[2])
            out += [fit, PredictRequest(request_id=f"wp{j}", fit=fit)]
        return out

    def requests(self, rps: float) -> list:
        """The warm-up requests, then the measured trace at ``rps``,
        starting SERVE_WARMUP_S later, with the seeded changes made."""
        out = list(self.warm)
        for i, req in enumerate(self.trace(rps)):
            fields = {"arrival": SERVE_WARMUP_S + req.arrival, **self.changes[i]}
            if isinstance(req, PredictRequest) and req.deadline is not None:
                fields["deadline"] = SERVE_WARMUP_S + req.deadline
            out.append(dataclasses.replace(req, **fields))
        return out

    def replay(self, rps: float, service: ClusterService | None = None,
               n: int | None = None) -> dict:
        """Replay the warm-up plus the first ``n`` measured requests (all
        when None); latency and the capacity test cover measured ones."""
        w = len(self.warm)
        reqs = self.requests(rps)[: None if n is None else w + n]
        svc = service if service is not None else ClusterService()
        t0 = time.perf_counter()
        responses, report = svc.process(reqs)
        wall = time.perf_counter() - t0
        measured = list(zip(reqs[w:], responses[w:]))
        ok = [r for _, r in measured if r.ok]
        lat = [r.latency for r in ok]
        last_arrival = reqs[-1].arrival
        backlog = sum(1 for r in ok if r.completed > last_arrival)
        # distance to the capacity test's nearest limit, as a share of it:
        # >= 0 meets the test; interpolating it places the crossing
        # between two bisection rates
        margin = min(1.0 - tail(lat) / SERVE_TAIL_LIMIT_S,
                     1.0 - backlog / (SERVE_MAX_BACKLOG * len(measured)))
        if len(ok) < len(measured):
            margin = -1.0
        return {
            "rps": rps, "requests": reqs, "responses": responses, "report": report,
            "measured": measured, "wall_s": wall, "latency": lat, "backlog": backlog,
            "margin": margin, "meets": margin >= 0.0,
        }

    def warm_up(self) -> None:
        ClusterService().process(self.warm[:2])

    def run(self, tracer=None) -> None:
        self.nominal = self.replay(SERVE_NOMINAL_RPS, self.service)
        self.replays.append(self.nominal)
        if tracer is not None:
            with tracer.active("replay"):
                traced = self.replay(SERVE_NOMINAL_RPS)
            self.traced_wall = traced["wall_s"]
            if _replay_signature(traced) != _replay_signature(self.nominal):
                self.failed.add(-1)
                self.problems.append("traced replay changed modeled results")
            return
        # the nominal replay lasts a few host seconds; its host time is the
        # median of several replays, so one slow stretch of the host does
        # not set it
        walls = [self.nominal["wall_s"]]
        for _ in range(SERVE_NOMINAL_REPEATS - 1):
            again = self.replay(SERVE_NOMINAL_RPS)
            walls.append(again["wall_s"])
            if _replay_signature(again) != _replay_signature(self.nominal):
                self.failed.add(-1)
                self.problems.append("a repeated replay changed modeled results")
        self.nominal_wall_s = float(np.median(walls))
        lo, hi = SERVE_RPS_BRACKET
        m_lo = m_hi = None
        for _ in range(SERVE_BISECT_STEPS):
            mid = math.sqrt(lo * hi)
            rep = self.replay(mid, n=SERVE_BISECT_REQUESTS)
            # keep the summary only: the responses are large
            self.replays.append({k: rep[k] for k in ("rps", "latency", "backlog", "meets")})
            if rep["meets"]:
                lo, m_lo = mid, rep["margin"]
            else:
                hi, m_hi = mid, rep["margin"]
        self.max_rps = lo
        if m_lo is not None and m_hi is not None:
            # geometric interpolation to where the margin crosses zero
            self.max_rps = lo * (hi / lo) ** (m_lo / (m_lo - m_hi))

    @property
    def attempted(self) -> int:
        return len(self.nominal["requests"])

    def notes(self) -> list[str]:
        return [
            f"arrivals: open-loop Poisson at {SERVE_NOMINAL_RPS:g} simulated req/s; "
            "the trace is handed over whole, so the generator is never late (lag 0 s)"
        ] + [
            f"replay at {rep['rps']:.0f} req/s ({len(rep['latency'])} measured): "
            f"p50 {p50(rep['latency']):.6f} s, tail {tail(rep['latency']):.6f} s, "
            f"{rep['backlog']} in flight at the last arrival, "
            f"{'meets' if rep['meets'] else 'misses'} the capacity test"
            for rep in self.replays
        ]

    def check(self) -> None:
        reqs = self.nominal["requests"]
        resps = self.nominal["responses"]
        for i, resp in enumerate(resps):
            if not resp.ok:
                self.failed.add(i)
                self.problems.append(f"{resp.request_id}: {resp.status} {resp.error}")
        # one cold fit per distinct fit spec; every other response of the
        # spec must carry the same labels bit for bit
        verified: dict[tuple, str] = {}
        for i, (req, resp) in enumerate(zip(reqs, resps)):
            if not isinstance(req, ClusterRequest) or not resp.ok:
                continue
            key = (req.dataset, req.scale, req.data_seed, req.n_clusters, req.seed)
            if key not in verified:
                t0 = time.perf_counter()
                problems = verify_against_cold([resp], [req])
                self.cold_walls.append(time.perf_counter() - t0)
                verified[key] = labels_digest(resp.labels)
                if problems:
                    self.failed.add(i)
                    self.problems.extend(problems)
            elif labels_digest(resp.labels) != verified[key]:
                self.failed.add(i)
                self.problems.append(f"{req.request_id}: labels differ from the "
                                     "cold-verified response of its spec")
        mism = self.nominal["report"].predict.get("ledger_mismatches", 0)
        if mism:
            self.failed.add(-2)
            self.problems.append(f"predict ledger_mismatches = {mism}")

    def end_to_end(self) -> dict:
        reqs, measured = self.nominal["requests"], self.nominal["measured"]
        # modeled cost of the fits the service computed (cache misses);
        # hits run k-means only
        cold_sim = [r.timings.total_simulated() for q, r in measured
                    if isinstance(q, ClusterRequest) and r.ok and not r.cache_hit]
        with_deadline = [r for _, r in measured if getattr(r, "deadline", None) is not None]
        met = sum(1 for r in with_deadline if r.deadline_met is True)
        lat = self.nominal["latency"]
        return {
            "fit_sim_s.p50": p50(cold_sim),
            "fit_sim_s.tail": tail(cold_sim),
            "fit_wall_s.p50": p50(self.cold_walls),
            "fit_wall_s.tail": tail(self.cold_walls),
            "serve_lat_sim_s.p50": p50(lat),
            "serve_lat_sim_s.tail": tail(lat),
            "serve_max_rps_sim": self.max_rps,
            "serve_wall_s_per_req": self.nominal_wall_s / len(reqs),
            "serve_deadline_met_frac": met / len(with_deadline) if with_deadline else 1.0,
        }

    def samples(self) -> dict:
        cold = sum(1 for q, r in self.nominal["measured"]
                   if isinstance(q, ClusterRequest) and r.ok and not r.cache_hit)
        return {"fit_sim_s": cold, "fit_wall_s": len(self.cold_walls),
                "serve_lat_sim_s": len(self.nominal["latency"])}

    def per_layer(self) -> dict:
        rep = self.nominal["report"]
        reqs, resps = self.nominal["requests"], self.nominal["responses"]
        ops = len(reqs)
        acc: dict = {}
        profile_layers(acc, rep.profile)
        out = _finish(acc, ops)
        by_stage = rep.profile.by_stage
        out["linalg.eigensolver.sim_s"] = by_stage.get("eigensolver", 0.0) / ops
        out["kmeans.sim_s"] = by_stage.get("kmeans", 0.0) / ops
        out["graph.laplacian.sim_s"] = by_stage.get("laplacian", 0.0) / ops
        out["model.predict.sim_s"] = sum(
            r.service_time for q, r in zip(reqs, resps)
            if isinstance(q, PredictRequest) and r.ok
        ) / ops
        fits = [(q, r) for q, r in zip(reqs, resps)
                if isinstance(q, ClusterRequest) and r.ok]
        out["ari.p50"] = p50([
            adjusted_rand_index(r.labels, self.truth[(q.dataset, q.scale, q.data_seed)])
            for q, r in fits
        ])
        waits = [r.queue_wait for _, r in fits]
        out["serve.queue_wait_sim_s.p50"] = p50(waits)
        out["serve.queue_wait_sim_s.tail"] = tail(waits)
        out["serve.batch_size.mean"] = rep.batches.get("mean_batch_size", 0.0)
        out["serve.cache.hit_rate"] = rep.cache.get("hit_rate", 0.0)
        out["serve.cache.evictions"] = rep.cache.get("evictions", 0)
        out["serve.cache_hit_share"] = rep.n_cache_hits / ops
        out["serve.cold_fits"] = rep.predict.get("cold_fits", 0)
        out["serve.model_hits"] = rep.predict.get("model_hits", 0)
        out["serve.preemptions"] = rep.scheduler.get("preemptions", 0)
        occ = list(rep.occupancy.values())
        out["serve.occupancy"] = sum(occ) / len(occ) if occ else 0.0
        with_deadline = [r for r in resps if getattr(r, "deadline", None) is not None]
        out["serve_deadline_miss_frac"] = (
            sum(1 for r in with_deadline if r.deadline_met is not True)
            / len(with_deadline) if with_deadline else 0.0
        )
        events = sum(len(d.timeline) for d in self.service.scheduler.devices)
        out["hw.events"] = events / ops
        out["hw.host_s_per_event"] = self.nominal["wall_s"] / events
        out["cuda.overlap_sim_s"] = (
            sum(rep.profile.by_category.values()) - rep.makespan
        ) / ops
        out["trace.overhead_frac"] = self.traced_wall / self.nominal["wall_s"] - 1.0
        return out


def _replay_signature(rep: dict) -> tuple:
    return tuple(
        (r.request_id, r.status, r.latency,
         labels_digest(r.labels) if r.labels is not None else None)
        for r in rep["responses"]
    )


WORKLOADS = {
    "fit-dblp": FitDblp,
    "fit-compressive": FitCompressive,
    "serve-mixed": ServeMixed,
}
