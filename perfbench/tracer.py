"""Host-clock spans around the program's layers, recorded from outside it.

The program is not instrumented.  :class:`Tracer` replaces a layer's
public function with a timing wrapper at every name a caller looks it up
by: the defining module and every ``repro`` module that imported the
function by name (``from repro.x import f`` binds a second name, so
patching the defining module alone would miss ``core/pipeline.py`` and
``core/workflow.py``).  Methods are patched on their class.  Everything
is restored by :meth:`Tracer.uninstall`.

Each call records a span ``(id, name, start, end, parent id, op id,
self seconds)``.  Calls are single-threaded and strictly nested, so a
span's self time is its duration minus the durations of its direct
children.  Spans stay in memory until :meth:`Tracer.write`.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import sys
import time

#: span name -> (module, attribute[, class]) of each function it covers.
#: Generator functions are timed per resume (their body runs between the
#: caller's ``next``/``send`` calls, not inside the call that creates them).
LAYERS = {
    "fit": [("repro.core.pipeline", "fit", "SpectralClustering")],
    "serve.process": [("repro.serve.service", "process", "ClusterService")],
    "model.predict": [("repro.core.model", "predict", "FittedSpectralModel")],
    "datasets.load": [("repro.datasets.registry", "load_dataset")],
    "graph.laplacian": [
        ("repro.graph.laplacian", "device_sym_normalize"),
        ("repro.graph.laplacian", "device_rw_normalize"),
        ("repro.graph.laplacian", "device_shifted_laplacian"),
    ],
    "linalg.eigensolver": [("repro.core.workflow", "hybrid_eigensolver")],
    "linalg.qr_sweep": [("repro.linalg.qr", "implicit_qr_sweep")],
    "linalg.lanczos_extend": [("repro.linalg.lanczos", "extend_factorization")],
    "compressive.embed": [("repro.compressive.engine", "compressive_embedding")],
    "cusparse.csrmv": [
        ("repro.cusparse.spmv", "csrmv"),
        ("repro.cusparse.spmv", "ellmv"),
        ("repro.cusparse.spmv", "hybmv"),
    ],
    "cusparse.spmm": [
        ("repro.cusparse.spmm", "csrmm"),
        ("repro.cusparse.spmm", "ellmm"),
        ("repro.cusparse.spmm", "hybmm"),
    ],
    "kmeans": [("repro.kmeans.gpu", "kmeans_device")],
}

#: layers whose functions are generators
GENERATOR_LAYERS = frozenset({"linalg.lanczos_extend"})

#: layers whose first positional argument is a device matrix; the wrapper
#: also records the device's computed-bytes meter delta over the call
METERED_LAYERS = frozenset({"cusparse.csrmv", "cusparse.spmm"})

#: counters read from a layer's return value: span name -> function of
#: the result giving {counter: value}, summed over calls
RESULT_COUNTERS = {
    # hybrid_eigensolver returns (theta, U, EigStats)
    "linalg.eigensolver": lambda out: {
        "linalg.n_op": out[2].n_op,
        "linalg.n_restarts": out[2].n_restarts,
        "linalg.m": out[2].m,
    },
    # kmeans_device returns a KMeansResult
    "kmeans": lambda out: {"kmeans.iters": out.n_iter},
}


def _repro_modules() -> list:
    return [mod for mod in list(sys.modules.values())
            if getattr(mod, "__name__", "").startswith("repro")]


class _TimedGenerator:
    """Generator proxy that records one span per resume."""

    def __init__(self, gen, tracer: "Tracer", name: str) -> None:
        self._gen = gen
        self._tracer = tracer
        self._name = name

    def __iter__(self):
        return self

    def __next__(self):
        return self._resume(self._gen.__next__)

    def send(self, value):
        return self._resume(self._gen.send, value)

    def throw(self, *args):
        return self._resume(self._gen.throw, *args)

    def close(self):
        self._gen.close()

    def _resume(self, fn, *args):
        token = self._tracer.enter(self._name)
        try:
            return fn(*args)
        finally:
            self._tracer.exit(token)


class Tracer:
    """In-memory span recorder plus the patch set that feeds it."""

    def __init__(self) -> None:
        #: finished spans: (id, name, start, end, parent_id, op_id, self_s)
        self.spans: list[tuple] = []
        #: computed bytes the device meter advanced inside metered layers
        self.meter_bytes: dict[str, float] = {}
        #: sums of the :data:`RESULT_COUNTERS` over every traced call
        self.counters: dict[str, float] = {}
        #: the operation (fit or request replay) spans are attributed to
        self.op_id: str | None = None
        self._stack: list[list] = []  # [id, name, start, child_seconds]
        self._next_id = 0
        self._patches: list[tuple] = []
        self._originals: dict[int, tuple] = {}  # id(wrapper) -> (wrapper, orig)

    # -- span recording ------------------------------------------------
    def enter(self, name: str) -> list:
        frame = [self._next_id, name, time.perf_counter(), 0.0]
        self._next_id += 1
        self._stack.append(frame)
        return frame

    def exit(self, frame: list) -> None:
        end = time.perf_counter()
        popped = self._stack.pop()
        if popped is not frame:
            raise RuntimeError(f"span {frame[1]!r} closed out of order")
        span_id, name, start, child_s = frame
        dur = end - start
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[3] += dur
        self.spans.append((
            span_id, name, start, end,
            parent[0] if parent is not None else None,
            self.op_id, dur - child_s,
        ))

    # -- patching --------------------------------------------------------
    def _wrap(self, fn, name: str):
        tracer = self
        if name in GENERATOR_LAYERS:
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                return _TimedGenerator(fn(*args, **kwargs), tracer, name)
            return gen_wrapper
        if name in METERED_LAYERS:
            @functools.wraps(fn)
            def metered_wrapper(*args, **kwargs):
                dev = args[0].device
                before = dev.spmv_traffic_bytes
                frame = tracer.enter(name)
                try:
                    return fn(*args, **kwargs)
                finally:
                    tracer.exit(frame)
                    tracer.meter_bytes[name] = (
                        tracer.meter_bytes.get(name, 0.0)
                        + dev.spmv_traffic_bytes - before
                    )
            return metered_wrapper

        counters = RESULT_COUNTERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = tracer.enter(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.exit(frame)
            if counters is not None:
                for key, value in counters(out).items():
                    tracer.counters[key] = tracer.counters.get(key, 0.0) + value
            return out
        return wrapper

    @contextlib.contextmanager
    def active(self, op_id: str):
        """Trace one operation: patch, run the body, restore."""
        self.op_id = op_id
        self.install()
        try:
            yield
        finally:
            self.uninstall()
            self.op_id = None

    def install(self) -> None:
        """Patch every layer in :data:`LAYERS` at every lookup site."""
        for name, targets in LAYERS.items():
            for target in targets:
                module = importlib.import_module(target[0])
                if len(target) == 3:
                    cls = getattr(module, target[2])
                    orig = cls.__dict__[target[1]]
                    self._set(cls, target[1], self._wrap(orig, name), orig)
                    continue
                orig = getattr(module, target[1])
                wrapper = self._wrap(orig, name)
                for mod in _repro_modules():
                    for attr, val in list(vars(mod).items()):
                        if val is orig:
                            self._set(mod, attr, wrapper, orig)

    def _set(self, owner, attr: str, new, orig) -> None:
        setattr(owner, attr, new)
        self._patches.append((owner, attr, orig))
        self._originals[id(new)] = (new, orig)

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        # a module first imported while patched bound a wrapper by name
        for mod in _repro_modules():
            for attr, val in list(vars(mod).items()):
                hit = self._originals.get(id(val))
                if hit is not None and hit[0] is val:
                    setattr(mod, attr, hit[1])
        self._patches.clear()
        self._originals.clear()

    # -- aggregation -----------------------------------------------------
    def self_seconds(self) -> dict[str, float]:
        """Total self time per span name."""
        out: dict[str, float] = {}
        for span in self.spans:
            out[span[1]] = out.get(span[1], 0.0) + span[6]
        return out

    def calls(self, name: str) -> int:
        return sum(1 for span in self.spans if span[1] == name)

    def root_residuals(self, root: str) -> list[float]:
        """For each ``root`` span: its duration minus the self times of
        every span under it, including its own (0 up to rounding)."""
        parent_of = {s[0]: s[4] for s in self.spans}
        roots = {s[0]: s for s in self.spans if s[1] == root}
        covered = {rid: 0.0 for rid in roots}
        for span in self.spans:
            sid = span[0]
            while sid is not None and sid not in roots:
                sid = parent_of.get(sid)
            if sid is not None:
                covered[sid] += span[6]
        return [
            (roots[rid][3] - roots[rid][2]) - covered[rid] for rid in roots
        ]

    def write(self, path) -> None:
        """Write the spans as JSON lines (one span object per line)."""
        keys = ("id", "name", "start", "end", "parent", "op", "self_s")
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")
