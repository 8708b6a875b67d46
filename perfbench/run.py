"""Repository benchmark: one workload per call, every metric by name and unit.

Usage (from the repository root)::

    python3 perfbench/run.py --workload fit-dblp --seed 1 --seconds 25 --trace 0

``--trace 0`` measures the end-to-end metrics with no tracing installed;
``--trace 1`` runs each operation untraced and then traced and reports
the per-layer metrics.  Both run the correctness checks.  The metric
names, units and workloads are declared in ``BENCHMARK.json``; see
``perfbench/README.md`` for what each one means and which clock it uses.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

import time

_T0 = time.perf_counter()

import os  # noqa: E402

# one BLAS thread: all load comes from this one process, and the
# simulator's small dense kernels run no faster on more threads
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SPANS_DIR = ROOT / ".perfbench_out"

#: seed used when none is given; HELD_OUT_SEED is kept for confirming a
#: later claim on inputs nobody tuned against
DEFAULT_SEED = 1
HELD_OUT_SEED = 4242
#: set-ups per run whose median is setup_s (this process + children)
SETUP_REPEATS = 3
SETUP_CHILD_TIMEOUT_S = 120
WORKLOAD_NAMES = ("fit-dblp", "fit-compressive", "serve-mixed")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED,
                   help=f"input seed (default {DEFAULT_SEED}; held-out "
                        f"seed for confirming claims: {HELD_OUT_SEED})")
    p.add_argument("--seconds", type=float, default=25.0,
                   help="run length; sizes the deterministic run plan")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help=argparse.SUPPRESS)
    return p.parse_args(argv)


def import_program():
    """Import the program from this checkout's ``src``; exit if absent."""
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.exit(f"error: program sources not found at {SRC / 'repro'}")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import repro

    if Path(repro.__file__).resolve().parent != (SRC / "repro").resolve():
        sys.exit(f"error: imported repro from {repro.__file__}, not {SRC}")


def setup_children(args) -> list[float]:
    """Set-up times of fresh processes doing exactly this run's set-up."""
    cmd = [sys.executable, str(Path(__file__).resolve()),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", "0", "--setup-only"]
    times = []
    for _ in range(SETUP_REPEATS - 1):
        out = subprocess.run(cmd, capture_output=True, text=True, check=True,
                             timeout=SETUP_CHILD_TIMEOUT_S)
        times.append(json.loads(out.stdout.strip().splitlines()[-1])["setup_s"])
    return times


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
    }


def tracer_layers(tracer, ops: int) -> dict:
    """Host-clock per-layer numbers from the spans, per operation."""
    from tracer import LAYERS

    selfs = tracer.self_seconds()
    out = {
        f"{name}.wall_s": selfs.get(name, 0.0) / ops
        for name in LAYERS if name not in ("fit", "serve.process")
    }
    out["linalg.qr_sweep.calls"] = tracer.calls("linalg.qr_sweep") / ops
    out["model.predict.calls"] = tracer.calls("model.predict") / ops
    out["cusparse.csrmv.bytes_computed"] = (
        tracer.meter_bytes.get("cusparse.csrmv", 0.0) / ops
    )
    out["serve.process.self_wall_s"] = selfs.get("serve.process", 0.0) / ops
    # counters read from the layers' return values; iterations and the
    # Krylov dimension are means per call of their layer
    n_eig = tracer.calls("linalg.eigensolver")
    if n_eig:
        out["linalg.n_op"] = tracer.counters["linalg.n_op"] / ops
        out["linalg.n_restarts"] = tracer.counters["linalg.n_restarts"] / ops
        out["linalg.m"] = tracer.counters["linalg.m"] / n_eig
    n_kmeans = tracer.calls("kmeans")
    if n_kmeans:
        out["kmeans.iters"] = tracer.counters["kmeans.iters"] / n_kmeans
    # the root span's self time is the host time no traced layer covers
    out["unattributed.wall_s"] = (
        selfs.get("fit", 0.0) + selfs.get("serve.process", 0.0)
    ) / ops
    residuals = (tracer.root_residuals("fit")
                 + tracer.root_residuals("serve.process"))
    out["recon.layer_sum_residual_s"] = max(abs(r) for r in residuals)
    return out


def assemble(declared: list, produced: dict, not_measured=()) -> dict:
    """The declared metrics, in declared order, with their units.

    A metric the workload lists in ``not_measured`` (a layer it does not
    exercise) reports 0; any other missing metric is an error.
    """
    names = {m["name"] for m in declared}
    extra = sorted(set(produced) - names)
    missing = sorted(names - set(produced) - set(not_measured))
    if extra or missing:
        raise SystemExit(f"error: metrics not matching BENCHMARK.json: "
                         f"undeclared {extra}, missing {missing}")
    return {
        m["name"]: {"value": float(produced.get(m["name"], 0.0)), "unit": m["unit"]}
        for m in declared
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    import_program()
    from tracer import Tracer
    from workloads import WORKLOADS, tail_rank

    tracer = Tracer() if args.trace else None
    if tracer is not None:
        with tracer.active("setup"):
            wl = WORKLOADS[args.workload](args.seed, args.seconds, traced=True)
    else:
        wl = WORKLOADS[args.workload](args.seed, args.seconds)
    setup_s = time.perf_counter() - _T0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    setups = [setup_s] + (setup_children(args) if not args.trace else [])
    wl.warm_up()
    gc.collect()
    wl.run(tracer)
    gc.collect()
    wl.check()

    attempted = wl.attempted
    failed = min(attempted, len(wl.failed))
    if args.trace:
        produced = wl.per_layer()
        produced.update(tracer_layers(tracer, attempted))
        produced["fail_frac"] = failed / attempted
        metrics = assemble(spec["per_layer"], produced, wl.not_measured)
        SPANS_DIR.mkdir(exist_ok=True)
        tracer.write(SPANS_DIR / f"{args.workload}-seed{args.seed}.spans.jsonl")
    else:
        produced = wl.end_to_end()
        produced["setup_s"] = statistics.median(setups)
        produced["ok_frac"] = (attempted - failed) / attempted
        produced["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        )
        metrics = assemble(spec["end_to_end"], produced)

    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    print("env: " + " ".join(f"{k}={v}" for k, v in environment().items()))
    print("clocks: *_sim_* and .sim_s are modeled K20c/PCIe seconds; "
          "*_wall_*, .wall_s and setup_s are host seconds")
    if not args.trace:
        for metric, n in wl.samples().items():
            r = tail_rank(n)
            print(f"samples: {metric} n={n}, tail = rank {r} of {n} "
                  f"(p{100.0 * r / n:.0f})")
        print(f"setup_s samples: {', '.join(f'{s:.4f}' for s in setups)}")
    for line in wl.notes():
        print(line)
    for name, m in metrics.items():
        print(f"  {name:<36}{m['value']:>16.6g} {m['unit']}")
    for line in wl.problems:
        print(f"check failed: {line}")
    print(json.dumps({
        "correct": not wl.problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
