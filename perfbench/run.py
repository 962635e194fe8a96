"""riemqn benchmark: one workload, one seed, untraced or traced.

    python3 perfbench/run.py --workload rayleigh-grid --seed 0 --seconds 25 --trace 0

Run it from the root of a checkout; it imports riemqn from ``src/`` there.
It drives ``riemqn.bench.run_benchmark`` with default arguments (the entry
point of ``riemqn-bench run``) in this one process and one thread, as a
closed loop: each ``solve`` starts when the previous one returns.

One run:

1. writes the workload's config for ``--seed`` and sets up six times
   (``load_config`` plus every ``generate_instance``), the first time cold;
2. computes the correctness references (f(x0), eigenvalues) untimed;
3. warms up with a discarded ``run_benchmark`` on the first instance with
   every solver capped at a few iterations;
4. runs the measured pass: ``run_benchmark`` over the whole instance block,
   with the light ``Probe`` instrumentation only, then sets up five more
   times; ``setup_s`` is the median of the eleven set-ups.  A host speed
   gauge samples between solves and set-ups, and the gated times are scaled
   to its reference speed (see gauge.py);
5. with ``--trace 1``, sets up once more and runs the pass again, both with
   the ``Tracer`` installed, and requires the same behaviour digest;
6. checks every run through the gate and prints the figures as text lines,
   then one JSON result line: the end-to-end metrics for ``--trace 0``, the
   per-layer metrics for ``--trace 1``.

A gate breach prints ``"correct": false`` with no metrics and exits 1.
"""

from __future__ import annotations

import os

# One thread: keep BLAS from starting worker threads.  Set before numpy loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
BASELINE = HERE / "baseline.json"


def parse_args(argv):
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def _baseline_digest(workload: str, instances: int, seed: int) -> str | None:
    try:
        data = json.loads(BASELINE.read_text())
    except (OSError, ValueError):
        return None
    entry = data.get("workloads", {}).get(workload, {})
    if entry.get("instances") != instances:
        return None
    return entry.get("digests", {}).get(str(seed))


def _result(correct: bool, attempted: int, failed: int, metrics: dict) -> str:
    return json.dumps(
        {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    )


def run(args) -> int:
    import gate
    import metrics as m
    from harness import measure
    from riemqn.solver import solver_id
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    work = WORK / f"{workload.name}-seed{args.seed}-pid{os.getpid()}"
    try:
        out = measure(workload, args.seed, args.seconds, bool(args.trace), work)
    except gate.GateError as exc:
        print(f"gate: FAIL {exc}", file=sys.stderr)
        attempted = workload.instances_for(args.seconds) * len(workload.solvers)
        print(_result(False, attempted, 0, {}))
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    e2e = out.e2e
    solves = e2e["solves"]
    failures = [r for r in out.probe.runs if not r.result.converged]
    print(f"workload {workload.name} seed {args.seed} instances {out.instances} "
          f"(instance seeds {out.seed_base}..{out.seed_base + out.instances - 1}) "
          f"solvers {len(workload.solvers)} solves {solves}")
    recorded = _baseline_digest(workload.name, out.instances, args.seed)
    match = "not recorded" if recorded is None else ("yes" if recorded == out.digest else "NO")
    print(f"digest {out.digest} (matches seed baseline: {match})")
    print(f"gate: pass ({solves} runs)")
    print(f"warmup_s {out.warmup_s:.4f} s (discarded)  setup_s per repetition, scaled "
          + " ".join(f"{t:.4f}" for t in out.setup_times))
    print(f"gauge {len(out.gauge.seconds)} samples, median "
          f"{1e3 * statistics.median(out.gauge.seconds):.3f} ms "
          f"(reference {1e3 * out.gauge.kernel.reference_s:g} ms)")
    for name, unit in m.REPORTED.items():
        extra = ""
        if name == "solve_ms_tail":
            extra = f"  (p{e2e['solve_ms_tail.percentile']:.2f} of {solves} solves, 10 above)"
        elif name == "solve_ms_p50":
            extra = f"  ({solves} solves)"
        elif name == "failed_frac":
            extra = f"  ({len(failures)} of {solves} runs)"
        print(f"e2e {name} {e2e[name]:.6g} {unit}{extra}")
    for r in failures:
        print(f"failed instance {r.problem.seed} {solver_id(r.cfg)} "
              f"{r.result.failure_reason.value} final_gnorm {r.result.final_gnorm:.3e}")

    if args.trace:
        print(f"traced digest {out.digest} (identical)")
        for line in m.layer_table(out.tracer, e2e["iters"]):
            print(line)
        for name, value in out.layers.items():
            print(f"layer {name} {value:.6g}")
        result = {name: {"value": out.layers[name], "unit": unit} for name, unit, _ in m.PER_LAYER}
    else:
        result = {name: {"value": e2e[name], "unit": unit} for name, unit, _, _ in m.END_TO_END}
    print(_result(True, solves, len(failures), result))
    return 0


def main(argv=None) -> int:
    sys.path.insert(0, str(HERE))
    args = parse_args(argv)
    if not (SRC / "riemqn" / "__init__.py").is_file():
        print(f"error: no riemqn sources at {SRC}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    return run(args)


if __name__ == "__main__":
    raise SystemExit(main())
