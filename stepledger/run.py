#!/usr/bin/env python3
"""Step ledger: the paper's VQMC step configurations, end to end and layer by layer.

Usage, from the root of a source checkout::

    python3 stepledger/run.py                          # all four workloads
    python3 stepledger/run.py --trace 1                # all four, traced
    python3 stepledger/run.py --workload tim_made_adam_n256 --seed 3 \\
        --seconds 15 --trace 0

A run builds the workload from ``--seed``, sets it up ``SETUP_REPEATS``
times (build plus warm-up steps), then makes a fixed number of timed steps
(about ``--seconds`` worth), checking every step against the oracles in
``oracles.py``. It prints a readable report and, as its last line, one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0`` and the per-layer metrics with
``--trace 1``. A traced run also writes per-rank Chrome traces and metrics
snapshots under ``stepledger/out/<workload>/``.

Without ``--workload`` every workload runs in its own fresh process, one
after another, and a summary table follows. See ``README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: The paper's step configurations (§5.1 protocol: MADE h = 5(ln n)²,
#: Adam lr 0.01, SGD + SR λ = 1e-3; RBM h = n with 2-chain Metropolis and
#: burn-in 3n + 100). ``batch`` is per rank; ``step_s`` is the nominal step
#: time that sizes the fixed number of timed steps. These are exactly the
#: workloads ``BENCHMARK.json`` lists (``test_run.py`` checks it).
#:
#: ``pinned_seed``: the RBM training breaks down under the protocol on some
#: seeds (its batch-mean energy falls below the operator-norm lower bound).
#: That workload ignores ``--seed`` and always runs seed 0, on which the
#: breakdown shows at the same steps in every run; those steps are counted
#: as failed operations. See README.md.
WORKLOADS = {
    "tim_made_adam_n256": dict(
        problem="tim", n=256, arch="made", sampler="auto", optimizer="adam",
        batch=256, ranks=1, step_s=0.5,
    ),
    "maxcut_made_adam_n1024": dict(
        problem="maxcut", n=1024, arch="made", sampler="auto", optimizer="adam",
        batch=256, ranks=1, step_s=1.0,
    ),
    "tim_made_sr_dp2_n128": dict(
        problem="tim", n=128, arch="made", sampler="auto", optimizer="sgd+sr",
        batch=128, ranks=2, step_s=0.5, cg_cap=30,
    ),
    "tim_rbm_mcmc_n128": dict(
        problem="tim", n=128, arch="rbm", sampler="mcmc", optimizer="adam",
        batch=256, ranks=1, step_s=0.3, pinned_seed=0,
    ),
}

#: BLAS threads per rank, part of every workload: with at most two ranks,
#: ranks × threads stays within the two cores the figures were taken on.
BLAS_THREADS = 1

#: the metrics the all-workload summary table shows
SUMMARY_METRICS = ("step_s", "samples_per_s", "setup_s", "peak_rss_mb", "vqmc.step_s")

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--out", type=Path, default=HERE / "out",
        help="where traced runs write their trace files",
    )
    return parser.parse_args(argv)


def run_one(args) -> int:
    spec = WORKLOADS[args.workload]
    if "numpy" in sys.modules:
        print("stepledger: numpy loaded before the BLAS threads were set", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)
    sys.path[:0] = [str(SRC), str(HERE)]
    import ledger

    record = ledger.run_workload(
        args.workload, spec, args.seed, args.seconds, bool(args.trace), args.out
    )
    pinned = " (pinned; --seed ignored)" if "pinned_seed" in spec else ""
    print(f"workload {args.workload}  seed {record['seed']}{pinned}  trace {args.trace}")
    print(
        f"  blas threads {BLAS_THREADS} x ranks {spec['ranks']} (nproc {os.cpu_count()}); "
        f"setups {len(record['setups'])}, warm-up {ledger.WARMUP_STEPS}, "
        f"timed steps {record['timed_steps']}"
    )
    for name, metric in record["metrics"].items():
        print(f"  {name:36s} {metric['value']:14.6g} {metric['unit']}")
    if len(record["step_times"]) >= 4:
        q1, q2, q3 = statistics.quantiles(record["step_times"], n=4)
        print(
            f"  rank-0 step times (s): min {min(record['step_times']):.4f}  "
            f"quartiles {q1:.4f} {q2:.4f} {q3:.4f}  max {max(record['step_times']):.4f}"
        )
    print(
        f"  attempted {record['attempted']}  failed {record['failed']} (raised "
        f"{record['raised']}, diverged {record['diverged']}, broke down "
        f"{len(record['breakdowns'])})  oracle checks {record['oracle_checks']} "
        f"(failed {record['oracle_failed']}, worst relative error "
        f"{record['max_rel_error']:.2e})"
    )
    for line in record["breakdowns"]:
        print(f"  FAILED STEP {line}")
    for line in record["failures"]:
        print(f"  FAILED {line}")
    print("  correct" if record["correct"] else "  NOT correct")
    result = {k: record[k] for k in ("correct", "attempted", "failed", "metrics")}
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Every workload in its own fresh process, one after another."""
    results = {}
    for name in WORKLOADS:
        cmd = [
            sys.executable, str(Path(__file__).resolve()), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace), "--out", str(args.out),
        ]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(f"{name}: exited with code {proc.returncode}")
            results[name] = None
            continue
        results[name] = json.loads(lines[-1])
    print()
    print(f"{'workload':26s} {'correct':>7s} {'attempted':>9s} {'failed':>6s}  metrics")
    for name, res in results.items():
        if res is None:
            print(f"{name:26s} {'-':>7s}")
            continue
        shown = "  ".join(
            f"{k}={m['value']:.4g}{m['unit']}"
            for k, m in res["metrics"].items()
            if k in SUMMARY_METRICS
        )
        print(
            f"{name:26s} {str(res['correct']):>7s} {res['attempted']:9d} "
            f"{res['failed']:6d}  {shown}"
        )
    return 0 if all(r is not None and r["correct"] for r in results.values()) else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"stepledger: no repro source tree under {SRC}", file=sys.stderr)
        return 2
    if args.workload is None:
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
