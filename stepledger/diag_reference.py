#!/usr/bin/env python3
"""Reference rate for the ZZX diagonal: the program's kernel beside a GEMM.

``Hamiltonian.diagonal`` evaluates ``½ zᵀCz`` per sample with
``np.einsum("bi,ij,bj->b")``. The same B·n² multiply-adds as one GEMM,
``((z @ C) * z).sum(1)``, give the rate a tuned kernel reaches. This script
times both on the Max-Cut workload's shapes and prints the two rates; it is
a reference figure only and changes nothing.

    python3 stepledger/diag_reference.py [--n 1024] [--batch 256] [--repeats 5]
"""

from __future__ import annotations

import argparse
import os
import statistics
import sys
import time
from pathlib import Path

# The same single BLAS thread the serial workloads use.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

from repro.hamiltonians import MaxCut  # noqa: E402


def median_time(fn, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--n", type=int, default=1024)
    parser.add_argument("--batch", type=int, default=256)
    parser.add_argument("--repeats", type=int, default=5)
    args = parser.parse_args()

    ham = MaxCut.random(args.n, seed=0)
    x = (np.random.default_rng(1).random((args.batch, args.n)) < 0.5).astype(float)
    z = 1.0 - 2.0 * x
    macs = args.batch * args.n**2

    program = ham.diagonal(x)
    gemm = -0.5 * ((z @ ham.couplings) * z).sum(axis=1) + ham.offset
    rel = np.max(np.abs(program - gemm)) / np.max(np.abs(program))

    t_program = median_time(lambda: ham.diagonal(x), args.repeats)
    t_gemm = median_time(lambda: ((z @ ham.couplings) * z).sum(axis=1), args.repeats)
    print(f"B={args.batch} n={args.n}: {macs:.3g} MACs, max relative difference {rel:.1e}")
    print(f"  Hamiltonian.diagonal (einsum) {t_program * 1e3:9.2f} ms  {macs / t_program / 1e9:7.2f} GMAC/s")
    print(f"  same product as a GEMM        {t_gemm * 1e3:9.2f} ms  {macs / t_gemm / 1e9:7.2f} GMAC/s")


if __name__ == "__main__":
    main()
