"""Runs one step-ledger workload: set-up, timed steps, checks, metrics.

``run.py`` imports this module only after it has pinned the BLAS thread
count, so numpy loads with the workload's thread setting.
"""

from __future__ import annotations

import hashlib
import json
import resource
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import repro.core.vqmc as vqmc_module
from repro.core.vqmc import VQMC, VQMCConfig
from repro.distributed.threads import run_threaded
from repro.experiments.protocol import (
    build_model,
    build_optimizer,
    build_sampler,
    make_hamiltonian,
)
from repro.hamiltonians import MaxCut
from repro.models import MADE, RBM
from repro.obs import Metrics, Tracer, metrics_file_name, trace_file_name, write_chrome_trace
from repro.optim import StochasticReconfiguration
from repro.utils.rng import spawn_generators

import layers
import oracles

#: untimed steps after the build; the jit trace and first-step allocations
#: fall here, inside ``setup_s``
WARMUP_STEPS = 2
#: set-ups per untraced run; ``setup_s`` is their median
SETUP_REPEATS = 3
#: fewest timed steps a run makes, whatever ``--seconds`` asks
MIN_TIMED_STEPS = 5
#: samples of every timed step checked against the oracles
ORACLE_ROWS = 8
ORACLE_RTOL = 1e-8

# -- in-step capture -----------------------------------------------------------

_program_local_energies = vqmc_module.local_energies
#: id(model) -> (x, energies, log_psi_x) on the oracle rows of the last call
_captured: dict[int, tuple] = {}


def oracle_rows(batch: int) -> np.ndarray:
    """A fixed, evenly spread subset of a batch's rows."""
    count = min(ORACLE_ROWS, batch)
    return np.arange(count) * (batch // count)


def _capturing_local_energies(model, hamiltonian, x, log_psi_x=None, **kwargs):
    """``local_energies`` as the step calls it, keeping copies of the oracle
    rows of its inputs and output (a few rows: microseconds per step)."""
    out = _program_local_energies(model, hamiltonian, x, log_psi_x=log_psi_x, **kwargs)
    rows = oracle_rows(x.shape[0])
    _captured[id(model)] = (
        np.array(x[rows]),
        np.array(out[rows]),
        None if log_psi_x is None else np.array(log_psi_x[rows]),
    )
    return out


def _relative_error(got: np.ndarray, want: np.ndarray) -> float:
    """Largest ``|got − want| / |want|``, absolute where ``|want| < 1``."""
    return float(np.max(np.abs(got - want) / np.maximum(np.abs(want), 1.0)))


def _capture_sr(sr, record: list) -> None:
    """Record ``(δ·F, CG iterations)`` for every SR solve of ``sr``."""
    solve = sr.natural_gradient

    def natural_gradient(o, grad, comm=None):
        delta = solve(o, grad, comm=comm)
        record.append((float(delta @ grad), sr.last_solve.iterations))
        return delta

    sr.natural_gradient = natural_gradient


# -- building ------------------------------------------------------------------


def derive_seeds(seed: int) -> tuple[int, int, int]:
    """Instance, model-initialisation and sampling seeds from one seed."""
    return tuple(int(s) for s in np.random.SeedSequence(seed).generate_state(3))


def timed_steps(spec: dict, seconds: int) -> int:
    """Fixed work: the step count a run makes depends only on ``seconds``."""
    return max(MIN_TIMED_STEPS, round(seconds / spec["step_s"]))


def build(spec: dict, seeds, comm, rank: int, traced: bool) -> VQMC:
    """One rank's trainer under the paper's §5.1 protocol."""
    world = comm.size if comm is not None else 1
    hamiltonian = make_hamiltonian(spec["problem"], spec["n"], seed=seeds[0])
    model = build_model(spec["arch"], spec["n"], seeds[1])
    sampler = build_sampler(spec["sampler"], spec["n"])
    optimizer, sr = build_optimizer(spec["optimizer"], model)
    if sr is not None:
        # cg_tol = 0 makes the cap the only stopping rule: every solve does
        # exactly cg_cap iterations, so every step does the same work.
        sr = StochasticReconfiguration(
            diag_shift=sr.diag_shift,
            solver="cg",
            cg_tol=0.0,
            cg_maxiter=spec["cg_cap"],
        )
    tracer = metrics = None
    if traced:
        tracer, metrics = Tracer(rank=rank), Metrics()
        layers.attach(tracer, hamiltonian, comm)
    return VQMC(
        model,
        hamiltonian,
        sampler,
        optimizer,
        sr=sr,
        comm=comm,
        seed=spawn_generators(seeds[2], world)[rank],
        config=VQMCConfig(batch_size=spec["batch"]),
        tracer=tracer,
        metrics=metrics,
    )


def log_psi_oracle(model):
    """Plain-numpy ``log ψ`` over a copy of the model's current weights."""
    if isinstance(model, MADE):
        weights = [
            (layer.weight.data.copy(), layer.mask, layer.bias.data.copy())
            for layer in model.fc_layers
        ]
        return lambda x: oracles.made_log_psi(weights, x)
    parts = (
        model.fc.weight.data.copy(),
        model.fc.bias.data.copy(),
        model.visible.weight.data.copy(),
        model.visible.bias.data.copy(),
    )
    return lambda x: oracles.rbm_log_psi(*parts, x)


# -- one rank ------------------------------------------------------------------


@dataclass
class RankResult:
    setup_s: float
    steps: int = 0  #: timed steps that returned
    diverged: int = 0
    step_times: list = field(default_factory=list)
    energies: list = field(default_factory=list)
    param_hashes: list = field(default_factory=list)
    failures: list = field(default_factory=list)  #: failed checks, as text
    failed_steps: set = field(default_factory=set)  #: diverged or broke down
    breakdowns: list = field(default_factory=list)  #: counted, not failures
    oracle_checks: int = 0
    oracle_failed: int = 0
    max_rel_error: float = 0.0
    layers: dict = field(default_factory=dict)
    phase_s: float = 0.0  #: traced sample + local-energy seconds (skew)


def run_rank(comm, rank, spec, seeds, steps, traced, t_start, out_dir) -> RankResult:
    vqmc = build(spec, seeds, comm, rank, traced)
    for _ in range(WARMUP_STEPS):
        vqmc.step()
    if comm is not None:
        comm.barrier()
    result = RankResult(setup_s=time.perf_counter() - t_start)
    if steps:
        _timed_loop(vqmc, comm, spec, steps, traced, result)
        if traced and result.steps:
            _trace_report(vqmc, rank, spec, out_dir, result)
    return result


def _timed_loop(vqmc, comm, spec, steps, traced, out: RankResult) -> None:
    model, ham, sampler = vqmc.model, vqmc.hamiltonian, vqmc.sampler
    coeffs = (ham.alpha, ham.beta, ham.couplings, ham.offset)
    lower = oracles.operator_norm_lower_bound(*coeffs)
    edges = oracles.edge_list(ham.adjacency) if isinstance(ham, MaxCut) else None
    sr_record: list = []
    if vqmc.sr is not None:
        _capture_sr(vqmc.sr, sr_record)
    sampling = {"accepted": 0, "proposals": 0, "fpe": 0.0, "macs": 0}
    comm_before = comm.stats.snapshot() if comm is not None else None
    if traced:
        vqmc.tracer.clear()

    def fail(step: int, what: str) -> None:
        out.failures.append(f"step {step}: {what}")

    for i in range(steps):
        psi = log_psi_oracle(model)
        diverged_before = vqmc.diverged_steps
        _captured.pop(id(model), None)
        if comm is not None:
            comm.barrier()  # ranks start each timed step together
        t0 = time.perf_counter()
        try:
            step = vqmc.step()
        except Exception as exc:  # noqa: BLE001 -- counted as a failed step
            fail(i, f"raised {type(exc).__name__}: {exc}")
            return
        out.step_times.append(time.perf_counter() - t0)
        out.steps += 1
        out.energies.append(step.stats.mean)

        if vqmc.diverged_steps != diverged_before:
            out.diverged += 1
            out.failed_steps.add(i)
            fail(i, "diverged (non-finite gradient)")
        if not step.stats.mean >= lower:
            below = f"mean energy {step.stats.mean} below the bound {lower}"
            if "pinned_seed" in spec:
                # The known breakdown: the same steps on every run.
                out.failed_steps.add(i)
                out.breakdowns.append(f"{i}: {below}")
            else:
                fail(i, below)

        x, energies, log_psi_x = _captured[id(model)]
        pairs = [(energies, oracles.zzx_local_energies(*coeffs, psi, x))]
        if log_psi_x is not None:
            pairs.append((log_psi_x, psi(x)))
        if edges is not None:
            pairs.append((energies, -oracles.cut_values(edges, x)))
        worst = max(_relative_error(got, want) for got, want in pairs)
        out.oracle_checks += 1
        out.max_rel_error = max(out.max_rel_error, worst)
        if not worst <= ORACLE_RTOL:
            out.oracle_failed += 1
            fail(i, f"oracle mismatch, relative error {worst:.3e}")

        stats = sampler.last_stats
        sampling["accepted"] += stats.accepted
        sampling["proposals"] += stats.proposals
        sampling["fpe"] += stats.pass_equivalents
        sampling["macs"] += int(stats.extras.get("macs", 0))
        if not sampler.exact and not 0.0 < stats.acceptance_rate < 1.0:
            fail(i, f"acceptance rate {stats.acceptance_rate} not inside (0, 1)")
        if vqmc.sr is not None:
            dot, iterations = sr_record[-1]
            if not dot > 0.0:
                fail(i, f"SR direction has δ·F = {dot:.3e} <= 0")
            if iterations != spec["cg_cap"]:
                fail(i, f"CG stopped after {iterations} iterations, cap {spec['cg_cap']}")
        if comm is not None:
            digest = hashlib.sha256(model.flat_parameters().tobytes()).hexdigest()
            out.param_hashes.append(digest)

    if not out.energies[-1] < out.energies[0]:
        fail(steps - 1, f"last mean energy {out.energies[-1]} not below first {out.energies[0]}")

    if traced:
        per = 1.0 / out.steps
        out.layers.update(
            {
                "samplers.forward_pass_equivalents": sampling["fpe"] * per,
                "samplers.macs": sampling["macs"] * per,
                # Exact sampling keeps every draw it makes.
                "samplers.acceptance": sampling["accepted"] / sampling["proposals"]
                if sampling["proposals"]
                else 1.0,
                "optim.sr.cg_iterations": float(np.mean([r[1] for r in sr_record]))
                if sr_record
                else 0.0,
            }
        )
        if comm is not None:
            after = comm.stats.snapshot()
            for key in ("collective_calls", "collective_bytes"):
                out.layers[f"distributed.{key}"] = (after[key] - comm_before[key]) * per


def _trace_report(vqmc, rank, spec, out_dir: Path, out: RankResult) -> None:
    """Per-layer metrics of this rank, and its trace and metrics files."""
    events = list(vqmc.tracer.events)
    table, step_total = layers.self_times(events)
    totals = layers.layer_seconds(table)
    per = 1.0 / out.steps
    m = out.layers
    m.update({name: value * per for name, value in totals.items()})
    m["vqmc.step_s"] = step_total * per
    m["vqmc.phase_coverage"] = sum(totals.values()) / step_total
    out.phase_s = layers.phase_seconds(events)

    # Computed operation counts (per step, this rank's batch).
    b, n = spec["batch"], spec["n"]
    model, ham = vqmc.model, vqmc.hamiltonian
    d = model.flat_parameters().size
    flip_sites = ham.single_flips().sites if isinstance(model, MADE) else np.zeros(0, int)
    flips_macs = b * getattr(model, "hidden", 0) * int(np.sum(n - 1 - flip_sites))
    diag_macs = b * n * n
    m["perf.flips.macs"] = float(flips_macs)
    m["perf.flips.gmac_per_s"] = flips_macs / m["perf.flips_s"] / 1e9 if flips_macs else 0.0
    m["hamiltonians.diagonal.macs"] = float(diag_macs)
    m["hamiltonians.diagonal.gmac_per_s"] = diag_macs / m["hamiltonians.diagonal_s"] / 1e9
    if vqmc.sr is not None:
        # One Fisher matvec (2·B·d MACs) per CG iteration, plus one for the
        # residual the solve reports.
        m["optim.sr.cg_macs"] = 2.0 * b * d * (m["optim.sr.cg_iterations"] + 1)
        m["optim.sr.o_matrix_mb"] = b * d * 8 / 2**20
    snapshot = vqmc.metrics.snapshot()
    m["jit.traces"] = float(snapshot["counters"].get("jit.trace", 0))
    m["jit.arena_bytes"] = float(snapshot["gauges"].get("jit.arena_bytes", 0))

    out_dir.mkdir(parents=True, exist_ok=True)
    write_chrome_trace(vqmc.tracer, out_dir / trace_file_name(rank), rank=rank)
    (out_dir / metrics_file_name(rank)).write_text(json.dumps(snapshot) + "\n")


# -- one workload --------------------------------------------------------------

END_TO_END = {
    "step_s": "s",
    "samples_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}

PER_LAYER = {
    "vqmc.step_s": "s",
    "vqmc.phase_coverage": "ratio",
    "samplers.sample_s": "s",
    "samplers.forward_pass_equivalents": "count",
    "samplers.macs": "count",
    "samplers.acceptance": "ratio",
    "energy.local_energy_s": "s",
    "perf.flips_s": "s",
    "perf.flips.macs": "count",
    "perf.flips.gmac_per_s": "GMAC/s",
    "hamiltonians.diagonal_s": "s",
    "hamiltonians.diagonal.macs": "count",
    "hamiltonians.diagonal.gmac_per_s": "GMAC/s",
    "hamiltonians.connected_s": "s",
    "models.neighbour_log_psi_s": "s",
    "gradient.gradient_s": "s",
    "jit.replay_s": "s",
    "jit.traces": "count",
    "jit.arena_bytes": "bytes",
    "optim.sr_solve_s": "s",
    "optim.sr.center_s": "s",
    "optim.sr.cg_s": "s",
    "optim.sr.cg_iterations": "count",
    "optim.sr.cg_macs": "count",
    "optim.sr.o_matrix_mb": "MiB",
    "optim.update_s": "s",
    "distributed.collective_calls": "count",
    "distributed.collective_bytes": "bytes",
    "distributed.allreduce_s": "s",
    "distributed.recv_wait_s": "s",
    "distributed.rank_skew": "ratio",
}

#: least share of the traced step span the layers must account for
MIN_PHASE_COVERAGE = 0.9


def run_workload(name: str, spec: dict, seed: int, seconds: int, traced: bool, out_root: Path):
    """Set up, run and check one workload. Returns the result record."""
    seed = spec.get("pinned_seed", seed)
    seeds = derive_seeds(seed)
    steps = timed_steps(spec, seconds)
    vqmc_module.local_energies = _capturing_local_energies
    if traced:
        layers.install_module_spans(MADE if spec["arch"] == "made" else RBM)
    out_dir = out_root / name
    setups = []
    repeats = 1 if traced else SETUP_REPEATS
    for rep in range(repeats):
        todo = steps if rep == repeats - 1 else 0
        t_start = time.perf_counter()
        args = (spec, seeds, todo, traced, t_start, out_dir)
        if spec["ranks"] == 1:
            ranks = [run_rank(None, 0, *args)]
        else:
            # Generous for the work asked; reached only if a rank hangs.
            timeout = 60.0 + 4.0 * (WARMUP_STEPS + todo) * spec["step_s"]
            ranks = run_threaded(run_rank, spec["ranks"], args=args, timeout=timeout)
        setups.append(ranks[0].setup_s)

    lead = ranks[0]
    failures = [f"rank {r}: {msg}" for r, res in enumerate(ranks) for msg in res.failures]
    for r, res in enumerate(ranks[1:], start=1):
        if res.param_hashes != lead.param_hashes:
            failures.append(f"rank {r}: parameters differ from rank 0")
    if traced:
        for r, res in enumerate(ranks):
            coverage = res.layers.get("vqmc.phase_coverage", 0.0)
            if not coverage >= MIN_PHASE_COVERAGE:
                failures.append(f"rank {r}: layers cover {coverage:.1%} of the step span")

    world, times = spec["ranks"], lead.step_times
    record = {
        "seed": seed,
        "correct": not failures,
        "attempted": steps,
        "failed": steps - lead.steps + len(lead.failed_steps),
        "raised": steps - lead.steps,
        "diverged": lead.diverged,
        "breakdowns": [
            f"rank {r}: step {line}" for r, res in enumerate(ranks) for line in res.breakdowns
        ],
        "oracle_checks": sum(r.oracle_checks for r in ranks),
        "oracle_failed": sum(r.oracle_failed for r in ranks),
        "max_rel_error": max(r.max_rel_error for r in ranks),
        "failures": failures,
        "timed_steps": steps,
        "step_times": times,
        "setups": setups,
    }
    if traced:
        metrics = {k: lead.layers.get(k, 0.0) for k in PER_LAYER}
        phase = [r.phase_s for r in ranks]
        metrics["distributed.rank_skew"] = max(phase) / min(phase) if min(phase) > 0 else 0.0
        units = PER_LAYER
    else:
        metrics = {
            "step_s": statistics.median(times) if times else 0.0,
            "samples_per_s": world * spec["batch"] * len(times) / sum(times) if times else 0.0,
            "setup_s": statistics.median(setups),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END
    record["metrics"] = {k: {"value": float(v), "unit": units[k]} for k, v in metrics.items()}
    return record
