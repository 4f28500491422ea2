"""Per-layer split of a traced step, measured from outside the program.

The split reads two kinds of span, both recorded on the ``Tracer`` handed to
``VQMC(tracer=...)``:

- the program's own spans: the ``step`` span and its phases (``sample``,
  ``local_energy``, ``gradient``, ``sr_solve``, ``optimizer``), the sampler's
  ``sample.incremental``, ``jit.replay``, the SR sub-spans ``sr.center`` /
  ``sr.cg`` and the communicator's ``comm.*`` collectives;
- spans this module opens around public calls the program does not span:
  ``Hamiltonian.diagonal``, ``Hamiltonian.connected``,
  ``repro.perf.flips.flip_log_ratios``, the model class's ``log_psi`` and
  ``Communicator.recv``.

A layer's time is the self time of its spans: a span's duration minus the
part its child spans cover. The wrappers are installed only in traced runs.
"""

from __future__ import annotations

import threading
from collections import defaultdict

_local = threading.local()


def _spanned(name: str, fn):
    """``fn`` wrapped in a span on the calling thread's tracer."""

    def wrapper(*args, **kwargs):
        tracer = getattr(_local, "tracer", None)
        if tracer is None:
            return fn(*args, **kwargs)
        with tracer.span(name):
            return fn(*args, **kwargs)

    wrapper.__wrapped__ = fn
    return wrapper


def install_module_spans(model_class) -> None:
    """Span ``flip_log_ratios`` and ``model_class.log_psi`` process-wide.

    ``local_energies`` imports ``flip_log_ratios`` from its module at call
    time, so rebinding the module attribute reaches it. The model method is
    wrapped on the class, not the instance: the step compiler refuses models
    whose instance overrides ``log_psi``.
    """
    import repro.perf.flips as flips

    if not hasattr(flips.flip_log_ratios, "__wrapped__"):
        flips.flip_log_ratios = _spanned("perf.flip_log_ratios", flips.flip_log_ratios)
    if not hasattr(model_class.log_psi, "__wrapped__"):
        model_class.log_psi = _spanned("models.log_psi", model_class.log_psi)


def attach(tracer, hamiltonian, comm) -> None:
    """Route this thread's wrapped calls to ``tracer`` and span the rank's
    own Hamiltonian and communicator endpoints."""
    _local.tracer = tracer
    hamiltonian.diagonal = _spanned("hamiltonians.diagonal", hamiltonian.diagonal)
    hamiltonian.connected = _spanned("hamiltonians.connected", hamiltonian.connected)
    if comm is not None:
        comm.recv = _spanned("comm.recv", comm.recv)


def self_times(events) -> tuple[dict[tuple[str, str | None], float], float]:
    """Self seconds keyed by ``(span name, enclosing phase)``, and the total
    seconds of the ``step`` spans.

    The phase is the name of the depth-1 ancestor (``None`` for spans
    outside any phase, such as the ``step`` span itself).
    """
    table: dict[tuple[str, str | None], float] = defaultdict(float)
    step_total = 0.0
    by_thread = defaultdict(list)
    for ev in events:
        by_thread[ev.tid].append(ev)
        if ev.name == "step" and ev.depth == 0:
            step_total += ev.dur_ns * 1e-9
    for evs in by_thread.values():
        evs.sort(key=lambda e: (e.t0_ns, e.depth))
        stack: list[list] = []  # [event, child_ns, phase]

        def close(entry) -> None:
            ev, child_ns, phase = entry
            table[(ev.name, phase)] += (ev.dur_ns - child_ns) * 1e-9

        for ev in evs:
            while stack and stack[-1][0].depth >= ev.depth:
                close(stack.pop())
            if stack:
                stack[-1][1] += ev.dur_ns
            if ev.depth == 1:
                phase = ev.name
            else:
                phase = stack[-1][2] if stack else None
            stack.append([ev, 0, phase])
        while stack:
            close(stack.pop())
    return dict(table), step_total


def layer_seconds(table) -> dict[str, float]:
    """Sum self times into the ledger's layer metrics (totals, seconds).

    Only spans inside a phase count, so the sum over layers divided by the
    step total is the share of the step the layers account for.
    """

    def pick(name: str, phase: str | None = None) -> float:
        return sum(
            v
            for (n, p), v in table.items()
            if n == name and p is not None and (phase is None or p == phase)
        )

    collectives = sum(
        v
        for (n, p), v in table.items()
        if p is not None and n.startswith("comm.") and n != "comm.recv"
    )
    return {
        "samplers.sample_s": pick("sample")
        + pick("sample.incremental")
        + pick("sample.naive")
        + pick("models.log_psi", "sample"),
        "energy.local_energy_s": pick("local_energy"),
        "perf.flips_s": pick("perf.flip_log_ratios"),
        "hamiltonians.diagonal_s": pick("hamiltonians.diagonal"),
        "hamiltonians.connected_s": pick("hamiltonians.connected"),
        "models.neighbour_log_psi_s": pick("models.log_psi", "local_energy"),
        "gradient.gradient_s": pick("gradient") + pick("models.log_psi", "gradient"),
        "jit.replay_s": pick("jit.replay") + pick("jit.trace"),
        "optim.sr_solve_s": pick("sr_solve"),
        "optim.sr.center_s": pick("sr.center"),
        "optim.sr.cg_s": pick("sr.cg") + pick("sr.dense"),
        "optim.update_s": pick("optimizer"),
        "distributed.allreduce_s": collectives,
        "distributed.recv_wait_s": pick("comm.recv"),
    }


def phase_seconds(events) -> float:
    """Inclusive seconds of the ``sample`` and ``local_energy`` phases: the
    per-rank work whose imbalance the rank skew reports."""
    names = ("sample", "local_energy")
    return sum(ev.dur_ns for ev in events if ev.depth == 1 and ev.name in names) * 1e-9
