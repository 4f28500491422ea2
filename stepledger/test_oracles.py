"""The ledger's oracles against brute-force enumeration (n ≤ 12, fixed seeds).

Run from the root of a source checkout::

    python3 -m pytest stepledger -q
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import layers  # noqa: E402
import oracles  # noqa: E402
from repro.hamiltonians import MaxCut, TransverseFieldIsing  # noqa: E402
from repro.models import MADE, RBM  # noqa: E402
from repro.obs import SpanEvent  # noqa: E402


def all_states(n: int) -> np.ndarray:
    """Every configuration, big-endian: site 0 is the most significant bit."""
    return ((np.arange(2**n)[:, None] >> np.arange(n - 1, -1, -1)) & 1).astype(float)


def pauli_hamiltonian(alpha, beta, couplings, offset) -> np.ndarray:
    """``H`` as a dense matrix built from Kronecker products of Paulis."""
    n = len(alpha)
    eye, x_op, z_op = np.eye(2), np.array([[0.0, 1.0], [1.0, 0.0]]), np.diag([1.0, -1.0])

    def on(ops: dict) -> np.ndarray:
        out = np.ones((1, 1))
        for site in range(n):
            out = np.kron(out, ops.get(site, eye))
        return out

    h = offset * np.eye(2**n)
    for i in range(n):
        h -= alpha[i] * on({i: x_op}) + beta[i] * on({i: z_op})
        for j in range(i + 1, n):
            h -= couplings[i, j] * on({i: z_op, j: z_op})
    return h


def coefficients(ham):
    return ham.alpha, ham.beta, ham.couplings, ham.offset


def made_oracle(n: int, seed: int):
    model = MADE(n, rng=np.random.default_rng(seed))
    weights = [(l.weight.data, l.mask, l.bias.data) for l in model.fc_layers]
    return lambda x: oracles.made_log_psi(weights, x)


def rbm_oracle(n: int, seed: int):
    # A larger initial scale than the protocol's 0.01 gives a far from
    # uniform |ψ|², a sharper test of the energies.
    model = RBM(n, rng=np.random.default_rng(seed), init_std=0.3)
    parts = (model.fc.weight.data, model.fc.bias.data, model.visible.weight.data, model.visible.bias.data)
    return lambda x: oracles.rbm_log_psi(*parts, x)


@pytest.mark.parametrize("n", [4, 9, 12])
def test_made_oracle_is_normalised(n):
    log_psi = made_oracle(n, seed=n)
    total = np.exp(2.0 * log_psi(all_states(n))).sum()
    assert total == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("make_psi", [made_oracle, rbm_oracle])
def test_local_energies_equal_h_psi_over_psi(make_psi):
    n = 8
    ham = TransverseFieldIsing.random(n, seed=3)
    log_psi = make_psi(n, seed=4)
    states = all_states(n)
    psi = np.exp(log_psi(states))
    want = pauli_hamiltonian(*coefficients(ham)) @ psi / psi
    got = oracles.zzx_local_energies(*coefficients(ham), log_psi, states)
    np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-10)


@pytest.mark.parametrize("make_psi", [made_oracle, rbm_oracle])
def test_sampled_mean_energy_within_5_sem_of_exact(make_psi):
    n = 10
    ham = TransverseFieldIsing.random(n, seed=5)
    log_psi = make_psi(n, seed=6)
    states = all_states(n)
    psi = np.exp(log_psi(states))
    exact = psi @ pauli_hamiltonian(*coefficients(ham)) @ psi / (psi @ psi)
    prob = psi**2 / (psi @ psi)
    rows = np.random.default_rng(7).choice(states.shape[0], size=4000, p=prob)
    local = oracles.zzx_local_energies(*coefficients(ham), log_psi, states[rows])
    sem = local.std() / np.sqrt(local.size)
    assert abs(local.mean() - exact) < 5.0 * sem


def test_cut_values_count_every_edge_and_equal_minus_diagonal():
    n = 10
    ham = MaxCut.random(n, seed=8)
    states = all_states(n)
    want = np.zeros(states.shape[0])
    for i in range(n):
        for j in range(i + 1, n):
            want += ham.adjacency[i, j] * (states[:, i] != states[:, j])
    cut = oracles.cut_values(oracles.edge_list(ham.adjacency), states)
    np.testing.assert_array_equal(cut, want)
    diagonal = oracles.zzx_diagonal(ham.beta, ham.couplings, ham.offset, states)
    np.testing.assert_allclose(-diagonal, cut, atol=1e-9)


@pytest.mark.parametrize("make_ham", [
    lambda: TransverseFieldIsing.random(8, seed=9),
    lambda: MaxCut.random(8, seed=10),
])
def test_lower_bound_lies_below_the_spectrum(make_ham):
    ham = make_ham()
    lowest = np.linalg.eigvalsh(pauli_hamiltonian(*coefficients(ham)))[0]
    assert oracles.operator_norm_lower_bound(*coefficients(ham)) <= lowest + 1e-9


def test_self_times_subtract_children_and_keep_the_phase():
    ms = 1_000_000
    events = [
        SpanEvent("step", 0, 100 * ms, 0, 0, None),
        SpanEvent("local_energy", 10 * ms, 60 * ms, 1, 0, None),
        SpanEvent("perf.flip_log_ratios", 15 * ms, 40 * ms, 2, 0, None),
        SpanEvent("hamiltonians.diagonal", 12 * ms, 2 * ms, 2, 0, None),
        SpanEvent("optimizer", 80 * ms, 15 * ms, 1, 0, None),
    ]
    table, step_total = layers.self_times(events)
    assert step_total == pytest.approx(0.1)
    assert table[("step", None)] == pytest.approx(0.025)
    assert table[("local_energy", "local_energy")] == pytest.approx(0.018)
    assert table[("perf.flip_log_ratios", "local_energy")] == pytest.approx(0.040)
    seconds = layers.layer_seconds(table)
    assert sum(seconds.values()) / step_total == pytest.approx(0.75)
