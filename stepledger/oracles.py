"""Reference computations made apart from the program, in plain numpy.

Every function here reads only raw arrays: a model's weights, biases and
masks, a Hamiltonian's coefficients (α, β, couplings, offset) or a graph's
adjacency. None of them calls into ``repro``, so the step ledger can check
the program's outputs against them.

Conventions follow the paper: configurations are bit rows ``x ∈ {0,1}^n``,
spins are ``z = 1 − 2x``, and

    H = −Σ_i (α_i X_i + β_i Z_i) − Σ_{i<j} β_ij Z_i Z_j + offset · I .
"""

from __future__ import annotations

import numpy as np

#: |log ψ(y) − log ψ(x)| cap the program applies before exponentiating a
#: ratio (``repro.core.energy.MAX_LOG_RATIO``); part of its definition of
#: the local energy, so the oracle applies the same cap.
MAX_LOG_RATIO = 80.0


# -- wavefunctions -------------------------------------------------------------


def made_log_psi(layers, x: np.ndarray) -> np.ndarray:
    """``log ψ(x) = ½ Σ_i log Bern(x_i; σ(z_i))`` for a MADE.

    ``layers`` is a list of ``(weight, mask, bias)`` triples, input layer
    first; hidden layers use ReLU and the last layer gives the logits.
    """
    h = np.asarray(x, dtype=np.float64)
    for weight, mask, bias in layers[:-1]:
        h = np.maximum(h @ (weight * mask).T + bias, 0.0)
    weight, mask, bias = layers[-1]
    z = h @ (weight * mask).T + bias
    # log σ(z) = −log(1 + e^{−z}),  log(1 − σ(z)) = −log(1 + e^{z})
    site = np.where(x > 0.5, -np.logaddexp(0.0, -z), -np.logaddexp(0.0, z))
    return 0.5 * site.sum(axis=1)


def rbm_log_psi(weight, hidden_bias, visible_weight, visible_bias, x) -> np.ndarray:
    """``log ψ(x) = Σ_j log cosh((Wx + c)_j) + a·x + a₀`` (unnormalised)."""
    x = np.asarray(x, dtype=np.float64)
    theta = x @ weight.T + hidden_bias
    log_cosh = np.logaddexp(theta, -theta) - np.log(2.0)
    return log_cosh.sum(axis=1) + x @ visible_weight.ravel() + float(visible_bias[0])


# -- Hamiltonians --------------------------------------------------------------


def zzx_diagonal(beta, couplings, offset, x: np.ndarray) -> np.ndarray:
    """``H_xx = −Σ_i β_i z_i − Σ_{i<j} β_ij z_i z_j + offset``, pair by pair
    over the strict upper triangle (one row of pairs at a time)."""
    z = 1.0 - 2.0 * np.asarray(x, dtype=np.float64)
    n = z.shape[1]
    pair = np.zeros(z.shape[0])
    for i in range(n - 1):
        pair += z[:, i] * (z[:, i + 1 :] @ couplings[i, i + 1 :])
    return -(z @ beta) - pair + offset


def zzx_local_energies(alpha, beta, couplings, offset, log_psi, x: np.ndarray) -> np.ndarray:
    """Local energies ``l(x) = H_xx + Σ_i (−α_i) ψ(x ⊕ e_i)/ψ(x)``.

    ``log_psi`` maps a ``(m, n)`` batch to ``(m,)`` log-amplitudes. Every
    neighbour is built by flipping one bit and evaluated from scratch.
    """
    x = np.asarray(x, dtype=np.float64)
    m, n = x.shape
    energies = zzx_diagonal(beta, couplings, offset, x)
    sites = np.nonzero(alpha)[0]
    if sites.size:
        cols = np.arange(sites.size)
        nbrs = np.repeat(x[:, None, :], sites.size, axis=1)
        nbrs[:, cols, sites] = 1.0 - nbrs[:, cols, sites]
        lp_x = log_psi(x)
        lp_n = log_psi(nbrs.reshape(m * sites.size, n)).reshape(m, sites.size)
        ratios = np.exp(np.clip(lp_n - lp_x[:, None], -MAX_LOG_RATIO, MAX_LOG_RATIO))
        energies = energies + ratios @ -alpha[sites]
    return energies


def operator_norm_lower_bound(alpha, beta, couplings, offset) -> float:
    """``−Σ|α_i| − Σ|β_i| − Σ_{i<j}|β_ij| + offset``, a lower bound on the
    spectrum and so on ``⟨H⟩``. The bound is loose by orders of magnitude
    on these instances, so a batch mean below it means a broken estimator,
    not an unlucky batch."""
    return float(
        -np.abs(alpha).sum()
        - np.abs(beta).sum()
        - np.abs(np.triu(couplings, 1)).sum()
        + offset
    )


def edge_list(adjacency: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(u, v, w)`` for every edge ``u < v`` of a weighted adjacency."""
    u, v = np.nonzero(np.triu(adjacency, 1))
    return u, v, adjacency[u, v]


def cut_values(edges, x: np.ndarray) -> np.ndarray:
    """Weight of the edges whose endpoints ``x`` puts on different sides."""
    u, v, w = edges
    bits = np.asarray(x) > 0.5
    return (bits[:, u] != bits[:, v]) @ w
