"""The full-grid brute force of the lattice sum F, for the tests.

It is the oracle's earlier search, kept as an independent reference: the
(K+1)^2 weight matrix of F's cosine series and the G x G table
cos^T W cos, using neither F's factorization nor its symmetry.
"""

import math

from thetaframe import auto_k_max


def full_grid_F(params, grid_steps):
    """F at (i/G, j/G) for 0 <= i, j < G = grid_steps, as a G x G array."""
    import numpy as np

    k = np.arange(auto_k_max(params) + 1)
    c = np.where(k == 0, 1.0, 2.0)
    ek = np.exp(-0.5 * math.pi * k ** 2 / params.beta ** 2)
    el = np.exp(-0.5 * math.pi * k ** 2 / params.alpha ** 2)
    w = np.outer(c * ek, c * el) * float(params.n)
    if params.n % 2:
        w = np.where(np.outer(k, k) % 2 == 1, -w, w)
    xs = np.arange(grid_steps) / grid_steps
    cos_grid = np.cos(2.0 * math.pi * np.outer(k, xs))
    return cos_grid.T @ w @ cos_grid
