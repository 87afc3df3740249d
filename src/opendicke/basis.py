"""Shared constant matrices for the fluctuation basis R = (da, da+, db, db+).

Indices are zero-based throughout: 0 = photon annihilation, 1 = photon
creation, 2 = atom annihilation, 3 = atom creation.  The atomic mode b is the
single momentum side-mode of the condensate; the recoil frequency is the unit
of energy, omega_r = 1.
"""

from __future__ import annotations

import numpy as np

# Recoil units.
OMEGA_R = 1.0

# Index permutation that swaps each operator with its conjugate partner.
CONJ_PERM = np.array([1, 0, 3, 2])

# Permutation matrix T with (T v)[i] = v[CONJ_PERM[i]].  The stability matrix
# obeys M = T conj(M) T, which encodes that R evolves consistently with R+.
T_CONJ = np.eye(4)[CONJ_PERM]

# Commutator metric eta = diag([R_i, R_i+dag-partner]) for the ordering above:
# [a, a+] = 1, [a+, a] = -1, and likewise for b.
ETA = np.diag([1.0, -1.0, 1.0, -1.0])

# Map from ladder operators to quadratures (x_c, y_c, x_a, y_a) with
# x = (a + a+)/sqrt(2), y = -i (a - a+)/sqrt(2).
QUAD_MAP = np.array([
    [1.0, 1.0, 0.0, 0.0],
    [-1.0j, 1.0j, 0.0, 0.0],
    [0.0, 0.0, 1.0, 1.0],
    [0.0, 0.0, -1.0j, 1.0j],
]) / np.sqrt(2.0)

# Symplectic form Omega, in both bases: [R_i, R_j] = Omega[i, j] for the
# ladder vector R and [X_i, X_j] = i Omega[i, j] for the quadratures
# X = (x_c, y_c, x_a, y_a).
OMEGA_SYMPL = np.array([
    [0.0, 1.0, 0.0, 0.0],
    [-1.0, 0.0, 0.0, 0.0],
    [0.0, 0.0, 0.0, 1.0],
    [0.0, 0.0, -1.0, 0.0],
])

# Photon gauge a -> i a: R = PHOTON_GAUGE * R', with R' the ladder vector of
# the rotated photon.  It leaves both occupations n_a and n_b unchanged, and
# the closed-system coefficient matrix is real in it (alpha0 is imaginary).
PHOTON_GAUGE = np.array([1j, -1j, 1.0, 1.0])
