"""Test-only high-precision references on the double-precision input.

Both take the ladder-basis stability matrix as given
(``build_stability_matrix(p).m``), so they measure the forward error of a
route on the same input, and share no code with the package:

* the steady state is the Kronecker solve of M S + S M^T + D = 0, vectorized
  row-major, (M (x) I + I (x) M) vec(S) = -vec(D) with D[0, 1] = 2 kappa,
  by mpmath LU at ``dps`` digits;
* the kappa = 0 ground state is Williamson's covariance of the quadrature
  Hamiltonian matrix G, from symmetric mpmath eigen-solves.

The package never imports this module.
"""

import mpmath as mp


def reference_moments(m, kappa: float, dps: int = 50):
    """<R_i R_j> of the steady state as a 4x4 list of mpmath complex numbers."""
    with mp.workdps(dps):
        mm = [[mp.mpc(complex(m[i][j]).real, complex(m[i][j]).imag)
               for j in range(4)] for i in range(4)]
        a = mp.matrix(16, 16)
        for i in range(4):
            for j in range(4):
                for k in range(4):
                    a[4 * i + j, 4 * k + j] += mm[i][k]
                    a[4 * i + j, 4 * i + k] += mm[j][k]
        rhs = mp.matrix(16, 1)
        rhs[1] = -2 * mp.mpf(kappa)
        s = mp.lu_solve(a, rhs)
        return [[s[4 * i + j] for j in range(4)] for i in range(4)]


def reference_observables(m, kappa: float, dps: int = 50) -> tuple[float, float]:
    """(delta_N, n_photon) = (Re <db+ db>, Re <da+ da>) of the reference."""
    s = reference_moments(m, kappa, dps)
    return float(mp.re(s[3][2])), float(mp.re(s[1][0]))



def _symmetric_power(g, power):
    """g^power of a real symmetric positive definite mpmath matrix."""
    e, q = mp.eigsy(g)
    return q * mp.diag([x ** power for x in e]) * q.T


def reference_ground_covariance(m, dps: int = 50):
    """Quadrature covariance sigma = <{X, X^T}> / 2 of the kappa = 0 ground
    state, X = Q R = (x_c, p_c, x_a, p_a), as a real mpmath matrix.

    G = -Omega Q M Q^dag is the Hamiltonian matrix of the quadratures, and
    sigma = G^(-1/2) (G^(1/2) Omega^T G Omega G^(1/2))^(1/2) G^(-1/2) / 2
    (Williamson's theorem), every power by ``mp.eigsy``.
    """
    with mp.workdps(dps):
        mm = mp.matrix([[mp.mpc(complex(m[i][j]).real, complex(m[i][j]).imag)
                         for j in range(4)] for i in range(4)])
        q = mp.matrix([[1, 1, 0, 0], [-1j, 1j, 0, 0],
                       [0, 0, 1, 1], [0, 0, -1j, 1j]]) / mp.sqrt(2)
        omega = mp.matrix([[0, 1, 0, 0], [-1, 0, 0, 0],
                           [0, 0, 0, 1], [0, 0, -1, 0]])
        g = -omega * q * mm * q.H
        g = mp.matrix([[mp.re(g[i, j] + g[j, i]) / 2 for j in range(4)]
                       for i in range(4)])
        root = _symmetric_power(g, 0.5)
        inv_root = _symmetric_power(g, -0.5)
        inner = _symmetric_power(root * omega.T * g * omega * root, 0.5)
        return inv_root * inner * inv_root / 2


def reference_ground_observables(m, dps: int = 50) -> tuple[float, float]:
    """(delta_N, n_photon) of the reference ground state: (sigma_xx +
    sigma_pp - 1) / 2 of the atom and of the photon."""
    with mp.workdps(dps):
        c = reference_ground_covariance(m, dps)
        return (float((c[2, 2] + c[3, 3] - 1) / 2),
                float((c[0, 0] + c[1, 1] - 1) / 2))
