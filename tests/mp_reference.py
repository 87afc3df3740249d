"""Test-only 50-digit reference: the Kronecker solve of M S + S M^T + D = 0.

It takes the double-precision ladder-basis stability matrix as given
(``build_stability_matrix(p).m``), so it measures the forward error of a
route on the same input, and shares no code with the package: the
Lyapunov equation is vectorized row-major, (M (x) I + I (x) M) vec(S) =
-vec(D) with D[0, 1] = 2 kappa, and solved by mpmath LU at ``dps`` digits.
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
