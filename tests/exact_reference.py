"""Test-only exact reference for the entries of the stability matrix M, for
the kappa > 0 steady state they fix and for its log-negativity at threshold.

Every row's M has the shape fixed by three real numbers (Delta, omega, g):
the cavity entry M00 = i Delta - kappa, the side-mode entry M22 = -i omega,
and the pump coupling |2 M02| = g, with M20 = -conj(M02).  They are derived
here from the model's physics, not from the package's linearization, in
``fractions.Fraction`` on the double inputs, so they carry no rounding.  In
recoil units (omega_r = 1) the critical pump is

    y_c^2 = (delta_c^2 + kappa^2) / |delta_c|.

Normal phase (y <= y_c), at every u.  The condensate sits in the mode
|0>, beta0 = alpha0 = 0.  The cavity sees no atomic shift (u beta0^2 = 0),
the side mode keeps its recoil frequency, and the pump couples the photon
to the side mode with its bare strength:

    (Delta, omega, g) = (delta_c, omega_r, y).

Superradiant phase (y > y_c) at u = 0.  The stationarity conditions of
``opendicke.model`` read, at u = 0,

    (i delta_c - kappa) alpha0 = -y beta0 sqrt(1 - beta0^2)
    omega_r beta0 = -y Im(alpha0) (1 - 2 beta0^2) / sqrt(1 - beta0^2).

The first gives Im alpha0 = y beta0 sqrt(1 - beta0^2) delta_c /
(delta_c^2 + kappa^2); put into the second and divided by beta0 > 0,

    omega_r = y^2 |delta_c| (1 - 2 beta0^2) / (delta_c^2 + kappa^2)
            = omega_r (y^2 / y_c^2) (1 - 2 beta0^2),

so 1 - 2 beta0^2 = y_c^2 / y^2.  The atoms then fill the ground state of
the two-level single-particle Hamiltonian h = [[0, Y], [Y, omega_r]] in the
modes (|0>, |1>), whose pump field Y makes 1 - 2 beta0^2 = omega_r / E with
E = sqrt(omega_r^2 + 4 Y^2) the level splitting.  The fluctuation mode is
the orthogonal (excited) state of h, so

* its frequency is the splitting, omega = E = omega_r / (1 - 2 beta0^2)
  = y^2 / y_c^2 (omega_r = 1);
* the pump operator |0><1| + |1><0| connects the two eigenstates of h with
  the matrix element cos^2 theta - sin^2 theta = 1 - 2 beta0^2, so the
  photon couples to it with g = y (1 - 2 beta0^2) = y_c^2 / y;
* u = 0 leaves the cavity detuning alone, Delta = delta_c.

    (Delta, omega, g) = (delta_c, y^2 / y_c^2, y_c^2 / y).

Steady state, kappa > 0.  Every row's drift matrix is a rotation of the
cavity quadratures of

    A_c = [[-kappa, -Delta,  g,      0],
           [ Delta, -kappa,  0,      0],
           [ 0,      0,      0,  omega],
           [ 0,     -g,     -omega,  0]]

in the quadrature order (x_a, p_a, x_b, p_b), with the vacuum at 1/2 I.  Its
symmetric covariance sigma solves the Lyapunov equation

    A_c sigma + sigma A_c^T + kappa diag(1, 1, 0, 0) = 0,

ten linear equations in the ten entries of sigma, solved here by exact
elimination.  delta_N = (sigma22 + sigma33 - 1) / 2 and
n_photon = (sigma00 + sigma11 - 1) / 2 are traces of the two diagonal
blocks, so the cavity rotation, whose phase the inputs leave open, does not
change them.

Entanglement at threshold.  With Z = Delta^2 omega + Delta g^2 +
kappa^2 omega, the ten equations have the solution

    sigma = R + c v v^T,   c = -1 / (4 Delta Z),
    v = (g kappa, g Delta, Delta^2 + kappa^2, 0),

where R is zero but for R00 = R11 = 1/2, R22 = -omega / (4 Delta),
R33 = -(Delta^2 + kappa^2 + omega^2) / (4 Delta omega) and
R03 = R30 = g / (4 Delta); substituting it into the Lyapunov equation checks
it.  Z vanishes at threshold, where g^2 = y_c^2 = -(Delta^2 + kappa^2) omega
/ Delta, so c is the diverging part.  The partial transpose p_b -> -p_b
leaves v alone (v3 = 0) and flips the sign of R03; call the result R~.  The
symplectic eigenvalues of sigma~ = R~ + c v v^T obey nu_-^2 nu_+^2 = det
sigma~ and nu_-^2 + nu_+^2 = Delta~ = -tr((Omega sigma~)^2) / 2, and both
are linear in c:

    det sigma~ = det R~ + c v^T adj(R~) v          (determinant lemma),
    Delta~     = Delta~(R~) + c (Omega v)^T R~ (Omega v)   (v^T Omega v = 0).

So nu_-^2 = 2 det sigma~ / (Delta~ + sqrt(Delta~^2 - 4 det sigma~)) tends
to the ratio of the two coefficients of c.  R~ splits into the blocks
{1}, {2} and {0, 3}, and at threshold the coefficients are

    v^T adj(R~) v = -(Delta^2 + kappa^2)^2 (4 Delta^4 + 4 Delta^2 kappa^2
                     + 4 Delta^2 omega^2 + omega^4) / (64 Delta^3 omega),
    (Omega v)^T R~ (Omega v) = (Delta^2 + kappa^2) (g^2 + (Delta^2 + kappa^2)
                     R33) = -(Delta^2 + kappa^2)^2 (Delta^2 + kappa^2
                     + 5 omega^2) / (4 Delta omega),

so that

    nu_-*^2 = (4 Delta^4 + 4 Delta^2 kappa^2 + 4 Delta^2 omega^2 + omega^4)
              / (16 Delta^2 (Delta^2 + kappa^2 + 5 omega^2))

and E_N* = max(0, -ln 2 nu_-*).  The frame tends to (delta_c, 1, y_c) from
both sides of threshold at every u, so E_N has this limit from both sides.
It is positive exactly where 4 nu_-*^2 < 1, which reduces to
16 Delta^2 > omega^2: at |delta_c| > omega_r / 4, whatever kappa.

The package never imports this module.
"""

import math
from fractions import Fraction


def critical_pump_squared(delta_c: float, kappa: float) -> Fraction:
    """y_c^2 = (delta_c^2 + kappa^2) / |delta_c| of the double inputs, exactly."""
    d, k = Fraction(delta_c), Fraction(kappa)
    if d >= 0:
        raise ValueError(f"no threshold for delta_c = {delta_c!r}")
    return (d * d + k * k) / -d


def entries(delta_c: float, kappa: float, u: float,
            y: float) -> tuple[Fraction, Fraction, Fraction]:
    """(Delta, omega, g) of the double inputs, exactly: in the normal phase at
    every u, in the superradiant phase at u = 0 (module docstring)."""
    y_c_sq, y = critical_pump_squared(delta_c, kappa), Fraction(y)
    if y * y <= y_c_sq:
        return Fraction(delta_c), Fraction(1), y
    if u != 0:
        raise ValueError("the superradiant reference holds at u = 0 only")
    return Fraction(delta_c), y * y / y_c_sq, y_c_sq / y


def steady_state(delta_c: float, kappa: float, u: float,
                 y: float) -> tuple[Fraction, Fraction]:
    """(delta_N, n_photon) of the kappa > 0 steady state of the double inputs,
    exactly, from the Lyapunov equation of A_c (module docstring); raises
    ValueError where it has no unique solution, as at zero pump."""
    delta, omega, g = entries(delta_c, kappa, u, y)
    k = Fraction(kappa)
    a = [[-k, -delta, g, 0], [delta, -k, 0, 0], [0, 0, 0, omega], [0, -g, -omega, 0]]
    pairs = [(i, j) for i in range(4) for j in range(i, 4)]
    col = {pair: n for n, pair in enumerate(pairs)}
    # One equation per (i, j), i <= j: sum_m a[i][m] sigma[m][j]
    # + sigma[i][m] a[j][m] = -kappa [i == j < 2], with sigma symmetric.
    rows = []
    for i, j in pairs:
        row = [Fraction(0)] * 10 + [-k if i == j < 2 else Fraction(0)]
        for m in range(4):
            row[col[min(m, j), max(m, j)]] += a[i][m]
            row[col[min(i, m), max(i, m)]] += a[j][m]
        rows.append(row)
    for c in range(10):
        pivot = next((r for r in range(c, 10) if rows[r][c]), None)
        if pivot is None:
            raise ValueError(f"no unique steady state at {(delta_c, kappa, u, y)!r}")
        rows[c], rows[pivot] = rows[pivot], rows[c]
        for r in range(10):
            if r != c and rows[r][c]:
                f = rows[r][c] / rows[c][c]
                rows[r] = [x - f * z if z else x for x, z in zip(rows[r], rows[c])]
    sigma = {pair: rows[n][10] / rows[n][n] for pair, n in col.items()}
    return ((sigma[2, 2] + sigma[3, 3] - 1) / 2,
            (sigma[0, 0] + sigma[1, 1] - 1) / 2)


def threshold_log_negativity(delta_c: float, kappa: float) -> float:
    """E_N* = max(0, -ln 2 nu_-*), the limit of the steady state's
    log-negativity at threshold (module docstring), from the exact nu_-*^2."""
    d_sq, k_sq = Fraction(delta_c) ** 2, Fraction(kappa) ** 2
    nu_sq = (4 * d_sq * (d_sq + k_sq + 1) + 1) / (16 * d_sq * (d_sq + k_sq + 5))
    return max(0.0, -0.5 * math.log(4 * nu_sq))
