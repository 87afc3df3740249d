"""Test-only exact reference for the entries of the stability matrix M.

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

The package never imports this module.
"""

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
