"""Test-only high-precision references on the double-precision input.

Each takes the double matrix as given (the ladder-basis stability matrix
``build_stability_matrix(p).m``, or the drift matrix A of a pump), so they
measure the forward error of a route on the same input, and share no code
with the package:

* the steady state is the Kronecker solve of M S + S M^T + D = 0, vectorized
  row-major, (M (x) I + I (x) M) vec(S) = -vec(D) with D[0, 1] = 2 kappa,
  by mpmath LU at ``dps`` digits;
* the kappa = 0 ground state is Williamson's covariance of the quadrature
  Hamiltonian matrix G, from symmetric mpmath eigen-solves;
* an exceptional point of the spectrum is the double pump where the sign of
  the discriminant of A's characteristic polynomial, both at ``dps`` digits,
  changes (``discriminant_root`` takes the polynomial itself, so that a test
  can build it from exact entries in place of a double matrix).

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


def _charpoly(a):
    """(1, c3, c2, c1, c0) of det(x - A) = x^4 + c3 x^3 + ... + c0 of an
    mpmath 4x4 matrix, by the Faddeev-LeVerrier recursion."""
    coeffs, mk = [mp.mpf(1)], mp.zeros(4, 4)
    for k in range(1, 5):
        mk = a * mk + coeffs[-1] * mp.eye(4)
        am = a * mk
        coeffs.append(-sum(am[i, i] for i in range(4)) / k)
    return coeffs


def _quartic_discriminant(coeffs):
    """prod_{i<j} (x_i - x_j)^2 times a^6 of a x^4 + b x^3 + c x^2 + d x + e:
    > 0 with four real roots or two conjugate pairs, < 0 with two real
    roots and one pair."""
    a, b, c, d, e = coeffs
    return (256 * a**3 * e**3 - 192 * a**2 * b * d * e**2
            - 128 * a**2 * c**2 * e**2 + 144 * a**2 * c * d**2 * e
            - 27 * a**2 * d**4 + 144 * a * b**2 * c * e**2
            - 6 * a * b**2 * d**2 * e - 80 * a * b * c**2 * d * e
            + 18 * a * b * c * d**3 + 16 * a * c**4 * e - 4 * a * c**3 * d**2
            - 27 * b**4 * e**2 + 18 * b**3 * c * d * e - 4 * b**3 * d**3
            - 4 * b**2 * c**3 * e + b**2 * c**2 * d**2)


def reference_endpoint(drift, y_in: float, y_out: float, dps: int = 60) -> float:
    """The exceptional point between the pumps y_in and y_out, in double y.

    ``drift(y)`` is the real 4x4 double matrix whose eigenvalues are tracked;
    its characteristic polynomial is evaluated at ``dps`` digits
    (``discriminant_root``).
    """
    def charpoly(y: float):
        a = drift(y)
        return _charpoly(mp.matrix([[mp.mpf(float(a[i][j])) for j in range(4)]
                                    for i in range(4)]))

    return discriminant_root(charpoly, y_in, y_out, dps)


def discriminant_root(charpoly, y_in: float, y_out: float, dps: int = 60) -> float:
    """The double pump between y_in and y_out where the discriminant of the
    quartic ``charpoly(y)``, (1, c3, c2, c1, c0) at the working precision,
    changes sign.

    Both are evaluated at ``dps`` digits, and the sign is bisected down to
    two adjacent doubles; the one on y_in's side is returned.
    """
    def sign(y: float) -> int:
        with mp.workdps(dps):
            return int(mp.sign(_quartic_discriminant(charpoly(y))))

    inside = sign(y_in)
    if inside == 0 or sign(y_out) != -inside:
        raise ValueError(f"no sign change of the discriminant on [{y_in!r}, {y_out!r}]")
    while True:
        mid = 0.5 * (y_in + y_out)
        if mid in (y_in, y_out):
            return y_in
        if sign(mid) == inside:
            y_in = mid
        else:
            y_out = mid
