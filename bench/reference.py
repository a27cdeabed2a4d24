"""High-precision reference values for the benchmark's output checks.

Everything here is written from the model's printed formulas with mpmath at
REF_DPS digits and shares no code with ``pdmosc``:

- the half-width a = sqrt(2/omega0) (A(A+1) - 2)^(1/4);
- the level count: levels n >= 0 with m = A - n above the normalizability
  threshold (1 + sqrt(1 + 2 omega0 a^3 |b|)) / 2, which is 1 at b = 0;
- energies from the (n + 1/2) harmonic form with its b^2 g/f term;
- psi_n from the normalized Jacobi closed form (Gegenbauer at b = 0), with
  the polynomials as explicit finite sums and the norm from the closed-form
  weighted Jacobi integral;
- the integer-l normalization constant of the quantized-length case;
- the constant-mass (Rosen-Morse II) energies -m^2 - B^2/m^2.
"""

from __future__ import annotations

from math import factorial

import mpmath as mp

# the program's double inputs are taken exactly, then worked at REF_DPS
REF_DPS = 32
# the explicit polynomial sums alternate in sign; at degree 60 they cancel
# about 20 digits, so they are summed with this many extra digits
SUM_EXTRA_DPS = 32

mp.mp.dps = REF_DPS


def half_width(omega0: float, A: float) -> mp.mpf:
    w, A = mp.mpf(omega0), mp.mpf(A)
    return mp.sqrt(2 / w) * mp.root(A * (A + 1) - 2, 4)


def tilt(omega0: float, A: float, b: float) -> mp.mpf:
    """B = -omega0 a^3 b / 2, the tilt of the hyperbolic source well."""
    return -mp.mpf(omega0) * half_width(omega0, A) ** 3 * mp.mpf(b) / 2


def threshold(omega0: float, A: float, b: float) -> mp.mpf:
    """Smallest admitted m = A - n is strictly above this value."""
    return (1 + mp.sqrt(1 + 4 * abs(tilt(omega0, A, b)))) / 2


def level_count(omega0: float, A: float, b: float) -> int:
    """Number of levels n >= 0 with A - n above the threshold."""
    room = mp.mpf(A) - threshold(omega0, A, b)
    return 0 if room <= 0 else int(mp.ceil(room))


def energy(omega0: float, A: float, b: float, n: int) -> mp.mpf:
    """E_n = w S (n+1/2) - (n+1/2)^2/a^2 - 5/(4a^2) + b^2 g/f, S = sqrt(1 + (3/(w a^2))^2)."""
    w, bb = mp.mpf(omega0), mp.mpf(b)
    a2 = half_width(omega0, A) ** 2
    half = n + mp.mpf(1) / 2
    e = w * mp.sqrt(1 + (3 / (w * a2)) ** 2) * half - half**2 / a2 - 5 / (4 * a2)
    f = (mp.mpf(A) - n) ** 2
    g = f - w**2 * a2**2 / 4
    return e + bb**2 * g / f


def energies(omega0: float, A: float, b: float) -> list[mp.mpf]:
    return [energy(omega0, A, b, n) for n in range(level_count(omega0, A, b))]


def jacobi_weighted_norm(n: int, alpha: mp.mpf, gamma: mp.mpf) -> mp.mpf:
    """Integral over (-1, 1) of (1-t)^(alpha-1) (1+t)^(gamma-1) P_n^(alpha,gamma)(t)^2.

    Closed form 2^(alpha+gamma-1) (alpha+gamma) G(n+alpha+1) G(n+gamma+1)
    / (n! alpha gamma G(n+alpha+gamma+1)); the benchmark's tests pin it
    against direct quadrature.
    """
    return (
        mp.power(2, alpha + gamma - 1)
        * (alpha + gamma)
        * mp.gamma(n + alpha + 1)
        * mp.gamma(n + gamma + 1)
        / (mp.factorial(n) * alpha * gamma * mp.gamma(n + alpha + gamma + 1))
    )


class Wavefunction:
    """Normalized psi_n(x) of the confined model, evaluated at REF_DPS digits.

    psi_n = N a^(-1/2) (1-t)^((m-1+beta)/2) (1+t)^((m-1-beta)/2) P_n^(m+beta, m-beta)(t)
    with t = x/a, m = A - n and beta = B/m.  At b = 0 the polynomial is taken
    as the Gegenbauer C_n^(m+1/2)(t) times (m+1)_n / (2m+1)_n.  The shift
    tilt B enters only through beta.
    """

    def __init__(self, omega0: float, A: float, b: float, n: int):
        self.a = half_width(omega0, A)
        self.n = n
        self.m = mp.mpf(A) - n
        self.beta = tilt(omega0, A, b) / self.m
        self.gegenbauer = b == 0.0
        alpha, gamma = self.m + self.beta, self.m - self.beta
        self.alpha, self.gamma = alpha, gamma
        self.coeff = 1 / mp.sqrt(self.a * jacobi_weighted_norm(n, alpha, gamma))
        with mp.extradps(SUM_EXTRA_DPS):
            if self.gegenbauer:
                self.coeff *= mp.rf(self.m + 1, n) / mp.rf(2 * self.m + 1, n)
                lam = self.m + mp.mpf(1) / 2
                # C_n^(lam)(t) = sum_k (-1)^k (lam)_(n-k) / (k! (n-2k)!) (2t)^(n-2k)
                self.terms = [
                    (-1) ** k * mp.rf(lam, n - k) / (mp.factorial(k) * mp.factorial(n - 2 * k))
                    for k in range(n // 2 + 1)
                ]
            else:
                # P_n^(al,ga)(t) = sum_s C(n+al, n-s) C(n+ga, s) ((t-1)/2)^s ((t+1)/2)^(n-s)
                self.terms = [
                    mp.binomial(n + alpha, n - s) * mp.binomial(n + gamma, s) for s in range(n + 1)
                ]

    def _poly(self, t: mp.mpf) -> mp.mpf:
        n = self.n
        if self.gegenbauer:
            return mp.fsum(c * (2 * t) ** (n - 2 * k) for k, c in enumerate(self.terms))
        lo, hi = (t - 1) / 2, (t + 1) / 2
        return mp.fsum(c * lo**s * hi ** (n - s) for s, c in enumerate(self.terms))

    def __call__(self, x: float) -> mp.mpf:
        t = mp.mpf(x) / self.a
        if abs(t) >= 1:
            return mp.mpf(0)
        with mp.extradps(SUM_EXTRA_DPS):
            poly = self._poly(t)
        env = mp.power(1 - t, (self.alpha - 1) / 2) * mp.power(1 + t, (self.gamma - 1) / 2)
        return self.coeff * env * poly


def quantized_norm(l: int, n: int, a: float) -> mp.mpf:
    """Coefficient of (1-t^2)^((l-n-1)/2) C_n^(l-n+1/2)(t) in psi_n at integer depth l.

    Factorial form (2l-2n)! / (2^(l-n) (l-n)!) * sqrt((l-n) n! / (a (2l-n)!)),
    with the factorials as exact integers.
    """
    lead = mp.mpf(factorial(2 * l - 2 * n)) / (mp.mpf(2) ** (l - n) * factorial(l - n))
    inner = mp.mpf((l - n) * factorial(n)) / factorial(2 * l - n)
    return lead * mp.sqrt(inner / mp.mpf(a))


def rm_energy(A: float, B: float, n: int) -> mp.mpf:
    """Rosen-Morse II level -(A-n)^2 - B^2/(A-n)^2."""
    m = mp.mpf(A) - n
    return -(m**2) - mp.mpf(B) ** 2 / m**2


def rel_diff(value: float, ref: mp.mpf) -> float:
    return float(abs(mp.mpf(value) - ref) / abs(ref))
