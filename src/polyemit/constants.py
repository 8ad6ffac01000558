"""Physical constants and unit conversion factors.

All quantities SI. The values are CODATA 2022 literals (Mohr et al.,
NIST), so no output depends on the installed scipy's CODATA edition.
"""

HBAR = 1.0545718176461565e-34        # J s
EPS0 = 8.8541878188e-12              # F / m
C0 = 299792458.0                     # m / s (a float: C0 ** 3 rounds as one)
E_CHARGE = 1.602176634e-19           # C
BOHR_RADIUS = 5.29177210544e-11      # m
BOHR_MAGNETON = 9.2740100657e-24     # J / T

# atomic-unit conversion factors for emitter moments
ATOMIC_DIPOLE = E_CHARGE * BOHR_RADIUS           # C m  (e a0)
ATOMIC_QUADRUPOLE = E_CHARGE * BOHR_RADIUS ** 2  # C m^2  (e a0^2)
