"""Physical constants and unit conversion factors.

All quantities SI. CODATA values come from scipy.constants so the whole
package shares one source of truth.
"""

from scipy import constants as _sc

HBAR = _sc.hbar                      # J s
EPS0 = _sc.epsilon_0                 # F / m
C0 = _sc.c                           # m / s
E_CHARGE = _sc.e                     # C
BOHR_RADIUS = _sc.physical_constants["Bohr radius"][0]       # m
BOHR_MAGNETON = _sc.physical_constants["Bohr magneton"][0]   # J / T

# atomic-unit conversion factors for emitter moments
ATOMIC_DIPOLE = E_CHARGE * BOHR_RADIUS           # C m  (e a0)
ATOMIC_QUADRUPOLE = E_CHARGE * BOHR_RADIUS ** 2  # C m^2  (e a0^2)
