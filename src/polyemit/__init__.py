"""Multipolar emitters in structured electromagnetic environments.

Decay rates, level shifts, and pairwise couplings of two-level emitters
with electric-dipole, magnetic-dipole, and electric-quadrupole transition
moments, driven by analytic or sampled electromagnetic Green tensors, plus
collective decay dynamics of small emitter ensembles.
"""

from .errors import (PolyemitError, InputError, CoincidentPointError,
                     MissingDerivativeError, PartFlagError, GridFormatError,
                     GridDomainError, QuadratureError, ModelDomainError,
                     IntegrationError)
from .jets import GreensJet
from .homogeneous import (Medium, eval_homogeneous, eval_homogeneous_jet,
                          coincident_im_jet)
from .emitter import MultipoleEmitter, normalize_channels
from .quadrature import (QuadratureResult, SpectralGreenModel,
                         imaginary_axis_form, lorentzian_model,
                         homogeneous_pair_model)
from .rates import (RateReport, CouplingReport, emission_rate,
                    free_space_rates, lamb_shift, coupling_strength,
                    collective_rate, build_ensemble, enhancement_map)
from .grid import (TensorGrid, save_grid, load_grid, validate_grid,
                   grid_from_homogeneous, GridValidationReport)
from .dynamics import (EmitterEnsembleModel, Trajectory, product_density,
                       pure_density, evolve_ensemble)

__version__ = "0.1.0"
