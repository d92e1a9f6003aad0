"""jetvar: exact symbolic verification of higher-dimensional Chern-Simons
conservation laws on jet bundles of connection bundles."""

from .algebra import (InvariantTensor, LieAlgebraData, builtin_algebra,
                      builtin_invariant, check_invariant_tensor, direct_sum,
                      gauge_generator, killing_form, load_lie_algebra,
                      section_bracket)
from .chern_simons import (CSData, canonical_curvature, characteristic_at_B,
                           characteristic_form, cs_form, cs_lagrangian)
from .forms import Form, contract, exterior_d, wedge
from .jets import (JetContext, contact_form, horizontal_differential,
                   horizontal_projection, total_derivative)
from .polynomial import Poly, Q
from .variational import (Lagrangian, VerificationReport, conservation_check,
                          euler_lagrange, first_variational_check,
                          invariant_sector, lie_derivative_lagrangian,
                          noether_current, sigma_boundary_term)

__version__ = "0.1.0"
