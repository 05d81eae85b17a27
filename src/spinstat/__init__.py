"""spinstat: statistics of repeated spin measurements on prepared ensembles.

Three prediction routes for the total spin of an ensemble measured along an
axis -- exact preparation-aware distributions, Monte Carlo simulation of
single-particle measurements, and the density-operator formalism -- plus the
demonstration that preparations sharing a density matrix can still differ in
total-spin variance, which no single "variance operator" can accommodate.
"""

from .density import density_equal, density_operator
from .ensemble import make_ensemble_A, make_ensemble_B
from .montecarlo import exact_total_distribution, preparation_aware_prediction, run_trials
from .spin import X

__version__ = "0.1.0"

# The names the README's "Library use" example imports; everything else is
# imported from its submodule.
__all__ = [
    "X",
    "density_equal",
    "density_operator",
    "exact_total_distribution",
    "make_ensemble_A",
    "make_ensemble_B",
    "preparation_aware_prediction",
    "run_trials",
]
