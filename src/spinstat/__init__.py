"""spinstat: statistics of repeated spin measurements on prepared ensembles.

Three prediction routes for the total spin of an ensemble measured along an
axis -- exact preparation-aware distributions, Monte Carlo simulation of
single-particle measurements, and the density-operator formalism -- plus the
demonstration that preparations sharing a density matrix can still differ in
total-spin variance, which no single "variance operator" can accommodate.
"""

from .density import (
    DensityMatrix,
    DensityOp,
    density_equal,
    density_matrix,
    density_operator,
    entrywise_difference,
    expectation_tr,
    purity,
    statistical_average_expectation,
    variance_tr,
)
from .ensemble import (
    EnsembleComponent,
    EnsembleSpec,
    ensemble_from_json,
    make_ensemble_A,
    make_ensemble_B,
    make_pair_ensemble,
)
from .harness import (
    ComparisonReport,
    ConfigError,
    DensityCheck,
    ExperimentConfig,
    OutputError,
    Verdict,
    demo_paradox,
    render_report,
    run_experiment,
)
from .montecarlo import (
    PredictionReport,
    TotalSpinDistribution,
    TrialStatistics,
    exact_total_distribution,
    preparation_aware_prediction,
    run_trials,
)
from .paradox import (
    PseudoOperatorReport,
    annihilation_residual,
    fixed_operator_infeasibility,
    null_operator_contradiction,
    variance_pseudo_operator,
)
from .qcore import (
    EigenSystem,
    HermitianOp,
    Spinor,
    apply,
    eigensystem,
    expectation,
    inner_product,
    outer_product,
    trace_product,
)
from .spin import (
    Axis,
    HbarScale,
    SpinOutcome,
    X,
    Y,
    Z,
    born_probability,
    eigenstate,
    spin_operator,
    state_mean_and_variance,
)

__version__ = "0.1.0"

__all__ = [
    "Axis",
    "ComparisonReport",
    "ConfigError",
    "DensityCheck",
    "DensityMatrix",
    "DensityOp",
    "EigenSystem",
    "EnsembleComponent",
    "EnsembleSpec",
    "ExperimentConfig",
    "HbarScale",
    "HermitianOp",
    "OutputError",
    "PredictionReport",
    "PseudoOperatorReport",
    "SpinOutcome",
    "Spinor",
    "TotalSpinDistribution",
    "TrialStatistics",
    "Verdict",
    "X",
    "Y",
    "Z",
    "annihilation_residual",
    "apply",
    "born_probability",
    "demo_paradox",
    "density_equal",
    "density_matrix",
    "density_operator",
    "eigensystem",
    "eigenstate",
    "ensemble_from_json",
    "entrywise_difference",
    "exact_total_distribution",
    "expectation",
    "expectation_tr",
    "fixed_operator_infeasibility",
    "inner_product",
    "make_ensemble_A",
    "make_ensemble_B",
    "make_pair_ensemble",
    "null_operator_contradiction",
    "outer_product",
    "preparation_aware_prediction",
    "purity",
    "render_report",
    "run_experiment",
    "run_trials",
    "spin_operator",
    "state_mean_and_variance",
    "statistical_average_expectation",
    "trace_product",
    "variance_pseudo_operator",
    "variance_tr",
]
