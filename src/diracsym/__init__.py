"""diracsym: Dirac operators on Lorentzian charts at the symbol level.

Builds generalized Dirac operators as first-order matrix systems over a
chosen chart, certifies the Clifford-module axioms and the real principal
type property numerically, integrates null bicharacteristics, and compares
the symbol-level polarization transport against pulled-back spinor parallel
transport along them.
"""

__version__ = "0.1.0"

from .errors import (
    ChartMapDegenerate,
    ConfigError,
    DegenerateMetric,
    DiracsymError,
    FrameDegenerate,
    KernelViolation,
    NotFutureDirected,
    NotOnCharacteristicSet,
    NotTimelike,
    OutsideChart,
    StepUnderflow,
    UnsupportedDimension,
    ZeroCovector,
)
from .geometry import (
    FrameSample,
    MetricField,
    PhasePoint,
    Trajectory,
    catalog_metric,
    conformal_flat,
    eval_metric,
    hamiltonian_field,
    hamiltonian_q,
    integrate_bicharacteristic,
    metric_derivative,
    minkowski,
    null_project_covector,
    orthonormal_frame,
    random_chart_point,
    random_null_covector,
    schwarzschild,
    schwarzschild_isotropic,
)
from .clifford import (
    AxiomResult,
    CertificateReport,
    CliffordModuleRep,
    SampleSpec,
    build_canonical_module,
    certify_axioms,
    gamma_matrices,
    q_operator,
    spin_connection_matrix,
)
from .symbols import (
    FirstOrderSystem,
    PrincipalTypeCertificate,
    SymbolPackage,
    certify_principal_type,
    certify_principal_types,
    dirac_system,
    kernel_basis,
    matrix_poisson_bracket,
    principal_symbol,
    resolve_timelike_field,
    sigma_tilde,
    subprincipal_symbol,
    symbol_package,
)
from .transport import (
    ChartMap,
    HamiltonianOrbit,
    PolarizationState,
    TransportReport,
    compare_transports,
    covariance_check,
    minkowski_boost_map,
    schwarzschild_isotropic_map,
    transport_denker,
    transport_spin,
)

__all__ = [n for n in dir() if not n.startswith("_")]
