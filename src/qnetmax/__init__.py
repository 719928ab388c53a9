"""Maximal quantum violations of bilocality and star-network nonlocality tests.

Closed-form maxima for two-qubit sources from the correlation spectrum, an
exact simulator for separable and Bell-state central measurements, a
numerical optimizer that certifies the closed forms, and region scans over
standard noise families.
"""

from .classify import (
    RegionFlags,
    ScanRow,
    classify_pair,
    classify_values,
    colored_scan,
    rows_to_csv,
    werner_scan,
)
from .correlations import (
    BilocalSettings,
    OutcomeDistribution,
    StarBranch,
    StarSettings,
    bilocal_settings_from_json,
    bilocality_value,
    correlator_from_distribution,
    outcome_distribution,
    star_settings_from_json,
    star_value,
    zx_diagonal_settings,
)
from .criteria import (
    MaxReport,
    TSpectrum,
    bilocality_max,
    chsh_max,
    network_report,
    phi_plus_comparison,
    star_max,
    star_supremum,
    star_witness_settings,
    t_spectrum,
)
from .errors import (
    ClosedFormExceededError,
    EmptyNetworkError,
    MissingInputTupleError,
    NoConvergenceError,
    NotHermitianError,
    NotPSDError,
    ParameterOutOfRangeError,
    QnetmaxError,
    SettingsArityMismatchError,
    SettingsFormatError,
    StateFormatError,
    TraceNotOneError,
    UnknownSuiteError,
    ValidationError,
)
from .oracle import (
    ChshSettings,
    OptimizerConfig,
    OptimumCertificate,
    chsh_value,
    maximize_bilocality,
    maximize_chsh,
    maximize_star,
    stationarity_tangents,
)
from .qstate import (
    CorrelationMatrix,
    TwoQubitState,
    apply_local_unitaries,
    bell_state,
    bloch_rotation,
    bloch_vectors,
    colored_noise_state,
    correlation_matrix,
    load_json,
    load_state,
    make_state,
    random_state,
    random_unit_vector,
    random_unitary,
    state_from_json,
    swap_qubits,
    unit_vector,
    werner_state,
)
from .swap import (
    BsmDistribution,
    bilocality_from_bsm,
    bsm_correlator,
    bsm_distribution,
    bsm_operator,
    distribution_to_csv,
    observable_identity_residual,
    swap_settings_from_json,
    theorem1_check,
)

__version__ = "0.1.0"
