"""Deterministic simulator and verdict harness for wall-confined
velocity-alignment flocks on the half-line and on bounded intervals."""

from .kernels import CommunicationKernel
from .potentials import (
    Geometry,
    WallDomainError,
    WallPotential,
    check_domain,
    geometry_force,
    warn_if_overlapping,
)
from .dynamics import (
    FlockModel,
    FlockState,
    acceleration,
    initial_condition,
)
from .integrator import (
    StiffnessError,
    Trajectory,
    integrate,
    integrate_batch,
    reference_rk4,
)
from .observables import (
    FIELDS,
    DiagnosticsRecord,
    diagnostics,
    dissipation_residual,
    initial_energy,
    write_diagnostics_csv,
)
from .verification import (
    Claim,
    FitResult,
    IntervalDecayResult,
    SettlementResult,
    TheoremReport,
    check_alignment,
    check_interval_decay,
    check_no_collision,
    check_settlement,
    check_work_of_force,
    detect_escape,
    fit_exponential,
    verify,
    verify_batch,
)
from .config import (
    ConfigError,
    InitialConditions,
    RunConfig,
    config_from_data,
    initial_state_from_config,
    model_from_config,
    parse_config,
    read_config_text,
    serialize_config,
)

__version__ = "0.1.0"
