"""Deterministic simulator and verdict harness for wall-confined
velocity-alignment flocks on the half-line and on bounded intervals."""

from .kernels import CommunicationKernel
from .potentials import (
    Geometry,
    WallDomainError,
    WallPotential,
)
from .dynamics import (
    FlockModel,
    FlockState,
    initial_condition,
)
from .integrator import (
    StiffnessError,
    Trajectory,
    integrate,
    integrate_batch,
)
from .observables import (
    FIELDS,
    write_diagnostics_csv,
)
from .verification import (
    Claim,
    FitResult,
    TheoremReport,
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
