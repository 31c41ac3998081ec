"""Streaming recursive-ARX identification and grid-edge fault detection,
with a dq-frame small-signal simulator of the reference test circuit."""

from .baseline import VoltageLimits, limit_check
from .circuit import (
    CircuitParams,
    StateSpaceModel,
    fault_poles,
    full_circuit_model,
    load_poles,
    numeric_poles,
    simplified_fault_model,
    simplified_load_model,
)
from .detector import (
    DetectionEvent,
    NominalPredictor,
    Signature,
    SignatureLibrary,
    Thresholds,
    Verdict,
    build_library,
    calibrate_nominal,
    calibrate_thresholds,
    classify,
    classify_series,
    distances,
)
from .pipeline import IdentRun, identify
from .rls import (
    ArxConfig,
    IdentifierState,
    init_identifier,
    rls_update,
)
from .signals import RbsConfig, rbs_generate
from .simulate import DisturbanceSpec, SimResult, simulate

__version__ = "0.1.0"
