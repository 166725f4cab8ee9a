"""culsim: snoop-based MOESI/ACE coherent-cluster simulator and verifier."""

from .protocol import (
    CoherentKind,
    CoreOp,
    LineState,
    OpKind,
    SnoopResponse,
    completion_state,
    initiator_action,
    snoopee_transition,
)
from .sim import SimConfig, SimStats, Simulation, build, parse_config

__version__ = "0.1.0"

__all__ = [
    "CoherentKind",
    "CoreOp",
    "LineState",
    "OpKind",
    "SimConfig",
    "SimStats",
    "Simulation",
    "SnoopResponse",
    "build",
    "completion_state",
    "initiator_action",
    "parse_config",
    "snoopee_transition",
    "__version__",
]
