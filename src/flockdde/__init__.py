"""Delayed normalized-communication alignment hydrodynamics toolkit.

Simulates the Lagrangian form of the pressureless alignment system with
delayed, normalized communication; certifies exponential flocking via the
kernel-tail sufficient condition; monitors the Lyapunov functional and
velocity bounds; classifies 1-D critical thresholds; and times blow-up.
"""

from .config import ConfigError, RunConfig, SweepConfig
from .diagnostics import (
    DiagnosticsFrame,
    FlockingCertificate,
    FlockingMonitor,
    certify_flocking,
    diameters,
    fit_decay_rate,
    gronwall_rate,
    prehistory_frames,
)
from .dynamics import (
    BlowupEvent,
    BlowupSignal,
    SimulationResult,
    SingularNormalizerError,
    alignment_rhs,
    integrate,
    step,
)
from .kernel import CuckerSmaleKernel, TabulatedKernel
from .state import (
    BoxDomain,
    ConstantVelocity,
    HistoryBuffer,
    InitialDatum,
    InvalidDatumError,
    LagrangianEnsemble,
    LinearVelocity,
    NodeSet,
    OutOfWindowError,
    SineVelocity,
    SliceTableVelocity,
    discretize,
)
from .threshold1d import ThresholdVerdict, classify

__version__ = "0.1.0"
