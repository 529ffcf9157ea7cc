"""Flow-level performance toolkit for two-carrier processor-sharing cells.

Submodules:

* :mod:`caflow.model` -- domain types, rate functions, closed-form results
* :mod:`caflow.ctmc` -- truncated Markov generator and stationary solver
* :mod:`caflow.sim` -- exact event-driven simulator of the untruncated process
* :mod:`caflow.capacity` -- throughput-target inversion and scenario presets
* :mod:`caflow.cli` -- configuration files, experiment runners, CSV emission
"""

from .errors import (
    CaflowError,
    ConfigError,
    ConvergenceError,
    DegenerateSolveError,
    InfeasibleTargetError,
    StateSpaceTooLargeError,
    UnstableSystemError,
    UnsupportedGeometryError,
)
from .model import (
    AreaSpec,
    CellConfig,
    Policy,
    TrafficMix,
    departure_rates,
    dc_only_throughput,
    fluid_total_drift,
    harmonic_capacity,
    mixed_mean_throughput,
    offered_load,
    ring_area_probabilities,
    sc_carrier1_share,
    theta_approximation,
)

__version__ = "0.1.0"
