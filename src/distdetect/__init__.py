"""Decentralized detection over wireless sensor networks.

Sensors compute local energy statistics, quantize them at the rate
their reporting channel can carry, and a fusion center combines the
received values with optimal linear weights. Transmit powers are chosen
either by a centralized water-filling solver or by a fully distributed
dual-ascent protocol whose only inter-sensor exchange is each sensor's
current power, averaged over the network by consensus.
"""

from .consensus import (
    ConsensusError,
    ConsensusResult,
    Graph,
    TopologyError,
    consensus_average,
    metropolis_matrix,
    random_geometric_graph,
    save_edge_list,
)
from .fusion import (
    DeflectionInputs,
    DegenerateFusionError,
    FusionMoments,
    FusionWeights,
    analytic_pd,
    deflection,
    deflection_inputs,
    equal_weights,
    fuse,
    fusion_moments,
    optimal_weights,
    qfunc,
    qfunc_inv,
)
from .model import (
    Scenario,
    SensorParams,
    SolverConfig,
    Statistic,
    build_sensors,
    derive_stream,
    make_scenario,
    make_topology,
)
from .montecarlo import (
    DetectionEstimate,
    Scheme,
    detection_threshold,
    quantized_gaussian_moments,
    roc_curve,
    run_trials,
    sweep_budget,
)
from .quantize import (
    QuantSpec,
    capacity_bits,
    quant_noise_var,
    quantize_array,
    specs_for_allocation,
)
from .solver_central import (
    NoSignalError,
    PowerAllocation,
    ScaleError,
    power_closed_form,
    solve_centralized,
    total_power,
)
from .solver_dist import (
    ConvergenceError,
    DualAscentTrace,
    dual_update,
    local_power_update,
    solve_distributed,
)

__version__ = "0.1.0"
