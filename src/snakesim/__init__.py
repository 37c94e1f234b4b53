"""Simulation, calibration and gait design for undulating locomotors.

The package models a segmented body whose vertices dissipate energy through
an anisotropic friction metric.  Trajectories follow from a variational
principle: every step of the discrete motion has vanishing geometric
momentum.  On top of the integrator sit tools to calibrate the anisotropy
ratio against recorded motion, to optimize gait parameters against a
displacement/energy trade-off, and to compare locomotion performance across
bodies.
"""

from .errors import (
    EmptyInput,
    FileFormatError,
    InvalidAnisotropy,
    InvalidParameter,
    NoConvergence,
    NonFiniteLoss,
    NonPositiveWeight,
    ShapeMismatch,
    SnakesimError,
    ZeroLengthEdge,
)
from .geometry import (
    PositionedShape,
    RigidMotion,
    center_of_mass,
    curve_from_curvature,
    tangents_from_vertices,
)
from .shapespace import (
    GAIT_KEYS,
    GaitEllipse,
    gait_to_shape_sequence,
    read_gait_file,
    sample_gait,
    serpenoid_curvature,
    write_gait_file,
)
from .dynamics import (
    DissipationParams,
    StepSolution,
    Trajectory,
    geometric_momentum,
    integrate_motion_trajectory,
    local_tensor,
    position_step,
    read_trajectory_csv,
    step_energy,
    total_energy,
    write_step_energies_csv,
    write_trajectory_csv,
)
from .calibration import (
    AnisotropyFit,
    ComCurve,
    MocapTrajectory,
    com_curve,
    extract_shapes,
    fit_anisotropy,
    read_mocap_csv,
    read_weights_file,
    resimulate,
    rms_error,
    write_mocap_csv,
    write_weights_file,
)
from .optimize import (
    DEFAULT_BOUNDS,
    DISSIPATION_COEFFICIENT_GRID,
    EvaluationRecord,
    GaitBounds,
    ObjectiveConfig,
    SimConfig,
    evaluate_gait,
    evaluate_gaits,
    optimize_gait,
    random_gait,
    read_report_csv,
    simulate_gait,
    write_report_csv,
)
from .analysis import (
    ClassDisplacements,
    PowerLog,
    cost_of_transport,
    performance_ratios,
    ratio_quotients,
    simulated_power_proxy,
    trial_stats,
)

__version__ = "0.1.0"
