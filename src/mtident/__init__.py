"""Moving-target sensing schedules for sensor-attack identification.

A defender that switches a plant's dynamics and output map through a secret,
randomly scheduled family of configurations can unambiguously identify
additive sensor attacks that would be invisible under any fixed
configuration. This package provides the system and schedule model, the
identifiability analysis (including the eigenstructure test for cross-model
attacks on constant schedules), central and per-sensor Kalman filtering with
minimum-variance fusion, windowed chi-square detection with sensor removal,
a set of reference attacker policies, and seeded end-to-end scenarios.
"""

from types import ModuleType as _ModuleType

from .detection import (
    Chi2Detector,
    Chi2Result,
    DetectorConfig,
    identify_and_remove,
    threshold_from_alpha,
)
from .errors import (
    AttackSetError,
    ConditioningError,
    ConfigError,
    DecompositionError,
    DegenerateWitnessError,
    FilterError,
    ModelError,
    MtidentError,
)
from .estimation import (
    CentralKalmanFilter,
    FusionEstimator,
    LocalFilterBank,
    bias_recursion,
    kalman_decomposition,
)
from .identifiability import (
    STATUS_CONSISTENT,
    STATUS_IDENTIFIED,
    analyze_target_set,
    construct_cross_model_attack,
    cross_model_unidentifiability,
    guess_attack_feasibility,
    is_sparse_observable,
    jordan_chains,
    sensor_consistency_check,
    sparse_observability_margin,
    time_varying_observability,
)
from .adversary import (
    AttackPolicy,
    CrossModelPolicy,
    GuessingPolicy,
    OmniscientSchedulePolicy,
    PersistentBiasPolicy,
    dominant_unstable_direction,
)
from .matrixio import (
    read_matrix,
    read_vector,
    write_matrix,
    write_vector,
)
from .scenario import (
    AttackSpec,
    DetectorSpec,
    Plant,
    RunReport,
    ScenarioConfig,
    ScheduleSpec,
    SystemSpec,
    build_system,
    config_from_dict,
    generate_example_system,
    load_config,
    monte_carlo,
    run_scenario,
    trial_config,
    write_monte_carlo_outputs,
    write_run_outputs,
)
from .system_model import (
    AttackSet,
    LtiPair,
    NoiseModel,
    TargetSet,
    sample_schedule,
    schedule_key,
    simulate_deterministic,
    simulate_stochastic,
    validate_design_recommendations,
)

__version__ = "0.1.0"

# the public names imported above, so that each export is written once
__all__ = sorted(
    name for name, value in globals().items() if not name.startswith("_") and not isinstance(value, _ModuleType)
)
