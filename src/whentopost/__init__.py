"""whentopost: feed visibility simulation and posting-time control.

Simulate follower feeds as point processes, keep exact track of where a
broadcaster's latest post sits in each feed, and decide when to post:
an online controller driven by exponential clocks, a clairvoyant
dynamic-programming schedule for revealed feeds, and simple baselines,
all measured with exact change-point metrics.
"""

from .control_baselines import (
    segment_offline_posts,
    true_posts_playback,
    uniform_poisson_posts,
)
from .control_online import (
    PolicyDecision,
    RedQueenController,
    RedQueenParams,
    StepSchedule,
    TuneResult,
    next_post_time,
    optimal_intensity,
    run_redqueen_fast,
    tune_q,
)
from .control_oracle import (
    OracleInstance,
    OracleSchedule,
    brute_force_schedule,
    decisions_to_post_times,
    instance_from_feed,
    oracle_schedule,
    schedule_cost,
)
from .feed_sim import (
    Network,
    RankState,
    ScheduledController,
    SimulationTrajectory,
    rank_from_history,
    rank_path,
    rank_step,
    simulate,
    trajectory_from_posts,
)
from .kernels import NUMBA_ENABLED
from .metrics import (
    MetricsReport,
    aggregate,
    average_position,
    normalize_report,
    position_over_time,
    quadratic_control_cost,
    report_from_trajectory,
    time_at_top,
)
from .point_process import (
    EventStream,
    HawkesParams,
    IntensityState,
    PiecewiseRate,
    apply_jump,
    decay_intensity,
    sample_hawkes,
    sample_piecewise_poisson,
    superpose,
)
from .significance import (
    SignificanceProfile,
    bucket_weights,
    estimate_significance,
)

__version__ = "0.1.0"

__all__ = [
    "EventStream",
    "PiecewiseRate",
    "HawkesParams",
    "IntensityState",
    "decay_intensity",
    "apply_jump",
    "sample_hawkes",
    "sample_piecewise_poisson",
    "superpose",
    "Network",
    "RankState",
    "rank_step",
    "rank_from_history",
    "rank_path",
    "simulate",
    "trajectory_from_posts",
    "ScheduledController",
    "SimulationTrajectory",
    "RedQueenParams",
    "RedQueenController",
    "StepSchedule",
    "PolicyDecision",
    "optimal_intensity",
    "next_post_time",
    "run_redqueen_fast",
    "tune_q",
    "TuneResult",
    "OracleInstance",
    "OracleSchedule",
    "oracle_schedule",
    "brute_force_schedule",
    "schedule_cost",
    "instance_from_feed",
    "decisions_to_post_times",
    "uniform_poisson_posts",
    "true_posts_playback",
    "segment_offline_posts",
    "MetricsReport",
    "position_over_time",
    "time_at_top",
    "average_position",
    "report_from_trajectory",
    "normalize_report",
    "quadratic_control_cost",
    "aggregate",
    "SignificanceProfile",
    "bucket_weights",
    "estimate_significance",
    "NUMBA_ENABLED",
    "__version__",
]
