"""Minimal-time trajectories with bounded jerk, acceleration and velocity.

The library plans cubic-segment (constant-jerk) motions: single-axis
point-to-point and general boundary conditions, synchronized straight-line
multi-axis moves, waypoint paths with smooth corner transitions, pose
motions in position + quaternion space, and fixed-tick online tracking of
velocity references.
"""

from .adjust import (TransitionProblem, feasibility_intervals,
                     impose_common_time, plan_for_duration,
                     plan_slowing_velocity, stop_time, transition_problem)
from .errors import (InfeasibleBoundary, InfeasibleDuration, SoftMotionError,
                     SearchBudgetExceeded, SolverFailure)
from .multiaxis import plan_ptp_nd, plan_ptp_nd_with_times, scale_limits_for_duration
from .oracle import brute_force_min_time
from .orientation import (Pose, Quaternion, Twist, omega_to_qdot,
                          plan_pose_axes, pose_at, qdot_to_omega, qr_matrix,
                          quaternion_norm_drift)
from .planner import (MotionType, classify, critical_length, mirror_problem,
                      plan_min_time_1d)
from .profiles import (AxisProfile, CubicSegment, KinematicLimits,
                       KinematicState, LimitReport, LimitViolation,
                       check_limits, concat_profiles, evaluate,
                       integrate_segment, make_profile, sample,
                       sample_times, scale_profile, shift_profile,
                       slice_profile)
from .ptp import (PtpTimes, accel_plateau_threshold, plan_ptp_1d,
                  ptp_saturation_threshold, ptp_times)
from .tracker import OnlineTracker, PoseTracker
from .waypoints import (TransitionSummary, plan_waypoint_path,
                        plan_waypoint_path_detailed)

__version__ = "0.1.0"

__all__ = [
    "AxisProfile", "CubicSegment", "KinematicLimits", "KinematicState",
    "LimitReport", "LimitViolation", "MotionType", "OnlineTracker", "Pose",
    "PoseTracker", "PtpTimes", "Quaternion", "SoftMotionError",
    "SearchBudgetExceeded", "SolverFailure", "TransitionProblem",
    "TransitionSummary", "Twist",
    "InfeasibleBoundary", "InfeasibleDuration",
    "accel_plateau_threshold", "brute_force_min_time", "check_limits",
    "classify", "concat_profiles", "critical_length",
    "evaluate", "feasibility_intervals",
    "impose_common_time", "integrate_segment", "make_profile",
    "mirror_problem", "omega_to_qdot", "plan_for_duration",
    "plan_min_time_1d", "plan_pose_axes", "plan_ptp_1d", "plan_ptp_nd",
    "plan_ptp_nd_with_times", "plan_slowing_velocity", "plan_waypoint_path",
    "plan_waypoint_path_detailed", "pose_at", "ptp_saturation_threshold",
    "ptp_times", "qdot_to_omega", "qr_matrix", "quaternion_norm_drift",
    "sample", "sample_times", "scale_limits_for_duration", "scale_profile",
    "shift_profile", "slice_profile", "stop_time",
    "transition_problem",
]
