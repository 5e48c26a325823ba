import math

import numpy as np
import pytest

from softmotion import (Pose, Quaternion, SolverFailure, check_limits, cli,
                        evaluate, multiaxis, omega_to_qdot, orientation,
                        plan_pose_axes, plan_ptp_1d, pose_at, qdot_to_omega,
                        qr_matrix, quaternion_norm_drift, sample_times)


def random_unit_quaternion(rng):
    q = rng.normal(size=4)
    return Quaternion.from_array(q / np.linalg.norm(q))


def test_omega_to_qdot_basics():
    ident = Quaternion.identity()
    assert np.allclose(omega_to_qdot(ident, (0, 0, 0)), 0.0)
    rate = omega_to_qdot(ident, (0.2, 0.0, 0.0))
    assert rate == pytest.approx([0.0, 0.1, 0.0, 0.0], abs=1e-15)


def test_qdot_orthogonal_to_orientation():
    rng = np.random.default_rng(61)
    for _ in range(100):
        q = random_unit_quaternion(rng)
        w = rng.uniform(-0.5, 0.5, 3)
        rate = omega_to_qdot(q, w)
        assert abs(float(q.as_array() @ rate)) <= 1e-15


def test_qr_orthogonality():
    rng = np.random.default_rng(67)
    for _ in range(100):
        q = random_unit_quaternion(rng)
        m = qr_matrix(q)
        assert np.abs(m.T @ m - np.eye(4)).max() <= 1e-12


def test_round_trip_identity():
    rng = np.random.default_rng(71)
    for _ in range(100):
        q = random_unit_quaternion(rng)
        w = rng.uniform(-0.5, 0.5, 3)
        back, residual = qdot_to_omega(q, omega_to_qdot(q, w))
        assert np.abs(back - w).max() <= 1e-12
        assert abs(residual) <= 1e-12


def test_qdot_to_omega_examples():
    ident = Quaternion.identity()
    w, residual = qdot_to_omega(ident, np.zeros(4))
    assert np.allclose(w, 0.0) and residual == 0.0
    w, residual = qdot_to_omega(ident, np.array([0.0, 0.1, 0.0, 0.0]))
    assert w == pytest.approx([0.2, 0.0, 0.0], abs=1e-15)
    assert residual == pytest.approx(0.0, abs=1e-15)


def test_non_unit_quaternion_rejected():
    with pytest.raises(ValueError):
        omega_to_qdot(Quaternion(1.2, (0.0, 0.0, 0.0)), (0.1, 0.0, 0.0))


def test_plan_pose_same_pose_holds(lin, ang):
    # every axis is a 0 s hold at its start coordinate
    pose = Pose((0.1, 0.2, 0.3), Quaternion.identity())
    profiles = plan_pose_axes(pose, pose, lin, ang)
    assert [p.duration for p in profiles] == [0.0] * 7
    assert [p.segments[0].start.x for p in profiles] == pose.as_array().tolist()
    assert pose_at(profiles, 0.0) == pose
    assert quaternion_norm_drift(profiles) == 0.0


def test_pure_translation_holds_orientation(lin, ang):
    q = Quaternion.from_axis_angle((0, 0, 1), 0.4)
    pose0 = Pose((0.0, 0.0, 0.0), q)
    posef = Pose((0.15, 0.0, 0.0), q)
    profiles = plan_pose_axes(pose0, posef, lin, ang)
    T = profiles[0].duration
    for prof in profiles[3:]:
        st0, _ = prof.evaluate(0.0)
        stf, _ = prof.evaluate(T)
        assert st0.x == stf.x
        assert st0.v == 0.0
    sampled = pose_at(profiles, T / 2.0)
    assert sampled.orient.dot(q) == pytest.approx(1.0, abs=1e-12)


def test_pose_axes_synchronized_and_limited(lin, ang):
    pose0 = Pose((0.0, 0.0, 0.0), Quaternion.identity())
    posef = Pose((0.1, -0.05, 0.02), Quaternion.from_axis_angle((1, 1, 0), 0.5))
    profiles = plan_pose_axes(pose0, posef, lin, ang)
    T = profiles[0].duration
    for prof in profiles:
        assert prof.duration == pytest.approx(T, abs=1e-9)
    quat_limits = ang.scaled(0.5)
    for prof in profiles[:3]:
        assert check_limits(prof, lin).ok
    for prof in profiles[3:]:
        assert check_limits(prof, quat_limits).ok
    end = pose_at(profiles, T)
    assert np.allclose(end.p, posef.p, atol=1e-9)
    assert abs(end.orient.dot(posef.orient)) == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("goal, slower", [((0.1, -0.05, 0.02), "rotation"),
                                           ((0.9, 0.0, 0.0), "translation")])
def test_pose_planner_plans_each_group_once(lin, ang, monkeypatch, goal, slower):
    pose0 = Pose((0.0, 0.0, 0.0), Quaternion.identity())
    posef = Pose(goal, Quaternion.from_axis_angle((1, 1, 0), 0.5))
    q0, qf = (pose.orient.normalized().as_array() for pose in (pose0, posef))
    # the slower group's plan is its minimal-time plan, bit for bit
    alone = (multiaxis.plan_ptp_nd(q0, qf, ang.scaled(0.5)) if slower == "rotation"
             else multiaxis.plan_ptp_nd(pose0.p, posef.p, lin))
    counts = {"plan_ptp_nd_with_times": 0, "check_limits": 0}
    for owner, name in ((orientation, "plan_ptp_nd_with_times"), (multiaxis, "check_limits")):
        def counted(*args, _name=name, _original=getattr(owner, name)):
            counts[_name] += 1
            return _original(*args)
        monkeypatch.setattr(owner, name, counted)
    profiles = plan_pose_axes(pose0, posef, lin, ang)
    assert counts == {"plan_ptp_nd_with_times": 2, "check_limits": 7}
    assert (profiles[3:] if slower == "rotation" else profiles[:3]) == alone
    assert len({p.duration for p in profiles}) <= 2     # one duration, to an ulp


def test_hemisphere_handling(lin, ang):
    q0 = Quaternion.identity()
    qf = Quaternion.from_array(-Quaternion.from_axis_angle((0, 0, 1), 0.6).as_array())
    profiles = plan_pose_axes(Pose((0, 0, 0), q0), Pose((0, 0, 0), qf), lin, ang)
    T = profiles[0].duration
    for t in np.linspace(0.0, T, 33):
        raw = np.array([prof.evaluate(t)[0].x for prof in profiles[3:]])
        assert float(raw @ q0.as_array()) >= -1e-12


def test_norm_drift_floor_quarter_turn(lin, ang):
    # component-wise planning between rest endpoints passes through the
    # 4-space chord midpoint: drift floor is exactly 1 - cos(theta/4)
    pose0 = Pose((0, 0, 0), Quaternion.identity())
    posef = Pose((0, 0, 0), Quaternion.from_axis_angle((0, 0, 1), math.pi / 2))
    profiles = plan_pose_axes(pose0, posef, lin, ang)
    drift = quaternion_norm_drift(profiles, dt=0.01)
    floor = 1.0 - math.cos(math.pi / 8.0)
    assert drift == pytest.approx(floor, abs=1e-4)


def test_norm_drift_small_for_small_rotations(lin, ang):
    pose0 = Pose((0, 0, 0), Quaternion.identity())
    posef = Pose((0, 0, 0), Quaternion.from_axis_angle((0, 1, 0), math.radians(30)))
    profiles = plan_pose_axes(pose0, posef, lin, ang)
    assert quaternion_norm_drift(profiles, dt=0.01) < 1e-2


def reference_norm_drift(profiles, dt):
    """The per-instant loop that quaternion_norm_drift replaced."""
    quat_profiles = profiles[3:]
    ref = max((p for p in quat_profiles if p.segments), key=lambda p: p.duration)
    worst = 0.0
    for t in sample_times(ref, dt):
        comps = [evaluate(p, min(max(t, 0.0), p.duration))[0].x for p in quat_profiles]
        worst = max(worst, abs(float(np.linalg.norm(comps)) - 1.0))
    return worst


@pytest.mark.parametrize("angle", [math.pi / 2, math.radians(30)])
@pytest.mark.parametrize("dt", [0.01, 0.0037])
def test_norm_drift_matches_per_instant_loop(lin, ang, angle, dt):
    pose0 = Pose((0, 0, 0), Quaternion.identity())
    posef = Pose((0.05, 0, 0), Quaternion.from_axis_angle((0, 1, 1), angle))
    profiles = plan_pose_axes(pose0, posef, lin, ang)
    assert quaternion_norm_drift(profiles, dt) == pytest.approx(
        reference_norm_drift(profiles, dt), abs=1e-15)


def planned_under_limits_times_1_5(length, limits):
    return plan_ptp_1d(length, limits.scaled(1.5))


def test_pose_planner_checks_quaternions_against_halved_angular_limits(
        lin, ang, monkeypatch):
    # a pure rotation: the position axes are holds, the quaternion axes move
    # under 1.5 times the halved angular limits, so within the full ones
    monkeypatch.setattr(multiaxis, "plan_ptp_1d", planned_under_limits_times_1_5)
    pose0 = Pose((0.1, 0.0, 0.2), Quaternion.identity())
    posef = Pose((0.1, 0.0, 0.2), Quaternion.from_axis_angle((0, 0, 1), 0.5))
    with pytest.raises(SolverFailure, match=r"reaches jerk .* above its limit 0\.3$"):
        plan_pose_axes(pose0, posef, lin, ang)
    # with the position axes moving too and setting the duration (6.17 s
    # against the rotation's 5.78 s), their linear jerk fails first
    posef = Pose((0.9, 0.0, 0.2), posef.orient)
    with pytest.raises(SolverFailure, match=r"axis 0 reaches jerk .* above its limit 0\.9$"):
        plan_pose_axes(pose0, posef, lin, ang)
    # a shorter translation is stretched to the rotation's duration, and its
    # plan, under 1.5 times the dilated limits, stays within the linear ones
    posef = Pose((0.3, 0.0, 0.2), posef.orient)
    with pytest.raises(SolverFailure, match=r"axis 3 reaches jerk .* above its limit 0\.3$"):
        plan_pose_axes(pose0, posef, lin, ang)


def test_cli_exits_3_on_a_pose_move_that_breaks_a_limit(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(multiaxis, "plan_ptp_1d", planned_under_limits_times_1_5)
    out = tmp_path / "traj.csv"
    code = cli.main(["plan-ptp", "--from", "0,0,0,1,0,0,0",
                     "--to", "0.1,0,0,0.966,0,0,0.259", "--dt", "0.01",
                     "--out", str(out)])
    assert code == 3
    # the rotation sets the duration: qk, its dominant component, fails first
    assert capsys.readouterr().err.startswith("error: solver failed: axis 3 reaches jerk")
    assert not out.exists()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_pose_planner_names_a_non_finite_endpoint(lin, ang, bad):
    # unchecked, a nan quaternion norm passed the unit check, and either
    # endpoint raised "jmax must be finite and > 0, got nan"
    ident = Quaternion.identity()
    for pose in (Pose((bad, 0.0, 0.0), ident), Pose((0.0, 0.0, 0.0), Quaternion(bad, (0.0, 0.0, 0.0))),
                 Pose((0.0, 0.0, 0.0), Quaternion(1.0, (0.0, bad, 0.0)))):
        for pair in ((pose, Pose((0.1, 0.0, 0.0), ident)), (Pose((0.1, 0.0, 0.0), ident), pose)):
            with pytest.raises(ValueError, match="non-finite endpoint|quaternion norm") as exc:
                plan_pose_axes(*pair, lin, ang)
            assert "jmax" not in str(exc.value)
