"""Toy-task physics, reset distributions, reward bounds and scoring."""

import numpy as np
import pytest

from wmdistill.envs import (DT, EPISODE_LEN, GRAVITY, GroundTruthModel,
                            MultiTaskSuite, TASKS, UnknownTaskError, make_env,
                            scripted_policy, task_score)


def test_unknown_task_rejected():
    with pytest.raises(UnknownTaskError):
        make_env("walker-run")


@pytest.mark.parametrize("task", TASKS)
def test_reset_deterministic_and_dims_match_spec(task):
    env = make_env(task)
    s1, o1 = env.reset(123)
    s2, o2 = env.reset(123)
    assert np.array_equal(s1, s2) and np.array_equal(o1, o2)
    assert o1.shape == (env.spec.obs_dim,)
    assert env.spec.episode_len == EPISODE_LEN


def test_pendulum_reset_angle_within_documented_range():
    env = make_env("pendulum-swingup")
    for seed in range(50):
        (theta, omega), _ = env.reset(seed)
        assert np.pi - 0.1 <= theta <= np.pi + 0.1
        assert omega == 0.0


def test_pendulum_hanging_is_a_fixed_point_without_damping():
    env = make_env("pendulum-swingup")
    env.DAMPING = 0.0
    state = np.array([np.pi, 0.0])
    for _ in range(20):
        state, _, reward = env.step(state, np.array([0.0]))
    assert abs(state[0] - np.pi) < 1e-12
    assert abs(reward - 0.0) < 1e-12


def test_pendulum_reward_extremes():
    env = make_env("pendulum-swingup")
    # upright: theta = 0
    _, _, r_up = env.step(np.array([-DT * 0.0, 0.0]), np.array([0.0]))
    assert abs((1 + np.cos(0.0)) / 2 - 1.0) < 1e-12
    state_up = np.array([0.0, 0.0])
    s2, _, r = env.step(state_up, np.array([0.0]))
    assert r > 0.99  # stays near the top for one step
    # hanging: reward 0 at theta = pi exactly
    assert abs((1 + np.cos(np.pi)) / 2) < 1e-12


def test_pendulum_one_step_hand_computed():
    # theta=pi/2, omega=0, a=1:
    #   theta_dd = 9.81*sin(pi/2) + 5*1 - 0.1*0 = 14.81
    #   omega' = 0 + 0.05*14.81 = 0.7405
    #   theta' = pi/2 + 0.05*0.7405 = pi/2 + 0.0370250
    env = make_env("pendulum-swingup")
    (theta, omega), _, reward = env.step(np.array([np.pi / 2, 0.0]),
                                         np.array([1.0]))
    assert abs(omega - 0.7405) < 1e-12
    assert abs(theta - (np.pi / 2 + 0.037025)) < 1e-12
    assert abs(reward - (1 + np.cos(theta)) / 2) < 1e-12


def test_pendulum_energy_drift_small_without_damping_or_torque():
    # semi-implicit Euler: per-step energy drift stays below 5% of the
    # swing's full energy range (2*m*g*l) over one period at dt=0.05
    env = make_env("pendulum-swingup")
    env.DAMPING = 0.0

    def energy(state):
        theta, omega = state
        return 0.5 * omega ** 2 + GRAVITY * np.cos(theta)

    state = np.array([np.pi / 2, 0.0])
    e_scale = 2 * GRAVITY
    e_prev = energy(state)
    e0 = e_prev
    period_steps = int(2 * np.pi / np.sqrt(GRAVITY) / DT) + 1
    worst_step = 0.0
    for _ in range(period_steps):
        state, _, _ = env.step(state, np.array([0.0]))
        e_now = energy(state)
        worst_step = max(worst_step, abs(e_now - e_prev))
        e_prev = e_now
    assert worst_step / e_scale < 0.05
    # symplectic behaviour: no secular energy growth over the period either
    assert abs(e_prev - e0) / e_scale < 0.05


@pytest.mark.parametrize("task", TASKS)
def test_determinism_and_reward_bounds(task):
    env = make_env(task)
    state, _ = env.reset(5)
    rng = np.random.default_rng(5)
    for _ in range(100):
        a = rng.uniform(-1, 1, env.spec.act_dim)
        s1, o1, r1 = env.step(state, a)
        s2, o2, r2 = env.step(state, a)
        assert np.array_equal(s1, s2) and r1 == r2
        assert 0.0 <= r1 <= 1.0
        assert np.all(np.isfinite(s1))
        state = s1


def test_cup_catch_reward_monotone_once_caught():
    env = make_env("cup-catch")
    state, _ = env.reset(3)
    policy = scripted_policy("cup-catch")
    rewards = []
    rng = np.random.default_rng(0)
    for _ in range(EPISODE_LEN):
        state, _, r = env.step(state, policy(state, rng))
        rewards.append(r)
    assert max(rewards) == 1.0, "scripted cup policy should catch the ball"
    first_catch = rewards.index(1.0)
    assert all(r == 1.0 for r in rewards[first_catch:])


def test_cartpole_runaway_cart_scores_zero():
    env = make_env("cartpole-balance")
    state = np.array([2.5, 0.0, 0.0, 0.0])  # outside |x| < 2.4
    _, _, reward = env.step(state, np.array([0.0]))
    assert reward == 0.0


def test_task_score_endpoints_and_midpoint():
    assert task_score(EPISODE_LEN) == 1000.0
    assert task_score(0.0) == 0.0
    assert abs(task_score(28.08) - 140.4) < 1e-9
    with pytest.raises(ValueError):
        task_score(-1.0)
    with pytest.raises(ValueError):
        task_score(EPISODE_LEN + 1.0)


def test_multitask_suite_pads_and_one_hots():
    suite = MultiTaskSuite()
    assert suite.obs_dim == 5 + len(TASKS)
    env = make_env("pendulum-swingup")
    _, raw = env.reset(0)
    padded = suite.pad_obs("pendulum-swingup", raw)
    assert padded.shape == (suite.obs_dim,)
    assert np.array_equal(padded[:3], raw)
    assert np.array_equal(padded[3:5], [0.0, 0.0])
    one_hot = padded[suite.raw_obs_dim:]
    assert one_hot.sum() == 1.0 and one_hot[suite.task_index("pendulum-swingup")] == 1.0


@pytest.mark.parametrize("task", TASKS)
def test_obs_roundtrip_through_state(task):
    # angles recover modulo 2*pi, which the (periodic) dynamics cannot see
    env = make_env(task)
    state, obs = env.reset(9)
    recovered = env.state_from_obs(obs)
    s1, o1, r1 = env.step(state, np.array([0.3]))
    s2, o2, r2 = env.step(recovered, np.array([0.3]))
    assert np.allclose(o1, o2, atol=1e-5) and abs(r1 - r2) < 1e-5


def test_cartpole_one_step_hand_computed():
    # upright and at rest, a=1 (force 10), total mass 1.1:
    #   temp = 10/1.1 = 100/11
    #   theta_dd = -temp / (0.5*(4/3 - 0.1/1.1)) = -(100/11)/(41/66) = -600/41
    #   x_dd = temp - 0.05*theta_dd/1.1 = 100/11 + 300/451 = 4400/451
    #   x_dot' = 0.05*x_dd = 220/451, x' = 0.05*x_dot' = 11/451
    #   theta_dot' = 0.05*theta_dd = -30/41, theta' = 0.05*theta_dot' = -1.5/41
    env = make_env("cartpole-balance")
    (x, x_dot, theta, theta_dot), _, reward = env.step(np.zeros(4), np.array([1.0]))
    assert abs(x_dot - 220 / 451) < 1e-12 and abs(x - 11 / 451) < 1e-12
    assert abs(theta_dot + 30 / 41) < 1e-12 and abs(theta + 1.5 / 41) < 1e-12
    assert abs(reward - (1 + np.cos(1.5 / 41)) / 2) < 1e-12
    # pole horizontal (sin = 1, cos = 0), theta_dot=2, a=0.5 (force 5):
    #   temp = (5 + 0.1*0.5*2^2*1)/1.1 = 52/11
    #   theta_dd = 9.81/(0.5*4/3) = 14.715, x_dd = temp
    #   x_dot' = 0.05*52/11 = 2.6/11, x' = 0.13/11
    #   theta_dot' = 2 + 0.05*14.715 = 2.73575, theta' = pi/2 + 0.1367875
    (x, x_dot, theta, theta_dot), _, reward = env.step(
        np.array([0.0, 0.0, np.pi / 2, 2.0]), np.array([0.5]))
    assert abs(x_dot - 2.6 / 11) < 1e-12 and abs(x - 0.13 / 11) < 1e-12
    assert abs(theta_dot - 2.73575) < 1e-12
    assert abs(theta - (np.pi / 2 + 0.1367875)) < 1e-12
    # theta=pi/3 (sin = sqrt(3)/2, cos = 1/2) at rest, a=0: temp = 0,
    #   theta_dd = 9.81*(sqrt(3)/2) / (0.5*(4/3 - 0.1*(1/4)/1.1))
    #            = 9.81*132*sqrt(3)/173,   x_dd = -0.05*theta_dd*(1/2)/1.1 = -theta_dd/44
    theta_dd = 9.81 * 132 * np.sqrt(3) / 173
    (x, x_dot, theta, theta_dot), _, _ = env.step(
        np.array([0.0, 0.0, np.pi / 3, 0.0]), np.array([0.0]))
    assert abs(theta_dot - 0.05 * theta_dd) < 1e-12
    assert abs(x_dot + 0.05 * theta_dd / 44) < 1e-12


def test_cup_catch_one_step_hand_computed():
    env = make_env("cup-catch")
    # falling, far from the cup, a=1:
    #   x_cup' = 0.05*2*1 = 0.1, vy' = -0.05*9.81 = -0.4905,
    #   y' = 0.9 + 0.05*vy' = 0.875475, not caught, reward 0
    s, _, r = env.step(np.array([0.0, 0.5, 0.9, 0.0, 0.0]), np.array([1.0]))
    assert np.allclose(s, [0.1, 0.5, 0.875475, -0.4905, 0.0], rtol=0, atol=1e-12)
    assert r == 0.0
    # at terminal speed the ball keeps vy = -2: y' = 0.5 - 0.05*2 = 0.4
    s, _, r = env.step(np.array([0.0, 0.5, 0.5, -2.0, 0.0]), np.array([0.0]))
    assert np.allclose(s, [0.0, 0.5, 0.4, -2.0, 0.0], rtol=0, atol=1e-12)
    # inside the catch window after the step: vy' = -1.4905,
    #   y' = 0.05 - 0.074525 = -0.024525, |x_ball - x_cup| = 0.05 -> caught,
    #   the ball sticks to the cup at y = 0 and pays 1
    s, _, r = env.step(np.array([0.0, 0.05, 0.05, -1.0, 0.0]), np.array([0.0]))
    assert np.array_equal(s, [0.0, 0.0, 0.0, 0.0, 1.0]) and r == 1.0
    # a caught ball rides the cup, a=-1 moves both by -0.1
    s, _, r = env.step(np.array([0.2, 0.2, 0.0, 0.0, 1.0]), np.array([-1.0]))
    assert np.allclose(s, [0.1, 0.1, 0.0, 0.0, 1.0], rtol=0, atol=1e-12)
    assert r == 1.0


@pytest.mark.parametrize("task", TASKS)
def test_step_rejects_wrong_action_size(task):
    env = make_env(task)
    state, _ = env.reset(0)
    with pytest.raises(ValueError, match="2 dims, expected 1"):
        env.step(state, np.zeros(2))


def _mixed_rows(task):
    """Reset states plus the task's edge cases, each with its action."""
    env = make_env(task)
    rows = [(env.reset(s)[0], a) for s, a in enumerate([-1.0, -0.3, 0.4, 1.7])]
    if task == "pendulum-swingup":
        rows.append((np.array([0.2, 7.9]), 1.0))         # omega clamps at 8
    if task == "cartpole-balance":
        rows.append((np.array([2.5, 3.0, 0.4, -2.0]), 0.5))   # runaway cart
        rows.append((np.array([0.1, -9.9, -0.3, 9.9]), -1.0))  # both clamps
    if task == "cup-catch":
        rows.append((np.array([0.3, 0.3, 0.0, 0.0, 1.0]), -0.6))    # caught
        rows.append((np.array([0.0, 0.05, 0.05, -1.0, 0.0]), 0.0))  # caught now
        rows.append((np.array([0.0, 0.5, 0.9, -2.0, 0.0]), 1.0))    # falling
    states = np.stack([r[0] for r in rows])
    return states, np.array([[r[1]] for r in rows])


@pytest.mark.parametrize("task", TASKS)
def test_batch_step_matches_scalar_step(task):
    # a row's step does not depend on the rows stepped with it: N mixed rows
    # through step_batch equal each row through step, bit for bit
    env = make_env(task)
    states, actions = _mixed_rows(task)
    batch_states, batch_rewards = env.step_batch(states.copy(), actions)
    for i in range(len(states)):
        s, o, r = env.step(states[i], actions[i])
        assert s.tobytes() == batch_states[i].tobytes()
        assert o.tobytes() == env.obs(batch_states[i]).tobytes()
        assert r == batch_rewards[i]
    perm = np.random.default_rng(17).permutation(len(states))
    s_perm, r_perm = env.step_batch(states[perm], actions[perm])
    assert s_perm.tobytes() == batch_states[perm].tobytes()
    assert r_perm.tobytes() == batch_rewards[perm].tobytes()
    if task == "cartpole-balance":
        assert batch_rewards[4] == 0.0
    if task == "cup-catch":
        assert list(batch_rewards[-3:]) == [1.0, 1.0, 0.0]


# the per-row formulas state_from_obs had before it worked on a trailing axis
_PER_ROW_STATE = {
    "pendulum-swingup": lambda o: np.array([np.arctan2(o[1], o[0]), o[2] * 8.0]),
    "cartpole-balance": lambda o: np.array([o[0] * 2.4, o[1] * 10.0,
                                            np.arctan2(o[3], o[2]), o[4] * 10.0]),
    "cup-catch": lambda o: np.array([o[0] * 2.0, o[1] * 2.0, o[2], o[3] * 2.0, o[4]]),
}


@pytest.mark.parametrize("task", TASKS)
def test_ground_truth_encode_matches_per_row_states(task):
    env = make_env(task)
    gm = GroundTruthModel(task)
    rng = np.random.default_rng(3)
    obs = np.stack([env.reset(s)[1] for s in range(3)]
                   + [rng.uniform(-1, 1, env.spec.obs_dim).astype(np.float32)])
    per_row = np.stack([_PER_ROW_STATE[task](o) for o in obs])
    one = gm.encode_np(obs[:1])
    assert one.shape == (1, gm.latent_dim)
    assert one.dtype == per_row.dtype and one.tobytes() == per_row[:1].tobytes()
    assert gm.encode_np(obs).tobytes() == per_row.tobytes()


def test_ground_truth_model_exposes_planner_interface():
    gm = GroundTruthModel("pendulum-swingup")
    _, obs = gm.env.reset(0)
    z = gm.encode_np(obs)
    assert z.shape == (1, 2)
    a = np.array([[0.5]])
    r, z2 = gm.step_np(z, a)
    assert z2.shape == (1, 2) and r.shape == (1,)
    states, rewards = gm.env.step_batch(z, a)
    assert z2.tobytes() == states.tobytes() and r.tobytes() == rewards.tobytes()
    assert np.all(gm.policy_np(z) == 0.0) and np.all(gm.value_np(z, a) == 0.0)
