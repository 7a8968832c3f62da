"""Deterministic toy continuous-control tasks with 0-1000 scoring.

Three tasks share a common interface: 200-step episodes, dt = 0.05 s,
per-step rewards in [0, 1], actions in [-1, 1]. Observations are bounded
encodings of the physical state and are invertible (state_from_obs), which
lets the ground-truth dynamics be exposed through the planner's model
interface for oracle-control experiments.

Physics constants (documented bounds; velocities are clamped to them):

pendulum-swingup   theta measured from upright; starts hanging.
    theta_dd = (g/l) sin(theta) + tau_max*a / (m l^2) - c*omega
    g=9.81, l=1, m=1, tau_max=5, c=0.1, |omega| <= 8
    reward = (1 + cos theta) / 2
    (tau_max = 5 keeps energy-pumping swingup under ~50 of the 200 steps;
    weaker motors cannot reach 0.8 of the max score inside one episode)

cartpole-balance   starts upright with noise; reward while the cart stays
    within |x| < 2.4. Classic cart-pole equations, m_cart=1, m_pole=0.1,
    half-length l=0.5, force=10*a, |x_dot| <= 10, |theta_dot| <= 10.
    reward = (1 + cos theta) / 2 while |x| < 2.4, else 0

cup-catch          a ball drops toward a cup sliding on the x axis at
    cup_speed = 2*a; the ball falls under gravity with terminal speed 2
    (so it cannot tunnel through the catch window in one 0.05 s step).
    Caught when |x_ball - x_cup| < 0.1 and |y_ball - y_cup| < 0.1; the
    ball then sticks and every subsequent step pays reward 1.

Integration is semi-implicit Euler: velocity first, then position with the
new velocity.

Multi-task observations pad each task's raw observation to the widest one
and append a one-hot task id, giving a single shared obs_dim.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

import numpy as np

EPISODE_LEN = 200
DT = 0.05
GRAVITY = 9.81

TASKS = ("pendulum-swingup", "cartpole-balance", "cup-catch")


@dataclass(frozen=True)
class EnvSpec:
    task_id: str
    obs_dim: int
    act_dim: int
    episode_len: int = EPISODE_LEN
    dt: float = DT


class UsageError(ValueError):
    """Bad input, such as a setting out of range: the CLI exits 2 on it."""


class UnknownTaskError(UsageError):
    pass


def _clip_action(action: np.ndarray, act_dim: int) -> np.ndarray:
    a = np.asarray(action, dtype=np.float64).reshape(-1)
    if a.shape[0] != act_dim:
        raise ValueError(f"action has {a.shape[0]} dims, expected {act_dim}")
    return np.clip(a, -1.0, 1.0)


def _step_one(env, state: np.ndarray, action) -> Tuple[np.ndarray, np.ndarray, float]:
    """A task's `step`: its `step_batch` on one row, plus the observation."""
    a = _clip_action(action, env.spec.act_dim)
    states, rewards = env.step_batch(np.asarray(state)[None], a[None])
    return states[0], env.obs(states[0]), float(rewards[0])


class PendulumSwingup:
    spec = EnvSpec("pendulum-swingup", obs_dim=3, act_dim=1)

    MAX_TORQUE = 5.0
    DAMPING = 0.1
    MAX_OMEGA = 8.0

    def reset(self, seed: int) -> Tuple[np.ndarray, np.ndarray]:
        rng = np.random.default_rng(seed)
        theta = np.pi + rng.uniform(-0.1, 0.1)
        state = np.array([theta, 0.0])
        return state, self.obs(state)

    def obs(self, state: np.ndarray) -> np.ndarray:
        theta, omega = state
        return np.array([np.cos(theta), np.sin(theta), omega / self.MAX_OMEGA],
                        dtype=np.float32)

    def state_from_obs(self, obs: np.ndarray) -> np.ndarray:
        return np.stack([np.arctan2(obs[..., 1], obs[..., 0]),
                         obs[..., 2] * self.MAX_OMEGA], axis=-1)

    def step(self, state: np.ndarray, action) -> Tuple[np.ndarray, np.ndarray, float]:
        return _step_one(self, state, action)

    def step_batch(self, states: np.ndarray, actions: np.ndarray
                   ) -> Tuple[np.ndarray, np.ndarray]:
        a = np.clip(actions[:, 0], -1.0, 1.0)
        theta, omega = states[:, 0], states[:, 1]
        theta_dd = GRAVITY * np.sin(theta) + self.MAX_TORQUE * a - self.DAMPING * omega
        omega = np.clip(omega + DT * theta_dd, -self.MAX_OMEGA, self.MAX_OMEGA)
        theta = theta + DT * omega
        rewards = (1.0 + np.cos(theta)) / 2.0
        return np.stack([theta, omega], axis=1), rewards


class CartpoleBalance:
    spec = EnvSpec("cartpole-balance", obs_dim=5, act_dim=1)

    M_CART = 1.0
    M_POLE = 0.1
    HALF_LEN = 0.5
    FORCE = 10.0
    X_LIMIT = 2.4
    MAX_XDOT = 10.0
    MAX_THETADOT = 10.0

    def reset(self, seed: int) -> Tuple[np.ndarray, np.ndarray]:
        rng = np.random.default_rng(seed)
        state = np.array([rng.uniform(-0.05, 0.05), 0.0,
                          rng.uniform(-0.05, 0.05), 0.0])
        return state, self.obs(state)

    def obs(self, state: np.ndarray) -> np.ndarray:
        x, x_dot, theta, theta_dot = state
        return np.array([x / self.X_LIMIT, x_dot / self.MAX_XDOT,
                         np.cos(theta), np.sin(theta),
                         theta_dot / self.MAX_THETADOT], dtype=np.float32)

    def state_from_obs(self, obs: np.ndarray) -> np.ndarray:
        return np.stack([obs[..., 0] * self.X_LIMIT, obs[..., 1] * self.MAX_XDOT,
                         np.arctan2(obs[..., 3], obs[..., 2]),
                         obs[..., 4] * self.MAX_THETADOT], axis=-1)

    def step(self, state: np.ndarray, action) -> Tuple[np.ndarray, np.ndarray, float]:
        return _step_one(self, state, action)

    def step_batch(self, states: np.ndarray, actions: np.ndarray
                   ) -> Tuple[np.ndarray, np.ndarray]:
        a = np.clip(actions[:, 0], -1.0, 1.0)
        x, x_dot, theta, theta_dot = (states[:, i] for i in range(4))
        total_m = self.M_CART + self.M_POLE
        force = self.FORCE * a
        sin_t, cos_t = np.sin(theta), np.cos(theta)
        temp = (force + self.M_POLE * self.HALF_LEN * theta_dot ** 2 * sin_t) / total_m
        theta_dd = (GRAVITY * sin_t - cos_t * temp) / (
            self.HALF_LEN * (4.0 / 3.0 - self.M_POLE * cos_t ** 2 / total_m))
        x_dd = temp - self.M_POLE * self.HALF_LEN * theta_dd * cos_t / total_m
        x_dot = np.clip(x_dot + DT * x_dd, -self.MAX_XDOT, self.MAX_XDOT)
        x = x + DT * x_dot
        theta_dot = np.clip(theta_dot + DT * theta_dd,
                            -self.MAX_THETADOT, self.MAX_THETADOT)
        theta = theta + DT * theta_dot
        rewards = np.where(np.abs(x) < self.X_LIMIT, (1.0 + np.cos(theta)) / 2.0, 0.0)
        return np.stack([x, x_dot, theta, theta_dot], axis=1), rewards


class CupCatch:
    spec = EnvSpec("cup-catch", obs_dim=5, act_dim=1)

    CUP_SPEED = 2.0
    CUP_RANGE = 2.0
    TERMINAL_V = 2.0
    CATCH_RADIUS = 0.1

    def reset(self, seed: int) -> Tuple[np.ndarray, np.ndarray]:
        rng = np.random.default_rng(seed)
        # state: [x_cup, x_ball, y_ball, vy_ball, caught]
        # the drop zone keeps every ball reachable before it passes the cup
        state = np.array([0.0, rng.uniform(-0.7, 0.7), rng.uniform(0.6, 1.0),
                          0.0, 0.0])
        return state, self.obs(state)

    def obs(self, state: np.ndarray) -> np.ndarray:
        x_cup, x_ball, y_ball, vy, caught = state
        return np.array([x_cup / self.CUP_RANGE, x_ball / self.CUP_RANGE,
                         y_ball, vy / self.TERMINAL_V, caught], dtype=np.float32)

    def state_from_obs(self, obs: np.ndarray) -> np.ndarray:
        return np.stack([obs[..., 0] * self.CUP_RANGE, obs[..., 1] * self.CUP_RANGE,
                         obs[..., 2], obs[..., 3] * self.TERMINAL_V, obs[..., 4]],
                        axis=-1)

    def step(self, state: np.ndarray, action) -> Tuple[np.ndarray, np.ndarray, float]:
        return _step_one(self, state, action)

    def step_batch(self, states: np.ndarray, actions: np.ndarray
                   ) -> Tuple[np.ndarray, np.ndarray]:
        a = np.clip(actions[:, 0], -1.0, 1.0)
        x_cup, x_ball, y_ball, vy, caught = (states[:, i].copy() for i in range(5))
        x_cup = np.clip(x_cup + DT * self.CUP_SPEED * a, -self.CUP_RANGE, self.CUP_RANGE)
        falling = caught < 0.5
        vy = np.where(falling,
                      np.clip(vy - DT * GRAVITY, -self.TERMINAL_V, self.TERMINAL_V), 0.0)
        y_ball = np.where(falling, y_ball + DT * vy, 0.0)
        newly = falling & (np.abs(x_ball - x_cup) < self.CATCH_RADIUS) \
                        & (np.abs(y_ball) < self.CATCH_RADIUS)
        caught = np.where(newly, 1.0, caught)
        stuck = caught >= 0.5
        x_ball = np.where(stuck, x_cup, x_ball)
        y_ball = np.where(stuck, 0.0, y_ball)
        vy = np.where(stuck, 0.0, vy)
        return np.stack([x_cup, x_ball, y_ball, vy, caught], axis=1), caught.copy()


_ENVS = {
    "pendulum-swingup": PendulumSwingup,
    "cartpole-balance": CartpoleBalance,
    "cup-catch": CupCatch,
}


def make_env(task_id: str):
    if task_id not in _ENVS:
        raise UnknownTaskError(f"unknown task {task_id!r}; known: {sorted(_ENVS)}")
    return _ENVS[task_id]()


def task_score(episode_return: float, episode_len: int = EPISODE_LEN) -> float:
    """Map an undiscounted episode return onto the 0-1000 task scale."""
    if not (0.0 <= episode_return <= episode_len + 1e-9):
        raise ValueError(f"episode return {episode_return} outside [0, {episode_len}]")
    return 1000.0 * episode_return / episode_len


class MultiTaskSuite:
    """Shared observation space over a set of tasks.

    Raw observations are zero-padded to the widest task and a one-hot task
    id is appended; actions share the widest act_dim (extra dims ignored by
    narrower tasks).
    """

    def __init__(self, tasks: Tuple[str, ...] = TASKS):
        self.tasks = tuple(tasks)
        self.envs: Dict[str, object] = {t: make_env(t) for t in tasks}
        self.raw_obs_dim = max(e.spec.obs_dim for e in self.envs.values())
        self.act_dim = max(e.spec.act_dim for e in self.envs.values())
        self.obs_dim = self.raw_obs_dim + len(self.tasks)

    def task_index(self, task_id: str) -> int:
        return self.tasks.index(task_id)

    def pad_obs(self, task_id: str, raw_obs: np.ndarray) -> np.ndarray:
        out = np.zeros(self.obs_dim, dtype=np.float32)
        out[:raw_obs.shape[0]] = raw_obs
        out[self.raw_obs_dim + self.task_index(task_id)] = 1.0
        return out


class GroundTruthModel:
    """True dynamics and reward exposed through the planner's model interface.

    The "latent" is the physical state itself; encode recovers it from the
    observation. Value and policy are zero, so planning reduces to pure
    model-predictive search over the real system.
    """

    def __init__(self, task_id: str):
        self.env = make_env(task_id)
        self.act_dim = self.env.spec.act_dim
        self.latent_dim = len(self.env.reset(0)[0])

    def encode_np(self, obs: np.ndarray) -> np.ndarray:
        return self.env.state_from_obs(np.atleast_2d(obs))

    def step_np(self, z: np.ndarray, a: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        states, rewards = self.env.step_batch(z, a)
        return rewards, states

    def value_np(self, z: np.ndarray, a: np.ndarray) -> np.ndarray:
        return np.zeros(z.shape[0])

    def policy_np(self, z: np.ndarray) -> np.ndarray:
        return np.zeros((z.shape[0], self.act_dim))


def scripted_policy(task_id: str):
    """Hand-written controller used to seed offline datasets.

    pendulum: energy pumping toward the upright energy level, PD capture
    near the top. cartpole: linear feedback. cup-catch: proportional chase
    of the ball's x position.
    """
    if task_id == "pendulum-swingup":
        e_top = GRAVITY  # m*g*l with m=l=1, height measured from the pivot

        def act(state: np.ndarray, rng: np.random.Generator) -> np.ndarray:
            theta, omega = state
            wrapped = np.arctan2(np.sin(theta), np.cos(theta))
            if np.cos(theta) > 0.6:
                u = -10.0 * wrapped - 2.5 * omega
            else:
                energy = 0.5 * omega ** 2 + GRAVITY * np.cos(theta)
                direction = np.sign(omega) if abs(omega) > 1e-3 else 1.0
                u = 4.0 * (e_top - energy) * direction
            return np.array([np.clip(u / PendulumSwingup.MAX_TORQUE, -1.0, 1.0)])
        return act

    if task_id == "cartpole-balance":
        def act(state: np.ndarray, rng: np.random.Generator) -> np.ndarray:
            x, x_dot, theta, theta_dot = state
            u = 20.0 * np.sin(theta) + 4.0 * theta_dot + 1.0 * x + 2.0 * x_dot
            return np.array([np.clip(u / 10.0, -1.0, 1.0)])
        return act

    if task_id == "cup-catch":
        def act(state: np.ndarray, rng: np.random.Generator) -> np.ndarray:
            x_cup, x_ball = state[0], state[1]
            return np.array([np.clip(3.0 * (x_ball - x_cup), -1.0, 1.0)])
        return act

    raise UnknownTaskError(f"no scripted policy for task {task_id!r}")
