"""Sampling-based trajectory optimization over a learned (or oracle) model.

plan() runs a few iterations of MPPI: sample action sequences around the
current mean (a fraction of candidates comes from rolling the policy head,
the first of them noise-free), roll them out through the model's dynamics,
score each by discounted predicted reward plus a terminal value bootstrap,
then re-fit mean and std to a softmax weighting of the top elites. The
first action of the final mean is returned, clamped to [-1, 1].

The model interface is duck-typed: encode_np, dynamics_np, reward_np,
value_np, policy_np and act_dim -- satisfied by both WorldModel and the
ground-truth wrappers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .dataset import Episode


class PlannerError(RuntimeError):
    pass


@dataclass
class PlannerConfig:
    horizon: int = 6
    num_samples: int = 128
    num_elites: int = 10
    iterations: int = 4
    temperature: float = 0.5
    noise_std: float = 0.05       # floor for the sampling std
    init_std: float = 1.0
    policy_fraction: float = 0.25

    def __post_init__(self) -> None:
        if self.num_elites > self.num_samples:
            raise ValueError("num_elites must be <= num_samples")
        if self.horizon < 1:
            raise ValueError("horizon must be >= 1")
        if self.temperature <= 0:
            raise ValueError("temperature must be positive")


def _score_rollouts(model, z0: np.ndarray, actions: np.ndarray,
                    gamma: float) -> np.ndarray:
    """Discounted return of each action sequence under the model."""
    n, horizon, _ = actions.shape
    z = np.repeat(z0, n, axis=0)
    scores = np.zeros(n)
    disc = 1.0
    for t in range(horizon):
        a_t = np.ascontiguousarray(actions[:, t], dtype=z.dtype)
        r = model.reward_np(z, a_t)
        if not np.all(np.isfinite(r)):
            raise PlannerError(f"non-finite reward in planner rollout at step {t}")
        scores += disc * r
        z = model.dynamics_np(z, a_t)
        if not np.all(np.isfinite(z)):
            raise PlannerError(f"non-finite latent in planner rollout at step {t}")
        disc *= gamma
    terminal = model.value_np(z, model.policy_np(z))
    if not np.all(np.isfinite(terminal)):
        raise PlannerError("non-finite terminal value in planner rollout")
    return scores + disc * terminal


def _policy_candidates(model, z0: np.ndarray, n: int, std: np.ndarray,
                       rng: np.random.Generator, horizon: int) -> np.ndarray:
    """Roll the policy head; candidate 0 is noise-free, the rest jittered."""
    act_dim = model.act_dim
    z = np.repeat(z0, n, axis=0)
    actions = np.zeros((n, horizon, act_dim))
    for t in range(horizon):
        a = model.policy_np(z)
        noise = rng.standard_normal((n, act_dim))
        noise[0] = 0.0
        a = np.clip(a + std[t] * noise, -1.0, 1.0)
        actions[:, t] = a
        z = model.dynamics_np(z, a.astype(z.dtype))
    return actions


def plan(model, z0: np.ndarray, config: PlannerConfig, rng: np.random.Generator,
         gamma: float = 0.99, prev_mean: Optional[np.ndarray] = None,
         return_info: bool = False):
    """Pick an action for latent z0. Pure given (model, z0, rng state).

    Returns (action, mean) -- mean is the full optimized sequence for
    receding-horizon warm starts -- or (action, mean, info) with the last
    iteration's candidates and scores when return_info is set.
    """
    z0 = np.atleast_2d(np.asarray(z0))
    h, n = config.horizon, config.num_samples
    act_dim = model.act_dim
    mean = np.zeros((h, act_dim)) if prev_mean is None else prev_mean.copy()
    std = np.full((h, act_dim), float(config.init_std))

    n_pi = int(round(config.policy_fraction * n))
    if config.policy_fraction > 0 and n >= 1:
        n_pi = max(n_pi, 1)
    n_pi = min(n_pi, n)

    candidates = scores = None
    elite_means = []
    for _ in range(config.iterations):
        parts = []
        if n_pi > 0:
            parts.append(_policy_candidates(model, z0, n_pi, std, rng, h))
        if n - n_pi > 0:
            eps = rng.standard_normal((n - n_pi, h, act_dim))
            parts.append(np.clip(mean[None] + std[None] * eps, -1.0, 1.0))
        candidates = np.concatenate(parts, axis=0)
        scores = _score_rollouts(model, z0, candidates, gamma)

        elite_idx = np.argsort(-scores, kind="stable")[:config.num_elites]
        elite_scores = scores[elite_idx]
        elite_actions = candidates[elite_idx]
        elite_means.append(float(elite_scores.mean()))
        w = np.exp((elite_scores - elite_scores.max()) / config.temperature)
        w /= w.sum()
        mean = np.einsum("e,ehd->hd", w, elite_actions)
        var = np.einsum("e,ehd->hd", w, (elite_actions - mean[None]) ** 2)
        std = np.maximum(np.sqrt(var), config.noise_std)

    action = np.clip(mean[0], -1.0, 1.0)
    if return_info:
        return action, mean, {"candidates": candidates, "scores": scores,
                              "elite_score_per_iteration": elite_means}
    return action, mean


def rollout_episode(env, model, config: PlannerConfig, seed: int,
                    gamma: float = 0.99, obs_transform=None
                    ) -> Tuple[Episode, float]:
    """Closed-loop episode: plan() every step with receding-horizon warm
    start (mean shifted one step, zero-padded). Returns the trajectory and
    its undiscounted return."""
    rng = np.random.default_rng(np.random.SeedSequence([int(seed)]))
    transform = obs_transform or (lambda raw: raw)
    state, raw_obs = env.reset(seed)
    t_steps = env.spec.episode_len
    obs0 = np.asarray(transform(raw_obs), dtype=np.float32)
    obs = np.zeros((t_steps + 1, obs0.shape[0]), dtype=np.float32)
    actions = np.zeros((t_steps, env.spec.act_dim), dtype=np.float32)
    rewards = np.zeros(t_steps, dtype=np.float32)
    obs[0] = obs0

    prev_mean = None
    for t in range(t_steps):
        z = model.encode_np(obs[t][None, :].astype(np.float32))
        action, mean = plan(model, z, config, rng, gamma=gamma,
                            prev_mean=prev_mean)
        prev_mean = np.vstack([mean[1:], np.zeros((1, model.act_dim))])
        a = action[:env.spec.act_dim]
        state, raw_obs, reward = env.step(state, a)
        obs[t + 1] = transform(raw_obs)
        actions[t] = a
        rewards[t] = reward
    episode = Episode(env.spec.task_id, obs, actions, rewards)
    return episode, float(rewards.sum())
