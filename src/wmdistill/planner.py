"""Sampling-based trajectory optimization over a learned (or oracle) model.

plan() runs a few iterations of MPPI. Each iteration samples action
sequences around the current mean, except for a fraction of candidates that
come from the policy head (the first of them noise-free), and scores them
all in one rollout pass: at every step the policy rows take their actions
from the policy head at their own latents, then one model call gives every
candidate's reward and next latent. A candidate's score is its discounted
predicted reward plus a terminal value bootstrap. Mean and std are then
re-fit to a softmax weighting of the top elites. The first action of the
final mean is returned, clamped to [-1, 1].

The model interface is duck-typed:

    encode_np(obs) -> z
    step_np(z, a) -> (reward, z_next)
    value_np(z, a) -> value
    policy_np(z) -> a
    act_dim

WorldModel and the ground-truth wrapper (envs.GroundTruthModel) both
satisfy it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .dataset import Episode, run_episode
from .envs import UsageError


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
        for name in ("horizon", "num_samples", "num_elites", "iterations"):
            if getattr(self, name) < 1:
                raise UsageError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.num_elites > self.num_samples:
            raise UsageError("num_elites must be <= num_samples")
        if self.temperature <= 0:
            raise UsageError("temperature must be positive")


def _rollout(model, z0: np.ndarray, pi0: np.ndarray, mean: np.ndarray,
             std: np.ndarray, n: int, rng: np.random.Generator, gamma: float
             ) -> Tuple[np.ndarray, np.ndarray]:
    """Sample n action sequences and score each in one pass through the model.

    Rows 0..n_pi-1 (n_pi = len(pi0)) roll the policy head, row 0 noise-free
    and the rest jittered by std; the other rows are drawn around mean. pi0
    is the policy head's action at z0 for the n_pi rows. Each step makes one
    step_np call on all n rows, and a policy row's action at step t comes
    from its own latent at step t. The score is the discounted predicted
    reward plus a terminal value bootstrap. Returns (candidates, scores).
    """
    n_pi = len(pi0)
    horizon, act_dim = mean.shape
    noise = rng.standard_normal((horizon, n_pi, act_dim))
    noise[:, :1] = 0.0
    jitter = std[:, None] * noise
    candidates = np.empty((n, horizon, act_dim))
    eps = rng.standard_normal((n - n_pi, horizon, act_dim))
    candidates[n_pi:] = np.clip(mean[None] + std[None] * eps, -1.0, 1.0)

    z = np.repeat(z0, n, axis=0)
    scores = np.zeros(n)
    disc = 1.0
    for t in range(horizon):
        if n_pi:
            a = pi0 if t == 0 else model.policy_np(z[:n_pi])
            # np.clip(a + jitter[t], -1, 1) without np.clip's Python overhead
            np.minimum(np.maximum(a + jitter[t], -1.0), 1.0, out=candidates[:n_pi, t])
        r, z = model.step_np(z, np.ascontiguousarray(candidates[:, t], dtype=z.dtype))
        if not np.isfinite(r).all():
            raise PlannerError(f"non-finite reward in planner rollout at step {t}")
        if not np.isfinite(z).all():
            raise PlannerError(f"non-finite latent in planner rollout at step {t}")
        scores += disc * r
        disc *= gamma
    terminal = model.value_np(z, model.policy_np(z))
    if not np.isfinite(terminal).all():
        raise PlannerError("non-finite terminal value in planner rollout")
    return candidates, scores + disc * terminal


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

    # every iteration's policy rows start at z0, so they share their first action
    pi0 = model.policy_np(np.repeat(z0, n_pi, axis=0))
    candidates = scores = None
    elite_means = []
    for _ in range(config.iterations):
        candidates, scores = _rollout(model, z0, pi0, mean, std, n, rng, gamma)

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
                    gamma: float = 0.99, obs_transform=None,
                    act_dim: Optional[int] = None) -> Tuple[Episode, float]:
    """Closed-loop episode: plan() every step with receding-horizon warm
    start (mean shifted one step, zero-padded). Returns the trajectory, its
    actions recorded zero-padded to `act_dim` columns (default: the env's),
    and its undiscounted return."""
    prev_mean = None

    def act(state, obs: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        nonlocal prev_mean
        action, mean = plan(model, model.encode_np(obs[None, :]), config, rng,
                            gamma=gamma, prev_mean=prev_mean)
        prev_mean = np.vstack([mean[1:], np.zeros((1, model.act_dim))])
        return action[:env.spec.act_dim]

    episode = run_episode(env, act, seed, obs_transform, act_dim)
    return episode, float(episode.rewards.sum())
