"""Planner-in-the-loop evaluation and score aggregation.

Each task is scored on a 0-1000 scale (task_score of the mean episode
return); the suite-level normalized score is the mean of per-task scores
divided by 10, i.e. a 0-100 scale. Episodes use rng streams derived from
(seed, task, episode index), so runs are reproducible and a task's score
does not depend on which other tasks are evaluated with it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from .dataset import random_actor, run_episode
from .envs import MultiTaskSuite, make_env, task_score
from .planner import PlannerConfig, rollout_episode
from .seeding import stream


def normalized_score(task_scores: Sequence[float]) -> float:
    """Mean of per-task 0-1000 scores, mapped onto the 0-100 report scale."""
    scores = list(task_scores)
    if not scores:
        raise ValueError("normalized_score requires at least one task score")
    return float(sum(scores) / len(scores) / 10.0)


@dataclass
class EvalResult:
    task_scores: Dict[str, float]
    episode_returns: Dict[str, List[float]]
    normalized: float
    episodes: int
    seed: int

    def as_dict(self) -> dict:
        return {
            "task_scores": dict(self.task_scores),
            "episode_returns": {k: list(v) for k, v in self.episode_returns.items()},
            "normalized_score": self.normalized,
            "episodes": self.episodes,
            "seed": self.seed,
        }


def evaluate_model(model, tasks: Sequence[str], episodes: int, seed: int,
                   planner_cfg: Optional[PlannerConfig] = None,
                   gamma: float = 0.99,
                   suite: Optional[MultiTaskSuite] = None) -> EvalResult:
    """Score `model` on each task with `episodes` planner rollouts apiece.

    When `suite` is given, observations are padded to its shared multi-task
    layout before encoding (required for models trained on it).
    """
    if episodes < 1:
        raise ValueError("evaluation needs at least one episode per task")
    cfg = planner_cfg or PlannerConfig()
    episode_returns: Dict[str, List[float]] = {}
    task_scores = {}
    for task in tasks:
        env = make_env(task)
        transform = (lambda raw: suite.pad_obs(task, raw)) if suite else None
        episode_returns[task] = []
        for ep_idx in range(episodes):
            ep_seed = int(stream(seed, "eval:" + task, ep_idx).integers(0, 2 ** 62))
            _, ret = rollout_episode(env, model, cfg, ep_seed, gamma=gamma,
                                     obs_transform=transform)
            episode_returns[task].append(ret)
        per_ep = [task_score(r, env.spec.episode_len) for r in episode_returns[task]]
        task_scores[task] = float(np.mean(per_ep))
    return EvalResult(task_scores, episode_returns,
                      normalized_score(list(task_scores.values())),
                      episodes, seed)


def random_policy_return(task: str, seed: int) -> float:
    """Return of one uniform-random-action episode (baseline band)."""
    env = make_env(task)
    return float(run_episode(env, random_actor(env.spec.act_dim), seed).rewards.sum())
