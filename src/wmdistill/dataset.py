"""Offline episode persistence and minibatch sampling.

A dataset directory holds one file, `dataset.tdck`, in the checkpoint
container format (`checkpoint.py`), written whole by `write_checkpoint` and
read once by `load_dataset`, which parses those bytes and keeps their sha256
as the dataset's identity. Its three f32 tensors pack every episode's
rows end to end, in episode order:

    obs       (sum_e (T_e + 1), obs_dim)
    actions   (sum_e T_e, act_dim)
    rewards   (sum_e T_e,)

Its metadata holds `episodes=<n>` and, for i < n, one line
`episode.<i>=<task>,<policy>,<seed>,<T>`. Round-trips are bit-exact.

Sampling draws training windows uniformly over all valid (episode, start)
pairs; a window never crosses an episode boundary.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .checkpoint import Checkpoint, deserialize, read_checkpoint, write_checkpoint
from .envs import MultiTaskSuite, TASKS, UsageError, scripted_policy
from .seeding import stream

DATASET_FILE = "dataset.tdck"
_ARRAYS = ("obs", "actions", "rewards")


class DatasetFormatError(ValueError):
    """Episode records and packed rows that do not fit, or non-finite rows."""


@dataclass
class Episode:
    task_id: str
    obs: np.ndarray       # (T+1, obs_dim) float32
    actions: np.ndarray   # (T, act_dim) float32
    rewards: np.ndarray   # (T,) float32

    @property
    def length(self) -> int:
        return self.rewards.shape[0]

    @property
    def obs_dim(self) -> int:
        return self.obs.shape[1]

    @property
    def act_dim(self) -> int:
        return self.actions.shape[1]


def run_episode(env, actor, seed: int, obs_transform=None,
                act_dim: Optional[int] = None) -> Episode:
    """Play and record one episode of `env` from `env.reset(seed)`.

    Every step calls `actor(state, obs, rng)` for the action, where `obs` is
    the recorded (float32, transformed) observation and `rng` is
    `default_rng(seed)`. `obs_transform` maps raw observations into the
    recorded layout; actions are recorded zero-padded to `act_dim` columns
    (default: the env's).
    """
    rng = np.random.default_rng(seed)
    transform = obs_transform or (lambda raw: raw)
    state, raw_obs = env.reset(seed)
    t_steps = env.spec.episode_len
    obs0 = transform(raw_obs)
    obs = np.zeros((t_steps + 1, obs0.shape[0]), dtype=np.float32)
    actions = np.zeros((t_steps, act_dim or env.spec.act_dim), dtype=np.float32)
    rewards = np.zeros(t_steps, dtype=np.float32)
    obs[0] = obs0
    for t in range(t_steps):
        a = actor(state, obs[t], rng)
        state, raw_obs, reward = env.step(state, a)
        actions[t, :env.spec.act_dim] = a
        rewards[t] = reward
        obs[t + 1] = transform(raw_obs)
    return Episode(env.spec.task_id, obs, actions, rewards)


def random_actor(act_dim: int):
    """Uniform actions in [-1, 1]^act_dim drawn from the episode's rng."""
    return lambda state, obs, rng: rng.uniform(-1.0, 1.0, size=act_dim)


@dataclass
class TransitionBatch:
    obs: np.ndarray       # (B, H+1, obs_dim)
    actions: np.ndarray   # (B, H, act_dim)
    rewards: np.ndarray   # (B, H)


@dataclass
class EpisodeRecord:
    """What a dataset file's metadata keeps of one episode."""
    task_id: str
    policy: str
    seed: int
    length: int


@dataclass
class Dataset:
    """Episodes with their rows packed end to end: `obs`, `actions` and
    `rewards` stack every episode's arrays in the order of `records`, and
    each of `episodes` holds views into them. Building one checks, once over
    the packed rows, that they are finite and fit the records."""
    root: Path
    obs: np.ndarray = field(repr=False, compare=False)
    actions: np.ndarray = field(repr=False, compare=False)
    rewards: np.ndarray = field(repr=False, compare=False)
    records: List[EpisodeRecord]
    sha256: str = field(default="", repr=False, compare=False)  # of the file read
    episodes: List[Episode] = field(init=False, repr=False, compare=False)
    # horizon -> _WindowTable, built on first use by sample_batch
    _windows: Dict[int, "_WindowTable"] = field(
        init=False, repr=False, compare=False, default_factory=dict)

    def __post_init__(self) -> None:
        for name in _ARRAYS:
            setattr(self, name, np.ascontiguousarray(getattr(self, name), dtype=np.float32))
        obs, actions, rewards = self.obs, self.actions, self.rewards
        where = f"dataset {self.root}"
        if not self.records:
            raise DatasetFormatError(f"{where} holds no episodes")
        if obs.ndim != 2 or actions.ndim != 2 or rewards.ndim != 1:
            raise DatasetFormatError(f"{where}: packed arrays have wrong rank")
        steps = sum(r.length for r in self.records)
        if (len(rewards), len(actions), len(obs)) != (steps, steps, steps + len(self.records)):
            raise DatasetFormatError(
                f"{where}: its {len(self.records)} episode records add up to {steps} "
                f"steps, but it holds obs {obs.shape}, actions {actions.shape} and "
                f"rewards {rewards.shape}")
        for name in _ARRAYS:
            if not np.all(np.isfinite(getattr(self, name))):
                raise DatasetFormatError(f"non-finite values in the {name} of {where}")
        self.episodes = []
        o = a = 0
        for r in self.records:
            t = r.length
            self.episodes.append(Episode(r.task_id, obs[o:o + t + 1], actions[a:a + t],
                                         rewards[a:a + t]))
            o, a = o + t + 1, a + t

    @classmethod
    def from_episodes(cls, root, episodes: Sequence[Episode],
                      records: Sequence[EpisodeRecord]) -> "Dataset":
        """Pack `episodes`, copying their rows once."""
        return cls(Path(root), *(np.concatenate([getattr(ep, name) for ep in episodes])
                                 for name in _ARRAYS), list(records))

    @property
    def tasks(self) -> Tuple[str, ...]:
        return tuple(dict.fromkeys(r.task_id for r in self.records))

    @property
    def obs_dim(self) -> int:
        return self.obs.shape[1]

    @property
    def act_dim(self) -> int:
        return self.actions.shape[1]


def write_dataset(dataset: Dataset) -> None:
    """Write `dataset` to `dataset.tdck` in its root directory."""
    metadata = {"episodes": str(len(dataset.records))}
    for i, r in enumerate(dataset.records):
        metadata[f"episode.{i}"] = f"{r.task_id},{r.policy},{r.seed},{r.length}"
    ckpt = Checkpoint(metadata)
    for name in _ARRAYS:
        ckpt.add_tensor(name, "f32", getattr(dataset, name))
    write_checkpoint(dataset.root / DATASET_FILE, ckpt)


def load_dataset(root) -> Dataset:
    root = Path(root)
    path = root / DATASET_FILE
    if not path.exists():
        raise FileNotFoundError(f"no {DATASET_FILE} in dataset directory {root}; "
                                "regenerate it with gen-data (.mtep episode files "
                                "and manifest.txt are no longer read)")
    raw = path.read_bytes()
    ckpt = deserialize(raw, origin=str(path))
    try:
        md = ckpt.metadata
        records = []
        for i in range(int(md["episodes"])):
            task, policy, seed, length = md[f"episode.{i}"].split(",")
            records.append(EpisodeRecord(task, policy, int(seed), int(length)))
        arrays = [ckpt.get(name).as_f32() for name in _ARRAYS]
    except (KeyError, ValueError) as exc:
        raise DatasetFormatError(f"dataset file {path}: a missing or malformed "
                                 f"entry ({type(exc).__name__}: {exc})") from None
    return Dataset(root, *arrays, records, hashlib.sha256(raw).hexdigest())


@dataclass
class _WindowTable:
    """Where the windows of one horizon lie in a dataset's packed rows.

    Window k (0 <= k < total) of episode e starts at episode step
    k - (cum[e] - valid[e]); its rows start at k + obs_shift[e] in the
    packed observations and at k + act_shift[e] in the packed actions and
    rewards."""
    cum: np.ndarray          # cumulative valid window counts per episode
    total: int
    obs_shift: np.ndarray
    act_shift: np.ndarray


def _window_table(dataset: Dataset, horizon: int) -> _WindowTable:
    records = dataset.records
    lengths = np.array([r.length for r in records])
    valid = lengths - horizon + 1
    if np.any(valid <= 0):
        raise ValueError(f"window horizon {horizon} exceeds an episode length")
    cum = np.cumsum(valid)
    first = cum - valid                          # first window index per episode
    act_off = np.cumsum(lengths) - lengths       # first action row per episode
    obs_off = act_off + np.arange(len(records))  # one more obs row per episode
    return _WindowTable(cum, int(cum[-1]), obs_off - first, act_off - first)


def sample_batch(dataset: Dataset, batch_size: int, horizon: int,
                 rng: np.random.Generator) -> TransitionBatch:
    """Uniform draw over all valid (episode, start) window positions."""
    table = dataset._windows.get(horizon)
    if table is None:
        table = dataset._windows[horizon] = _window_table(dataset, horizon)
    flat = rng.integers(0, table.total, size=batch_size)
    ep_idx = np.searchsorted(table.cum, flat, side="right")
    steps = np.arange(horizon + 1)
    obs_rows = (flat + table.obs_shift[ep_idx])[:, None] + steps
    act_rows = (flat + table.act_shift[ep_idx])[:, None] + steps[:horizon]
    return TransitionBatch(dataset.obs[obs_rows], dataset.actions[act_rows],
                           dataset.rewards[act_rows])


def check_layout(path, metadata: Dict[str, str], tasks: Sequence[str],
                 obs_dim: int, act_dim: int) -> None:
    """Raise UsageError unless the checkpoint at `path`, whose metadata is
    `metadata`, reads the observation and action layout of `tasks`: its task
    list, when recorded, is `tasks` in order, and its obs_dim and act_dim
    are these."""
    known = metadata.get("tasks", "")
    if known and known.split(",") != list(tasks):
        raise UsageError(f"tasks {','.join(tasks)} are not the checkpoint's "
                         f"{known}: {path} reads that task layout")
    dims = (metadata.get("obs_dim"), metadata.get("act_dim"))
    if dims != (str(obs_dim), str(act_dim)):
        raise UsageError(f"{path} reads obs/act dims ({dims[0]}, {dims[1]}), "
                         f"tasks {','.join(tasks)} give ({obs_dim}, {act_dim})")


def generate_dataset(out_dir, num_episodes: int, policy: str, seed: int,
                     tasks: Sequence[str] = TASKS) -> Dataset:
    """Write num_episodes per task to `dataset.tdck`; deterministic in seed.

    policy is one of "random", "scripted", "mixture" (even episodes random,
    odd scripted), or "trained:<checkpoint>".
    A trained checkpoint must read the layout of `tasks` (`check_layout`).
    Bad input raises UsageError before any file is written.
    """
    if num_episodes < 1:
        raise UsageError(f"episodes per task must be >= 1, got {num_episodes}")
    if seed < 0:
        raise UsageError(f"--seed must be >= 0, got {seed}")
    suite = MultiTaskSuite(tuple(tasks))
    trained = None
    if policy.startswith("trained:"):
        # Imported lazily: generation from a trained agent pulls in the planner.
        from .planner import PlannerConfig, rollout_episode
        from .world_model import model_from_checkpoint
        path = policy.split(":", 1)[1]
        ckpt = read_checkpoint(path)
        check_layout(path, ckpt.metadata, suite.tasks, suite.obs_dim, suite.act_dim)
        trained = model_from_checkpoint(ckpt)
    elif policy not in ("random", "scripted", "mixture"):
        raise UsageError(f"unknown behavior policy spec {policy!r}; known: random, "
                         "scripted, mixture, trained:<checkpoint>")

    episodes: List[Episode] = []
    records: List[EpisodeRecord] = []
    for task_id in suite.tasks:
        env = suite.envs[task_id]
        scripted = scripted_policy(task_id)
        actors = {"random": random_actor(env.spec.act_dim),
                  "scripted": lambda state, obs, rng: scripted(state, rng)}
        pad = partial(suite.pad_obs, task_id)
        for idx in range(num_episodes):
            ep_seed = int(stream(seed, "gen:" + task_id, idx).integers(0, 2 ** 62))
            if trained is not None:
                label = "trained"
                episode, _ = rollout_episode(env, trained, PlannerConfig(), ep_seed,
                                             obs_transform=pad, act_dim=suite.act_dim)
            else:
                label = policy
                if policy == "mixture":
                    label = "random" if idx % 2 == 0 else "scripted"
                episode = run_episode(env, actors[label], ep_seed, pad, suite.act_dim)
            episodes.append(episode)
            records.append(EpisodeRecord(task_id, label, ep_seed, episode.length))
    out_dir = Path(out_dir)
    dataset = Dataset.from_episodes(out_dir, episodes, records)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_dataset(dataset)
    return dataset
