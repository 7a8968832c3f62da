"""Offline episode persistence and minibatch sampling.

Episodes are stored one per file in a small binary format ("MTEP"):

    bytes 0..3    magic b"MTEP"
    u32           version (currently 1)
    u32           obs_dim
    u32           act_dim            <- fixed 16-byte header ends here
    u32           T (number of steps)
    u16 + bytes   task_id, utf-8, length-prefixed
    f32[(T+1)*obs_dim]   observations, row-major, little-endian
    f32[T*act_dim]       actions
    f32[T]               rewards

Round-trips are bit-exact. A dataset directory holds the episode files plus
a plain-text manifest with one line per episode: path, task, policy label,
seed.

Sampling draws training windows uniformly over all valid (episode, start)
pairs; a window never crosses an episode boundary.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .envs import MultiTaskSuite, TASKS, scripted_policy
from .seeding import stream

MAGIC = b"MTEP"
VERSION = 1
MANIFEST_NAME = "manifest.txt"


class EpisodeFormatError(ValueError):
    """Malformed episode file: bad magic, version mismatch, or truncation."""


@dataclass
class Episode:
    task_id: str
    obs: np.ndarray       # (T+1, obs_dim) float32
    actions: np.ndarray   # (T, act_dim) float32
    rewards: np.ndarray   # (T,) float32

    def __post_init__(self) -> None:
        self.obs = np.ascontiguousarray(self.obs, dtype=np.float32)
        self.actions = np.ascontiguousarray(self.actions, dtype=np.float32)
        self.rewards = np.ascontiguousarray(self.rewards, dtype=np.float32)
        t = self.rewards.shape[0]
        if self.obs.ndim != 2 or self.actions.ndim != 2 or self.rewards.ndim != 1:
            raise ValueError("episode arrays have wrong rank")
        if self.obs.shape[0] != t + 1 or self.actions.shape[0] != t:
            raise ValueError(
                f"inconsistent episode lengths: obs {self.obs.shape}, "
                f"actions {self.actions.shape}, rewards {self.rewards.shape}")
        for name, arr in (("obs", self.obs), ("actions", self.actions),
                          ("rewards", self.rewards)):
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"non-finite values in episode {name}")

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
    task_ids: List[str]


def episode_file_size(obs_dim: int, act_dim: int, t: int, task_id: str) -> int:
    """Exact on-disk size: 16-byte header, T, name, then float32 payload."""
    payload = 4 * ((t + 1) * obs_dim + t * act_dim + t)
    return 16 + 4 + 2 + len(task_id.encode("utf-8")) + payload


def write_episode(path, episode: Episode) -> None:
    name = episode.task_id.encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<III", VERSION, episode.obs_dim, episode.act_dim))
        fh.write(struct.pack("<I", episode.length))
        fh.write(struct.pack("<H", len(name)))
        fh.write(name)
        fh.write(episode.obs.astype("<f4").tobytes())
        fh.write(episode.actions.astype("<f4").tobytes())
        fh.write(episode.rewards.astype("<f4").tobytes())


def read_episode(path) -> Episode:
    raw = Path(path).read_bytes()

    def take(n: int, what: str) -> bytes:
        nonlocal off
        if off + n > len(raw):
            raise EpisodeFormatError(f"truncated episode file {path}: "
                                     f"missing {what}")
        chunk = raw[off:off + n]
        off += n
        return chunk

    off = 0
    if take(4, "magic") != MAGIC:
        raise EpisodeFormatError(f"bad magic in episode file {path}")
    version, obs_dim, act_dim = struct.unpack("<III", take(12, "header"))
    if version != VERSION:
        raise EpisodeFormatError(f"unsupported episode version {version} in {path}")
    (t,) = struct.unpack("<I", take(4, "step count"))
    (name_len,) = struct.unpack("<H", take(2, "task id length"))
    task_id = take(name_len, "task id").decode("utf-8")
    obs = np.frombuffer(take(4 * (t + 1) * obs_dim, "observations"),
                        dtype="<f4").reshape(t + 1, obs_dim)
    actions = np.frombuffer(take(4 * t * act_dim, "actions"),
                            dtype="<f4").reshape(t, act_dim)
    rewards = np.frombuffer(take(4 * t, "rewards"), dtype="<f4")
    if off != len(raw):
        raise EpisodeFormatError(f"trailing bytes in episode file {path}")
    return Episode(task_id, obs.copy(), actions.copy(), rewards.copy())


@dataclass
class ManifestEntry:
    path: str
    task_id: str
    policy: str
    seed: int


@dataclass
class Dataset:
    """Episodes plus their rows packed end to end: `obs`, `actions` and
    `rewards` stack every episode's arrays in order, and each episode's
    arrays are views into them. The episode list is fixed once built."""
    root: Path
    episodes: List[Episode]
    manifest: List[ManifestEntry] = field(default_factory=list)
    obs: np.ndarray = field(init=False, repr=False, compare=False)
    actions: np.ndarray = field(init=False, repr=False, compare=False)
    rewards: np.ndarray = field(init=False, repr=False, compare=False)
    # horizon -> _WindowTable, built on first use by sample_batch
    _windows: Dict[int, "_WindowTable"] = field(
        init=False, repr=False, compare=False, default_factory=dict)

    def __post_init__(self) -> None:
        eps = self.episodes
        if not eps:
            self.obs = np.zeros((0, 0), np.float32)
            self.actions = np.zeros((0, 0), np.float32)
            self.rewards = np.zeros(0, np.float32)
            return
        self.obs = np.concatenate([ep.obs for ep in eps])
        self.actions = np.concatenate([ep.actions for ep in eps])
        self.rewards = np.concatenate([ep.rewards for ep in eps])
        o = a = 0
        for ep in eps:
            t = ep.length
            ep.obs = self.obs[o:o + t + 1]
            ep.actions = self.actions[a:a + t]
            ep.rewards = self.rewards[a:a + t]
            o, a = o + t + 1, a + t

    @property
    def tasks(self) -> Tuple[str, ...]:
        seen: List[str] = []
        for ep in self.episodes:
            if ep.task_id not in seen:
                seen.append(ep.task_id)
        return tuple(seen)

    @property
    def obs_dim(self) -> int:
        return self.episodes[0].obs_dim

    @property
    def act_dim(self) -> int:
        return self.episodes[0].act_dim


def write_manifest(path, entries: Sequence[ManifestEntry]) -> None:
    counts: Dict[str, int] = {}
    for e in entries:
        counts[e.task_id] = counts.get(e.task_id, 0) + 1
    lines = [f"# episodes={len(entries)}"]
    lines += [f"# {task}={n}" for task, n in sorted(counts.items())]
    lines += [f"{e.path},{e.task_id},{e.policy},{e.seed}" for e in entries]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def read_manifest(path) -> List[ManifestEntry]:
    entries = []
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        rel, task, policy, seed = line.split(",")
        entries.append(ManifestEntry(rel, task, policy, int(seed)))
    return entries


def load_dataset(root) -> Dataset:
    root = Path(root)
    manifest_path = root / MANIFEST_NAME
    if not manifest_path.exists():
        raise FileNotFoundError(f"no {MANIFEST_NAME} in dataset directory {root}")
    manifest = read_manifest(manifest_path)
    episodes = [read_episode(root / e.path) for e in manifest]
    if not episodes:
        raise ValueError(f"dataset {root} is empty")
    return Dataset(root, episodes, manifest)


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
    task_ids: np.ndarray     # per episode, dtype object


def _window_table(dataset: Dataset, horizon: int) -> _WindowTable:
    episodes = dataset.episodes
    lengths = np.array([ep.length for ep in episodes])
    valid = lengths - horizon + 1
    if np.any(valid <= 0):
        raise ValueError(f"window horizon {horizon} exceeds an episode length")
    cum = np.cumsum(valid)
    first = cum - valid                          # first window index per episode
    act_off = np.cumsum(lengths) - lengths       # first action row per episode
    obs_off = act_off + np.arange(len(episodes))  # one more obs row per episode
    return _WindowTable(cum, int(cum[-1]), obs_off - first, act_off - first,
                        np.array([ep.task_id for ep in episodes], dtype=object))


def sample_batch(dataset: Dataset, batch_size: int, horizon: int,
                 rng: np.random.Generator) -> TransitionBatch:
    """Uniform draw over all valid (episode, start) window positions."""
    if not dataset.episodes:
        raise ValueError("cannot sample from an empty dataset")
    table = dataset._windows.get(horizon)
    if table is None:
        table = dataset._windows[horizon] = _window_table(dataset, horizon)
    flat = rng.integers(0, table.total, size=batch_size)
    ep_idx = np.searchsorted(table.cum, flat, side="right")
    steps = np.arange(horizon + 1)
    obs_rows = (flat + table.obs_shift[ep_idx])[:, None] + steps
    act_rows = (flat + table.act_shift[ep_idx])[:, None] + steps[:horizon]
    return TransitionBatch(dataset.obs[obs_rows], dataset.actions[act_rows],
                           dataset.rewards[act_rows], table.task_ids[ep_idx].tolist())


def generate_dataset(out_dir, num_episodes: int, policy: str, seed: int,
                     tasks: Sequence[str] = TASKS) -> Dataset:
    """Write num_episodes per task plus a manifest; deterministic in seed.

    policy is one of "random", "scripted" (alias "scripted-energy-swingup"),
    "mixture" (even episodes random, odd scripted), or "trained:<checkpoint>".
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    suite = MultiTaskSuite(tuple(tasks))
    trained = None
    if policy.startswith("trained:"):
        # Imported lazily: generation from a trained agent pulls in the planner.
        from .checkpoint import read_checkpoint
        from .planner import PlannerConfig, rollout_episode
        from .world_model import model_from_checkpoint
        trained = model_from_checkpoint(read_checkpoint(policy.split(":", 1)[1]))
    elif policy == "scripted-energy-swingup":
        policy = "scripted"
    elif policy not in ("random", "scripted", "mixture"):
        raise ValueError(f"unknown behavior policy spec {policy!r}")

    entries: List[ManifestEntry] = []
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
            fname = f"{task_id}_{idx:04d}.mtep"
            write_episode(out_dir / fname, episode)
            entries.append(ManifestEntry(fname, task_id, label, ep_seed))
    write_manifest(out_dir / MANIFEST_NAME, entries)
    return load_dataset(out_dir)
