"""Episode round-trips, format errors, window sampling, dataset generation."""

from pathlib import Path

import numpy as np
import pytest

from wmdistill.checkpoint import write_checkpoint
from wmdistill.dataset import (Dataset, Episode, EpisodeFormatError,
                               episode_file_size, generate_dataset,
                               load_dataset, read_episode, read_manifest,
                               sample_batch, write_episode)
from wmdistill.envs import MultiTaskSuite
from wmdistill.planner import PlannerConfig, rollout_episode
from wmdistill.world_model import WorldModel

from oracle_refs import sample_batch_loop


def _episode(rng, t=20, obs_dim=4, act_dim=1, task="pendulum-swingup"):
    return Episode(task,
                   rng.standard_normal((t + 1, obs_dim)).astype(np.float32),
                   rng.standard_normal((t, act_dim)).astype(np.float32),
                   rng.random(t).astype(np.float32))


def test_round_trip_is_bit_exact(tmp_path):
    ep = _episode(np.random.default_rng(0))
    path = tmp_path / "ep.mtep"
    write_episode(path, ep)
    back = read_episode(path)
    assert back.task_id == ep.task_id
    assert np.array_equal(back.obs, ep.obs)
    assert np.array_equal(back.actions, ep.actions)
    assert np.array_equal(back.rewards, ep.rewards)
    assert back.obs.tobytes() == ep.obs.tobytes()


def test_corrupt_magic_is_a_distinct_error(tmp_path):
    path = tmp_path / "ep.mtep"
    write_episode(path, _episode(np.random.default_rng(1)))
    raw = bytearray(path.read_bytes())
    raw[0] ^= 0xFF
    path.write_bytes(bytes(raw))
    with pytest.raises(EpisodeFormatError, match="bad magic"):
        read_episode(path)


def test_version_mismatch_is_a_distinct_error(tmp_path):
    path = tmp_path / "ep.mtep"
    write_episode(path, _episode(np.random.default_rng(2)))
    raw = bytearray(path.read_bytes())
    raw[4] = 99
    path.write_bytes(bytes(raw))
    with pytest.raises(EpisodeFormatError, match="version"):
        read_episode(path)


def test_truncated_file_is_a_distinct_error(tmp_path):
    path = tmp_path / "ep.mtep"
    write_episode(path, _episode(np.random.default_rng(3)))
    raw = path.read_bytes()
    path.write_bytes(raw[:len(raw) - 7])
    with pytest.raises(EpisodeFormatError, match="truncated"):
        read_episode(path)


def test_file_size_matches_format_arithmetic(tmp_path):
    # 16-byte fixed header + u32 T + length-prefixed name + f32 payload
    ep = _episode(np.random.default_rng(4), t=33, obs_dim=5, act_dim=2,
                  task="cup-catch")
    path = tmp_path / "ep.mtep"
    write_episode(path, ep)
    expected = 16 + 4 + 2 + len("cup-catch") + 4 * (34 * 5 + 33 * 2 + 33)
    assert path.stat().st_size == expected
    assert episode_file_size(5, 2, 33, "cup-catch") == expected


def test_single_window_dataset_returns_the_full_episode():
    ep = _episode(np.random.default_rng(5), t=12)
    ds = Dataset(Path("."), [ep])
    batch = sample_batch(ds, batch_size=1, horizon=12,
                         rng=np.random.default_rng(0))
    assert np.array_equal(batch.obs[0], ep.obs)
    assert np.array_equal(batch.actions[0], ep.actions)
    assert np.array_equal(batch.rewards[0], ep.rewards)
    assert batch.task_ids == [ep.task_id]


def test_windows_match_source_slices_and_never_cross_episodes():
    rng = np.random.default_rng(6)
    episodes = [_episode(rng, t=15) for _ in range(5)]
    ds = Dataset(Path("."), episodes)
    batch = sample_batch(ds, batch_size=64, horizon=4,
                         rng=np.random.default_rng(1))
    matched = 0
    for i in range(64):
        window_obs = batch.obs[i]
        for ep in episodes:
            for start in range(ep.length - 4 + 1):
                if np.array_equal(ep.obs[start:start + 5], window_obs):
                    assert np.array_equal(ep.actions[start:start + 4],
                                          batch.actions[i])
                    assert np.array_equal(ep.rewards[start:start + 4],
                                          batch.rewards[i])
                    matched += 1
                    break
            else:
                continue
            break
    assert matched == 64


def test_start_index_distribution_uniform_chi_squared():
    # one episode, horizon chosen to leave 10 valid starts; 100k draws.
    # chi^2 critical value for df=9 at p=0.01 is 21.666: statistic below it
    # means the uniform hypothesis is not rejected (p > 0.01).
    ep = _episode(np.random.default_rng(7), t=14)
    ds = Dataset(Path("."), [ep])
    rng = np.random.default_rng(123)
    starts = []
    for _ in range(100):
        batch = sample_batch(ds, batch_size=1000, horizon=5, rng=rng)
        # recover start index by matching the first observation row
        firsts = batch.obs[:, 0, :]
        for row in firsts:
            idx = next(s for s in range(10) if np.array_equal(ep.obs[s], row))
            starts.append(idx)
    counts = np.bincount(starts, minlength=10)
    expected = len(starts) / 10
    stat = float(((counts - expected) ** 2 / expected).sum())
    assert stat < 21.666, f"chi2 statistic {stat} rejects uniformity"


def test_sampling_deterministic_given_rng_state():
    rng = np.random.default_rng(8)
    episodes = [_episode(rng, t=20) for _ in range(3)]
    ds = Dataset(Path("."), episodes)
    b1 = sample_batch(ds, 16, 3, np.random.default_rng(42))
    b2 = sample_batch(ds, 16, 3, np.random.default_rng(42))
    assert np.array_equal(b1.obs, b2.obs)
    assert np.array_equal(b1.actions, b2.actions)


@pytest.mark.parametrize("horizon", [1, 3, 5])
def test_gathered_windows_equal_the_per_row_loop_bitwise(tiny_dataset, horizon):
    rng = np.random.default_rng(9)
    tasks = ("pendulum-swingup", "cup-catch")
    # unequal lengths, so episode offsets differ from a multiple of one length
    mixed = Dataset(Path("."), [_episode(rng, t=t, task=tasks[i % 2])
                                for i, t in enumerate((12, 5, 20, 7))])
    for ds in (tiny_dataset, mixed):
        for seed in range(5):
            got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            got = sample_batch(ds, 40, horizon, got_rng)
            want = sample_batch_loop(ds, 40, horizon, want_rng)
            for name in ("obs", "actions", "rewards"):
                a, b = getattr(got, name), getattr(want, name)
                assert a.dtype == b.dtype and a.shape == b.shape, name
                assert a.tobytes() == b.tobytes(), (seed, name)
            assert got.task_ids == want.task_ids
            assert got_rng.integers(2 ** 62) == want_rng.integers(2 ** 62)
    with pytest.raises(ValueError, match="exceeds an episode length"):
        sample_batch(mixed, 4, 6, np.random.default_rng(0))


def test_dataset_episodes_are_views_of_the_packed_rows(tiny_dataset):
    o = a = 0
    for ep in tiny_dataset.episodes:
        assert ep.obs.base is tiny_dataset.obs and ep.actions.base is tiny_dataset.actions
        assert np.array_equal(tiny_dataset.obs[o:o + ep.length + 1], ep.obs)
        assert np.array_equal(tiny_dataset.rewards[a:a + ep.length], ep.rewards)
        o, a = o + ep.length + 1, a + ep.length
    assert (o, a) == (len(tiny_dataset.obs), len(tiny_dataset.rewards))


def test_empty_dataset_rejected():
    with pytest.raises(ValueError):
        sample_batch(Dataset(Path("."), []), 4, 2, np.random.default_rng(0))


def test_generate_counts_manifest_and_labels(tmp_path):
    ds = generate_dataset(tmp_path, num_episodes=4, policy="mixture", seed=3)
    files = sorted(p.name for p in tmp_path.glob("*.mtep"))
    assert len(files) == 12  # 4 episodes x 3 tasks
    entries = read_manifest(tmp_path / "manifest.txt")
    assert len(entries) == 12
    assert sorted(e.path for e in entries) == files
    labels = [e.policy for e in entries if e.task_id == "pendulum-swingup"]
    assert labels == ["random", "scripted", "random", "scripted"]
    assert len(ds.episodes) == 12
    assert ds.obs_dim == 8 and ds.act_dim == 1


def test_generate_is_deterministic_bytewise(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    generate_dataset(a, num_episodes=2, policy="mixture", seed=11)
    generate_dataset(b, num_episodes=2, policy="mixture", seed=11)
    for pa in sorted(a.glob("*")):
        pb = b / pa.name
        assert pa.read_bytes() == pb.read_bytes(), pa.name


def test_generate_unknown_policy_rejected(tmp_path):
    with pytest.raises(ValueError):
        generate_dataset(tmp_path, 1, "dagger", 0)


def test_load_requires_manifest(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_dataset(tmp_path)


def test_trained_policy_records_the_evaluated_warm_start_agent(tmp_path):
    task = "pendulum-swingup"
    suite = MultiTaskSuite((task,))
    model = WorldModel(suite.obs_dim, suite.act_dim, "student", seed=4)
    write_checkpoint(tmp_path / "model.tdck", model.to_checkpoint())
    data = generate_dataset(tmp_path / "data", 1, f"trained:{tmp_path / 'model.tdck'}",
                            seed=2, tasks=(task,))
    entry, = data.manifest
    assert entry.policy == "trained"
    want, _ = rollout_episode(suite.envs[task], model, PlannerConfig(), entry.seed,
                              obs_transform=lambda raw: suite.pad_obs(task, raw),
                              act_dim=suite.act_dim)
    got = data.episodes[0]
    assert got.actions.tobytes() == want.actions.tobytes()
    assert got.obs.tobytes() == want.obs.tobytes()
