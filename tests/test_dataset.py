"""Dataset round-trips, format errors, window sampling, dataset generation."""

from functools import partial
from pathlib import Path

import re

import numpy as np
import pytest

from wmdistill.checkpoint import (CheckpointFormatError, read_checkpoint,
                                  write_checkpoint)
from wmdistill.cli import EXIT_USAGE, main
from wmdistill.dataset import (DATASET_FILE, Dataset, DatasetFormatError, Episode,
                               EpisodeRecord, generate_dataset, load_dataset,
                               random_actor, run_episode, sample_batch,
                               write_dataset)
from wmdistill.envs import MultiTaskSuite, scripted_policy
from wmdistill.planner import PlannerConfig, rollout_episode
from wmdistill.world_model import WorldModel

from oracle_refs import sample_batch_loop


def _episode(rng, t=20, obs_dim=4, act_dim=1, task="pendulum-swingup"):
    return Episode(task,
                   rng.standard_normal((t + 1, obs_dim)).astype(np.float32),
                   rng.standard_normal((t, act_dim)).astype(np.float32),
                   rng.random(t).astype(np.float32))


def _packed(episodes):
    records = [EpisodeRecord(ep.task_id, "random", 0, ep.length) for ep in episodes]
    return Dataset.from_episodes(".", episodes, records)


def test_round_trip_is_bit_exact(tmp_path):
    """generate -> load gives back, bitwise, the episodes run_episode plays
    from each record's seed."""
    tasks = ("pendulum-swingup", "cup-catch")
    generate_dataset(tmp_path, num_episodes=2, policy="mixture", seed=4, tasks=tasks)
    ds = load_dataset(tmp_path)
    suite = MultiTaskSuite(tasks)
    assert [(r.task_id, r.policy) for r in ds.records] == [
        (task, policy) for task in tasks for policy in ("random", "scripted")]
    for record, got in zip(ds.records, ds.episodes):
        env = suite.envs[record.task_id]
        scripted = scripted_policy(record.task_id)
        actor = (random_actor(env.spec.act_dim) if record.policy == "random"
                 else lambda state, obs, rng: scripted(state, rng))
        want = run_episode(env, actor, record.seed,
                           partial(suite.pad_obs, record.task_id), suite.act_dim)
        assert got.task_id == want.task_id and record.length == want.length
        for name in ("obs", "actions", "rewards"):
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name


@pytest.mark.parametrize("seed", [0, 2 ** 62 - 1, 2 ** 62])
def test_record_seeds_come_back_exact(tmp_path, seed):
    eps = [_episode(np.random.default_rng(1), t=5), _episode(np.random.default_rng(2), t=7)]
    ds = Dataset.from_episodes(tmp_path, eps, [
        EpisodeRecord(eps[0].task_id, "random", seed, 5),
        EpisodeRecord(eps[1].task_id, "trained", seed // 3, 7)])
    write_dataset(ds)
    back = load_dataset(tmp_path)
    assert back.records == ds.records
    assert type(back.records[0].seed) is int and back.records[0].seed == seed


def _written(tmp_path, mutate=lambda ckpt: None):
    """A small generated dataset, its file rewritten after `mutate(ckpt)`."""
    generate_dataset(tmp_path, num_episodes=1, policy="random", seed=3,
                     tasks=("pendulum-swingup",))
    path = tmp_path / DATASET_FILE
    ckpt = read_checkpoint(path)
    mutate(ckpt)
    write_checkpoint(path, ckpt)
    return path


def test_truncated_file_is_a_distinct_error(tmp_path):
    path = _written(tmp_path)
    raw = path.read_bytes()
    path.write_bytes(raw[:len(raw) - 7])
    with pytest.raises(CheckpointFormatError,
                       match=re.escape(f"truncated checkpoint {path}")):
        load_dataset(tmp_path)


def test_trailing_bytes_are_a_distinct_error(tmp_path):
    path = _written(tmp_path)
    path.write_bytes(path.read_bytes() + b"\0")
    with pytest.raises(CheckpointFormatError,
                       match=re.escape(f"trailing bytes in checkpoint {path}")):
        load_dataset(tmp_path)


def test_task_id_that_is_not_utf8_names_the_file(tmp_path):
    path = _written(tmp_path)
    path.write_bytes(path.read_bytes().replace(b"pendulum", b"\xffendulum"))
    with pytest.raises(CheckpointFormatError,
                       match=re.escape(f"metadata is not utf-8 in checkpoint {path}")):
        load_dataset(tmp_path)


def test_non_finite_rows_are_a_named_error(tmp_path):
    def poison(ckpt):
        ckpt.tensors["rewards"].data[3] = np.nan
    _written(tmp_path, poison)
    with pytest.raises(DatasetFormatError, match="non-finite values in the rewards"):
        load_dataset(tmp_path)


@pytest.mark.parametrize("key, value, named", [
    ("episode.0", "pendulum-swingup,random,5,199", "add up to 199 steps"),
    ("episodes", "2", "'episode.1'"),
    ("episode.0", "pendulum-swingup,random,5", "not enough values"),
    ("episode.0", "pendulum-swingup,random,five,200", "invalid literal")])
def test_records_that_do_not_fit_the_rows_are_a_named_error(tmp_path, key, value,
                                                           named):
    _written(tmp_path, lambda ckpt: ckpt.metadata.update({key: value}))
    with pytest.raises(DatasetFormatError, match=re.escape(named)):
        load_dataset(tmp_path)


def test_old_layout_directory_says_to_regenerate(tmp_path, capsys):
    """A directory of per-episode files and manifest.txt is not read."""
    (tmp_path / "manifest.txt").write_text("pendulum-swingup_0000.mtep,"
                                           "pendulum-swingup,random,1\n")
    (tmp_path / "pendulum-swingup_0000.mtep").write_bytes(b"MTEP")
    with pytest.raises(FileNotFoundError, match="regenerate it with gen-data"):
        load_dataset(tmp_path)
    rc = main(["train", "--dataset", str(tmp_path), "--out", str(tmp_path / "run"),
               "--steps", "0", "--eval-episodes", "0"])
    assert rc == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error: ") and DATASET_FILE in err and "regenerate" in err
    assert not (tmp_path / "run").exists()


def _owns_its_memory(arr):
    while isinstance(arr.base, np.ndarray):
        arr = arr.base
    return arr.base is None and arr.flags.writeable


def test_read_arrays_are_writable_and_share_no_memory_with_the_file(tmp_path):
    """The reader copies each payload out of the bytes it parses, once: the
    packed arrays own their memory and the episodes are views of them."""
    path = _written(tmp_path)
    ds = load_dataset(tmp_path)
    assert all(_owns_its_memory(getattr(ds, name)) for name in ("obs", "actions", "rewards"))
    assert all(ep.obs.base is ds.obs for ep in ds.episodes)
    ckpt = read_checkpoint(path)
    for name in ("obs", "actions", "rewards"):
        assert getattr(ds, name).tobytes() == ckpt.tensors[name].data.tobytes()


def test_single_window_dataset_returns_the_full_episode():
    ep = _episode(np.random.default_rng(5), t=12)
    ds = _packed([ep])
    batch = sample_batch(ds, batch_size=1, horizon=12,
                         rng=np.random.default_rng(0))
    assert np.array_equal(batch.obs[0], ep.obs)
    assert np.array_equal(batch.actions[0], ep.actions)
    assert np.array_equal(batch.rewards[0], ep.rewards)


def test_windows_match_source_slices_and_never_cross_episodes():
    rng = np.random.default_rng(6)
    episodes = [_episode(rng, t=15) for _ in range(5)]
    ds = _packed(episodes)
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
    ds = _packed([ep])
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
    ds = _packed(episodes)
    b1 = sample_batch(ds, 16, 3, np.random.default_rng(42))
    b2 = sample_batch(ds, 16, 3, np.random.default_rng(42))
    assert np.array_equal(b1.obs, b2.obs)
    assert np.array_equal(b1.actions, b2.actions)


@pytest.mark.parametrize("horizon", [1, 3, 5])
def test_gathered_windows_equal_the_per_row_loop_bitwise(tiny_dataset, horizon):
    rng = np.random.default_rng(9)
    tasks = ("pendulum-swingup", "cup-catch")
    # unequal lengths, so episode offsets differ from a multiple of one length
    mixed = _packed([_episode(rng, t=t, task=tasks[i % 2])
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
    with pytest.raises(DatasetFormatError, match="holds no episodes"):
        Dataset(Path("."), np.zeros((0, 4), np.float32), np.zeros((0, 1), np.float32),
                np.zeros(0, np.float32), [])


def test_generate_counts_manifest_and_labels(tmp_path):
    ds = generate_dataset(tmp_path, num_episodes=4, policy="mixture", seed=3)
    assert [p.name for p in tmp_path.iterdir()] == [DATASET_FILE]
    assert len(ds.records) == 12  # 4 episodes x 3 tasks
    labels = [r.policy for r in ds.records if r.task_id == "pendulum-swingup"]
    assert labels == ["random", "scripted", "random", "scripted"]
    assert len(ds.episodes) == 12
    assert ds.obs_dim == 8 and ds.act_dim == 1
    md = read_checkpoint(tmp_path / DATASET_FILE).metadata
    assert md["episodes"] == "12"
    assert [md[f"episode.{i}"] for i in range(12)] == [
        f"{r.task_id},{r.policy},{r.seed},{r.length}" for r in ds.records]


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
    entry, = data.records
    assert entry.policy == "trained"
    want, _ = rollout_episode(suite.envs[task], model, PlannerConfig(), entry.seed,
                              obs_transform=lambda raw: suite.pad_obs(task, raw),
                              act_dim=suite.act_dim)
    got = data.episodes[0]
    assert got.actions.tobytes() == want.actions.tobytes()
    assert got.obs.tobytes() == want.obs.tobytes()
