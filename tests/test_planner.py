"""Planner behaviour: degenerate cases, argmax identity, determinism,
action bounds, elite improvement."""

import numpy as np
import pytest

from oracle_refs import plan_two_pass
from wmdistill.envs import GroundTruthModel, MultiTaskSuite, make_env, task_score
from wmdistill.evaluate import random_policy_return
from wmdistill.planner import PlannerConfig, PlannerError, plan, rollout_episode
from wmdistill.world_model import SizePreset, WorldModel

MICRO = SizePreset("micro", latent_dim=2, hidden_dim=8, n_hidden=1)


class QuadraticModel:
    """Synthetic model whose reward is a fixed quadratic in the action.

    Latents are inert; the optimum action is `target` at every step, making
    planner improvement measurable without any learned machinery.
    """
    act_dim = 1
    latent_dim = 1

    def __init__(self, target=0.37):
        self.target = target

    def encode_np(self, obs):
        return np.zeros((obs.shape[0] if obs.ndim == 2 else 1, 1))

    def dynamics_np(self, z, a):
        return z

    def reward_np(self, z, a):
        return 1.0 - (a[:, 0] - self.target) ** 2

    def step_np(self, z, a):
        return self.reward_np(z, a), self.dynamics_np(z, a)

    def value_np(self, z, a):
        return np.zeros(z.shape[0])

    def policy_np(self, z):
        return np.zeros((z.shape[0], 1))


def test_config_validation():
    with pytest.raises(ValueError):
        PlannerConfig(num_samples=4, num_elites=8)
    with pytest.raises(ValueError):
        PlannerConfig(horizon=0)
    with pytest.raises(ValueError):
        PlannerConfig(temperature=0.0)


def test_degenerate_single_sample_returns_policy_action_exactly():
    model = WorldModel(3, 1, MICRO, seed=1)
    z = model.encode_np(np.random.default_rng(0)
                        .uniform(-1, 1, (1, 3)).astype(np.float32))
    cfg = PlannerConfig(num_samples=1, num_elites=1, iterations=1,
                        noise_std=0.0, horizon=3)
    action, _ = plan(model, z, cfg, np.random.default_rng(5))
    expected = model.policy_np(z)[0]
    assert np.array_equal(action.astype(np.float32), expected)


def test_tiny_temperature_selects_argmax_candidate():
    model = QuadraticModel()
    z = np.zeros((1, 1))
    cfg = PlannerConfig(num_samples=64, num_elites=8, iterations=1,
                        temperature=1e-9, horizon=4, policy_fraction=0.25)
    action, mean, info = plan(model, z, cfg, np.random.default_rng(7),
                              return_info=True)
    # brute-force enumeration of the same candidate set
    best = info["candidates"][int(np.argmax(info["scores"]))]
    assert np.allclose(mean, best, atol=1e-6)
    assert np.allclose(action, best[0], atol=1e-6)


def test_lowering_temperature_never_changes_top_elite():
    model = QuadraticModel()
    z = np.zeros((1, 1))
    tops = []
    for temp in (1.0, 0.1, 1e-3, 1e-7):
        cfg = PlannerConfig(num_samples=32, num_elites=8, iterations=1,
                            temperature=temp, horizon=3)
        _, _, info = plan(model, z, cfg, np.random.default_rng(3),
                          return_info=True)
        tops.append(int(np.argmax(info["scores"])))
    assert len(set(tops)) == 1


def test_same_seed_same_action():
    model = WorldModel(3, 1, MICRO, seed=2)
    z = model.encode_np(np.zeros((1, 3), np.float32))
    cfg = PlannerConfig(num_samples=32, num_elites=4, iterations=2)
    a1, _ = plan(model, z, cfg, np.random.default_rng(11))
    a2, _ = plan(model, z, cfg, np.random.default_rng(11))
    assert np.array_equal(a1, a2)


def test_actions_always_within_bounds():
    model = WorldModel(3, 1, MICRO, seed=3)
    # exaggerate the policy so raw outputs saturate
    for w in model.policy.weights:
        w.data *= 20.0
    rng = np.random.default_rng(13)
    cfg = PlannerConfig(num_samples=16, num_elites=4, iterations=2,
                        init_std=3.0)
    for _ in range(10):
        z = model.encode_np(rng.uniform(-1, 1, (1, 3)).astype(np.float32))
        action, mean, info = plan(model, z, cfg, rng, return_info=True)
        assert np.all(np.abs(action) <= 1.0)
        assert np.all(np.abs(info["candidates"]) <= 1.0)


def test_expected_elite_score_improves_across_iterations():
    # sign test over 20 seeds on the fixed quadratic objective: within one
    # plan() call the mean elite score of the last iteration beats the first
    model = QuadraticModel()
    z = np.zeros((1, 1))
    cfg = PlannerConfig(num_samples=32, num_elites=8, iterations=4,
                        temperature=0.5, horizon=4)
    wins = 0
    for seed in range(20):
        _, _, info = plan(model, z, cfg, np.random.default_rng(seed),
                          return_info=True)
        hist = info["elite_score_per_iteration"]
        wins += int(hist[-1] >= hist[0])
    # 15+/20 under H0 p=0.5 has probability ~2%: improvement is systematic
    assert wins >= 15, f"elite score improved in only {wins}/20 seeds"


def test_nan_reward_from_model_raises_naming_step():
    class NanModel(QuadraticModel):
        def reward_np(self, z, a):
            out = super().reward_np(z, a)
            out[0] = np.nan
            return out

    cfg = PlannerConfig(num_samples=8, num_elites=2, iterations=1)
    with pytest.raises(PlannerError, match="step 0"):
        plan(NanModel(), np.zeros((1, 1)), cfg, np.random.default_rng(0))


def test_rollout_episode_reproducible():
    gm = GroundTruthModel("pendulum-swingup")
    env = make_env("pendulum-swingup")
    cfg = PlannerConfig(num_samples=16, num_elites=4, iterations=2, horizon=10)
    ep1, r1 = rollout_episode(env, gm, cfg, seed=4)
    ep2, r2 = rollout_episode(env, gm, cfg, seed=4)
    assert r1 == r2
    assert np.array_equal(ep1.actions, ep2.actions)
    assert np.array_equal(ep1.rewards, ep2.rewards)


def test_untrained_model_scores_in_random_band():
    # a fresh random model should not plan better than ~2x the random band
    model = WorldModel(3, 1, MICRO, seed=8)
    env = make_env("pendulum-swingup")
    cfg = PlannerConfig(num_samples=32, num_elites=4, iterations=2)
    _, ret = rollout_episode(env, model, cfg, seed=5)
    random_band = max(random_policy_return("pendulum-swingup", s)
                      for s in range(10))
    assert ret <= max(2.0 * random_band, 40.0)


def test_oracle_model_solves_pendulum_single_seed():
    # the full 10-seed gate lives in the acceptance suite; one seed here
    gm = GroundTruthModel("pendulum-swingup")
    env = make_env("pendulum-swingup")
    cfg = PlannerConfig(horizon=40, num_samples=128, num_elites=16,
                        iterations=4, noise_std=0.1, policy_fraction=0.0)
    _, ret = rollout_episode(env, gm, cfg, seed=0)
    assert task_score(ret) >= 800.0


class TwoCallGroundTruth(GroundTruthModel):
    """The oracle as the two-pass planner used it: one physics call for the
    reward and another for the next state."""

    def reward_np(self, z, a):
        return self.env.step_batch(z, a)[1]

    def dynamics_np(self, z, a):
        return self.env.step_batch(z, a)[0]


def _reference_cases():
    suite = MultiTaskSuite()
    obs = np.random.default_rng(0).uniform(-1, 1, (1, suite.obs_dim)).astype(np.float32)
    for preset, act_dim in (("student", 1), ("teacher-S", 1), ("teacher-L", 1),
                            ("student", 2)):
        model = WorldModel(suite.obs_dim, act_dim, preset, seed=3)
        yield f"{preset}-a{act_dim}", model, model, model.encode_np(obs)
    gm = TwoCallGroundTruth("pendulum-swingup")
    _, raw = gm.env.reset(1)
    yield "ground-truth", gm, GroundTruthModel("pendulum-swingup"), gm.encode_np(raw)


@pytest.mark.parametrize("policy_fraction", [0.25, 0.0, 1.0])
def test_plan_equals_two_pass_reference_bitwise(policy_fraction):
    cfg = PlannerConfig(policy_fraction=policy_fraction)
    for name, ref_model, model, z0 in _reference_cases():
        for seed in range(5):
            warm = np.random.default_rng(100 + seed).uniform(
                -1, 1, (cfg.horizon, model.act_dim))
            for prev_mean in (None, warm):
                want = plan_two_pass(ref_model, z0, cfg, np.random.default_rng(seed),
                                     prev_mean=prev_mean)
                got = plan(model, z0, cfg, np.random.default_rng(seed),
                           prev_mean=prev_mean, return_info=True)
                case = f"{name} seed {seed} warm {prev_mean is not None}"
                for a, b in zip(want[:2], got[:2]):
                    assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), case
                for key in ("candidates", "scores"):
                    assert want[2][key].tobytes() == got[2][key].tobytes(), (case, key)
                assert want[2]["elite_score_per_iteration"] \
                    == got[2]["elite_score_per_iteration"], case
