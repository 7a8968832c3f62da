"""World-model heads, composite loss (hand oracle + finite differences),
training-step contracts."""

import numpy as np
import pytest

import wmdistill.autodiff as ad
from wmdistill.autodiff import ShapeError, Tensor
from wmdistill.dataset import TransitionBatch
from wmdistill.world_model import (LossBreakdown, LossCoeffs, PRESETS,
                                   SizePreset, TrainHyper, WorldModel,
                                   make_optimizers, model_from_checkpoint,
                                   original_loss, policy_objective, train_step)

from oracle_refs import (ACTS64, analytic_head_grads, central_diff_layers,
                         composite_loss64, composite_targets64, grads_close,
                         head_np, model_layers64, policy_objective64)

MICRO = SizePreset("micro", latent_dim=2, hidden_dim=8, n_hidden=1)


def micro_model(seed=0, obs_dim=3, act_dim=1, activation="mish"):
    return WorldModel(obs_dim, act_dim, MICRO, activation=activation, seed=seed)


def make_batch(rng, b=4, h=2, obs_dim=3, act_dim=1):
    return TransitionBatch(
        obs=rng.uniform(-1, 1, (b, h + 1, obs_dim)).astype(np.float32),
        actions=rng.uniform(-1, 1, (b, h, act_dim)).astype(np.float32),
        rewards=rng.uniform(0, 1, (b, h)).astype(np.float32),
        task_ids=["pendulum-swingup"] * b)


def test_preset_hierarchy_keeps_teacher_latents_wider_than_student():
    assert PRESETS["teacher-L"].latent_dim > PRESETS["student"].latent_dim
    assert PRESETS["teacher-S"].latent_dim > PRESETS["student"].latent_dim
    assert PRESETS["teacher-L"].latent_dim > PRESETS["teacher-S"].latent_dim


def test_zero_final_encoder_layer_gives_zero_latent():
    model = micro_model()
    model.encoder.weights[-1].data[...] = 0.0
    model.encoder.biases[-1].data[...] = 0.0
    obs = np.random.default_rng(0).uniform(-1, 1, (5, 3)).astype(np.float32)
    assert np.all(model.encode_np(obs) == 0.0)


def test_encode_deterministic_and_batch_consistent():
    model = micro_model(seed=3)
    rng = np.random.default_rng(1)
    obs = rng.uniform(-1, 1, (2, 3)).astype(np.float32)
    z1 = model.encode_np(obs)
    z2 = model.encode_np(obs)
    assert np.array_equal(z1, z2)
    rows = np.vstack([model.encode_np(obs[0:1]), model.encode_np(obs[1:2])])
    np.testing.assert_allclose(z1, rows, rtol=1e-6, atol=1e-6)


@pytest.mark.parametrize("head", ["dynamics", "reward"])
def test_heads_batch_consistent_and_deterministic(head):
    model = micro_model(seed=4)
    rng = np.random.default_rng(2)
    z = rng.uniform(-1, 1, (3, 2)).astype(np.float32)
    a = rng.uniform(-1, 1, (3, 1)).astype(np.float32)
    fn = model.dynamics_np if head == "dynamics" else model.reward_np
    full = fn(z, a)
    assert np.array_equal(full, fn(z, a))
    rows = [fn(z[i:i + 1], a[i:i + 1]) for i in range(3)]
    np.testing.assert_allclose(full, np.concatenate(rows, axis=0),
                               rtol=1e-6, atol=1e-6)


def test_zero_weight_heads_output_zero():
    model = micro_model(seed=5)
    for mlp in (model.dynamics, model.reward):
        mlp.weights[-1].data[...] = 0.0
        mlp.biases[-1].data[...] = 0.0
    z = np.ones((2, 2), np.float32)
    a = np.ones((2, 1), np.float32)
    assert np.all(model.dynamics_np(z, a) == 0.0)
    assert np.all(model.reward_np(z, a) == 0.0)


def test_policy_output_bounded():
    model = micro_model(seed=6)
    for w in model.policy.weights:
        w.data *= 50.0  # force saturation
    z = np.random.default_rng(3).uniform(-5, 5, (64, 2)).astype(np.float32)
    a = model.policy_np(z)
    assert np.all(np.abs(a) <= 1.0)


def test_graph_and_numpy_paths_agree():
    model = micro_model(seed=7)
    rng = np.random.default_rng(4)
    obs = rng.uniform(-1, 1, (6, 3)).astype(np.float32)
    a = rng.uniform(-1, 1, (6, 1)).astype(np.float32)
    z_graph = model.encode(Tensor(obs))
    np.testing.assert_array_equal(z_graph.data, model.encode_np(obs))
    r_graph = model.predict_reward(z_graph, Tensor(a))
    np.testing.assert_array_equal(r_graph.data[:, 0],
                                  model.reward_np(z_graph.data, a))


def test_all_alphas_zero_gives_zero_total():
    model = micro_model(seed=8)
    batch = make_batch(np.random.default_rng(5))
    coeffs = LossCoeffs(0.0, 0.0, 0.0, rho=0.5, horizon=2)
    total, parts, _ = original_loss(model, batch, coeffs)
    assert total.item() == 0.0
    assert parts.total == 0.0


def test_self_consistent_rollout_data_zeroes_consistency_and_reward():
    # identity encoder (one linear layer set to I) makes the model's own
    # rollout observable: obs_t := zhat_t and rewards := own predictions
    # must zero the consistency and reward components exactly
    linear = SizePreset("linear-micro", latent_dim=2, hidden_dim=2, n_hidden=0)
    model = WorldModel(2, 1, linear, seed=9)
    model.encoder.weights[0].data[...] = np.eye(2, dtype=np.float32)
    model.encoder.biases[0].data[...] = 0.0

    rng = np.random.default_rng(6)
    h, b = 2, 3
    obs = np.zeros((b, h + 1, 2), np.float32)
    actions = rng.uniform(-1, 1, (b, h, 1)).astype(np.float32)
    rewards = np.zeros((b, h), np.float32)
    obs[:, 0] = rng.uniform(-1, 1, (b, 2))
    z = model.encode_np(obs[:, 0])
    for t in range(h):
        rewards[:, t] = model.reward_np(z, actions[:, t])
        z = model.dynamics_np(z, actions[:, t])
        obs[:, t + 1] = z

    batch = TransitionBatch(obs, actions, rewards, ["pendulum-swingup"] * b)
    _, parts, _ = original_loss(model, batch, LossCoeffs(horizon=h))
    assert parts.consistency == 0.0
    assert parts.reward == 0.0


def test_h1_micro_model_components_match_pencil_oracle():
    # H=1: consistency = rho*MSE(dyn(z0,a0), enc(obs_1));
    # reward = MSE(R(z0,a0), r0); value = MSE(Q(z0,a0), r0 + g*Qt(z1,pi(z1)))
    model = micro_model(seed=10)
    rng = np.random.default_rng(7)
    batch = make_batch(rng, b=4, h=1)
    coeffs = LossCoeffs(1.0, 1.0, 0.5, rho=0.5, horizon=1)
    gamma = 0.9

    arrs = model_layers64(model)
    act = ACTS64[model.activation]
    z0 = head_np(arrs, "encoder", act, batch.obs[:, 0])
    z1_hat = head_np(arrs, "dynamics", act, z0, batch.actions[:, 0])
    enc1 = head_np(arrs, "encoder", act, batch.obs[:, 1])
    exp_consistency = 0.5 * np.mean((z1_hat - enc1) ** 2)
    r_pred = head_np(arrs, "reward", act, z0, batch.actions[:, 0])[:, 0]
    exp_reward = np.mean((r_pred - batch.rewards[:, 0]) ** 2)
    z1 = enc1
    a1 = head_np(arrs, "policy", act, z1, out_tanh=True)
    qt = head_np(arrs, "target_value", act, z1, a1)[:, 0]
    td = batch.rewards[:, 0] + gamma * qt
    q_pred = head_np(arrs, "value", act, z0, batch.actions[:, 0])[:, 0]
    exp_value = np.mean((q_pred - td) ** 2)

    total, parts, _ = original_loss(model, batch, coeffs, gamma=gamma)
    assert abs(parts.consistency - exp_consistency) < 1e-6
    assert abs(parts.reward - exp_reward) < 1e-6
    assert abs(parts.value - exp_value) < 1e-6
    expected_total = exp_consistency + exp_reward + 0.5 * exp_value
    assert abs(parts.total - expected_total) < 1e-6


def test_breakdown_total_reproduces_combination_and_scales_linearly():
    coeffs = LossCoeffs(1.25, 0.75, 0.5, rho=0.5, horizon=2)
    bd = LossBreakdown.combine(0.3, 0.2, 0.4, 0.1, coeffs, d_coef=0.4)
    assert abs(bd.total - bd.recombined_total(coeffs, 0.4)) <= 1e-6
    # scaling an alpha by c scales that component's contribution by exactly
    # c (checked with a power-of-two factor, where float scaling is exact)
    c = 2.0
    contribution = coeffs.alpha_consistency * bd.consistency
    scaled = LossCoeffs(coeffs.alpha_consistency * c, 0.75, 0.5,
                        rho=0.5, horizon=2)
    assert scaled.alpha_consistency * bd.consistency == c * contribution
    bd2 = LossBreakdown.combine(0.3, 0.2, 0.4, 0.1, scaled, d_coef=0.4)
    assert abs((bd2.total - bd.total) - (c - 1) * contribution) < 1e-12


def test_composite_loss_gradients_match_finite_differences():
    model = micro_model(seed=11)
    batch = make_batch(np.random.default_rng(8), b=3, h=2)
    coeffs = LossCoeffs(1.0, 1.0, 0.5, rho=0.5, horizon=2)
    gamma = 0.9

    total, _, _ = original_loss(model, batch, coeffs, gamma=gamma)
    ad.backward(total)

    arrs = model_layers64(model)
    act = ACTS64[model.activation]
    enc_t, td_t = composite_targets64(arrs, act, batch, coeffs, gamma)

    for head in ("encoder", "dynamics", "reward", "value"):
        fd = central_diff_layers(
            lambda: composite_loss64(arrs, act, batch, coeffs, enc_t, td_t)[3],
            arrs[head])
        analytic = analytic_head_grads(getattr(model, head))
        assert grads_close(analytic, fd), f"gradient mismatch in {head}"


def test_policy_objective_gradients_match_finite_differences():
    model = micro_model(seed=12)
    batch = make_batch(np.random.default_rng(9), b=3, h=2)
    coeffs = LossCoeffs(horizon=2)
    _, _, latents = original_loss(model, batch, coeffs)
    model.zero_grad()
    ad.backward(policy_objective(model, latents, coeffs.rho))

    arrs = model_layers64(model)
    act = ACTS64[model.activation]
    fd = central_diff_layers(
        lambda: policy_objective64(arrs, act, latents, coeffs.rho),
        arrs["policy"])
    assert grads_close(analytic_head_grads(model.policy), fd)


def test_policy_step_leaves_value_head_without_gradients(monkeypatch):
    model = micro_model(seed=22)
    batch = make_batch(np.random.default_rng(15), b=3, h=2)
    _, _, latents = original_loss(model, batch, LossCoeffs(horizon=2))
    grad_map = ad.backward(policy_objective(model, latents, 0.5))
    assert set(grad_map) == set(model.policy.params())
    for p in model.value.params():
        assert p.grad is None and p.requires_grad

    def boom(_):
        raise RuntimeError("objective failed")
    monkeypatch.setattr(ad, "mean", boom)
    with pytest.raises(RuntimeError, match="objective failed"):
        policy_objective(model, latents, 0.5)
    for p in model.value.params():
        assert p.grad is None and p.requires_grad


def test_stacked_targets_match_per_step_reference():
    model = micro_model(seed=23)
    h, gamma, rho = 3, 0.9, 0.5
    batch = make_batch(np.random.default_rng(16), b=16, h=h)
    _, parts, latents = original_loss(model, batch, LossCoeffs(rho=rho, horizon=h),
                                      gamma=gamma)
    consistency = value = 0.0
    for t in range(h):
        enc = model.encode_np(batch.obs[:, t + 1])
        q_next = model.target_value_np(enc, model.policy_np(enc))
        td = batch.rewards[:, t] + np.float32(gamma) * q_next
        pred = model.value_np(latents[t], batch.actions[:, t])
        consistency += rho ** (t + 1) * np.mean((latents[t + 1] - enc) ** 2)
        value += rho ** t * np.mean((pred - td) ** 2)
    np.testing.assert_allclose(parts.consistency, consistency, rtol=1e-5)
    np.testing.assert_allclose(parts.value, value, rtol=1e-5)


def test_td_targets_carry_no_gradient():
    # target head parameters never appear in the gradient map
    model = micro_model(seed=13)
    batch = make_batch(np.random.default_rng(10), b=3, h=2)
    total, _, _ = original_loss(model, batch, LossCoeffs(horizon=2))
    grad_map = ad.backward(total)
    target_params = set(model.target_value.params())
    assert not (target_params & set(grad_map)), \
        "target head received gradients"
    for p in model.target_value.params():
        assert p.grad is None


def test_horizon_exceeding_window_rejected():
    model = micro_model(seed=14)
    batch = make_batch(np.random.default_rng(11), b=2, h=2)
    with pytest.raises(ValueError, match="horizon"):
        original_loss(model, batch, LossCoeffs(horizon=5))


def test_train_step_deterministic_bitwise():
    def run():
        model = micro_model(seed=15)
        hyper = TrainHyper(lr=1e-3)
        om, op = make_optimizers(model, hyper)
        rng = np.random.default_rng(12)
        batches = [make_batch(rng, b=4, h=2) for _ in range(10)]
        for step, batch in enumerate(batches):
            train_step(model, batch, LossCoeffs(horizon=2), hyper, om, op, step)
        return np.concatenate([p.data.ravel() for _, p in model.named_parameters()])
    w1, w2 = run(), run()
    assert np.array_equal(w1, w2)


def test_overfit_one_batch_reduces_loss():
    model = micro_model(seed=16)
    hyper = TrainHyper(lr=3e-3)
    om, op = make_optimizers(model, hyper)
    batch = make_batch(np.random.default_rng(13), b=8, h=2)
    coeffs = LossCoeffs(horizon=2)
    first = train_step(model, batch, coeffs, hyper, om, op, 0)
    for step in range(1, 200):
        last = train_step(model, batch, coeffs, hyper, om, op, step)
    assert last.total < first.total


def test_tau_zero_freezes_target_head():
    model = micro_model(seed=17)
    before = [p.data.copy() for p in model.target_value.params()]
    hyper = TrainHyper(lr=1e-3, tau=0.0)
    om, op = make_optimizers(model, hyper)
    batch = make_batch(np.random.default_rng(14), b=4, h=2)
    for step in range(5):
        train_step(model, batch, LossCoeffs(horizon=2), hyper, om, op, step)
    for b0, p in zip(before, model.target_value.params()):
        assert np.array_equal(b0, p.data)


def test_soft_update_moves_target_toward_value():
    model = micro_model(seed=18)
    model.value.weights[0].data[...] += 1.0
    gap_before = np.abs(model.value.weights[0].data
                        - model.target_value.weights[0].data).max()
    model.soft_update_target(0.1)
    gap_after = np.abs(model.value.weights[0].data
                       - model.target_value.weights[0].data).max()
    assert gap_after < gap_before


def test_checkpoint_roundtrip_restores_model_bitwise():
    model = micro_model(seed=19)
    ckpt = model.to_checkpoint({"seed": "19"})
    clone = model_from_checkpoint(ckpt)
    for (n1, p1), (n2, p2) in zip(model.named_parameters(),
                                  clone.named_parameters()):
        assert n1 == n2
        assert np.array_equal(p1.data, p2.data)


def test_obs_dim_mismatch_rejected():
    model = micro_model(seed=20)
    with pytest.raises(ShapeError):
        model.encode_np(np.zeros((2, 7), np.float32))
