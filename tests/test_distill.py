"""Reward/latent distillation losses, frozen-teacher contracts, PCA fitting."""

import numpy as np
import pytest

import wmdistill.autodiff as ad
import wmdistill.distill as distill_module
from wmdistill.checkpoint import write_checkpoint
from wmdistill.dataset import TransitionBatch
from wmdistill.distill import (DegenerateDataError, FrozenTeacher,
                               LatentProjection, PcaProjection,
                               distill_train_step, fit_pca,
                               latent_distill_loss, reward_distill_loss)
from wmdistill.experiments import RunConfig
from wmdistill.quantize import to_fp16
from wmdistill.world_model import (LossBreakdown, SizePreset, WorldModel,
                                   make_optimizers, original_loss, train_step)

from oracle_refs import (ACTS64, analytic_head_grads, central_diff_layers,
                         grads_close, head_np, latent_distill64,
                         model_layers64, reward_distill64)

MICRO_S = SizePreset("micro-student", latent_dim=2, hidden_dim=8, n_hidden=1)
MICRO_T = SizePreset("micro-teacher", latent_dim=4, hidden_dim=8, n_hidden=1)


def make_teacher(seed=0, obs_dim=3, act_dim=1, preset=MICRO_T, tmp_path=None):
    model = WorldModel(obs_dim, act_dim, preset, seed=seed)
    ckpt = model.to_checkpoint({"seed": str(seed)})
    teacher = FrozenTeacher(model, ckpt)
    return teacher


def make_batch(rng, b=4, h=2, obs_dim=3, act_dim=1):
    return TransitionBatch(
        obs=rng.uniform(-1, 1, (b, h + 1, obs_dim)).astype(np.float32),
        actions=rng.uniform(-1, 1, (b, h, act_dim)).astype(np.float32),
        rewards=rng.uniform(0, 1, (b, h)).astype(np.float32))


def test_identical_teacher_student_gives_zero_loss():
    teacher = make_teacher(seed=1, preset=MICRO_S)
    student = WorldModel(3, 1, MICRO_S, seed=1)  # same init -> same function
    batch = make_batch(np.random.default_rng(0))
    loss = reward_distill_loss(teacher, student, batch)
    assert loss.item() == 0.0


def test_reward_distill_hand_computed():
    # teacher predicts [1, 2], student predicts [0, 0] -> (1 + 4) / 2 = 2.5
    class StubModel:
        obs_dim, act_dim, latent_dim = 3, 1, 2

        def __init__(self, outputs):
            self.outputs = np.asarray(outputs, dtype=np.float32)

        def encode_np(self, obs):
            return np.zeros((obs.shape[0], 2), np.float32)

        def reward_np(self, z, a):
            return self.outputs[:z.shape[0]]

    teacher = FrozenTeacher.__new__(FrozenTeacher)
    teacher.model = StubModel([1.0, 2.0])
    student = WorldModel(3, 1, MICRO_S, seed=2)
    for head in (student.encoder, student.reward):
        for p in head.params():
            p.data[...] = 0.0
    batch = make_batch(np.random.default_rng(1), b=2, h=1)
    loss = reward_distill_loss(teacher, student, batch)
    assert abs(loss.item() - 2.5) < 1e-6


def test_teacher_receives_no_gradient():
    teacher = make_teacher(seed=3)
    student = WorldModel(3, 1, MICRO_S, seed=4)
    batch = make_batch(np.random.default_rng(2))
    loss = reward_distill_loss(teacher, student, batch)
    grad_map = ad.backward(loss)
    teacher_params = {p for _, p in teacher.model.named_parameters()}
    assert not (teacher_params & set(grad_map))
    for p in teacher_params:
        assert p.grad is None


def test_reward_distill_gradients_match_finite_differences():
    teacher = make_teacher(seed=5)
    student = WorldModel(3, 1, MICRO_S, seed=6)
    batch = make_batch(np.random.default_rng(3), b=3, h=2)
    ad.backward(reward_distill_loss(teacher, student, batch))

    t_arrs = model_layers64(teacher.model)
    act = ACTS64["mish"]
    teacher_rewards = []
    for t in range(2):
        z = head_np(t_arrs, "encoder", act, batch.obs[:, t])
        teacher_rewards.append(head_np(t_arrs, "reward", act, z,
                                       batch.actions[:, t])[:, 0])
    s_arrs = model_layers64(student)
    for head in ("encoder", "reward"):
        fd = central_diff_layers(
            lambda: reward_distill64(s_arrs, act, batch, teacher_rewards),
            s_arrs[head])
        assert grads_close(analytic_head_grads(getattr(student, head)), fd), head


def test_dim_mismatch_between_models_rejected():
    teacher = make_teacher(seed=7, obs_dim=5)
    student = WorldModel(3, 1, MICRO_S, seed=8)
    with pytest.raises(ad.ShapeError):
        reward_distill_loss(teacher, student, make_batch(np.random.default_rng(4)))


def test_total_distill_loss_arithmetic():
    cfg = RunConfig(alpha_consistency=1.0, alpha_reward=1.0, alpha_value=0.5)
    original = LossBreakdown.combine(0.4, 0.3, 0.6, 0.0, cfg, 0.0)
    assert original.total == 1.0
    combined = LossBreakdown.combine(0.4, 0.3, 0.6, 0.5, cfg, 0.4)
    assert abs(combined.total - 1.2) < 1e-12
    assert combined.distill == 0.5
    # d_coef = 0 keeps the original total exactly
    same = LossBreakdown.combine(0.4, 0.3, 0.6, 0.5, cfg, 0.0)
    assert same.total == original.total
    # the config accepts the extended-run coefficient
    assert RunConfig(d_coef=0.45).d_coef == 0.45


def test_total_strictly_increasing_in_d_coef():
    cfg = RunConfig(alpha_consistency=1.0, alpha_reward=1.0, alpha_value=0.5)
    original = LossBreakdown.combine(0.4, 0.3, 0.6, 0.0, cfg, 0.0)
    totals = [LossBreakdown.combine(original.consistency, original.reward,
                                    original.value, 0.7, cfg, d).total
              for d in (0.0, 0.1, 0.4, 0.45, 0.9)]
    assert all(b > a for a, b in zip(totals, totals[1:]))


def test_latent_distill_identity_projection_reduces_to_plain_mse():
    teacher = make_teacher(seed=9, preset=MICRO_S)
    student = WorldModel(3, 1, MICRO_S, seed=10)
    batch = make_batch(np.random.default_rng(5), b=3, h=2)
    proj = LatentProjection(2, 2, matrix=np.eye(2, dtype=np.float32))
    loss = latent_distill_loss(teacher, student, batch, proj)

    act = ACTS64["mish"]
    t_arrs, s_arrs = model_layers64(teacher.model), model_layers64(student)
    expected = 0.0
    for t in range(2):
        zt = head_np(t_arrs, "encoder", act, batch.obs[:, t])
        zt_next = head_np(t_arrs, "dynamics", act, zt, batch.actions[:, t])
        zs = head_np(s_arrs, "encoder", act, batch.obs[:, t])
        zs_next = head_np(s_arrs, "dynamics", act, zs, batch.actions[:, t])
        expected += np.mean((zs_next - zt_next) ** 2)
    assert abs(loss.item() - expected / 2) < 1e-5


def test_latent_linear_gradients_match_finite_differences():
    teacher = make_teacher(seed=11)
    student = WorldModel(3, 1, MICRO_S, seed=12)
    batch = make_batch(np.random.default_rng(6), b=3, h=2)
    proj = LatentProjection(4, 2, rng=np.random.default_rng(7))
    ad.backward(latent_distill_loss(teacher, student, batch, proj))

    act = ACTS64["mish"]
    t_arrs, s_arrs = model_layers64(teacher.model), model_layers64(student)
    teacher_next = []
    for t in range(2):
        zt = head_np(t_arrs, "encoder", act, batch.obs[:, t])
        teacher_next.append(head_np(t_arrs, "dynamics", act, zt,
                                    batch.actions[:, t]))
    w64 = proj.w.data.astype(np.float64)
    for head in ("encoder", "dynamics"):
        fd = central_diff_layers(
            lambda: latent_distill64(s_arrs, act, batch, teacher_next,
                                     projection_w=w64),
            s_arrs[head])
        assert grads_close(analytic_head_grads(getattr(student, head)), fd), head
    # projection matrix gradient
    fd_w = central_diff_layers(
        lambda: latent_distill64(s_arrs, act, batch, teacher_next,
                                 projection_w=w64),
        [(w64, np.zeros(1))])
    assert grads_close([(proj.w.grad, np.zeros(1))], fd_w)


def test_latent_pca_gradients_match_finite_differences():
    teacher = make_teacher(seed=13)
    student = WorldModel(3, 1, MICRO_S, seed=14)
    batch = make_batch(np.random.default_rng(8), b=3, h=2)
    cloud = np.random.default_rng(9).standard_normal((500, 4)) * [3, 1, .5, .2]
    pca = fit_pca(cloud, k=2)
    ad.backward(latent_distill_loss(teacher, student, batch, pca))

    act = ACTS64["mish"]
    t_arrs, s_arrs = model_layers64(teacher.model), model_layers64(student)
    teacher_next = []
    for t in range(2):
        zt = head_np(t_arrs, "encoder", act, batch.obs[:, t])
        teacher_next.append(head_np(t_arrs, "dynamics", act, zt,
                                    batch.actions[:, t]))
    for head in ("encoder", "dynamics"):
        fd = central_diff_layers(
            lambda: latent_distill64(s_arrs, act, batch, teacher_next, pca=pca),
            s_arrs[head])
        assert grads_close(analytic_head_grads(getattr(student, head)), fd), head


def test_stacked_teacher_targets_match_per_step_reference():
    teacher = make_teacher(seed=17)
    student = WorldModel(3, 1, MICRO_S, seed=18)
    h = 3
    batch = make_batch(np.random.default_rng(10), b=16, h=h)
    cloud = np.random.default_rng(11).standard_normal((500, 4)) * [3, 1, .5, .2]
    pca = fit_pca(cloud, k=2)
    reward = latent = 0.0
    for t in range(h):
        obs_t, act_t = batch.obs[:, t], batch.actions[:, t]
        zt = teacher.model.encode_np(obs_t)
        zs = student.encode_np(obs_t)
        reward += np.mean((teacher.model.reward_np(zt, act_t)
                           - student.reward_np(zs, act_t)) ** 2)
        target = pca.project_np(teacher.model.dynamics_np(zt, act_t))
        latent += np.mean((student.dynamics_np(zs, act_t) - target) ** 2)
    np.testing.assert_allclose(reward_distill_loss(teacher, student, batch).item(),
                               reward / h, rtol=1e-5)
    np.testing.assert_allclose(
        latent_distill_loss(teacher, student, batch, pca).item(),
        latent / h, rtol=1e-5)


class TestPcaFit:
    def test_line_in_3d_recovers_direction(self):
        rng = np.random.default_rng(0)
        direction = np.array([1.0, 2.0, -1.0]) / np.sqrt(6.0)
        data = rng.standard_normal((2000, 1)) * direction[None, :] + 5.0
        pca = fit_pca(data, k=1)
        cos = abs(float(pca.components[0].astype(np.float64) @ direction))
        assert cos > 0.999

    def test_recovers_eigenvectors_of_anisotropic_gaussian(self):
        # oracle: dense eigendecomposition of the sample covariance
        rng = np.random.default_rng(1)
        scales = np.array([5.0, 3.0, 1.0, 0.5, 0.1])
        basis, _ = np.linalg.qr(rng.standard_normal((5, 5)))
        data = (rng.standard_normal((4000, 5)) * scales) @ basis.T
        pca = fit_pca(data, k=2)

        centered = data - data.mean(axis=0)
        cov = centered.T @ centered / (len(data) - 1)
        eigvals, eigvecs = np.linalg.eigh(cov)
        top = eigvecs[:, np.argsort(eigvals)[::-1][:2]].T
        for i in range(2):
            cos = abs(float(pca.components[i].astype(np.float64) @ top[i]))
            assert cos > 0.99, f"component {i}: cos {cos}"

    def test_projecting_the_mean_gives_zero(self):
        rng = np.random.default_rng(2)
        data = rng.standard_normal((500, 4)) * [2, 1, .5, .1] + [1, -2, 3, 0]
        pca = fit_pca(data, k=2)
        out = pca.project_np(pca.mean[None, :])
        assert np.allclose(out, 0.0, atol=1e-6)

    def test_full_rank_is_orthonormal_basis_with_zero_reconstruction_error(self):
        rng = np.random.default_rng(3)
        data = rng.standard_normal((800, 4)) * [3, 2, 1, 0.5]
        pca = fit_pca(data, k=4)
        comps = pca.components.astype(np.float64)
        gram = comps @ comps.T
        assert np.max(np.abs(gram - np.eye(4))) < 1e-5
        centered = (data - pca.mean).astype(np.float64)
        recon = centered @ comps.T @ comps
        assert np.max(np.abs(recon - centered)) < 1e-3

    def test_duplicated_rows_give_identical_components(self):
        rng = np.random.default_rng(4)
        data = rng.standard_normal((600, 3)) * [2, 1, 0.3]
        p1 = fit_pca(data, k=2)
        p2 = fit_pca(np.vstack([data, data]), k=2)
        for c1, c2 in zip(p1.components, p2.components):
            assert abs(float(c1.astype(np.float64) @ c2.astype(np.float64))) > 0.9999

    def test_explained_variance_non_increasing(self):
        rng = np.random.default_rng(5)
        data = rng.standard_normal((1000, 6)) * [6, 5, 3, 2, 1, 0.5]
        pca = fit_pca(data, k=6)
        ev = pca.explained_variance
        assert np.all(ev[:-1] >= ev[1:] - 1e-6)

    def test_k_exceeding_dim_rejected(self):
        with pytest.raises(ValueError, match="components"):
            fit_pca(np.random.default_rng(6).standard_normal((100, 3)), k=4)

    def test_zero_variance_input_errors_naming_dimension(self):
        with pytest.raises(DegenerateDataError, match="component 0"):
            fit_pca(np.ones((100, 3)), k=1)

    def test_deterministic(self):
        rng = np.random.default_rng(7)
        data = rng.standard_normal((400, 4)) * [3, 2, 1, 0.5]
        p1 = fit_pca(data, k=2)
        p2 = fit_pca(data, k=2)
        assert np.array_equal(p1.components, p2.components)

    def test_matches_eigh_oracle_with_near_equal_pair(self):
        # 64-dim cloud whose top 16 variances include the pair 4.0 / 3.98
        rng = np.random.default_rng(8)
        scales = np.sqrt(np.concatenate([
            [9.0, 7.0, 5.5, 4.0, 3.98], np.linspace(3.0, 1.0, 11),
            np.linspace(0.5, 0.01, 48)]))
        basis, _ = np.linalg.qr(rng.standard_normal((64, 64)))
        data = (rng.standard_normal((20000, 64)) * scales) @ basis.T + 0.5
        pca = fit_pca(data, k=16)

        centered = data - data.mean(axis=0)
        eigvals, eigvecs = np.linalg.eigh(centered.T @ centered / (len(data) - 1))
        order = np.argsort(eigvals)[::-1][:16]
        top = eigvecs[:, order].T
        top *= np.sign(top[np.arange(16), np.abs(top).argmax(axis=1)])[:, None]
        np.testing.assert_allclose(pca.components, top, rtol=0, atol=1e-6)
        np.testing.assert_allclose(pca.explained_variance, eigvals[order],
                                   rtol=1e-6)

    def test_largest_magnitude_entry_is_positive(self):
        rng = np.random.default_rng(9)
        basis, _ = np.linalg.qr(rng.standard_normal((6, 6)))
        data = (rng.standard_normal((1000, 6)) * [5, 4, 3, 2, 1, .5]) @ basis.T
        for comp in fit_pca(data, k=6).components:
            assert comp[np.abs(comp).argmax()] > 0

    def test_rank_one_input_errors_naming_second_component(self):
        rng = np.random.default_rng(10)
        data = rng.standard_normal((300, 1)) * np.array([[1.0, -2.0, 0.5]]) + 1.0
        with pytest.raises(DegenerateDataError, match="component 1 "):
            fit_pca(data, k=2)


def _mini_training_setup(seed, d_coef, mode="reward_only", steps=30):
    rng = np.random.default_rng(100)
    batches = [make_batch(rng, b=6, h=2) for _ in range(steps)]
    teacher = make_teacher(seed=50)
    student = WorldModel(3, 1, MICRO_S, seed=seed)
    cfg = RunConfig(lr=1e-3, horizon=2, d_coef=d_coef, mode=mode)
    projection = None
    if mode == "latent_linear":
        projection = LatentProjection(4, 2, rng=np.random.default_rng(seed))
    om, op = make_optimizers(student, cfg.lr,
                             projection.params() if projection else None)
    for batch in batches:
        distill_train_step(teacher, student, batch, cfg, om, op, projection)
    return teacher, student


def test_d_coef_zero_is_bitwise_identical_to_from_scratch():
    _, distilled = _mini_training_setup(seed=60, d_coef=0.0)

    rng = np.random.default_rng(100)
    batches = [make_batch(rng, b=6, h=2) for _ in range(30)]
    scratch = WorldModel(3, 1, MICRO_S, seed=60)
    cfg = RunConfig(lr=1e-3, horizon=2)
    om, op = make_optimizers(scratch, cfg.lr)
    for batch in batches:
        train_step(scratch, batch, cfg, om, op)

    for (n1, p1), (n2, p2) in zip(distilled.named_parameters(),
                                  scratch.named_parameters()):
        assert np.array_equal(p1.data, p2.data), n1


def _one_distill_step(mode, d_coef=0.5, seed=64):
    """(teacher, student, step) for one distill_train_step on a fixed batch."""
    teacher = make_teacher(seed=53)
    student = WorldModel(3, 1, MICRO_S, seed=seed)
    cfg = RunConfig(lr=1e-3, horizon=3, d_coef=d_coef, mode=mode)
    projection = None
    if mode == "latent_linear":
        projection = LatentProjection(4, 2, rng=np.random.default_rng(0))
    elif mode == "latent_pca":
        cloud = np.random.default_rng(1).standard_normal((1500, 4)) * [3, 2, 1, .5]
        projection = fit_pca(cloud, k=2)
    lin = projection.params() if isinstance(projection, LatentProjection) else None
    om, op = make_optimizers(student, cfg.lr, lin)
    batch = make_batch(np.random.default_rng(103), b=6, h=3)

    def step():
        return distill_train_step(teacher, student, batch, cfg, om, op, projection)
    return teacher, student, batch, projection, step


@pytest.mark.parametrize("mode", ["reward_only", "latent_linear", "latent_pca"])
def test_one_teacher_encode_per_distill_step(mode):
    teacher, _, _, _, step = _one_distill_step(mode)
    forward_np = teacher.model.encoder.forward_np
    calls = []

    def counted(x):
        calls.append(len(x))
        return forward_np(x)

    teacher.model.encoder.forward_np = counted
    for n in (1, 2):
        step()
        assert len(calls) == n
    assert calls == [6 * 3, 6 * 3]


@pytest.mark.parametrize("d_coef,expected", [(0.5, 2), (0.0, 1)])
def test_student_encodes_per_reward_only_step(monkeypatch, d_coef, expected):
    _, student, _, _, step = _one_distill_step("reward_only", d_coef=d_coef)
    encode = WorldModel.encode
    calls = []

    def counted(model, obs):
        calls.append(model)
        return encode(model, obs)

    monkeypatch.setattr(WorldModel, "encode", counted)
    step()
    assert calls == [student] * expected


@pytest.mark.parametrize("mode", ["reward_only", "latent_linear", "latent_pca"])
def test_distill_step_term_equals_standalone_losses(mode):
    # the step's term shares one student encode with the composite loss and
    # one teacher encode between its losses; it is the same function
    teacher, student, batch, projection, step = _one_distill_step(mode)
    expected = reward_distill_loss(teacher, student, batch).item()
    if mode != "reward_only":
        expected += latent_distill_loss(teacher, student, batch,
                                        projection).item()
    np.testing.assert_allclose(step().distill, expected, rtol=1e-6)


def test_teacher_fingerprint_unchanged_by_training():
    teacher, _ = _mini_training_setup(seed=61, d_coef=0.5)
    assert teacher.refingerprint() == teacher.fingerprint


@pytest.mark.parametrize("mode", ["latent_linear", "latent_pca"])
def test_latent_modes_train_with_finite_losses(mode):
    rng = np.random.default_rng(101)
    teacher = make_teacher(seed=51)
    student = WorldModel(3, 1, MICRO_S, seed=62)
    cfg = RunConfig(lr=1e-3, horizon=2, d_coef=0.5, mode=mode)
    if mode == "latent_linear":
        projection = LatentProjection(4, 2, rng=np.random.default_rng(0))
        extra = projection.params()
    else:
        cloud = np.random.default_rng(1).standard_normal((1500, 4)) * [3, 2, 1, .5]
        projection = fit_pca(cloud, k=2)
        extra = None
    om, op = make_optimizers(student, cfg.lr, extra)
    for _ in range(40):
        bd = distill_train_step(teacher, student, make_batch(rng, b=6, h=2),
                                cfg, om, op, projection)
        assert np.isfinite(bd.total) and np.isfinite(bd.distill)
    assert bd.distill > 0.0


def test_reward_distill_nonnegative_and_zero_iff_equal():
    teacher = make_teacher(seed=52)
    student = WorldModel(3, 1, MICRO_S, seed=63)
    rng = np.random.default_rng(102)
    for _ in range(10):
        batch = make_batch(rng)
        assert reward_distill_loss(teacher, student, batch).item() >= 0.0


@pytest.mark.parametrize("f16, load_hashes", [(False, 1), (True, 2)])
def test_frozen_teacher_check_hashes_its_weights_once(tmp_path, monkeypatch, f16,
                                                      load_hashes):
    # an f32 teacher's weights as loaded hash to its fingerprint; an f16
    # teacher's widened weights are hashed once more, at load
    ckpt = WorldModel(3, 1, MICRO_T, seed=71).to_checkpoint({"seed": "71"})
    path = tmp_path / "teacher.tdck"
    write_checkpoint(path, to_fp16(ckpt)[0] if f16 else ckpt)
    hashes = []
    content_hash = distill_module.content_hash
    monkeypatch.setattr(distill_module, "content_hash",
                        lambda c: hashes.append(c) or content_hash(c))
    teacher = FrozenTeacher.load(path)
    assert len(hashes) == load_hashes
    assert teacher.refingerprint() == teacher.fingerprint
    assert len(hashes) == load_hashes + 1
    weight = teacher.model.heads()["reward"].weights[0].data
    weight[0, 0] = np.nextafter(weight[0, 0], np.float32(np.inf))
    assert teacher.refingerprint() != teacher.fingerprint


def test_frozen_teacher_roundtrips_through_file(tmp_path):
    model = WorldModel(3, 1, MICRO_T, seed=70)
    path = tmp_path / "teacher.tdck"
    write_checkpoint(path, model.to_checkpoint({"seed": "70"}))
    teacher = FrozenTeacher.load(path)
    assert teacher.refingerprint() == teacher.fingerprint
    for _, p in teacher.model.named_parameters():
        assert not p.requires_grad
