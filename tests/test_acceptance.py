"""Acceptance suite: every gate criterion, one test per criterion, each
printing a pass/fail line. Heavy artifacts (the 20k-step teacher, the 5k-step
distilled student) are session fixtures shared across criteria; their build
times are tracked so the stated wall-clock budgets are asserted, not assumed.

Run with `pytest tests/test_acceptance.py -v -s`.
"""

import time

import numpy as np
import pytest

import wmdistill.autodiff as ad
from wmdistill.checkpoint import file_hash, read_checkpoint
from wmdistill.dataset import TransitionBatch, generate_dataset, load_dataset, sample_batch
from wmdistill.distill import (FrozenTeacher, LatentProjection, distill_train_step,
                               fit_pca, latent_distill_loss, reward_distill_loss)
from wmdistill.envs import GroundTruthModel, MultiTaskSuite, make_env, task_score
from wmdistill.evaluate import evaluate_model, normalized_score, random_policy_return
from wmdistill.experiments import RunConfig, SweepGrid, run_sweep, run_training
from wmdistill.planner import PlannerConfig, rollout_episode
from wmdistill.quantize import F16_MAX, F16_MIN_SUBNORMAL, fp16_round_trip, to_fp16
from wmdistill.seeding import stream
from wmdistill.world_model import (SizePreset, WorldModel, make_optimizers,
                                   model_from_checkpoint, original_loss,
                                   policy_objective)

from oracle_refs import (ACTS64, analytic_head_grads, central_diff_layers,
                         composite_loss64, composite_targets64, grads_close,
                         head_np, latent_distill64, model_layers64,
                         policy_objective64, reward_distill64)

SEED = 2024
BUILD_TIMES = {}


def _report(criterion: str, detail: str = "") -> None:
    suffix = f" ({detail})" if detail else ""
    print(f"\n[ACCEPTANCE] {criterion}: PASS{suffix}")


@pytest.fixture(scope="session")
def accept_dataset(tmp_path_factory):
    root = tmp_path_factory.mktemp("accept_dataset")
    t0 = time.perf_counter()
    generate_dataset(root, num_episodes=40, policy="mixture", seed=SEED)
    BUILD_TIMES["dataset"] = time.perf_counter() - t0
    return root


@pytest.fixture(scope="session")
def teacher_L(accept_dataset, tmp_path_factory):
    """Teacher-L pretrained 20k steps on the toy dataset (criterion 4)."""
    out = tmp_path_factory.mktemp("teacher_L")
    cfg = RunConfig(dataset=str(accept_dataset), out=str(out), seed=SEED,
                    steps=20_000, batch_size=16, preset="teacher-L",
                    log_interval=1000, eval_every=0, eval_episodes=0)
    t0 = time.perf_counter()
    run_training(cfg)
    BUILD_TIMES["teacher_pretrain"] = time.perf_counter() - t0
    return out / "model.tdck"


@pytest.fixture(scope="session")
def teacher_S_quick(accept_dataset, tmp_path_factory):
    """Small teacher used where the criterion only needs a frozen teacher."""
    out = tmp_path_factory.mktemp("teacher_S")
    cfg = RunConfig(dataset=str(accept_dataset), out=str(out), seed=SEED + 1,
                    steps=300, batch_size=16, preset="teacher-S",
                    log_interval=100, eval_every=0, eval_episodes=0)
    run_training(cfg)
    return out / "model.tdck"


@pytest.fixture(scope="session")
def distilled_student(accept_dataset, teacher_L, tmp_path_factory):
    """Student distilled 5k steps at d_coef=0.5 (criterion 4's second half)."""
    out = tmp_path_factory.mktemp("student_distill")
    cfg = RunConfig(dataset=str(accept_dataset), out=str(out), seed=SEED + 2,
                    steps=5_000, batch_size=32, preset="student", d_coef=0.5,
                    teacher=str(teacher_L), log_interval=500, eval_every=0,
                    eval_episodes=0)
    t0 = time.perf_counter()
    run_training(cfg)
    BUILD_TIMES["student_distill"] = time.perf_counter() - t0
    return out


MICRO_S = SizePreset("micro-student", latent_dim=2, hidden_dim=8, n_hidden=1)
MICRO_T = SizePreset("micro-teacher", latent_dim=4, hidden_dim=8, n_hidden=1)


def _micro_batch(rng, b=3, h=2, obs_dim=3):
    return TransitionBatch(
        obs=rng.uniform(-1, 1, (b, h + 1, obs_dim)).astype(np.float32),
        actions=rng.uniform(-1, 1, (b, h, 1)).astype(np.float32),
        rewards=rng.uniform(0, 1, (b, h)).astype(np.float32))


def test_criterion_01_gradient_correctness():
    """Every loss component matches central finite differences on a
    2-dim-latent micro-model at rel. error < 1e-4; the whole check < 60 s."""
    t0 = time.perf_counter()
    act = ACTS64["mish"]
    gamma = 0.9
    cfg = RunConfig(alpha_consistency=1.0, alpha_reward=1.0, alpha_value=0.5,
                    rho=0.5, horizon=2, gamma=gamma)

    student = WorldModel(3, 1, MICRO_S, seed=1)
    batch = _micro_batch(np.random.default_rng(2))

    # composite loss: consistency + reward + value through the rollout
    total, _, latents = original_loss(student, batch, cfg)
    ad.backward(total)
    arrs = model_layers64(student)
    enc_t, td_t = composite_targets64(arrs, act, batch, cfg, gamma)
    for head in ("encoder", "dynamics", "reward", "value"):
        fd = central_diff_layers(
            lambda: composite_loss64(arrs, act, batch, cfg, enc_t, td_t)[3],
            arrs[head])
        assert grads_close(analytic_head_grads(getattr(student, head)), fd), head

    # policy objective on detached latents
    student.zero_grad()
    ad.backward(policy_objective(student, latents, cfg.rho))
    fd = central_diff_layers(
        lambda: policy_objective64(arrs, act, latents, cfg.rho),
        arrs["policy"])
    assert grads_close(analytic_head_grads(student.policy), fd)

    # reward distillation
    teacher_model = WorldModel(3, 1, MICRO_T, seed=3)
    teacher = FrozenTeacher(teacher_model, teacher_model.to_checkpoint({}))
    student2 = WorldModel(3, 1, MICRO_S, seed=4)
    ad.backward(reward_distill_loss(teacher, student2, batch))
    t_arrs = model_layers64(teacher_model)
    teacher_rewards = []
    teacher_next = []
    for t in range(2):
        zt = head_np(t_arrs, "encoder", act, batch.obs[:, t])
        teacher_rewards.append(head_np(t_arrs, "reward", act, zt,
                                       batch.actions[:, t])[:, 0])
        teacher_next.append(head_np(t_arrs, "dynamics", act, zt,
                                    batch.actions[:, t]))
    s_arrs = model_layers64(student2)
    for head in ("encoder", "reward"):
        fd = central_diff_layers(
            lambda: reward_distill64(s_arrs, act, batch, teacher_rewards),
            s_arrs[head])
        assert grads_close(analytic_head_grads(getattr(student2, head)), fd), head

    # latent distillation, trainable linear projection
    student3 = WorldModel(3, 1, MICRO_S, seed=5)
    proj = LatentProjection(4, 2, rng=np.random.default_rng(6))
    ad.backward(latent_distill_loss(teacher, student3, batch, proj))
    s3 = model_layers64(student3)
    w64 = proj.w.data.astype(np.float64)
    for head in ("encoder", "dynamics"):
        fd = central_diff_layers(
            lambda: latent_distill64(s3, act, batch, teacher_next,
                                     projection_w=w64),
            s3[head])
        assert grads_close(analytic_head_grads(getattr(student3, head)), fd), head
    fd_w = central_diff_layers(
        lambda: latent_distill64(s3, act, batch, teacher_next,
                                 projection_w=w64),
        [(w64, np.zeros(1))])
    assert grads_close([(proj.w.grad, np.zeros(1))], fd_w)

    # latent distillation, fixed PCA projection
    student4 = WorldModel(3, 1, MICRO_S, seed=7)
    cloud = np.random.default_rng(8).standard_normal((800, 4)) * [3, 2, 1, .5]
    pca = fit_pca(cloud, k=2)
    ad.backward(latent_distill_loss(teacher, student4, batch, pca))
    s4 = model_layers64(student4)
    for head in ("encoder", "dynamics"):
        fd = central_diff_layers(
            lambda: latent_distill64(s4, act, batch, teacher_next, pca=pca),
            s4[head])
        assert grads_close(analytic_head_grads(getattr(student4, head)), fd), head

    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0, f"gradient suite took {elapsed:.1f}s"
    _report("criterion 1 gradient correctness", f"{elapsed:.1f}s")


def test_criterion_02_degeneration_equivalence(accept_dataset, teacher_S_quick,
                                               tmp_path):
    """d_coef=0 distillation produces bitwise-identical checkpoints to
    from-scratch training under equal seeds/batches (1000 steps, < 2 min)."""
    t0 = time.perf_counter()
    common = dict(dataset=str(accept_dataset), seed=SEED + 3, steps=1000,
                  batch_size=16, preset="student", log_interval=200,
                  eval_every=0, eval_episodes=0)
    scratch = run_training(RunConfig(out=str(tmp_path / "scratch"), **common))
    distilled = run_training(RunConfig(out=str(tmp_path / "distill"),
                                       d_coef=0.0,
                                       teacher=str(teacher_S_quick), **common))
    assert scratch["checkpoint_hashes"]["model"] \
        == distilled["checkpoint_hashes"]["model"]
    assert (tmp_path / "scratch" / "model.tdck").read_bytes() \
        == (tmp_path / "distill" / "model.tdck").read_bytes()
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0, f"degeneration check took {elapsed:.1f}s"
    _report("criterion 2 degeneration equivalence", f"{elapsed:.1f}s")


def test_criterion_03_frozen_teacher(accept_dataset, teacher_L, tmp_path):
    """Teacher checkpoint content hash unchanged by a 10k-step distillation."""
    hash_before = file_hash(teacher_L)
    teacher = FrozenTeacher.load(teacher_L)
    fp_before = teacher.fingerprint

    dataset = load_dataset(accept_dataset)
    student = WorldModel(dataset.obs_dim, dataset.act_dim, "student",
                         seed=SEED + 4)
    cfg = RunConfig(d_coef=0.5)
    om, op = make_optimizers(student, cfg.lr)
    for step in range(10_000):
        batch = sample_batch(dataset, 16, cfg.horizon,
                             stream(SEED + 4, "batch", step))
        distill_train_step(teacher, student, batch, cfg, om, op)
    assert teacher.refingerprint() == fp_before
    assert file_hash(teacher_L) == hash_before
    _report("criterion 3 frozen teacher", "10k steps")


def test_criterion_04_distillation_convergence(accept_dataset, teacher_L,
                                               distilled_student):
    """5k distillation steps at d_coef=0.5 cut held-out teacher-student
    reward MSE below 50% of its initial value, inside the 10-minute budget."""
    dataset = load_dataset(accept_dataset)
    teacher = FrozenTeacher.load(teacher_L)
    trained = model_from_checkpoint(
        read_checkpoint(distilled_student / "model.tdck"))
    fresh = WorldModel(dataset.obs_dim, dataset.act_dim, "student",
                       seed=SEED + 2)  # same init as the trained run

    def held_out_mse(student):
        vals = []
        for i in range(8):
            batch = sample_batch(dataset, 64, 3,
                                 stream(SEED + 2, "heldout", i))
            vals.append(reward_distill_loss(teacher, student, batch).item())
        return float(np.mean(vals))

    before = held_out_mse(fresh)
    after = held_out_mse(trained)
    assert after < 0.5 * before, f"held-out MSE {before:.5f} -> {after:.5f}"

    budget = BUILD_TIMES["teacher_pretrain"] + BUILD_TIMES["student_distill"]
    assert budget < 600.0, f"pretrain+distill took {budget:.0f}s"
    _report("criterion 4 distillation convergence",
            f"MSE {before:.4f} -> {after:.4f}, {budget:.0f}s")


def test_criterion_05_experiment_shape_reproduction(accept_dataset,
                                                    teacher_S_quick, tmp_path):
    """The d_coef grid {0.05..0.9} and a (batch, steps) grid complete and
    emit sorted CSVs with one row per cell."""
    base = RunConfig(dataset=str(accept_dataset), out="", seed=SEED + 5,
                     steps=40, batch_size=8, preset="student",
                     teacher=str(teacher_S_quick), log_interval=20,
                     eval_every=0, eval_episodes=1, plan_samples=8,
                     plan_iterations=1, plan_elites=2)

    d_grid = [0.05, 0.25, 0.4, 0.55, 0.6, 0.9]
    rep1 = run_sweep(base, SweepGrid(d_grid, [], [], []), tmp_path / "dcoef")
    rows1 = (tmp_path / "dcoef" / "sweep.csv").read_text().strip().splitlines()
    assert len(rep1["cells"]) == 6 and len(rows1) - 1 == 6
    assert all(c["status"] == "ok" for c in rep1["cells"])

    grid2 = SweepGrid(d_coefs=[0.0, 0.4], batch_sizes=[8, 16],
                      steps_list=[30, 60], teachers=[])
    rep2 = run_sweep(base, grid2, tmp_path / "table")
    rows2 = (tmp_path / "table" / "sweep.csv").read_text().strip().splitlines()
    assert len(rep2["cells"]) == 8 and len(rows2) - 1 == 8
    assert all(c["status"] == "ok" for c in rep2["cells"])

    for rows in (rows1, rows2):
        scores = [float(r.split(",")[0]) for r in rows[1:] if r.split(",")[0]]
        assert scores == sorted(scores, reverse=True)
    _report("criterion 5 experiment shapes", "6-cell and 8-cell sweeps")


def test_criterion_06_planner_competence():
    """Oracle-model MPPI solves pendulum-swingup (>= 800/1000 over 10 seeds);
    a random policy stays <= 250/1000; both inside 2 minutes."""
    t0 = time.perf_counter()
    gm = GroundTruthModel("pendulum-swingup")
    cfg = PlannerConfig(horizon=40, num_samples=128, num_elites=16,
                        iterations=4, noise_std=0.1, policy_fraction=0.0)
    planner_scores = []
    for seed in range(10):
        env = make_env("pendulum-swingup")
        _, ret = rollout_episode(env, gm, cfg, seed, gamma=0.99)
        planner_scores.append(task_score(ret))
    random_scores = [task_score(random_policy_return("pendulum-swingup", s))
                     for s in range(10)]
    mean_plan = float(np.mean(planner_scores))
    mean_rand = float(np.mean(random_scores))
    assert mean_plan >= 800.0, f"planner mean {mean_plan:.0f}"
    assert mean_rand <= 250.0, f"random mean {mean_rand:.0f}"
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0, f"planner competence took {elapsed:.1f}s"
    _report("criterion 6 planner competence",
            f"planner {mean_plan:.0f} vs random {mean_rand:.0f}, {elapsed:.0f}s")


def test_criterion_07_quantization_fidelity(distilled_student, tmp_path):
    """binary16 error bound on a 1e6-value grid, student f16 size ratio in
    (0.5, 0.55), and quantize-then-eval score delta < 1.0."""
    rng = np.random.default_rng(77)
    exps = rng.uniform(np.log2(F16_MIN_SUBNORMAL), np.log2(F16_MAX), 1_000_000)
    x = (rng.choice([-1.0, 1.0], exps.size) * 2.0 ** exps).astype(np.float32)
    x = x[np.abs(x) <= F16_MAX]
    back, over = fp16_round_trip(x)
    err = np.abs(back.astype(np.float64) - x.astype(np.float64))
    bound = np.maximum(2.0 ** -11 * np.abs(x.astype(np.float64)),
                       F16_MIN_SUBNORMAL)
    assert over == 0 and np.all(err <= bound)

    ckpt = read_checkpoint(distilled_student / "model.tdck")
    ckpt16, qreport = to_fp16(ckpt)
    assert 0.5 < qreport.ratio < 0.55, qreport.ratio

    tasks = ckpt.metadata["tasks"].split(",")
    suite = MultiTaskSuite(tuple(tasks))
    planner = PlannerConfig(num_samples=64, num_elites=8, iterations=2)
    res32 = evaluate_model(model_from_checkpoint(ckpt), tasks, episodes=10,
                           seed=SEED + 6, planner_cfg=planner, suite=suite)
    res16 = evaluate_model(model_from_checkpoint(ckpt16), tasks, episodes=10,
                           seed=SEED + 6, planner_cfg=planner, suite=suite)
    delta = abs(res16.normalized - res32.normalized)
    assert delta < 1.0, f"f16 vs float normalized delta {delta:.3f}"
    _report("criterion 7 quantization fidelity",
            f"ratio {qreport.ratio:.3f}, score delta {delta:.3f}")


def test_criterion_08_metric_exactness(distilled_student, tmp_path):
    """normalized_score([1000]*3) == 100.0 and every emitted report's
    normalized score equals mean(per-task)/10 exactly."""
    assert normalized_score([1000.0, 1000.0, 1000.0]) == 100.0

    ckpt = read_checkpoint(distilled_student / "model.tdck")
    tasks = ckpt.metadata["tasks"].split(",")
    suite = MultiTaskSuite(tuple(tasks))
    res = evaluate_model(model_from_checkpoint(ckpt), tasks, episodes=2,
                         seed=SEED + 7,
                         planner_cfg=PlannerConfig(num_samples=8,
                                                   num_elites=2, iterations=1),
                         suite=suite)
    recomputed = sum(res.task_scores.values()) / len(res.task_scores) / 10.0
    assert res.normalized == recomputed
    _report("criterion 8 metric exactness")


def test_criterion_09_determinism_and_resume(accept_dataset, distilled_student,
                                             tmp_path):
    """Identical seeds give identical reports; checkpoint resume equals the
    uninterrupted run bitwise."""
    ckpt = read_checkpoint(distilled_student / "model.tdck")
    tasks = ckpt.metadata["tasks"].split(",")
    suite = MultiTaskSuite(tuple(tasks))
    planner = PlannerConfig(num_samples=16, num_elites=4, iterations=1)
    model = model_from_checkpoint(ckpt)
    r1 = evaluate_model(model, tasks, 2, seed=SEED + 8, planner_cfg=planner,
                        suite=suite)
    r2 = evaluate_model(model, tasks, 2, seed=SEED + 8, planner_cfg=planner,
                        suite=suite)
    assert r1.task_scores == r2.task_scores
    assert r1.episode_returns == r2.episode_returns
    assert r1.normalized == r2.normalized

    common = dict(dataset=str(accept_dataset), seed=SEED + 9, batch_size=8,
                  preset="student", log_interval=100, eval_every=0,
                  eval_episodes=0)
    full = run_training(RunConfig(out=str(tmp_path / "full"), steps=300,
                                  **common))
    run_training(RunConfig(out=str(tmp_path / "half"), steps=150, **common))
    resumed = run_training(
        RunConfig(out=str(tmp_path / "resumed"), steps=300,
                  resume=str(tmp_path / "half" / "trainstate.tdck"), **common))
    assert resumed["checkpoint_hashes"] == full["checkpoint_hashes"]
    for name in ("model.tdck", "trainstate.tdck", "losses.csv", "metrics.csv"):
        assert (tmp_path / "full" / name).read_bytes() \
            == (tmp_path / "resumed" / name).read_bytes(), name
    _report("criterion 9 determinism and resume")


def test_criterion_10_latent_distillation_mechanism(accept_dataset,
                                                    teacher_S_quick):
    """PCA recovers the top eigenvectors of a synthetic anisotropic cloud
    (|cos| > 0.99 vs dense eigendecomposition) and both latent modes train
    2k steps with finite losses throughout."""
    rng = np.random.default_rng(55)
    scales = np.array([6.0, 4.0, 2.5, 1.5, 0.8, 0.4, 0.2, 0.1])
    basis, _ = np.linalg.qr(rng.standard_normal((8, 8)))
    cloud = (rng.standard_normal((5000, 8)) * scales) @ basis.T
    pca = fit_pca(cloud, k=3)
    centered = cloud - cloud.mean(axis=0)
    cov = centered.T @ centered / (len(cloud) - 1)
    eigvals, eigvecs = np.linalg.eigh(cov)
    top = eigvecs[:, np.argsort(eigvals)[::-1][:3]].T
    for i in range(3):
        cos = abs(float(pca.components[i].astype(np.float64) @ top[i]))
        assert cos > 0.99, f"component {i}: |cos| = {cos:.4f}"

    dataset = load_dataset(accept_dataset)
    teacher = FrozenTeacher.load(teacher_S_quick)
    finals = {}
    for mode in ("latent_linear", "latent_pca"):
        student = WorldModel(dataset.obs_dim, dataset.act_dim, "student",
                             seed=SEED + 10)
        cfg = RunConfig(d_coef=0.5, mode=mode)
        if mode == "latent_linear":
            projection = LatentProjection(teacher.model.latent_dim,
                                          student.latent_dim,
                                          rng=np.random.default_rng(12))
            om, op = make_optimizers(student, cfg.lr, projection.params())
        else:
            from wmdistill.distill import fit_pca_projection
            projection = fit_pca_projection(teacher, dataset,
                                            student.latent_dim, seed=13)
            om, op = make_optimizers(student, cfg.lr)
        for step in range(2000):
            batch = sample_batch(dataset, 16, cfg.horizon,
                                 stream(SEED + 10, "batch", step))
            bd = distill_train_step(teacher, student, batch, cfg, om, op,
                                    projection)
            assert np.isfinite(bd.total), f"{mode} diverged at step {step}"
            assert np.isfinite(bd.distill)
        finals[mode] = bd.total
    _report("criterion 10 latent distillation",
            f"final totals {finals['latent_linear']:.4f} / "
            f"{finals['latent_pca']:.4f}")
