"""Frozen-teacher distillation of reward predictions (and, optionally,
next-state latents) into a smaller student world model.

The distillation term is the MSE between teacher and student reward
predictions on the same (state, action) pairs drawn from the offline
dataset, each model encoding the observations with its own encoder. The
training objective becomes

    total = original_composite_loss + d_coef * distill_term

with the teacher's outputs held constant. When a latent mode is active the
distill term additionally carries latent_coef * MSE between the teacher's
(projected) next-latent predictions and the student's:

    latent_linear  projection is a trainable student-side matrix
    latent_pca     projection is fitted once (deflated power iteration on
                   the covariance of sampled teacher latents) and frozen

d_coef = 0 short-circuits every distillation branch, making the update
step-for-step identical to from-scratch training.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional, Union

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .checkpoint import Checkpoint, content_hash, read_checkpoint
from .dataset import Dataset
from .seeding import stream
from .world_model import (LossBreakdown, LossCoeffs, TrainHyper, WorldModel,
                          model_from_checkpoint, stack_steps, train_step)
# unused here: kept only so that perfbench/tracing.py's patch list, which
# also patches these names in this module, still resolves
from .world_model import original_loss, policy_objective  # noqa: F401

MODES = ("reward_only", "latent_linear", "latent_pca")


@dataclass
class DistillConfig:
    d_coef: float = 0.4
    mode: str = "reward_only"
    teacher_checkpoint: Optional[Union[str, Path]] = None
    latent_coef: float = 1.0

    def __post_init__(self) -> None:
        if self.d_coef < 0:
            raise ValueError("d_coef must be nonnegative")
        if self.mode not in MODES:
            raise ValueError(f"unknown distillation mode {self.mode!r}; "
                             f"known: {MODES}")


class FrozenTeacher:
    """A pretrained world model with untrainable parameters.

    The fingerprint is the content hash of the teacher's checkpoint;
    refingerprint() re-serializes the in-memory weights against the same
    metadata, so any accidental mutation during distillation shows up as a
    hash change.
    """

    def __init__(self, model: WorldModel, ckpt: Checkpoint):
        for _, p in model.named_parameters():
            p.requires_grad = False
        self.model = model
        self._metadata = dict(ckpt.metadata)
        self.fingerprint = content_hash(ckpt)

    @classmethod
    def load(cls, path: Union[str, Path]) -> "FrozenTeacher":
        ckpt = read_checkpoint(path)
        return cls(model_from_checkpoint(ckpt), ckpt)

    def refingerprint(self) -> str:
        return content_hash(self.model.to_checkpoint(self._metadata))


def _check_compatible(teacher: WorldModel, student: WorldModel) -> None:
    if teacher.obs_dim != student.obs_dim or teacher.act_dim != student.act_dim:
        raise ad.ShapeError(
            f"teacher consumes obs/act dims ({teacher.obs_dim}, {teacher.act_dim}), "
            f"student ({student.obs_dim}, {student.act_dim})")


class LatentProjection:
    """Trainable linear map from teacher latent space to student latent space."""

    def __init__(self, teacher_dim: int, student_dim: int,
                 rng: Optional[np.random.Generator] = None,
                 matrix: Optional[np.ndarray] = None):
        if matrix is not None:
            w = np.asarray(matrix, dtype=np.float32)
            if w.shape != (teacher_dim, student_dim):
                raise ad.ShapeError(f"projection matrix shape {w.shape} does not "
                                    f"match ({teacher_dim}, {student_dim})")
        else:
            rng = rng or np.random.default_rng(0)
            bound = 1.0 / np.sqrt(teacher_dim)
            w = rng.uniform(-bound, bound,
                            size=(teacher_dim, student_dim)).astype(np.float32)
        self.w = Tensor(w, requires_grad=True, name="latent_proj.w")

    def project(self, z: Tensor) -> Tensor:
        return ad.matmul(z, self.w)

    def params(self) -> List[Tensor]:
        return [self.w]


@dataclass
class PcaProjection:
    """Top principal directions of the teacher's latent distribution.

    `components` rows are orthonormal; projecting centers by `mean` first.
    Fitted once before training, then constant.
    """
    mean: np.ndarray                  # (teacher_dim,)
    components: np.ndarray            # (k, teacher_dim)
    explained_variance: np.ndarray    # (k,)

    def project_np(self, z: np.ndarray) -> np.ndarray:
        return (z - self.mean) @ self.components.T


class DegenerateDataError(ValueError):
    pass


def fit_pca(latents: np.ndarray, k: int, max_iter: int = 1000,
            tol: float = 1e-8, seed: int = 0) -> PcaProjection:
    """Deflated power iteration on the sample covariance of `latents`.

    Deterministic given the seed. Raises on k > dim and on degenerate
    (zero-variance) input, naming the failing component dimension.
    """
    x = np.asarray(latents, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError("latents must be a (N, dim) matrix")
    n, dim = x.shape
    if k > dim:
        raise ValueError(f"cannot extract {k} components from {dim}-dim latents")
    mean = x.mean(axis=0)
    centered = x - mean
    cov = centered.T @ centered / max(n - 1, 1)

    components = np.zeros((k, dim))
    variances = np.zeros(k)
    residual = cov.copy()
    for comp in range(k):
        if np.trace(residual) <= tol:
            raise DegenerateDataError(
                f"zero-variance input: no variance left for component {comp} "
                f"of {dim}-dim latents")
        rng = stream(seed, "pca", comp)
        v = rng.standard_normal(dim)
        v /= np.linalg.norm(v)
        for _ in range(max_iter):
            av = residual @ v
            norm = np.linalg.norm(av)
            if norm <= tol:
                raise DegenerateDataError(
                    f"zero-variance input: power iteration collapsed at "
                    f"component {comp} of {dim}-dim latents")
            v_new = av / norm
            if np.linalg.norm(v_new - v) < tol:
                v = v_new
                break
            v = v_new
        # re-orthogonalize against earlier components to kill numeric drift
        for j in range(comp):
            v -= (v @ components[j]) * components[j]
        v /= np.linalg.norm(v)
        lam = float(v @ residual @ v)
        components[comp] = v
        variances[comp] = lam
        residual -= lam * np.outer(v, v)
    return PcaProjection(mean.astype(np.float32),
                         components.astype(np.float32),
                         variances.astype(np.float32))


def collect_teacher_latents(teacher: FrozenTeacher, dataset: Dataset,
                            n: int = 4096, seed: int = 0) -> np.ndarray:
    """Encode n observations sampled uniformly from the dataset."""
    rng = stream(seed, "pca-sample")
    idx = rng.integers(0, dataset.obs.shape[0], size=n)
    return teacher.model.encode_np(dataset.obs[idx])


def fit_pca_projection(teacher: FrozenTeacher, dataset: Dataset, k: int,
                       n_samples: int = 4096, seed: int = 0) -> PcaProjection:
    if n_samples < 1000:
        raise ValueError(f"PCA fitting needs at least 1000 teacher latents, "
                         f"got {n_samples}")
    return fit_pca(collect_teacher_latents(teacher, dataset, n_samples, seed),
                   k, seed=seed)


def teacher_latents(teacher: FrozenTeacher, batch) -> np.ndarray:
    """The teacher's latents of obs_0..H-1 as (H*B) step-major rows."""
    return teacher.model.encode_np(stack_steps(batch.obs[:, :batch.actions.shape[1]]))


def student_latents(student: WorldModel, batch, z0: Optional[Tensor] = None
                    ) -> Tensor:
    """Graph latents of obs_0..H-1 as (H*B) step-major rows. With `z0`, the
    student's graph encode of obs_0, only obs_1..H-1 are encoded here."""
    obs, h = batch.obs, batch.actions.shape[1]
    if z0 is None:
        return student.encode(Tensor(stack_steps(obs[:, :h])))
    if h == 1:
        return z0
    return ad.concat_rows([z0, student.encode(Tensor(stack_steps(obs[:, 1:h])))])


def reward_distill_loss(teacher: FrozenTeacher, student: WorldModel, batch,
                        z_student: Optional[Tensor] = None,
                        z_teacher: Optional[np.ndarray] = None) -> Tensor:
    """Mean over batch and horizon steps of (R_teacher - R_student)^2.

    `z_student` and `z_teacher` are the models' latents of obs_0..H-1 from
    `student_latents` and `teacher_latents`, when the caller already has
    them. Teacher predictions are constants; the gradient flows only into
    the student (its encoder and reward head). Every step has B rows, so
    one MSE over all H*B rows is the mean of the H per-step MSEs.
    """
    _check_compatible(teacher.model, student)
    actions = stack_steps(batch.actions)
    if z_teacher is None:
        z_teacher = teacher_latents(teacher, batch)
    if z_student is None:
        z_student = student_latents(student, batch)
    targets = teacher.model.reward_np(z_teacher, actions)
    pred = student.predict_reward(z_student, Tensor(actions))
    return ad.mse(pred, targets[:, None])


def latent_distill_loss(teacher: FrozenTeacher, student: WorldModel, batch,
                        mode: str,
                        projection: Union[LatentProjection, PcaProjection, None],
                        z_student: Optional[Tensor] = None,
                        z_teacher: Optional[np.ndarray] = None) -> Tensor:
    """MSE between projected teacher next-latent predictions and the
    student's next-latent predictions, averaged over batch and steps.
    `z_student` and `z_teacher` are as in `reward_distill_loss`."""
    if mode not in ("latent_linear", "latent_pca"):
        raise ValueError(f"latent distillation requires a latent mode, got {mode!r}")
    if projection is None:
        raise ValueError(f"mode {mode!r} requires a fitted projection")
    _check_compatible(teacher.model, student)
    actions = stack_steps(batch.actions)
    if z_teacher is None:
        z_teacher = teacher_latents(teacher, batch)
    if z_student is None:
        z_student = student_latents(student, batch)
    z_next_teacher = teacher.model.dynamics_np(z_teacher, actions)
    z_next_student = student.dynamics_step(z_student, Tensor(actions))
    if isinstance(projection, PcaProjection):
        target = projection.project_np(z_next_teacher)
        if target.shape[1] != student.latent_dim:
            raise ad.ShapeError(f"projected teacher latent has dim "
                                f"{target.shape[1]}, student expects "
                                f"{student.latent_dim}")
        return ad.mse(z_next_student, target)
    projected = projection.project(Tensor(z_next_teacher, _validate=False))
    if projected.shape[1] != student.latent_dim:
        raise ad.ShapeError(f"projected teacher latent has dim "
                            f"{projected.shape[1]}, student expects "
                            f"{student.latent_dim}")
    return ad.mean(ad.square(ad.sub(z_next_student, projected)))


def distill_train_step(teacher: FrozenTeacher, student: WorldModel, batch,
                       coeffs: LossCoeffs, dcfg: DistillConfig,
                       hyper: TrainHyper, opt_main: ad.Adam,
                       opt_policy: ad.Adam,
                       projection: Union[LatentProjection, PcaProjection, None] = None,
                       step: int = 0) -> LossBreakdown:
    """One distillation update: train_step with the distillation term. With
    d_coef = 0 that term is never built, so the update is train_step's.

    The term reuses train_step's graph encode of obs_0, and its losses share
    one student and one teacher encode of the batch."""
    def distill_term(z0: Tensor) -> Tensor:
        z_s = student_latents(student, batch, z0)
        z_t = teacher_latents(teacher, batch)
        term = reward_distill_loss(teacher, student, batch, z_s, z_t)
        if dcfg.mode in ("latent_linear", "latent_pca"):
            latent_term = latent_distill_loss(teacher, student, batch,
                                              dcfg.mode, projection, z_s, z_t)
            term = ad.add(term, ad.scale(latent_term, dcfg.latent_coef))
        return term

    return train_step(student, batch, coeffs, hyper, opt_main, opt_policy,
                      step, distill=distill_term, d_coef=dcfg.d_coef)
