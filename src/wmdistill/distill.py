"""Frozen-teacher distillation of reward predictions (and, optionally,
next-state latents) into a smaller student world model.

The distillation term is the MSE between teacher and student reward
predictions on the same (state, action) pairs drawn from the offline
dataset, each model encoding the observations with its own encoder. The
training objective becomes

    total = original_composite_loss + d_coef * distill_term

with the teacher's outputs held constant. The mode is carried by the
projection a run builds from it. Given one, the distill term additionally
carries latent_coef * MSE between the teacher's (projected) next-latent
predictions and the student's:

    reward_only    no projection: the reward term alone
    latent_linear  LatentProjection, a trainable student-side matrix
    latent_pca     PcaProjection, fitted once (the top eigenvectors of the
                   covariance of sampled teacher latents) and frozen

d_coef = 0 short-circuits every distillation branch, making the update
step-for-step identical to from-scratch training.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, List, Optional, Union

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .checkpoint import Checkpoint, content_hash, read_checkpoint
from .dataset import Dataset
from .seeding import stream
from .world_model import (LossBreakdown, WorldModel, model_from_checkpoint,
                          stack_steps, train_step)
# unused here: kept only so that perfbench/tracing.py's patch list, which
# also patches these names in this module, still resolves
from .world_model import original_loss, policy_objective  # noqa: F401

if TYPE_CHECKING:
    from .experiments import RunConfig

MODES = ("reward_only", "latent_linear", "latent_pca")


class FrozenTeacher:
    """A pretrained world model with untrainable parameters.

    The fingerprint is the content hash of the teacher's checkpoint;
    refingerprint() re-serializes the in-memory weights against the same
    metadata, so any accidental mutation during distillation shows up as a
    hash change. An f16 teacher's weights are its file's halves widened to
    f32, so their hash as loaded is kept: while the live weights still hash
    to it, refingerprint() gives the file's hash, and the live f32 hash, which
    never equals an f16 file's, once they do not.
    """

    def __init__(self, model: WorldModel, ckpt: Checkpoint):
        for _, p in model.named_parameters():
            p.requires_grad = False
        self.model = model
        self.metadata = dict(ckpt.metadata)
        self.fingerprint = content_hash(ckpt)
        # an f32 teacher's weights as loaded hash to its fingerprint itself
        f16 = any(entry.dtype == "f16" for entry in ckpt.tensors.values())
        self.loaded_hash = (content_hash(model.to_checkpoint(self.metadata)) if f16
                            else self.fingerprint)

    @classmethod
    def load(cls, path: Union[str, Path]) -> "FrozenTeacher":
        ckpt = read_checkpoint(path)
        return cls(model_from_checkpoint(ckpt), ckpt)

    def refingerprint(self) -> str:
        live = content_hash(self.model.to_checkpoint(self.metadata))
        return self.fingerprint if live == self.loaded_hash else live


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


# a principal component with no more variance than this is degenerate
MIN_VARIANCE = 1e-8
# teacher latents fit_pca_projection samples
PCA_SAMPLES = 4096


def fit_pca(latents: np.ndarray, k: int) -> PcaProjection:
    """The top-k eigenpairs of the sample covariance of `latents` by descending
    variance, each component signed so that its largest-magnitude entry is
    positive. Raises on k > dim and names the first component whose variance
    is at or below MIN_VARIANCE."""
    x = np.asarray(latents, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError("latents must be a (N, dim) matrix")
    n, dim = x.shape
    if k > dim:
        raise ValueError(f"cannot extract {k} components from {dim}-dim latents")
    mean = x.mean(axis=0)
    centered = x - mean
    eigvals, eigvecs = np.linalg.eigh(centered.T @ centered / max(n - 1, 1))
    variances, components = eigvals[::-1][:k], eigvecs[:, ::-1][:, :k].T
    low = np.flatnonzero(variances <= MIN_VARIANCE)
    if low.size:
        raise DegenerateDataError(
            f"zero-variance input: no variance left for component {low[0]} "
            f"of {dim}-dim latents")
    peaks = components[np.arange(k), np.abs(components).argmax(axis=1)]
    components = components * np.sign(peaks)[:, None]
    return PcaProjection(mean.astype(np.float32),
                         components.astype(np.float32),
                         variances.astype(np.float32))


def fit_pca_projection(teacher: FrozenTeacher, dataset: Dataset, k: int,
                       seed: int = 0) -> PcaProjection:
    """fit_pca on the teacher's latents of PCA_SAMPLES observations drawn
    uniformly from the dataset."""
    rng = stream(seed, "pca-sample")
    idx = rng.integers(0, dataset.obs.shape[0], size=PCA_SAMPLES)
    return fit_pca(teacher.model.encode_np(dataset.obs[idx]), k)


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
    actions = stack_steps(batch.actions)
    if z_teacher is None:
        z_teacher = teacher_latents(teacher, batch)
    if z_student is None:
        z_student = student_latents(student, batch)
    targets = teacher.model.reward_np(z_teacher, actions)
    pred = student.predict_reward(z_student, Tensor(actions))
    return ad.mse(pred, targets[:, None])


def latent_distill_loss(teacher: FrozenTeacher, student: WorldModel, batch,
                        projection: Union[LatentProjection, PcaProjection],
                        z_student: Optional[Tensor] = None,
                        z_teacher: Optional[np.ndarray] = None) -> Tensor:
    """MSE between projected teacher next-latent predictions and the
    student's next-latent predictions, averaged over batch and steps. The
    projection's type is the latent mode: a PcaProjection is latent_pca, a
    LatentProjection latent_linear. `z_student` and `z_teacher` are as in
    `reward_distill_loss`."""
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
                       cfg: RunConfig, opt_main: ad.Adam, opt_policy: ad.Adam,
                       projection: Union[LatentProjection, PcaProjection, None] = None
                       ) -> LossBreakdown:
    """One distillation update: train_step with the distillation term. With
    d_coef = 0 that term is never built, so the update is train_step's.

    The latent term joins the reward term, weighted by cfg.latent_coef, if
    and only if a `projection` is given. The term reuses train_step's graph
    encode of obs_0, and its losses share one student and one teacher encode
    of the batch."""
    def distill_term(z0: Tensor) -> Tensor:
        z_s = student_latents(student, batch, z0)
        z_t = teacher_latents(teacher, batch)
        term = reward_distill_loss(teacher, student, batch, z_s, z_t)
        if projection is not None:
            latent_term = latent_distill_loss(teacher, student, batch,
                                              projection, z_s, z_t)
            term = ad.add(term, ad.scale(latent_term, cfg.latent_coef))
        return term

    return train_step(student, batch, cfg, opt_main, opt_policy, distill=distill_term)
