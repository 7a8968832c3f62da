"""Desk-scale world-model distillation lab.

Offline training of small latent world models on toy continuous-control
tasks, frozen-teacher reward distillation, MPPI planning for evaluation,
FP16 checkpoint quantization, and a reproducible experiment harness.
"""

__version__ = "0.1.0"

from .autodiff import Adam, GradientError, ShapeError, Tensor, backward, mse
from .checkpoint import Checkpoint, content_hash, read_checkpoint, write_checkpoint
from .dataset import (Dataset, Episode, TransitionBatch, generate_dataset,
                      load_dataset, sample_batch)
from .distill import (FrozenTeacher, LatentProjection, PcaProjection,
                      distill_train_step, fit_pca, latent_distill_loss,
                      reward_distill_loss)
from .envs import (EnvSpec, GroundTruthModel, MultiTaskSuite, TASKS, make_env,
                   task_score)
from .evaluate import EvalResult, evaluate_model, normalized_score
from .experiments import RunConfig, run_eval, run_quantize, run_sweep, run_training
from .planner import PlannerConfig, plan, rollout_episode
from .quantize import QuantReport, fp16_round_trip, model_size_bytes, to_fp16
from .world_model import (LossBreakdown, PRESETS, WorldModel,
                          model_from_checkpoint, original_loss, train_step)
