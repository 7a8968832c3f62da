"""Latent world model: encoder, dynamics, reward, value and policy heads.

Training minimizes a linear combination of three terms over H-step windows
sampled from the offline dataset:

    consistency  sum_{t=1..H} rho^t * MSE(zhat_t, encode(obs_t))
    reward       sum_{t=0..H-1} rho^t * MSE(R(zhat_t, a_t), r_t)
    value        sum_{t=0..H-1} rho^t * MSE(Q(zhat_t, a_t), td_t)

where zhat_0 = encode(obs_0) and zhat_{t+1} = dynamics(zhat_t, a_t) is the
latent rollout. Consistency targets and TD targets

    td_t = r_t + gamma * Q_target(encode(obs_{t+1}), pi(encode(obs_{t+1})))

are constants (no gradient flows into them). The policy head is trained by
a separate optimizer step that maximizes Q over the detached rollout
latents, with the value head held constant; the target value head only
ever moves through soft updates.

Size presets (latent/hidden widths):
    teacher-L: 64/256, teacher-S: 32/128, student: 16/64
Every head is an MLP with two hidden layers and a single smooth activation
(mish by default, tanh available); the policy output is tanh-bounded.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Tuple, Union

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .checkpoint import Checkpoint
from .seeding import stream

if TYPE_CHECKING:
    from .experiments import RunConfig

ACTIVATIONS: Dict[str, Tuple[Callable, Callable]] = {
    "mish": (ad.mish, ad.mish_np),
    "tanh": (ad.tanh, np.tanh),
}


@dataclass(frozen=True)
class SizePreset:
    name: str
    latent_dim: int
    hidden_dim: int
    n_hidden: int = 2


PRESETS: Dict[str, SizePreset] = {
    "teacher-L": SizePreset("teacher-L", latent_dim=64, hidden_dim=256),
    "teacher-S": SizePreset("teacher-S", latent_dim=32, hidden_dim=128),
    "student": SizePreset("student", latent_dim=16, hidden_dim=64),
}


class MLP:
    """Fully-connected stack with the shared activation between layers.
    Its tensors are named "<name>.w<i>" and "<name>.b<i>", the names they
    are stored under in a checkpoint. A Generator `init` draws each layer
    uniform in +-1/sqrt(fan_in); a Checkpoint gives copies of its tensors.

    Two forward paths, both through `ad.hidden_layers`: the graph path for
    training and a plain-numpy path (the same bits) for planning, targets
    and frozen-teacher inference.
    """

    def __init__(self, name: str, in_dim: int, out_dim: int, hidden_dim: int,
                 n_hidden: int, activation: str,
                 init: Union[np.random.Generator, Checkpoint], out_tanh: bool = False):
        if activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation {activation!r}")
        self.in_dim = in_dim
        self.out_dim = out_dim
        self.activation = activation
        self.out_tanh = out_tanh
        dims = [in_dim] + [hidden_dim] * n_hidden + [out_dim]
        self.weights: List[Tensor] = []
        self.biases: List[Tensor] = []
        for i, (fan_in, fan_out) in enumerate(zip(dims[:-1], dims[1:])):
            w_name, b_name = f"{name}.w{i}", f"{name}.b{i}"
            if isinstance(init, Checkpoint):
                w = checkpoint_tensor(init, w_name, (fan_in, fan_out)).copy()
                b = checkpoint_tensor(init, b_name, (fan_out,)).copy()
            else:
                bound = 1.0 / math.sqrt(fan_in)
                w = init.uniform(-bound, bound, size=(fan_in, fan_out)).astype(np.float32)
                b = init.uniform(-bound, bound, size=fan_out).astype(np.float32)
            self.weights.append(Tensor(w, requires_grad=True, name=w_name))
            self.biases.append(Tensor(b, requires_grad=True, name=b_name))

    def __call__(self, x: Tensor, frozen: bool = False) -> Tensor:
        """Graph forward, one `ad.mlp` node. With `frozen` the weights enter
        as constants, so gradients reach `x` but none is computed for the
        weights."""
        return ad.mlp(x, self.weights, self.biases, self.activation,
                      self.out_tanh, frozen)

    def forward_np(self, x: np.ndarray) -> np.ndarray:
        last = len(self.weights) - 1
        h = ad.hidden_layers(np.asarray(x, dtype=np.float32),
                             [w.data for w in self.weights[:last]],
                             [b.data for b in self.biases[:last]], self.activation)
        h = h @ self.weights[last].data
        h += self.biases[last].data
        return np.tanh(h, out=h) if self.out_tanh else h

    def params(self) -> List[Tensor]:
        out = []
        for w, b in zip(self.weights, self.biases):
            out.extend([w, b])
        return out


_HEADS = ("encoder", "dynamics", "reward", "value", "policy", "target_value")


class WorldModel:
    """One encoder plus dynamics/reward/value/policy heads over the latent.
    Given `ckpt`, every head is built from its tensors and no stream is drawn."""

    def __init__(self, obs_dim: int, act_dim: int,
                 preset: Union[str, SizePreset] = "student",
                 activation: str = "mish", seed: int = 0,
                 ckpt: Optional[Checkpoint] = None):
        if isinstance(preset, str):
            if preset not in PRESETS:
                raise ValueError(f"unknown size preset {preset!r}; known: {sorted(PRESETS)}")
            preset = PRESETS[preset]
        self.preset = preset
        self.obs_dim = obs_dim
        self.act_dim = act_dim
        self.latent_dim = preset.latent_dim
        self.activation = activation
        self.seed = seed

        def build(head: str, in_dim: int, out_dim: int, out_tanh: bool = False) -> MLP:
            init = stream(seed, "init:" + head) if ckpt is None else ckpt
            return MLP(head, in_dim, out_dim, preset.hidden_dim, preset.n_hidden,
                       activation, init, out_tanh=out_tanh)

        lat, act = preset.latent_dim, act_dim
        self.encoder = build("encoder", obs_dim, lat)
        self.dynamics = build("dynamics", lat + act, lat)
        self.reward = build("reward", lat + act, 1)
        self.value = build("value", lat + act, 1)
        self.policy = build("policy", lat, act, out_tanh=True)
        self.target_value = build("target_value", lat + act, 1)
        if ckpt is None:
            for ps, pd in zip(self.value.params(), self.target_value.params()):
                pd.data[...] = ps.data
        for p in self.target_value.params():
            p.requires_grad = False

    # --- graph forward (training) ---

    def _check_obs(self, obs_shape: Tuple[int, ...]) -> None:
        if len(obs_shape) != 2 or obs_shape[1] != self.obs_dim:
            raise ad.ShapeError(f"observation batch shape {obs_shape} does not "
                                f"match (B, {self.obs_dim})")

    def encode(self, obs: Tensor) -> Tensor:
        self._check_obs(obs.shape)
        return self.encoder(obs)

    def dynamics_step(self, z: Tensor, a: Tensor) -> Tensor:
        return self.dynamics(ad.concat_cols(z, a))

    def predict_reward(self, z: Tensor, a: Tensor) -> Tensor:
        return self.reward(ad.concat_cols(z, a))

    def predict_value(self, z: Tensor, a: Tensor, frozen: bool = False) -> Tensor:
        return self.value(ad.concat_cols(z, a), frozen=frozen)

    def policy_action(self, z: Tensor) -> Tensor:
        return self.policy(z)

    # --- numpy forward (planning, targets, frozen inference) ---

    def encode_np(self, obs: np.ndarray) -> np.ndarray:
        self._check_obs(obs.shape)
        return self.encoder.forward_np(obs)

    def dynamics_np(self, z: np.ndarray, a: np.ndarray) -> np.ndarray:
        return self.dynamics.forward_np(np.concatenate([z, a], axis=1))

    def reward_np(self, z: np.ndarray, a: np.ndarray) -> np.ndarray:
        return self.reward.forward_np(np.concatenate([z, a], axis=1))[:, 0]

    def step_np(self, z: np.ndarray, a: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """(reward_np(z, a), dynamics_np(z, a)) from one concat and one
        stacked forward through both heads' hidden layers. The bits are the
        same: numpy multiplies each slice of a stacked matmul in its own BLAS
        call. The stacks are built from the live weights on every call, so
        in-place optimizer updates never leave them stale."""
        heads = (self.reward, self.dynamics)
        x = np.asarray(np.concatenate([z, a], axis=1), dtype=np.float32)
        layers = range(len(self.reward.weights) - 1)
        h = ad.hidden_layers(
            np.array((x, x)),
            (np.array([m.weights[i].data for m in heads]) for i in layers),
            (np.array([m.biases[i].data for m in heads])[:, None] for i in layers),
            self.activation)
        r, z_next = (h[k] @ m.weights[-1].data for k, m in enumerate(heads))
        r += self.reward.biases[-1].data
        z_next += self.dynamics.biases[-1].data
        return r[:, 0], z_next

    def value_np(self, z: np.ndarray, a: np.ndarray) -> np.ndarray:
        return self.value.forward_np(np.concatenate([z, a], axis=1))[:, 0]

    def target_value_np(self, z: np.ndarray, a: np.ndarray) -> np.ndarray:
        return self.target_value.forward_np(np.concatenate([z, a], axis=1))[:, 0]

    def policy_np(self, z: np.ndarray) -> np.ndarray:
        return self.policy.forward_np(z)

    # --- parameters and persistence ---

    def heads(self) -> Dict[str, MLP]:
        return {name: getattr(self, name) for name in _HEADS}

    def main_params(self) -> List[Tensor]:
        out: List[Tensor] = []
        for head in ("encoder", "dynamics", "reward", "value"):
            out.extend(getattr(self, head).params())
        return out

    def policy_params(self) -> List[Tensor]:
        return self.policy.params()

    def named_parameters(self) -> List[Tuple[str, Tensor]]:
        return [(p.name, p) for name in _HEADS for p in getattr(self, name).params()]

    def zero_grad(self) -> None:
        for _, p in self.named_parameters():
            p.grad = None

    def soft_update_target(self, tau: float) -> None:
        t32 = np.float32(tau)
        keep = np.float32(1.0 - tau)
        for ps, pd in zip(self.value.params(), self.target_value.params()):
            pd.data *= keep
            pd.data += t32 * ps.data

    def arch_metadata(self) -> Dict[str, str]:
        return {
            "preset": self.preset.name,
            "obs_dim": str(self.obs_dim),
            "act_dim": str(self.act_dim),
            "latent_dim": str(self.latent_dim),
            "hidden_dim": str(self.preset.hidden_dim),
            "n_hidden": str(self.preset.n_hidden),
            "activation": self.activation,
        }

    def to_checkpoint(self, metadata: Optional[Dict[str, str]] = None) -> Checkpoint:
        ckpt = Checkpoint(metadata={**self.arch_metadata(), **(metadata or {})})
        for name, p in self.named_parameters():
            ckpt.add_tensor(name, "f32", p.data)
        return ckpt


def checkpoint_tensor(ckpt: Checkpoint, name: str, shape: Tuple[int, ...]) -> np.ndarray:
    """The checkpoint tensor `name`, widened to f32; it must have `shape`."""
    if name not in ckpt.tensors:
        raise KeyError(f"checkpoint is missing tensor {name!r}")
    arr = ckpt.tensors[name].as_f32()
    if arr.shape != tuple(shape):
        raise ad.ShapeError(f"checkpoint tensor {name!r} has shape "
                            f"{arr.shape}, model expects {tuple(shape)}")
    return arr


def load_param(ckpt: Checkpoint, p: Tensor) -> None:
    """Copy the checkpoint tensor named `p.name` into `p.data`, in place."""
    p.data[...] = checkpoint_tensor(ckpt, p.name, p.data.shape)


def model_from_checkpoint(ckpt: Checkpoint) -> WorldModel:
    """Rebuild a model from a checkpoint, widening f16 weights to f32. The
    architecture comes from the checkpoint's metadata alone."""
    md = ckpt.metadata
    preset = SizePreset(md["preset"], int(md["latent_dim"]),
                        int(md["hidden_dim"]), int(md["n_hidden"]))
    return WorldModel(int(md["obs_dim"]), int(md["act_dim"]), preset,
                      activation=md.get("activation", "mish"),
                      seed=int(md.get("seed", "0")), ckpt=ckpt)


@dataclass
class LossBreakdown:
    """Per-component record of one training step.

    Components are stored unweighted; `total` is the documented combination
    alpha_c*consistency + alpha_r*reward + alpha_v*value + d_coef*distill,
    recomputed in float64 from the components so the record is exactly
    self-consistent.
    """
    consistency: float
    reward: float
    value: float
    distill: float
    total: float

    @staticmethod
    def combine(consistency: float, reward: float, value: float, distill: float,
                cfg: RunConfig, d_coef: float) -> "LossBreakdown":
        total = (cfg.alpha_consistency * consistency
                 + cfg.alpha_reward * reward
                 + cfg.alpha_value * value
                 + d_coef * distill)
        return LossBreakdown(consistency, reward, value, distill, total)


def stack_steps(x: np.ndarray) -> np.ndarray:
    """(B, T, d) window -> (T*B, d) rows, step-major: rows t*B..(t+1)*B-1
    hold step t. Lets one numpy forward cover every horizon step."""
    return x.swapaxes(0, 1).reshape(-1, x.shape[2])


def _weighted_sum(terms: List[Tuple[float, Tensor]]) -> Tensor:
    acc: Optional[Tensor] = None
    for weight, term in terms:
        piece = ad.scale(term, weight)
        acc = piece if acc is None else ad.add(acc, piece)
    assert acc is not None
    return acc


def original_loss(model: WorldModel, batch, cfg: RunConfig, z0: Optional[Tensor] = None
                  ) -> Tuple[Tensor, LossBreakdown, List[np.ndarray]]:
    """Composite consistency/reward/value loss over an H-step window.

    `z0` is the graph encode of obs_0 when the caller already has it.
    Returns the scalar graph tensor to backprop, the float breakdown, and
    the detached rollout latents (for the separate policy step).
    """
    obs, actions, rewards = batch.obs, batch.actions, batch.rewards
    h = cfg.horizon
    if obs.ndim != 3 or obs.shape[1] < h + 1:
        raise ValueError(f"batch window holds {obs.shape[1] - 1} steps, "
                         f"horizon {h} requires at least {h}")

    if z0 is None:
        z0 = model.encode(Tensor(obs[:, 0]))
    rollout = [z0]
    for t in range(h):
        rollout.append(model.dynamics_step(rollout[t], Tensor(actions[:, t])))

    # constant targets: encoder latents of obs_1..obs_H serve both the
    # consistency targets and the TD bootstrap states; one (H*B)-row
    # forward per head covers all H steps
    b = obs.shape[0]
    z_next = model.encode_np(stack_steps(obs[:, 1:h + 1]))
    q_next = model.target_value_np(z_next, model.policy_np(z_next))
    rew = stack_steps(rewards[:, :h, None])
    td = rew + np.float32(cfg.gamma) * q_next[:, None]

    # every horizon sum sum_t rho^t * MSE_t is one row-weighted MSE over the
    # H*B step-major rows: mean_{rows} (H rho^t) * err^2 = sum_t rho^t MSE_t
    rho_t = cfg.rho ** np.arange(h + 1)
    consistency = ad.mse(ad.concat_rows(rollout[1:]), z_next,
                         np.repeat(h * rho_t[1:], b))
    za = ad.concat_cols(ad.concat_rows(rollout[:h]),
                        Tensor(stack_steps(actions[:, :h])))
    head_weights = np.repeat(h * rho_t[:h], b)
    reward = ad.mse(model.reward(za), rew, head_weights)
    value = ad.mse(model.value(za), td, head_weights)

    total = _weighted_sum([(cfg.alpha_consistency, consistency),
                           (cfg.alpha_reward, reward),
                           (cfg.alpha_value, value)])

    parts = LossBreakdown.combine(consistency.item(), reward.item(), value.item(),
                                  0.0, cfg, d_coef=0.0)
    for name, val in (("consistency", parts.consistency), ("reward", parts.reward),
                      ("value", parts.value)):
        if not np.isfinite(val):
            raise ValueError(f"non-finite {name} loss component")
    latents = [r.data.copy() for r in rollout]
    return total, parts, latents


def policy_objective(model: WorldModel, latents: List[np.ndarray],
                     rho: float) -> Tensor:
    """Negative rho-weighted mean Q(z, pi(z)) over detached rollout latents:
    -sum_t rho^t / H * mean_b Q_t, as one mean over the stacked H*B rows
    with row weights -rho^t.

    The value head enters as constants: the gradient reaches only the
    policy head.
    """
    h = max(len(latents) - 1, 1)
    z = Tensor(np.concatenate(latents[:h]), _validate=False)
    q = model.predict_value(z, model.policy_action(z), frozen=True)
    weights = np.repeat(-(rho ** np.arange(h)), latents[0].shape[0])
    return ad.mean(ad.mul(q, Tensor(weights[:, None], _validate=False)))


def make_optimizers(model: WorldModel, lr: float,
                    extra: Optional[List[Tensor]] = None) -> Tuple[ad.Adam, ad.Adam]:
    """Adam over the main heads (plus `extra`) and Adam over the policy head."""
    main = list(model.main_params()) + list(extra or [])
    return ad.Adam(main, lr=lr), ad.Adam(model.policy_params(), lr=lr)


def train_step(model: WorldModel, batch, cfg: RunConfig,
               opt_main: ad.Adam, opt_policy: ad.Adam,
               distill: Optional[Callable[[Tensor], Tensor]] = None) -> LossBreakdown:
    """One update: composite loss step, then policy step, then target soft
    update. Deterministic given (weights, batch).

    Every training run, from scratch or distilled, goes through here. Given
    `distill` and cfg.d_coef > 0, `distill(z0)` builds the distillation term
    from the graph encode z0 of obs_0 that the composite loss also uses; the
    term joins the composite loss as d_coef * distill. Otherwise it is never
    called, so a d_coef = 0 distillation step is a from-scratch step.
    """
    d_coef = cfg.d_coef if distill is not None else 0.0
    opt_main.zero_grad()
    opt_policy.zero_grad()
    z0 = model.encode(Tensor(batch.obs[:, 0]))
    total, parts, latents = original_loss(model, batch, cfg, z0=z0)
    distill_value = 0.0
    if d_coef > 0.0:
        distill_term = distill(z0)
        distill_value = distill_term.item()
        total = ad.add(total, ad.scale(distill_term, d_coef))
    ad.backward(total)
    opt_main.step()

    model.zero_grad()
    pi_loss = policy_objective(model, latents, cfg.rho)
    ad.backward(pi_loss)
    opt_policy.step()
    model.zero_grad()

    model.soft_update_target(cfg.tau)
    return LossBreakdown.combine(parts.consistency, parts.reward, parts.value,
                                 distill_value, cfg, d_coef)
