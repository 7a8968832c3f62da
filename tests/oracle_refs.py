"""Independent reference implementations the package is checked against.

The float64 loss references mirror the documented loss math directly in
numpy float64 -- separate code from the package's float32 graph -- so
central finite differences on them are accurate to ~1e-10 and make the 1e-4
relative gradient tolerance meaningful. Targets that the losses treat as
constants (consistency targets, TD targets, teacher outputs) are frozen at
the base point before differencing, matching the stop-gradient semantics
under test.

`plan_two_pass` is a frozen copy of the two-pass MPPI planner: policy
candidates rolled through `dynamics_np` on their own, then every candidate
scored through separate `reward_np` and `dynamics_np` calls. The one-pass
planner must reproduce it bit for bit.

Frozen copies of the training step's earlier building blocks, each of
which the package's replacement must match bit for bit:

- `mlp_chain`: an MLP's graph forward as a chain of single-op nodes
  (`linear_ref`, `mish_ref`, `tanh_ref`), each with its own backward rule;
- `AdamRef`: Adam stepping one parameter at a time;
- `sample_batch_loop`: window sampling that copies one row at a time.
"""

from typing import Callable, Dict, List, Tuple

import numpy as np

import wmdistill.autodiff as ad
from wmdistill.dataset import TransitionBatch


def mish64(x: np.ndarray) -> np.ndarray:
    return x * np.tanh(np.logaddexp(0.0, x))


ACTS64 = {"mish": mish64, "tanh": np.tanh}

Layers = List[Tuple[np.ndarray, np.ndarray]]


def mlp64(layers: Layers, x: np.ndarray, act: Callable,
          out_tanh: bool = False) -> np.ndarray:
    last = len(layers) - 1
    h = x
    for i, (w, b) in enumerate(layers):
        h = h @ w + b
        if i < last:
            h = act(h)
    return np.tanh(h) if out_tanh else h


def model_layers64(model) -> Dict[str, Layers]:
    """Extract float64 copies of every head's (w, b) stacks."""
    out: Dict[str, Layers] = {}
    for head, mlp in model.heads().items():
        out[head] = [(w.data.astype(np.float64), b.data.astype(np.float64))
                     for w, b in zip(mlp.weights, mlp.biases)]
    return out


def head_np(arrs: Dict[str, Layers], head: str, act, x, extra=None,
            out_tanh=False) -> np.ndarray:
    inp = x if extra is None else np.concatenate([x, extra], axis=1)
    return mlp64(arrs[head], inp, act, out_tanh=out_tanh)


def rollout64(arrs, act, obs, actions, horizon):
    z = head_np(arrs, "encoder", act, obs[:, 0])
    latents = [z]
    for t in range(horizon):
        latents.append(head_np(arrs, "dynamics", act, latents[t], actions[:, t]))
    return latents


def composite_targets64(arrs, act, batch, coeffs, gamma):
    """Consistency and TD targets at the base point (held constant)."""
    obs, rewards = batch.obs, batch.rewards
    h = coeffs.horizon
    enc_targets = [head_np(arrs, "encoder", act, obs[:, t])
                   for t in range(1, h + 1)]
    td_targets = []
    for t in range(h):
        z_next = head_np(arrs, "encoder", act, obs[:, t + 1])
        a_next = head_np(arrs, "policy", act, z_next, out_tanh=True)
        q_next = head_np(arrs, "target_value", act, z_next, a_next)[:, 0]
        td_targets.append(rewards[:, t].astype(np.float64) + gamma * q_next)
    return enc_targets, td_targets


def composite_loss64(arrs, act, batch, coeffs, enc_targets, td_targets):
    """(consistency, reward, value, total) with frozen targets."""
    obs, actions, rewards = batch.obs, batch.actions, batch.rewards
    h = coeffs.horizon
    latents = rollout64(arrs, act, obs, actions.astype(np.float64), h)
    consistency = sum(coeffs.rho ** t *
                      np.mean((latents[t] - enc_targets[t - 1]) ** 2)
                      for t in range(1, h + 1))
    reward = sum(coeffs.rho ** t * np.mean(
        (head_np(arrs, "reward", act, latents[t], actions[:, t])[:, 0]
         - rewards[:, t]) ** 2) for t in range(h))
    value = sum(coeffs.rho ** t * np.mean(
        (head_np(arrs, "value", act, latents[t], actions[:, t])[:, 0]
         - td_targets[t]) ** 2) for t in range(h))
    total = (coeffs.alpha_consistency * consistency
             + coeffs.alpha_reward * reward
             + coeffs.alpha_value * value)
    return consistency, reward, value, total


def policy_objective64(arrs, act, latents_const, rho):
    h = max(len(latents_const) - 1, 1)
    total = 0.0
    for t in range(h):
        z = latents_const[t].astype(np.float64)
        a = head_np(arrs, "policy", act, z, out_tanh=True)
        q = head_np(arrs, "value", act, z, a)[:, 0]
        total += -(rho ** t) / h * np.mean(q)
    return total


def reward_distill64(student_arrs, act, batch, teacher_rewards):
    """Mean over batch and steps of (teacher - student)^2, teacher frozen."""
    obs, actions = batch.obs, batch.actions
    h = actions.shape[1]
    acc = 0.0
    for t in range(h):
        z = head_np(student_arrs, "encoder", act, obs[:, t])
        pred = head_np(student_arrs, "reward", act, z, actions[:, t])[:, 0]
        acc += np.mean((pred - teacher_rewards[t]) ** 2)
    return acc / h


def latent_distill64(student_arrs, act, batch, teacher_next_latents,
                     projection_w=None, pca=None):
    """Latent-mode distill term; exactly one of projection_w / pca given."""
    obs, actions = batch.obs, batch.actions
    h = actions.shape[1]
    acc = 0.0
    for t in range(h):
        z = head_np(student_arrs, "encoder", act, obs[:, t])
        z_next = head_np(student_arrs, "dynamics", act, z, actions[:, t])
        if pca is not None:
            target = (teacher_next_latents[t] - pca.mean.astype(np.float64)) \
                     @ pca.components.astype(np.float64).T
            acc += np.mean((z_next - target) ** 2)
        else:
            proj = teacher_next_latents[t] @ projection_w
            acc += np.mean((z_next - proj) ** 2)
    return acc / h


def central_diff_layers(loss_fn: Callable[[], float], layers: Layers,
                        eps: float = 1e-4) -> Layers:
    """Central differences w.r.t. every (w, b) entry of one head, in place."""
    grads = []
    for w, b in layers:
        gw = np.zeros_like(w)
        for arr, g in ((w, gw),):
            flat, gflat = arr.reshape(-1), g.reshape(-1)
            for i in range(flat.size):
                orig = flat[i]
                flat[i] = orig + eps
                hi = loss_fn()
                flat[i] = orig - eps
                lo = loss_fn()
                flat[i] = orig
                gflat[i] = (hi - lo) / (2 * eps)
        gb = np.zeros_like(b)
        flat, gflat = b.reshape(-1), gb.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            hi = loss_fn()
            flat[i] = orig - eps
            lo = loss_fn()
            flat[i] = orig
            gflat[i] = (hi - lo) / (2 * eps)
        grads.append((gw, gb))
    return grads


def grads_close(analytic: Layers, fd: Layers, tol: float = 1e-4) -> bool:
    """|analytic - fd| <= tol * max(1, |fd|) elementwise across all layers."""
    for (gw_a, gb_a), (gw_f, gb_f) in zip(analytic, fd):
        for a, f in ((gw_a, gw_f), (gb_a, gb_f)):
            bound = tol * np.maximum(1.0, np.abs(f))
            if not np.all(np.abs(a.astype(np.float64) - f) <= bound):
                return False
    return True


def analytic_head_grads(mlp) -> Layers:
    return [((w.grad if w.grad is not None else np.zeros_like(w.data)).copy(),
             (b.grad if b.grad is not None else np.zeros_like(b.data)).copy())
            for w, b in zip(mlp.weights, mlp.biases)]


def _score_rollouts_two_pass(model, z0, actions, gamma):
    n, horizon, _ = actions.shape
    z = np.repeat(z0, n, axis=0)
    scores = np.zeros(n)
    disc = 1.0
    for t in range(horizon):
        a_t = np.ascontiguousarray(actions[:, t], dtype=z.dtype)
        scores += disc * model.reward_np(z, a_t)
        z = model.dynamics_np(z, a_t)
        disc *= gamma
    return scores + disc * model.value_np(z, model.policy_np(z))


def _policy_candidates_two_pass(model, z0, n, std, rng, horizon):
    act_dim = model.act_dim
    z = np.repeat(z0, n, axis=0)
    actions = np.zeros((n, horizon, act_dim))
    for t in range(horizon):
        a = model.policy_np(z)
        noise = rng.standard_normal((n, act_dim))
        noise[0] = 0.0
        a = np.clip(a + std[t] * noise, -1.0, 1.0)
        actions[:, t] = a
        z = model.dynamics_np(z, a.astype(z.dtype))
    return actions


def plan_two_pass(model, z0, config, rng, gamma=0.99, prev_mean=None):
    """(action, mean, info) of the two-pass planner; `model` needs
    reward_np and dynamics_np in place of step_np."""
    z0 = np.atleast_2d(np.asarray(z0))
    h, n = config.horizon, config.num_samples
    act_dim = model.act_dim
    mean = np.zeros((h, act_dim)) if prev_mean is None else prev_mean.copy()
    std = np.full((h, act_dim), float(config.init_std))

    n_pi = int(round(config.policy_fraction * n))
    if config.policy_fraction > 0 and n >= 1:
        n_pi = max(n_pi, 1)
    n_pi = min(n_pi, n)

    candidates = scores = None
    elite_means = []
    for _ in range(config.iterations):
        parts = []
        if n_pi > 0:
            parts.append(_policy_candidates_two_pass(model, z0, n_pi, std, rng, h))
        if n - n_pi > 0:
            eps = rng.standard_normal((n - n_pi, h, act_dim))
            parts.append(np.clip(mean[None] + std[None] * eps, -1.0, 1.0))
        candidates = np.concatenate(parts, axis=0)
        scores = _score_rollouts_two_pass(model, z0, candidates, gamma)

        elite_idx = np.argsort(-scores, kind="stable")[:config.num_elites]
        elite_scores = scores[elite_idx]
        elite_actions = candidates[elite_idx]
        elite_means.append(float(elite_scores.mean()))
        w = np.exp((elite_scores - elite_scores.max()) / config.temperature)
        w /= w.sum()
        mean = np.einsum("e,ehd->hd", w, elite_actions)
        var = np.einsum("e,ehd->hd", w, (elite_actions - mean[None]) ** 2)
        std = np.maximum(np.sqrt(var), config.noise_std)

    action = np.clip(mean[0], -1.0, 1.0)
    return action, mean, {"candidates": candidates, "scores": scores,
                          "elite_score_per_iteration": elite_means}


# --- frozen copies of the single-op MLP chain, per-parameter Adam and the
# per-row sampler ---

def linear_ref(x, w, b):
    y = x.data @ w.data
    y += b.data
    out = ad._result(y, "linear", (x, w, b))
    if out.requires_grad:
        def _bw(g):
            if x.requires_grad:
                x._accumulate(g @ w.data.T)
            if w.requires_grad:
                w._accumulate(x.data.T @ g)
            if b.requires_grad:
                b._accumulate(g.sum(axis=0))
        out._backward = _bw
    return out


def tanh_ref(a):
    y = np.tanh(a.data)
    out = ad._result(y, "tanh", (a,))
    if out.requires_grad:
        def _bw(g):
            a._accumulate(g * (np.float32(1.0) - y * y))
        out._backward = _bw
    return out


def mish_ref(a):
    e = np.exp(np.minimum(a.data, np.float32(20.0)))
    num = e * (e + np.float32(2.0))
    t = num / (num + np.float32(2.0))
    sig = e / (e + np.float32(1.0))
    out = ad._result(a.data * t, "mish", (a,))
    if out.requires_grad:
        def _bw(g):
            a._accumulate(g * (t + a.data * (np.float32(1.0) - t * t) * sig))
        out._backward = _bw
    return out


def mlp_chain(mlp, x, frozen=False):
    """`MLP.__call__` as a chain of linear, activation and tanh nodes."""
    act = {"mish": mish_ref, "tanh": tanh_ref}[mlp.activation]
    last = len(mlp.weights) - 1
    h = x
    for i, (w, b) in enumerate(zip(mlp.weights, mlp.biases)):
        if frozen:
            w, b = w.detach(), b.detach()
        h = linear_ref(h, w, b)
        if i < last:
            h = act(h)
    return tanh_ref(h) if mlp.out_tanh else h


class AdamRef:
    """Adam over a list of parameters, one parameter at a time; parameters
    whose .grad is None are skipped."""

    def __init__(self, params, lr=3e-4, beta1=0.9, beta2=0.999, eps=1e-8):
        self.params = list(params)
        self.lr, self.beta1, self.beta2, self.eps = lr, beta1, beta2, eps
        self.t = 0
        self.m = [np.zeros_like(p.data) for p in self.params]
        self.v = [np.zeros_like(p.data) for p in self.params]

    def step(self):
        self.t += 1
        b1, b2 = np.float32(self.beta1), np.float32(self.beta2)
        one = np.float32(1.0)
        c1, c2 = one - b1, one - b2
        bc1 = np.float32(1.0 - self.beta1 ** self.t)
        bc2 = np.float32(1.0 - self.beta2 ** self.t)
        lr, eps = np.float32(self.lr), np.float32(self.eps)
        for p, m, v in zip(self.params, self.m, self.v):
            g = p.grad
            if g is None:
                continue
            s = np.empty_like(p.data)
            d = np.empty_like(p.data)
            m *= b1
            np.multiply(c1, g, out=s)
            m += s
            v *= b2
            np.multiply(g, g, out=s)
            s *= c2
            v += s
            np.divide(m, bc1, out=s)
            s *= lr
            np.divide(v, bc2, out=d)
            np.sqrt(d, out=d)
            d += eps
            s /= d
            p.data -= s

    def load_state(self, moments, t):
        self.m = [m.astype(np.float32).copy() for m, _ in moments]
        self.v = [v.astype(np.float32).copy() for _, v in moments]
        self.t = int(t)


def sample_batch_loop(dataset, batch_size, horizon, rng):
    """Uniform draw over all valid (episode, start) window positions, one
    window copied at a time."""
    episodes = dataset.episodes
    valid = np.array([ep.length - horizon + 1 for ep in episodes])
    if np.any(valid <= 0):
        raise ValueError(f"window horizon {horizon} exceeds an episode length")
    cum = np.cumsum(valid)
    total = int(cum[-1])
    flat = rng.integers(0, total, size=batch_size)
    ep_idx = np.searchsorted(cum, flat, side="right")
    start = flat - (cum[ep_idx] - valid[ep_idx])
    obs = np.empty((batch_size, horizon + 1, episodes[0].obs_dim), dtype=np.float32)
    actions = np.empty((batch_size, horizon, episodes[0].act_dim), dtype=np.float32)
    rewards = np.empty((batch_size, horizon), dtype=np.float32)
    task_ids = []
    for i, (e, s) in enumerate(zip(ep_idx, start)):
        ep = episodes[e]
        obs[i] = ep.obs[s:s + horizon + 1]
        actions[i] = ep.actions[s:s + horizon]
        rewards[i] = ep.rewards[s:s + horizon]
        task_ids.append(ep.task_id)
    return TransitionBatch(obs, actions, rewards, task_ids)
