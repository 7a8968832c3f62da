"""Span tracing for the benchmark's traced run.

The tracer wraps the public functions of each wmdistill module at the name
its caller binds (for example ``wmdistill.distill.original_loss``, the
name ``distill_train_step`` looks up), so nothing under ``src/`` changes and
an untraced call runs the original code. Spans are aggregated in memory
per (parent span, span) pair and written out once, when the run ends.

A span's self time is its duration minus the time its child spans cover.
Backward and Adam calls are split into the main and the policy update by
their order within a training step: every step samples one batch, then
runs the main backward/Adam, then the policy backward/Adam.
"""

from __future__ import annotations

import contextlib
import functools
import time
import weakref
from collections import defaultdict
from pathlib import Path

import numpy as np

OPS = ("add", "sub", "mul", "scale", "matmul", "mean", "square", "tanh",
       "concat_cols", "mse")
# Op classes reported on their own; the remaining ops are summed as "other".
OP_CLASSES = ("matmul", "add", "mish", "concat_cols", "mse")
MODEL_NP = ("encode", "dynamics", "reward", "value", "policy")

class Tracer:
    """In-memory span aggregates, counters and kept duration samples."""

    def __init__(self):
        self.spans = {}                    # (parent, name) -> [calls, total_s, self_s]
        self.samples = defaultdict(list)   # name -> durations (s) of kept spans
        self.counts = defaultdict(int)
        self.phase = [0, 0]                # backward, Adam calls in this step
        self.in_plan = 0
        self.teacher_heads = weakref.WeakSet()   # the frozen teacher's MLPs
        self._stack = []                   # open spans: [name, child_s]

    def wrap(self, name, fn, keep=False):
        """``fn`` recording a span called ``name`` around every call."""
        stack, spans, clock = self._stack, self.spans, time.perf_counter
        samples = self.samples[name] if keep else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [name, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                parent = stack[-1] if stack else None
                if parent is not None:
                    parent[1] += dt
                key = (parent[0] if parent else None, name)
                agg = spans.get(key)
                if agg is None:
                    agg = spans[key] = [0, 0.0, 0.0]
                agg[0] += 1
                agg[1] += dt
                agg[2] += dt - frame[1]
                if samples is not None:
                    samples.append(dt)
        return traced

    def _sum(self, name, field):
        return sum(agg[field] for (_, n), agg in self.spans.items() if n == name)

    def calls(self, name):
        return self._sum(name, 0)

    def total_s(self, name):
        return self._sum(name, 1)

    def self_s(self, name):
        return self._sum(name, 2)

    def root_s(self):
        """Wall time covered by the outermost spans."""
        return sum(agg[1] for (parent, _), agg in self.spans.items() if parent is None)

    def dump(self):
        """Every span aggregate and counter, as plain JSON-able data."""
        return {
            "spans": [{"parent": p, "name": n, "calls": a[0], "total_s": a[1],
                       "self_s": a[2]} for (p, n), a in sorted(
                           self.spans.items(), key=lambda kv: -kv[1][1])],
            "counts": dict(self.counts),
        }


def _patches(tracer):
    """(owner, attribute, replacement) for every traced name."""
    from wmdistill import (autodiff as ad, checkpoint as ck, cli, distill as dl,
                           envs, evaluate as ev, experiments as ex,
                           planner as pl, world_model as wm)
    wrap, counts, phase = tracer.wrap, tracer.counts, tracer.phase
    out = [(ad, op, wrap(f"autodiff.{op}", getattr(ad, op))) for op in OPS]
    mish, mish_np = wm.ACTIVATIONS["mish"]
    out.append((wm.ACTIVATIONS, "mish", (wrap("autodiff.mish", mish), mish_np)))

    backward_main = wrap("autodiff.backward_main", ad.backward)
    backward_policy = wrap("autodiff.backward_policy", ad.backward)

    def backward(loss):
        phase[0] += 1
        if phase[0] == 1:
            return backward_main(loss)
        grads = backward_policy(loss)
        counts["policy_backward_grad_elems"] += sum(g.size for g in grads.values())
        return grads

    adam_main = wrap("autodiff.adam_main", ad.Adam.step)
    adam_policy = wrap("autodiff.adam_policy", ad.Adam.step)

    def adam_step(opt):
        phase[1] += 1
        if phase[1] == 1:
            return adam_main(opt)
        counts["policy_param_grad_elems"] += sum(
            p.grad.size for p in opt.params if p.grad is not None)
        return adam_policy(opt)

    out += [(ad, "backward", backward), (ad.Adam, "step", adam_step)]

    timed_sample = wrap("dataset.sample_batch", ex.sample_batch)

    def sample_batch(*args, **kwargs):
        phase[0] = phase[1] = 0
        counts["steps"] += 1
        return timed_sample(*args, **kwargs)

    out += [(ex, "sample_batch", sample_batch),
            (ex, "load_dataset", wrap("dataset.load_dataset", ex.load_dataset))]

    for name in ("original_loss", "policy_objective"):
        traced = wrap(f"world_model.{name}", getattr(wm, name))
        out += [(wm, name, traced), (dl, name, traced)]
    out += [(wm.WorldModel, "soft_update_target",
             wrap("world_model.soft_update", wm.WorldModel.soft_update_target)),
            (wm.WorldModel, "encode",
             wrap("world_model.encode", wm.WorldModel.encode))]
    out += [(wm.WorldModel, f"{head}_np",
             wrap(f"world_model.{head}_np", getattr(wm.WorldModel, f"{head}_np")))
            for head in MODEL_NP]

    timed_forward = wrap("world_model.forward_np", wm.MLP.forward_np)
    teacher_heads = tracer.teacher_heads

    def forward_np(mlp, x):
        rows = len(x)
        counts["forward_np_rows"] += rows
        if tracer.in_plan:
            counts["plan_model_rows"] += rows
        if mlp in teacher_heads:
            counts["teacher_rows"] += rows
        return timed_forward(mlp, x)

    out.append((wm.MLP, "forward_np", forward_np))

    teacher_init = dl.FrozenTeacher.__init__

    def frozen_teacher_init(teacher, model, ckpt):
        teacher_init(teacher, model, ckpt)
        teacher_heads.update(model.heads().values())

    out += [(dl.FrozenTeacher, "__init__", frozen_teacher_init),
            (dl.FrozenTeacher, "refingerprint",
             wrap("distill.refingerprint", dl.FrozenTeacher.refingerprint)),
            (dl, "reward_distill_loss",
             wrap("distill.reward_distill_loss", dl.reward_distill_loss))]

    timed_plan = wrap("planner.plan", pl.plan, keep=True)

    def plan(*args, **kwargs):
        tracer.in_plan += 1
        try:
            return timed_plan(*args, **kwargs)
        finally:
            tracer.in_plan -= 1

    out.append((pl, "plan", plan))
    for task in envs.TASKS:
        cls = type(envs.make_env(task))
        out.append((cls, "step", wrap("envs.step", cls.step)))
    out += [(ev, "rollout_episode",
             wrap("evaluate.rollout_episode", ev.rollout_episode, keep=True)),
            (ex, "evaluate_model", wrap("evaluate.evaluate_model", ex.evaluate_model))]

    for name in ("run_training", "run_eval", "run_quantize"):
        out.append((cli, name, wrap(f"experiments.{name}", getattr(cli, name))))
    stream = wrap("seeding.stream", ex.stream)
    out += [(mod, "stream", stream) for mod in (ex, wm, ev, dl)]

    timed_write = wrap("checkpoint.write", ex.write_checkpoint)

    def write_checkpoint(path, ckpt):
        digest = timed_write(path, ckpt)
        counts["checkpoint_bytes"] += Path(path).stat().st_size
        return digest

    read = wrap("checkpoint.read", ck.read_checkpoint)
    out += [(ex, "write_checkpoint", write_checkpoint),
            (ex, "read_checkpoint", read), (dl, "read_checkpoint", read),
            (ck, "read_checkpoint", read),
            (ex, "to_fp16", wrap("quantize.to_fp16", ex.to_fp16))]
    return out


def _get(owner, attr):
    if isinstance(owner, dict):
        return owner[attr]
    if isinstance(owner, type):
        return owner.__dict__[attr]
    return getattr(owner, attr)


def _set(owner, attr, value):
    if isinstance(owner, dict):
        owner[attr] = value
    else:
        setattr(owner, attr, value)


@contextlib.contextmanager
def installed(tracer):
    """Route the traced names through ``tracer`` for the ``with`` body."""
    patches = _patches(tracer)
    saved = [(owner, attr, _get(owner, attr)) for owner, attr, _ in patches]
    try:
        for owner, attr, new in patches:
            _set(owner, attr, new)
        yield tracer
    finally:
        for owner, attr, old in reversed(saved):
            _set(owner, attr, old)


def _per(x, n):
    return x / n if n else 0.0


def _pct(samples, q):
    return float(np.percentile(samples, q)) if samples else 0.0


def per_layer(main, setup, setup_calls, eval_calls, overhead_pct):
    """Every per-layer metric of BENCHMARK.json from a run's tracers.

    ``main`` traced the measured commands, ``setup`` the set-up calls that
    ``setup_s`` times; ``setup_calls`` and ``eval_calls`` are how many of
    each were traced. Metrics of a layer the workload does not run read 0.
    """
    steps = main.counts["steps"]
    plans = main.calls("planner.plan")
    ms = 1e3
    m = {
        "dataset.sample_batch.ms_per_step": _per(main.total_s("dataset.sample_batch") * ms, steps),
        "dataset.load_dataset.ms": _per(setup.total_s("dataset.load_dataset") * ms,
                                        setup.calls("dataset.load_dataset")),
    }
    for part in ("backward_main", "backward_policy", "adam_main", "adam_policy"):
        m[f"autodiff.{part}.ms_per_step"] = _per(main.total_s(f"autodiff.{part}") * ms, steps)
    op_calls = {op: main.calls(f"autodiff.{op}") for op in OPS + ("mish",)}
    op_self = {op: main.self_s(f"autodiff.{op}") for op in OPS + ("mish",)}
    m["autodiff.ops_per_step"] = _per(sum(op_calls.values()), steps)
    others = [op for op in op_calls if op not in OP_CLASSES]
    for op in OP_CLASSES + ("other",):
        group = others if op == "other" else [op]
        m[f"autodiff.{op}.calls_per_step"] = _per(sum(op_calls[o] for o in group), steps)
        m[f"autodiff.{op}.self_ms_per_step"] = _per(sum(op_self[o] for o in group) * ms, steps)
    m["autodiff.policy_grad_useful_fraction"] = _per(
        main.counts["policy_param_grad_elems"], main.counts["policy_backward_grad_elems"])
    for name in ("original_loss", "policy_objective"):
        m[f"world_model.{name}.self_ms_per_step"] = _per(
            main.self_s(f"world_model.{name}") * ms, steps)
    m["world_model.soft_update.ms_per_step"] = _per(
        main.total_s("world_model.soft_update") * ms, steps)
    m["world_model.encode.calls_per_step"] = _per(main.calls("world_model.encode"), steps)
    fwd_calls = main.calls("world_model.forward_np")
    fwd_rows = main.counts["forward_np_rows"]
    fwd_self = main.self_s("world_model.forward_np") * ms
    for unit, n in (("step", steps), ("plan", plans)):
        m[f"world_model.forward_np.calls_per_{unit}"] = _per(fwd_calls, n)
        m[f"world_model.forward_np.rows_per_{unit}"] = _per(fwd_rows, n)
        m[f"world_model.forward_np.self_ms_per_{unit}"] = _per(fwd_self, n)
    for head in MODEL_NP:
        m[f"world_model.{head}_np.ms_per_plan"] = _per(
            main.total_s(f"world_model.{head}_np") * ms, plans)
    m["distill.reward_distill_loss.self_ms_per_step"] = _per(
        main.self_s("distill.reward_distill_loss") * ms, steps)
    m["distill.teacher_rows_per_step"] = _per(main.counts["teacher_rows"], steps)
    m["distill.refingerprint.ms"] = _per(setup.total_s("distill.refingerprint") * ms,
                                         setup.calls("distill.refingerprint"))
    plan_ms = [s * ms for s in main.samples["planner.plan"]]
    m["planner.plan.ms.p50"] = _pct(plan_ms, 50)
    m["planner.plan.ms.p99"] = _pct(plan_ms, 99)
    m["planner.plans"] = float(plans)
    m["planner.plan.self_ms_per_plan"] = _per(main.self_s("planner.plan") * ms, plans)
    m["planner.model_rows_per_plan"] = _per(main.counts["plan_model_rows"], plans)
    env_steps = main.calls("envs.step")
    m["envs.step.us_per_call"] = _per(main.total_s("envs.step") * 1e6, env_steps)
    m["envs.step.calls"] = _per(env_steps, eval_calls)
    m["evaluate.rollout_episode.s.p50"] = _pct(main.samples["evaluate.rollout_episode"], 50)
    m["evaluate.evaluate_model.self_ms"] = _per(
        main.self_s("evaluate.evaluate_model") * ms, eval_calls)
    m["experiments.run_training.self_ms_per_step"] = _per(
        main.self_s("experiments.run_training") * ms, steps)
    m["seeding.stream.calls_per_step"] = _per(main.calls("seeding.stream"), steps)
    m["seeding.stream.us_per_call"] = _per(main.total_s("seeding.stream") * 1e6,
                                           main.calls("seeding.stream"))
    m["checkpoint.write.ms"] = _per(setup.total_s("checkpoint.write") * ms,
                                    setup.calls("checkpoint.write"))
    m["checkpoint.read.ms"] = _per(setup.total_s("checkpoint.read") * ms,
                                   setup.calls("checkpoint.read"))
    m["checkpoint.bytes_written"] = _per(setup.counts["checkpoint_bytes"], setup_calls)
    m["quantize.to_fp16.ms"] = _per(setup.total_s("quantize.to_fp16") * ms,
                                    setup.calls("quantize.to_fp16"))
    m["trace.overhead_pct"] = overhead_pct
    return m
