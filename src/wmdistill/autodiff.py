"""Dense float32 tensors with reverse-mode automatic differentiation and Adam.

The operation set is deliberately small: matmul, a fused MLP (a whole
linear/activation stack as one node, with the arithmetic of the single-op
chain), elementwise add/sub/mul, scalar scaling, mean, square, tanh/mish,
column and row concatenation and a fused, optionally row-weighted MSE.
Shapes are strict -- elementwise ops require identical shapes, except that
a 1-d tensor may broadcast against the rows of a 2-d batch (bias addition).
Everything else raises ShapeError with both shapes in the message.

Graphs are built eagerly by the forward ops and freed when the output goes
out of scope. Values are float32 everywhere; half precision exists only in
the checkpoint layer.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

ArrayLike = Union[np.ndarray, Sequence, float, int]


class ShapeError(ValueError):
    """Raised when operand shapes do not conform for an operation."""


class GradientError(RuntimeError):
    """Raised when backpropagation produces or receives non-finite values."""


def _as_f32(data: ArrayLike) -> np.ndarray:
    arr = np.asarray(data, dtype=np.float32)
    return np.ascontiguousarray(arr)


class Tensor:
    """A node in the computation graph.

    `data` is a row-major float32 ndarray. `grad` is lazily allocated with
    the same shape and accumulates across backward() calls until zeroed.
    Constant (requires_grad=False) tensors never receive gradients.
    """

    __slots__ = ("data", "grad", "requires_grad", "name", "op", "_parents", "_backward")

    def __init__(
        self,
        data: ArrayLike,
        requires_grad: bool = False,
        name: Optional[str] = None,
        _op: str = "leaf",
        _validate: bool = True,
    ):
        self.data = _as_f32(data)
        if _validate and not np.all(np.isfinite(self.data)):
            raise ValueError(
                f"non-finite value entering the graph (tensor {name or _op!r})"
            )
        self.grad: Optional[np.ndarray] = None
        self.requires_grad = requires_grad
        self.name = name
        self.op = _op
        self._parents: Tuple["Tensor", ...] = ()
        # called with this node's gradient, so that the closure needs no
        # reference to the node: a graph then holds no reference cycle and
        # is freed as soon as it is dropped, not at the next gc collection
        self._backward: Optional[Callable[[np.ndarray], None]] = None

    @property
    def shape(self) -> Tuple[int, ...]:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        return float(self.data.reshape(-1)[0])

    def detach(self) -> "Tensor":
        return Tensor(self.data, requires_grad=False, _validate=False)

    def _ensure_grad(self) -> np.ndarray:
        if self.grad is None:
            self.grad = np.zeros_like(self.data)
        return self.grad

    def _accumulate(self, fresh: np.ndarray) -> None:
        """Add a gradient contribution that no other code holds and that has
        this tensor's shape: the first one becomes .grad itself instead of
        being added to zeros."""
        if self.grad is None:
            self.grad = fresh
        else:
            self.grad += fresh

    def __repr__(self) -> str:
        req = ", requires_grad=True" if self.requires_grad else ""
        nm = f", name={self.name!r}" if self.name else ""
        return f"Tensor(shape={self.data.shape}, op={self.op!r}{req}{nm})"


def _result(data: np.ndarray, op: str, parents: Tuple[Tensor, ...]) -> Tensor:
    out = Tensor(data, requires_grad=any(p.requires_grad for p in parents),
                 _op=op, _validate=False)
    if out.requires_grad:
        out._parents = parents
    return out


def _check_same_shape(op: str, a: Tensor, b: Tensor) -> None:
    if a.shape != b.shape:
        raise ShapeError(f"{op}: shapes {a.shape} and {b.shape} do not match")


def _bias_pattern(a: Tensor, b: Tensor) -> bool:
    # (B, n) op (n,) -- the only broadcast allowed, over the leading batch dim.
    return a.data.ndim == 2 and b.data.ndim == 1 and a.shape[1] == b.shape[0]


def add(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape and not _bias_pattern(a, b):
        raise ShapeError(f"add: shapes {a.shape} and {b.shape} do not conform "
                         "(equal shapes or (B,n)+(n,) required)")
    out = _result(a.data + b.data, "add", (a, b))
    if out.requires_grad:
        def _bw(g: np.ndarray) -> None:
            if a.requires_grad:
                a._ensure_grad()
                a.grad += g
            if b.requires_grad:
                b._ensure_grad()
                b.grad += g.sum(axis=0) if b.data.ndim < g.ndim else g
        out._backward = _bw
    return out


def sub(a: Tensor, b: Tensor) -> Tensor:
    _check_same_shape("sub", a, b)
    out = _result(a.data - b.data, "sub", (a, b))
    if out.requires_grad:
        def _bw(g: np.ndarray) -> None:
            if a.requires_grad:
                a._ensure_grad()
                a.grad += g
            if b.requires_grad:
                b._ensure_grad()
                b.grad -= g
        out._backward = _bw
    return out


def mul(a: Tensor, b: Tensor) -> Tensor:
    _check_same_shape("mul", a, b)
    out = _result(a.data * b.data, "mul", (a, b))
    if out.requires_grad:
        def _bw(g: np.ndarray) -> None:
            if a.requires_grad:
                a._accumulate(g * b.data)
            if b.requires_grad:
                b._accumulate(g * a.data)
        out._backward = _bw
    return out


def scale(a: Tensor, c: float) -> Tensor:
    c32 = np.float32(c)
    out = _result(a.data * c32, "scale", (a,))
    if out.requires_grad:
        def _bw(g: np.ndarray) -> None:
            a._accumulate(g * c32)
        out._backward = _bw
    return out


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.ndim != 2 or b.data.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul: shapes {a.shape} and {b.shape} do not conform")
    out = _result(a.data @ b.data, "matmul", (a, b))
    if out.requires_grad:
        def _bw(g: np.ndarray) -> None:
            if a.requires_grad:
                a._accumulate(g @ b.data.T)
            if b.requires_grad:
                b._accumulate(a.data.T @ g)
        out._backward = _bw
    return out


# Backward rules of the fused mlp node; tanh and mish share theirs with
# the single-op nodes.

def _linear_rule(g: np.ndarray, x: np.ndarray, w: Tensor, b: Tensor,
                 need_x: bool, train: bool = True) -> Optional[np.ndarray]:
    """The backward of x @ w + b: adds x.T @ g into the weight and the row sum
    of g into the bias (when `train` and they require grad), and returns the
    input's gradient g @ w.T when `need_x`, else None."""
    gx = g @ w.data.T if need_x else None
    if train and w.requires_grad:
        w._accumulate(x.T @ g)
    if train and b.requires_grad:
        b._accumulate(g.sum(axis=0))
    return gx


def _tanh_rule(g: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The backward of y = tanh(x)."""
    return g * (np.float32(1.0) - y * y)


def _mish_rule(g: np.ndarray, x: np.ndarray, t: np.ndarray,
               sig: np.ndarray) -> np.ndarray:
    """The backward of mish at x, from t, sig = _mish_parts(x)."""
    return g * (t + x * (np.float32(1.0) - t * t) * sig)


def mean(a: Tensor) -> Tensor:
    out = _result(np.asarray(a.data.mean(), dtype=np.float32), "mean", (a,))
    if out.requires_grad:
        inv_n = np.float32(1.0 / a.size)
        def _bw(g: np.ndarray) -> None:
            # g has shape (1,): broadcast it over a's shape
            a._ensure_grad()
            a.grad += g * inv_n
        out._backward = _bw
    return out


def square(a: Tensor) -> Tensor:
    out = _result(a.data * a.data, "square", (a,))
    if out.requires_grad:
        def _bw(g: np.ndarray) -> None:
            a._accumulate(g * (np.float32(2.0) * a.data))
        out._backward = _bw
    return out


def tanh(a: Tensor) -> Tensor:
    y = np.tanh(a.data)
    out = _result(y, "tanh", (a,))
    if out.requires_grad:
        def _bw(g: np.ndarray) -> None:
            a._accumulate(_tanh_rule(g, y))
        out._backward = _bw
    return out


def _mish_parts(x: np.ndarray, need_sig: bool = True
                ) -> Tuple[np.ndarray, Optional[np.ndarray]]:
    """tanh(softplus(x)) and sigmoid(x) from a single exp, in two buffers;
    the sigmoid only when `need_sig`, else None.

    With e = exp(x), tanh(log1p(e)) = e(e+2) / (e(e+2) + 2) -- no
    cancellation, and it saturates to exactly 1.0 for large x. The input is
    clipped at 20 so e^2 cannot overflow float32; beyond that point both
    factors are already exactly 1.0f.
    """
    e = np.minimum(x, np.float32(20.0))
    np.exp(e, out=e)
    t = e + np.float32(2.0)
    t *= e                               # num = e * (e + 2)
    sig = e / (e + np.float32(1.0)) if need_sig else None
    np.add(t, np.float32(2.0), out=e)
    t /= e                               # tanh(softplus(x)) = num / (num + 2)
    return t, sig


def mish(a: Tensor) -> Tensor:
    # mish(x) = x * tanh(softplus(x))
    t, sig = _mish_parts(a.data)
    out = _result(a.data * t, "mish", (a,))
    if out.requires_grad:
        def _bw(g: np.ndarray) -> None:
            a._accumulate(_mish_rule(g, a.data, t, sig))
        out._backward = _bw
    return out


def mish_np(x: np.ndarray) -> np.ndarray:
    """Forward-only mish: x * _mish_parts(x)[0], without the sigmoid."""
    t = _mish_parts(x, False)[0]
    t *= x
    return t


def hidden_layers(h: np.ndarray, weights, biases, activation: str,
                  saved: Optional[list] = None) -> np.ndarray:
    """The hidden layers of an MLP: per (w, b), y = h @ w, y += b, then
    `activation` ("mish" or "tanh"). (k, in, out) weights with (k, 1, out)
    biases run k stacked heads, each slice in its own BLAS call. With `saved`
    (the graph path) each layer appends (its input, (y, t, sig)) or (its
    input, tanh(y)) and never writes them again; without it the activation
    runs in place, on arrays made here only."""
    mish_act = activation == "mish"
    for w, b in zip(weights, biases):
        y = h @ w
        y += b
        if saved is None:
            h = mish_np(y) if mish_act else np.tanh(y, out=y)
        elif mish_act:
            t, sig = _mish_parts(y)
            saved.append((h, (y, t, sig)))
            h = y * t
        else:
            saved.append((h, np.tanh(y)))
            h = saved[-1][1]
    return h


def mlp(x: Tensor, weights: Sequence[Tensor], biases: Sequence[Tensor],
        activation: str = "mish", out_tanh: bool = False,
        frozen: bool = False) -> Tensor:
    """A fully connected stack as one node: h = x, then per layer
    y = h @ w + b, with `activation` ("mish" or "tanh") after every layer
    but the last and tanh after the last when `out_tanh`.

    The forward and backward run the ops of the chain linear -> activation
    -> ... -> linear [-> tanh], in its order, and keep the intermediates it
    keeps, so values and gradients are the chain's bit for bit. With
    `frozen` the weights are constants: gradients reach `x` only.
    """
    if activation not in ("mish", "tanh"):
        raise ValueError(f"unknown activation {activation!r}")
    if x.data.ndim != 2 or x.shape[1] != weights[0].shape[0]:
        raise ShapeError(f"mlp: input shape {x.shape} does not fit first "
                         f"weight {weights[0].shape}")
    last = len(weights) - 1
    saved: list = []     # per layer: (its input, what its activation keeps)
    h = hidden_layers(x.data, [w.data for w in weights[:last]],
                      [b.data for b in biases[:last]], activation, saved)
    saved.append((h, None))
    h = h @ weights[last].data
    h += biases[last].data
    if out_tanh:
        h = np.tanh(h)
    out = _result(h, "mlp", (x,) if frozen else (x, *weights, *biases))
    if not out.requires_grad:
        return out
    weights, biases, train = tuple(weights), tuple(biases), not frozen

    def _bw(g: np.ndarray, diagnose: bool = False) -> None:
        # `diagnose` checks every rule's result, to name the failing one
        if out_tanh:
            g = _tanh_rule(g, h)
            if diagnose:
                _check_rule(g, last, "tanh")
        for i in range(last, -1, -1):
            inp, kept = saved[i]
            if i < last:
                g = (_mish_rule(g, *kept) if activation == "mish"
                     else _tanh_rule(g, kept))
                if diagnose:
                    _check_rule(g, i, activation)
            g = _linear_rule(g, inp, weights[i], biases[i],
                             i > 0 or x.requires_grad, train)
            if diagnose:
                for arr in (g, *((weights[i].grad, biases[i].grad) if train else ())):
                    _check_rule(arr, i, "linear")
            if g is None:
                return
        x._accumulate(g)
    out._backward = _bw
    return out


def _check_rule(arr: Optional[np.ndarray], layer: int, rule: str) -> None:
    if arr is not None and not np.isfinite(arr).all():
        raise GradientError(f"non-finite gradient produced by op 'mlp' "
                            f"layer {layer} ({rule})")


def concat_cols(a: Tensor, b: Tensor) -> Tensor:
    if a.data.ndim != 2 or b.data.ndim != 2 or a.shape[0] != b.shape[0]:
        raise ShapeError(f"concat_cols: shapes {a.shape} and {b.shape} do not conform")
    na = a.shape[1]
    out = _result(np.concatenate([a.data, b.data], axis=1), "concat_cols", (a, b))
    if out.requires_grad:
        def _bw(g: np.ndarray) -> None:
            if a.requires_grad:
                a._ensure_grad()
                a.grad += g[:, :na]
            if b.requires_grad:
                b._ensure_grad()
                b.grad += g[:, na:]
        out._backward = _bw
    return out


def concat_rows(parts: Sequence[Tensor]) -> Tensor:
    """Stack 2-d tensors with equal column counts on top of each other."""
    if not parts or any(p.data.ndim != 2 or p.shape[1] != parts[0].shape[1]
                        for p in parts):
        raise ShapeError("concat_rows: shapes "
                         f"{[p.shape for p in parts]} do not conform")
    out = _result(np.concatenate([p.data for p in parts], axis=0),
                  "concat_rows", tuple(parts))
    if out.requires_grad:
        bounds = np.cumsum([0] + [p.shape[0] for p in parts])
        def _bw(g: np.ndarray) -> None:
            for p, lo, hi in zip(parts, bounds[:-1], bounds[1:]):
                if p.requires_grad:
                    p._ensure_grad()
                    p.grad += g[lo:hi]
        out._backward = _bw
    return out


def mse(pred: Tensor, target: Union[Tensor, np.ndarray],
        row_weights: Optional[np.ndarray] = None) -> Tensor:
    """Mean over all elements of (pred - target)^2, each row r scaled by the
    constant row_weights[r] when given.

    The target is treated as a constant: no gradient ever flows into it,
    whether it is a Tensor or a raw array.
    """
    tdata = target.data if isinstance(target, Tensor) else _as_f32(target)
    if pred.shape != tdata.shape:
        raise ShapeError(f"mse: shapes {pred.shape} and {tdata.shape} do not match")
    diff = pred.data - tdata
    sq = diff * diff
    if row_weights is not None:
        w = _as_f32(row_weights)
        if pred.data.ndim != 2 or w.shape != (pred.shape[0],):
            raise ShapeError(f"mse: row weights of shape {w.shape} do not fit "
                             f"rows of {pred.shape}")
        w = w[:, None]
        sq *= w
        diff *= w            # the backward's d(loss)/d(pred) is 2/n * w * diff
    out = _result(np.asarray(np.mean(sq), dtype=np.float32), "mse", (pred,))
    if out.requires_grad:
        coef = np.float32(2.0 / pred.size)
        def _bw(g: np.ndarray) -> None:
            pred._accumulate(g * (coef * diff))
        out._backward = _bw
    return out


def _topo_order(root: Tensor) -> List[Tensor]:
    order: List[Tensor] = []
    visited = set()
    stack: List[Tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            order.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            # a parent without grad has no parents and no backward: leaving
            # it out keeps the order of the others
            if p.requires_grad and id(p) not in visited:
                stack.append((p, False))
    return order


def backward(loss: Tensor) -> Dict[Tensor, np.ndarray]:
    """Backpropagate d(loss)/d(node) through the graph rooted at `loss`.

    Gradients accumulate into .grad of every tensor that requires them;
    repeated calls without zeroing keep accumulating. Returns the gradient
    map for the graph's leaves (tensors without parents) that received a
    gradient. Raises GradientError on a non-scalar or non-finite loss, or
    when backprop produces a non-finite gradient (naming the op).
    """
    if loss.size != 1:
        raise GradientError(f"backward requires a scalar loss, got shape {loss.shape}")
    if not np.all(np.isfinite(loss.data)):
        raise GradientError("backward called on a non-finite loss")
    if not loss.requires_grad:
        return {}

    order = _topo_order(loss)
    loss._ensure_grad()
    loss.grad += np.ones_like(loss.data)
    for node in reversed(order):
        if node._backward is not None and node.grad is not None:
            node._backward(node.grad)

    leaves = [n for n in order if not n._parents and n.requires_grad and n.grad is not None]
    if not all(np.isfinite(leaf.grad).all() for leaf in leaves):
        _diagnose_bad_gradient(loss, order)
    return {leaf: leaf.grad for leaf in leaves}


def _diagnose_bad_gradient(loss: Tensor, order: List[Tensor]) -> None:
    """Replay the backward pass one op at a time to name the op whose
    backward rule produced the first non-finite gradient; inside an mlp
    node, the layer and the rule. Only runs on the failure path; it resets
    the graph's gradients before replaying."""
    for node in order:
        node.grad = None
    loss._ensure_grad()
    loss.grad += np.ones_like(loss.data)
    for node in reversed(order):
        if node._backward is None or node.grad is None:
            continue
        if node.op == "mlp":
            node._backward(node.grad, diagnose=True)
        else:
            node._backward(node.grad)
        for parent in node._parents:
            if parent.grad is not None and not np.all(np.isfinite(parent.grad)):
                where = f" into tensor {parent.name!r}" if parent.name else ""
                raise GradientError(
                    f"non-finite gradient produced by op {node.op!r}{where}")
    raise GradientError("non-finite gradient of unknown origin")


# floats per vectorized Adam update: long enough that ufunc call overhead
# vanishes, short enough that the update's operands stay in cache
_ADAM_CHUNK = 1 << 16


class Adam:
    """Adam with bias correction over a fixed list of parameters.

    At construction the parameters are copied into one float32 buffer, and
    each parameter's .data, m and v become views of it (and of two moment
    buffers of the same layout). A parameter's .data must therefore be
    updated in place, never rebound, while the optimizer is in use.

    State is one (m, v) pair per parameter plus a shared step counter,
    incremented before bias correction. step() updates each run of
    consecutive parameters whose .grad is set with one pass of the update's
    float32 ops per chunk of at most _ADAM_CHUNK floats. Parameters whose
    .grad is None are skipped entirely (their moments do not decay), so a
    zero-gradient step from a fresh state leaves everything untouched.
    """

    def __init__(self, params: Sequence[Tensor], lr: float = 3e-4,
                 beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self.params = list(params)
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        sizes = [p.data.size for p in self.params]
        self._offsets = np.cumsum([0] + sizes).tolist()
        self._size = self._offsets[-1]
        self._flat = np.empty(self._size, dtype=np.float32)
        self._m = np.zeros(self._size, dtype=np.float32)
        self._v = np.zeros(self._size, dtype=np.float32)
        self.m: List[np.ndarray] = []
        self.v: List[np.ndarray] = []
        for p, lo, hi in zip(self.params, self._offsets, self._offsets[1:]):
            shape = p.data.shape
            self._flat[lo:hi] = p.data.reshape(-1)
            p.data = self._flat[lo:hi].reshape(shape)
            self.m.append(self._m[lo:hi].reshape(shape))
            self.v.append(self._v[lo:hi].reshape(shape))
        # the update's two scratch buffers; step() runs one chunk at a time
        self._scratch = np.empty((2, min(_ADAM_CHUNK, self._size)), dtype=np.float32)

    def _chunks(self):
        """(lo, hi, pieces) for every chunk of every run of consecutive
        parameters whose .grad is set: a flat range of at most _ADAM_CHUNK
        floats and the gradients, or raveled slices of them, covering it."""
        lo, pieces = 0, []
        for p, off in zip(self.params, self._offsets):
            g = p.grad
            if g is None:
                if pieces:
                    yield lo, off, pieces
                    pieces = []
                continue
            if not pieces:
                lo = off
            end = off + g.size
            if end - lo <= _ADAM_CHUNK:
                pieces.append(g)
                continue
            g, cut = g.reshape(-1), 0
            while end - lo > _ADAM_CHUNK:
                nxt = lo + _ADAM_CHUNK - off
                if nxt > cut:
                    pieces.append(g[cut:nxt])
                yield lo, lo + _ADAM_CHUNK, pieces
                pieces, cut, lo = [], nxt, lo + _ADAM_CHUNK
            if cut < g.size:
                pieces.append(g[cut:])
        if pieces:
            yield lo, self._size, pieces

    def step(self) -> None:
        """m = b1*m + (1-b1)*g; v = b2*v + (1-b2)*g*g;
        p -= lr * (m/bc1) / (sqrt(v/bc2) + eps) -- evaluated in place, with
        the float32 operations of that expression in the same order."""
        self.t += 1
        b1 = np.float32(self.beta1)
        b2 = np.float32(self.beta2)
        one = np.float32(1.0)
        c1 = one - b1
        c2 = one - b2
        bc1 = np.float32(1.0 - self.beta1 ** self.t)
        bc2 = np.float32(1.0 - self.beta2 ** self.t)
        lr = np.float32(self.lr)
        eps = np.float32(self.eps)
        for lo, hi, pieces in self._chunks():
            s, d = self._scratch[:, :hi - lo]
            # the gradient is last read before d is first written
            if len(pieces) == 1:
                g = pieces[0].reshape(-1)
            else:
                g = np.concatenate(pieces, axis=None, out=d)
            m = self._m[lo:hi]
            v = self._v[lo:hi]
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
            self._flat[lo:hi] -= s

    def zero_grad(self) -> None:
        for p in self.params:
            p.grad = None

    def load_state(self, moments: Sequence[Tuple[np.ndarray, np.ndarray]], t: int) -> None:
        if len(moments) != len(self.params):
            raise ValueError(f"Adam state has {len(moments)} entries for "
                             f"{len(self.params)} parameters")
        for i, (m, v) in enumerate(moments):
            p = self.params[i]
            if m.shape != p.data.shape or v.shape != p.data.shape:
                raise ShapeError(f"Adam moment shapes {m.shape} and {v.shape} "
                                 f"do not match parameter {p.name!r} of shape "
                                 f"{p.data.shape}")
            self.m[i][...] = m
            self.v[i][...] = v
        self.t = int(t)
