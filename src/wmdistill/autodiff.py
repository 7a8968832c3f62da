"""Dense float32 tensors with reverse-mode automatic differentiation and Adam.

The operation set is deliberately small: matmul, a fused linear layer
(x @ w + b), elementwise add/sub/mul, scalar scaling, mean, square,
tanh/mish, column and row concatenation and a fused, optionally
row-weighted MSE. Shapes are strict --
elementwise ops require identical shapes, except that a 1-d tensor may
broadcast against the rows of a 2-d batch (bias addition). Everything else
raises ShapeError with both shapes in the message.

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

    def zero_grad(self) -> None:
        self.grad = None

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

    # Binary ops delegate to the module-level functions below.
    def __add__(self, other: "Tensor") -> "Tensor":
        return add(self, other)

    def __sub__(self, other: "Tensor") -> "Tensor":
        return sub(self, other)

    def __mul__(self, other: "Tensor") -> "Tensor":
        return mul(self, other)

    def __matmul__(self, other: "Tensor") -> "Tensor":
        return matmul(self, other)

    def __neg__(self) -> "Tensor":
        return scale(self, -1.0)


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


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """x @ w + b in one node: the arithmetic of add(matmul(x, w), b)."""
    if (x.data.ndim != 2 or w.data.ndim != 2 or x.shape[1] != w.shape[0]
            or b.shape != (w.shape[1],)):
        raise ShapeError(f"linear: shapes {x.shape}, {w.shape} and {b.shape} "
                         "do not conform")
    y = x.data @ w.data
    y += b.data
    out = _result(y, "linear", (x, w, b))
    if out.requires_grad:
        def _bw(g: np.ndarray) -> None:
            if x.requires_grad:
                x._accumulate(g @ w.data.T)
            if w.requires_grad:
                w._accumulate(x.data.T @ g)
            if b.requires_grad:
                b._accumulate(g.sum(axis=0))
        out._backward = _bw
    return out


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
            a._accumulate(g * (np.float32(1.0) - y * y))
        out._backward = _bw
    return out


def tanh_np(x: np.ndarray) -> np.ndarray:
    return np.tanh(x)


def _mish_parts(x: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """tanh(softplus(x)) and sigmoid(x) from a single exp.

    With e = exp(x), tanh(log1p(e)) = e(e+2) / (e(e+2) + 2) -- no
    cancellation, and it saturates to exactly 1.0 for large x. The input is
    clipped at 20 so e^2 cannot overflow float32; beyond that point both
    factors are already exactly 1.0f.
    """
    e = np.exp(np.minimum(x, np.float32(20.0)))
    num = e * (e + np.float32(2.0))
    t = num / (num + np.float32(2.0))
    sig = e / (e + np.float32(1.0))
    return t, sig


def mish(a: Tensor) -> Tensor:
    # mish(x) = x * tanh(softplus(x))
    t, sig = _mish_parts(a.data)
    out = _result(a.data * t, "mish", (a,))
    if out.requires_grad:
        def _bw(g: np.ndarray) -> None:
            a._accumulate(g * (t + a.data * (np.float32(1.0) - t * t) * sig))
        out._backward = _bw
    return out


def mish_np(x: np.ndarray) -> np.ndarray:
    """Forward-only mish in two buffers: the ops and order of
    x * _mish_parts(x)[0], without the sigmoid the backward needs."""
    e = np.minimum(x, np.float32(20.0))
    np.exp(e, out=e)
    t = e + np.float32(2.0)
    t *= e                               # num = e * (e + 2)
    np.add(t, np.float32(2.0), out=e)
    t /= e                               # tanh(softplus(x)) = num / (num + 2)
    t *= x
    return t


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
            if id(p) not in visited:
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
    if not all(np.all(np.isfinite(leaf.grad)) for leaf in leaves):
        _diagnose_bad_gradient(loss, order)
    return {leaf: leaf.grad for leaf in leaves}


def _diagnose_bad_gradient(loss: Tensor, order: List[Tensor]) -> None:
    """Replay the backward pass one op at a time to name the op whose
    backward rule produced the first non-finite gradient. Only runs on the
    failure path; it resets the graph's gradients before replaying."""
    for node in order:
        node.grad = None
    loss._ensure_grad()
    loss.grad += np.ones_like(loss.data)
    for node in reversed(order):
        if node._backward is None or node.grad is None:
            continue
        node._backward(node.grad)
        for parent in node._parents:
            if parent.grad is not None and not np.all(np.isfinite(parent.grad)):
                where = f" into tensor {parent.name!r}" if parent.name else ""
                raise GradientError(
                    f"non-finite gradient produced by op {node.op!r}{where}")
    raise GradientError("non-finite gradient of unknown origin")


class Adam:
    """Adam with bias correction over a fixed list of parameters.

    State is one (m, v) pair per parameter plus a shared step counter,
    incremented before bias correction. Parameters whose .grad is None are
    skipped entirely (their moments do not decay), so a zero-gradient step
    from a fresh state leaves everything untouched.
    """

    def __init__(self, params: Sequence[Tensor], lr: float = 3e-4,
                 beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self.params = list(params)
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.m = [np.zeros_like(p.data) for p in self.params]
        self.v = [np.zeros_like(p.data) for p in self.params]
        # two scratch views per parameter, all backed by one pair of buffers
        # the size of the largest parameter; step() runs sequentially
        size = max((p.data.size for p in self.params), default=0)
        flat = np.empty((2, size), dtype=np.float32)
        self._scratch = [(flat[0, :p.data.size].reshape(p.data.shape),
                          flat[1, :p.data.size].reshape(p.data.shape))
                         for p in self.params]

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
        for p, m, v, (s, d) in zip(self.params, self.m, self.v, self._scratch):
            g = p.grad
            if g is None:
                continue
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

    def zero_grad(self) -> None:
        for p in self.params:
            p.grad = None

    def state_arrays(self) -> List[Tuple[np.ndarray, np.ndarray]]:
        return list(zip(self.m, self.v))

    def load_state(self, moments: Sequence[Tuple[np.ndarray, np.ndarray]], t: int) -> None:
        if len(moments) != len(self.params):
            raise ValueError(f"Adam state has {len(moments)} entries for "
                             f"{len(self.params)} parameters")
        for i, (m, v) in enumerate(moments):
            if m.shape != self.params[i].data.shape:
                raise ShapeError(f"Adam moment shape {m.shape} does not match "
                                 f"parameter shape {self.params[i].data.shape}")
            self.m[i] = m.astype(np.float32).copy()
            self.v[i] = v.astype(np.float32).copy()
        self.t = int(t)
