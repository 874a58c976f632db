"""Dense tensor math with tape-based reverse-mode automatic differentiation.

A Tensor always holds float64. float32 is a storage format in blob files and
the precision of one node's inner block: the domain loss forms its N x N
similarity block in float32 but promotes its sums, so its value and gradient
are float64 like every other node's. `apply` is the one way to define a
differentiable operation: it records a fused node, a forward result plus a
closed-form backward, on the active Tape. A Tape keeps its nodes in creation order (already topological),
and `Tape.backward` walks that list in reverse, accumulating vector-Jacobian
products into the requires_grad leaves. A node may have several outputs (a
fused node that yields, say, mu and sigma together), in which case its
backward receives one gradient per output. A single backward pass per scalar
loss is the only supported mode; there are no higher-order derivatives.

Evaluation is single-threaded and row-major, so results are bit-reproducible
for a fixed input and evaluation order.
"""

from __future__ import annotations

import threading

import numpy as np

from .errors import DegenerateVectorError, GradCheckError, ShapeError

EPS_NORM = 1e-12

_state = threading.local()


def _active_tape() -> "Tape | None":
    return getattr(_state, "tape", None)


class Tensor:
    """A dense array plus an optional gradient slot.

    Values are immutable by convention once produced; training code mutates
    parameter data only through the optimizer, in place and between tapes.
    """

    __slots__ = ("data", "requires_grad", "grad")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeError(f"item() needs a scalar, got shape {self.shape}")
        return float(self.data.reshape(()))

    def __repr__(self):
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{flag})"


class Tape:
    """Ordered record of fused nodes for one backward pass.

    Nodes are appended at creation time, so the list is topologically sorted
    by construction: every node's inputs were produced earlier or are leaves.
    """

    def __init__(self):
        self._nodes: list[tuple[Tensor | tuple[Tensor, ...], tuple[Tensor, ...], object]] = []
        self._produced: set[int] = set()
        self._prev = None

    def __enter__(self) -> "Tape":
        self._prev = _active_tape()
        _state.tape = self
        return self

    def __exit__(self, *exc):
        _state.tape = self._prev
        return False

    def __len__(self) -> int:
        return len(self._nodes)

    def record(self, out, inputs: tuple[Tensor, ...], backward_fn):
        self._nodes.append((out, inputs, backward_fn))
        for t in out if type(out) is tuple else (out,):
            self._produced.add(id(t))

    def backward(self, loss: Tensor, leaves: "list[Tensor] | None" = None):
        """Populate .grad on every requires_grad leaf reachable from `loss`.

        Leaves passed explicitly receive a zero gradient when the loss does
        not depend on them. Gradients are fresh per call, not accumulated
        across calls.
        """
        if loss.size != 1:
            raise ShapeError(f"backward needs a scalar loss, got shape {loss.shape}")
        if leaves is not None:
            for p in leaves:
                p.grad = None

        grads: dict[int, np.ndarray] = {id(loss): np.ones_like(loss.data)}
        holders: dict[int, Tensor] = {id(loss): loss}
        for out, inputs, backward_fn in reversed(self._nodes):
            if type(out) is tuple:
                parts = [grads.pop(id(t), None) for t in out]
                if all(g is None for g in parts):
                    continue
                # an output the loss does not reach contributes a zero gradient
                g_out = tuple(np.zeros_like(t.data) if g is None else g
                              for t, g in zip(out, parts))
            else:
                g_out = grads.pop(id(out), None)
                if g_out is None:
                    continue
            for t, g in zip(inputs, backward_fn(g_out)):
                if g is None or not t.requires_grad:
                    continue
                if g.shape != t.data.shape:
                    raise ShapeError(
                        f"backward produced grad shape {g.shape} for input shape {t.data.shape}"
                    )
                key = id(t)
                if key in grads:
                    grads[key] = grads[key] + g
                else:
                    grads[key] = g
                    holders[key] = t

        # whatever is left was never popped, i.e. produced by no node: leaves
        for key, g in grads.items():
            t = holders[key]
            if id(t) in self._produced:
                raise AssertionError("interior node survived the backward walk")
            t.grad = np.array(g, copy=True)

        if leaves is not None:
            for p in leaves:
                if p.grad is None:
                    p.grad = np.zeros_like(p.data)


def apply(out_data: np.ndarray, inputs, backward_fn) -> Tensor:
    """Wrap a fused node's forward result, recording it on the active tape.

    `backward_fn(g)` must return one gradient array (or None) per input.
    A tuple of arrays makes one node with a Tensor per array; `g` is then a
    tuple holding one gradient per output. Every differentiable operation,
    here and in other modules, is defined through this hook.
    """
    tape = _active_tape()
    inputs = tuple(inputs)
    track = tape is not None and any(t.requires_grad for t in inputs)
    if type(out_data) is tuple:
        out = tuple(Tensor(d, requires_grad=track) for d in out_data)
    else:
        out = Tensor(out_data, requires_grad=track)
    if track:
        tape.record(out, inputs, backward_fn)
    return out


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Logistic function, evaluated without overflow for large |x|."""
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def affine(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    """x @ w + b, the bias added in place on the GEMM's output."""
    out = x @ w
    out += b
    return out


def elu(x: np.ndarray) -> np.ndarray:
    """Exponential linear unit with alpha fixed at 1, in place: x becomes and is returned as
    expm1(min(x, 0)) + max(x, 0), which is where(x > 0, x, expm1(x)) up to the sign of a zero."""
    pos = np.maximum(x, 0.0)
    np.expm1(np.minimum(x, 0.0, out=x), out=x)
    x += pos
    return x


def elu_slope(h: np.ndarray) -> np.ndarray:
    """Derivative of elu where its output is h: 1 where h > 0, else exp(x) = h + 1."""
    slope = np.minimum(h, 0.0)
    slope += 1.0
    return slope


def checked_norms(v: np.ndarray, what: str) -> np.ndarray:
    """Euclidean norm of each last-axis slice of v, of shape v.shape[:-1].

    Norms at or below EPS_NORM, and NaN or infinite norms, are treated as
    degenerate and raise instead of being clamped; silent clamping would hide
    a collapsed style embedding or a dead feature. A NaN fails both bounds.
    """
    norms = np.sqrt(np.vecdot(v, v))
    flat = norms.reshape(-1)
    if flat.size and not (np.minimum.reduce(flat) > EPS_NORM and np.maximum.reduce(flat) < np.inf):
        raise DegenerateVectorError(f"{what} has a norm <= {EPS_NORM} or a non-finite norm")
    return norms


def unit_rows(v: np.ndarray, what: str) -> tuple[np.ndarray, np.ndarray]:
    """Each last-axis slice of v scaled to unit norm, and the checked norms (keepdims)."""
    norms = checked_norms(v, what)[..., None]
    return v / norms, norms


def l2_normalize(a: Tensor) -> Tensor:
    """Scale each last-axis slice to unit Euclidean norm; see unit_rows."""
    out, norms = unit_rows(a.data, "l2_normalize input")

    def bwd(g):
        grad = out * np.vecdot(g, out)[..., None]
        np.subtract(g, grad, out=grad)
        grad /= norms
        return (grad,)

    return apply(out, (a,), bwd)


def finite_diff_grad_check(f, x: Tensor, h: float = 1e-5) -> float:
    """Max relative error between analytic and central-difference gradients.

    The relative error per coordinate is |analytic - numeric| divided by
    max(1, |numeric|). `f` must map a Tensor to a scalar Tensor and be
    evaluable at x +- h along every coordinate.
    """
    probe = Tensor(np.array(x.data, dtype=np.float64, copy=True), requires_grad=True)
    with Tape() as tape:
        loss = f(probe)
    if loss.size != 1:
        raise ShapeError(f"grad check needs a scalar-valued f, got shape {loss.shape}")
    if not np.isfinite(loss.data).all():
        raise GradCheckError("f returned a non-finite value at the base point")
    tape.backward(loss, leaves=[probe])
    analytic = probe.grad.reshape(-1)

    base = np.array(x.data, dtype=np.float64, copy=True)
    numeric = np.empty(base.size, dtype=np.float64)
    flat = base.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        fp = f(Tensor(base)).item()
        flat[i] = orig - h
        fm = f(Tensor(base)).item()
        flat[i] = orig
        if not (np.isfinite(fp) and np.isfinite(fm)):
            raise GradCheckError(f"f returned a non-finite value at coordinate {i}")
        numeric[i] = (fp - fm) / (2.0 * h)

    err = np.abs(analytic - numeric) / np.maximum(1.0, np.abs(numeric))
    return float(err.max()) if err.size else 0.0
