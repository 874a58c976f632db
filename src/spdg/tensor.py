"""Dense tensor math with tape-based reverse-mode automatic differentiation.

A Tensor always holds float64. float32 is a storage format in blob files and
the precision of one node's inner block: the domain loss forms its N x N
similarity block in float32 but promotes its sums, so its value and gradient
are float64 like every other node's. `apply` is the one way to define a
differentiable operation: it records a fused node, a forward result plus a
closed-form backward, on the active Tape. A Tape keeps its nodes in creation
order (already topological); `Tape.backward(loss, leaves)` walks them in reverse,
accumulating vector-Jacobian products, and returns the gradient of each leaf.
A node may have several outputs (a fused node that yields, say, mu and sigma
together), in which case its backward receives one gradient per output. One
backward pass per scalar loss is the only mode; there are no higher-order ones.

Evaluation is single-threaded and row-major, so results are bit-reproducible
for a fixed input and evaluation order.
"""

from __future__ import annotations

import threading

import numpy as np

from .errors import DegenerateVectorError, GradCheckError, ShapeError

EPS_NORM = 1e-12
FD_STEP = 1e-5   # the central-difference step of finite_diff_grad_check

_state = threading.local()


def _active_tape() -> "Tape | None":
    return getattr(_state, "tape", None)


class Tensor:
    """A dense float64 array, the value a tape node is keyed by.

    Values are immutable by convention once produced; training code mutates
    parameter data only through the optimizer, in place and between tapes.
    """

    __slots__ = ("data",)

    def __init__(self, data):
        self.data = np.asarray(data, dtype=np.float64)

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
        return f"Tensor(shape={self.shape})"


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

    def backward(self, loss: Tensor, leaves) -> list[np.ndarray]:
        """The gradient of a scalar `loss` with respect to each of `leaves`, in order.

        Each gradient is a fresh array of its leaf's shape, zeros where the loss
        does not reach the leaf. Nothing is stored on the tensors, so a call
        neither reads nor changes an earlier one's result.
        """
        if loss.size != 1:
            raise ShapeError(f"backward needs a scalar loss, got shape {loss.shape}")

        grads: dict[int, np.ndarray] = {id(loss): np.ones_like(loss.data)}
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
                if g is None:
                    continue
                if g.shape != t.data.shape:
                    raise ShapeError(
                        f"backward produced grad shape {g.shape} for input shape {t.data.shape}"
                    )
                key = id(t)
                grads[key] = grads[key] + g if key in grads else g

        # whatever is left was never popped, i.e. produced by no node: leaves
        if not self._produced.isdisjoint(grads):
            raise AssertionError("interior node survived the backward walk")
        return [np.array(grads[id(p)], copy=True) if id(p) in grads else np.zeros_like(p.data)
                for p in leaves]


def apply(out_data: np.ndarray, inputs, backward_fn) -> Tensor:
    """Wrap a fused node's forward result, recording it on the active tape.

    `backward_fn(g)` must return one gradient array (or None) per input.
    A tuple of arrays makes one node with a Tensor per array; `g` is then a
    tuple holding one gradient per output. Every node made under a tape is
    recorded, so a node lists as inputs only what needs a gradient. Every
    differentiable operation, here and in other modules, is defined through this hook.
    """
    out = tuple(Tensor(d) for d in out_data) if type(out_data) is tuple else Tensor(out_data)
    tape = _active_tape()
    if tape is not None:
        tape.record(out, tuple(inputs), backward_fn)
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


def finite_diff_grad_check(f, leaves) -> list[float]:
    """Per leaf, the worst |analytic - numeric| / max(1, |numeric|) over its coordinates,
    between the gradient of one tape's backward and the central difference.

    `f` maps the leaves, as positional Tensors, to a scalar Tensor. Each coordinate
    is moved by +-FD_STEP in turn on a private copy of its leaf, the other leaves
    kept as they are; no leaf is written.
    """
    leaves = list(leaves)
    with Tape() as tape:
        loss = f(*leaves)
    if loss.size != 1:
        raise ShapeError(f"grad check needs a scalar-valued f, got shape {loss.shape}")
    if not np.isfinite(loss.data).all():
        raise GradCheckError("f returned a non-finite value at the base point")

    errors = []
    for k, analytic in enumerate(tape.backward(loss, leaves)):
        moved = Tensor(np.array(leaves[k].data, copy=True))
        args = leaves[:k] + [moved] + leaves[k + 1:]
        flat = moved.data.reshape(-1)
        numeric = np.empty(flat.size, dtype=np.float64)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + FD_STEP
            fp = f(*args).item()
            flat[i] = orig - FD_STEP
            fm = f(*args).item()
            flat[i] = orig
            if not (np.isfinite(fp) and np.isfinite(fm)):
                raise GradCheckError(f"f returned a non-finite value at coordinate {i} of leaf {k}")
            numeric[i] = (fp - fm) / (2.0 * FD_STEP)
        err = np.abs(analytic.reshape(-1) - numeric) / np.maximum(1.0, np.abs(numeric))
        errors.append(float(err.max()) if err.size else 0.0)
    return errors
