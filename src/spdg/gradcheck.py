"""Gradient verification suite: every fused node that ships, from
l2_normalize to the training-step nodes, against central finite differences,
plus the full training objective, the trainer's own `step_losses`, on a
small fixture.

The fixture freezes one Monte Carlo draw so the objective is a deterministic
function of the prompter parameters, which is what finite differencing needs.
Both checks run the domain loss in float64, since a central difference cannot
resolve the rounding of the float32 block that training uses.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .encoders import EncoderDims, build_bundle, default_vocab, encode_image, encode_text_batch
from .errors import ConfigError
from .losses import (
    LossParts,
    LossWeights,
    build_reg_anchors,
    classification_head,
    domain_discrimination_loss,
    total_loss,
)
from .prompter import (
    StylePrompter,
    basic_forward,
    gaussian_forward,
    init_basic_prompter,
    init_gaussian_prompter,
    sample_styles_batch,
)
from .tensor import Tensor, finite_diff_grad_check
from .trainer import step_losses


def _layout(shapes) -> tuple[tuple[int, int, tuple], ...]:
    """(start, stop, shape) of consecutive pieces of a flat vector, one per shape."""
    bounds = np.cumsum([0] + [int(np.prod(s)) for s in shapes]).tolist()
    return tuple(zip(bounds, bounds[1:], shapes))


def _split(x: Tensor, layout) -> tuple[Tensor, ...]:
    """The pieces of a flat x at a precomputed _layout, as one multi-output node."""
    pieces = tuple(x.data[a:b].reshape(s) for a, b, s in layout)
    return T.apply(pieces, (x,), lambda g: (np.concatenate([gi.reshape(-1) for gi in g]),))


def _shift(x: Tensor, c: np.ndarray) -> Tensor:
    """x + c for a constant c of x's shape, as one node with the identity backward."""
    return T.apply(x.data + c, (x,), lambda g: (g,))


def _weighted(outs, weights) -> Tensor:
    """sum_k sum(outs[k] * weights[k]), a scalar probe of several outputs, as one node."""
    value = sum(float((out.data * w).sum()) for out, w in zip(outs, weights))
    return T.apply(np.asarray(value), tuple(outs), lambda g: tuple(g * w for w in weights))


def _prompter_case(init, forward, z_shape):
    """x holds z (shape z_shape), then every prompter parameter, flattened."""
    p = init(4, 3, seed=0)
    layout = _layout((z_shape,) + tuple(t.shape for _, t in p.parameters()))
    n_out = len(p.names[4:]) // 2   # one output per head: the (weight, bias) pairs past the trunk
    out_shape = z_shape[:-1] + (3,)

    def make(rng):
        w = [rng.normal(size=out_shape) for _ in range(n_out)]

        def f(x):
            z, *params = _split(x, layout)
            out = forward(StylePrompter(p.kind, dict(zip(p.names, params))), z)
            return _weighted(out if n_out > 1 else (out,), w)
        return f

    return (forward.__name__, (layout[-1][1],), make)


def _head_case(with_reg: bool):
    """x is (B*C, d) prompted features: B = 2 images, C = 3 classes, d = 4."""
    def make(rng):
        unit_z = rng.normal(size=(2, 4))
        unit_z /= np.linalg.norm(unit_z, axis=1, keepdims=True)
        labels = rng.integers(0, 3, size=2)
        anchors = rng.normal(size=(3, 4)) if with_reg else None
        w = rng.normal(size=2)

        def f(x):
            # a feature row of norm about 3: far from the degenerate check
            out = classification_head(_shift(x, np.full((6, 4), 1.5)), unit_z, labels, 3.0, anchors)
            return _weighted(out if with_reg else (out,), w)
        return f

    return ("classification_head" + ("" if with_reg else "_ce_only"), (6, 4), make)


def _primitive_cases():
    """(name, input shape, builder) per fused node that ships here.

    Each builder closes over a seeded rng for its constants and returns a
    scalar-valued function of one Tensor.
    """

    # class names of one, two and three words: three prompt lengths
    prompt_classes = ["dog", "hot dog", "big red bus"]
    prompt_bundle = build_bundle(EncoderDims(), default_vocab(prompt_classes), seed=5)
    d_t, d_f = prompt_bundle.dims.d_t, prompt_bundle.dims.d_f
    styles_layout = _layout(((2, 3), (2, 3)))
    parts_layout = _layout(((), (), ()))

    # constants are bound as lambda defaults so each f is a fixed function of
    # x; drawing inside the body would change the function between the base
    # evaluation and the perturbed ones
    return [
        ("l2_normalize", (3, 4), lambda rng: (lambda x, s=np.sign(rng.normal(size=(3, 4))) * 2.0, w=rng.normal(size=(3, 4)):
                                              _weighted([T.l2_normalize(_shift(x, s))], [w]))),
        ("domain_discrimination_loss", (8, 3), lambda rng: (lambda x, dom=np.array([0, 1, 2, 0, 1, 2, 0, 1]):
                                                            domain_discrimination_loss(T.l2_normalize(x), dom, 0.5, dtype=np.float64))),
        ("encode_text_batch", (3, d_t), lambda rng: (lambda x, w=rng.normal(size=(9, d_f)):
                                                     _weighted([encode_text_batch(prompt_bundle, x, prompt_classes)], [w]))),
        _prompter_case(init_basic_prompter, basic_forward, (2, 4)),
        _prompter_case(init_gaussian_prompter, gaussian_forward, (4,)),
        ("sample_styles_batch", (2 * 2 * 3,), lambda rng: (
            lambda x, eps=Tensor(rng.normal(size=(6, 3))), w=rng.normal(size=(6, 3)):
            _weighted([sample_styles_batch(*_split(x, styles_layout), 3, None, eps=eps)], [w]))),
        _head_case(with_reg=True),
        _head_case(with_reg=False),
        ("total_loss", (3,), lambda rng: (lambda x: total_loss(
            LossParts(*_split(x, parts_layout)), LossWeights(w_d=0.3, w_reg=2.0, ce_scale=1.5)))),
    ]


def run_primitive_checks(n_inputs: int = 100, cases=None) -> dict[str, float]:
    """Worst finite-difference relative error per case over n_inputs seeded inputs.

    `cases` defaults to the fused nodes that ship here.
    """
    if n_inputs < 1:
        raise ConfigError(f"a gradient check needs at least one input per case, got {n_inputs}")
    results: dict[str, float] = {}
    for name, shape, make in _primitive_cases() if cases is None else cases:
        worst = 0.0
        for seed in range(n_inputs):
            rng = np.random.default_rng([911, seed])
            f = make(rng)
            x = Tensor(rng.normal(size=shape))
            worst = max(worst, finite_diff_grad_check(f, x))
        results[name] = worst
    return results


@dataclass
class ObjectiveFixture:
    bundle: object
    prompter: StylePrompter
    z: np.ndarray
    labels: np.ndarray
    domains: np.ndarray
    eps: Tensor
    anchors: object
    weights: LossWeights
    mc_samples: int
    classes: list[str]


def build_objective_fixture(batch: int = 8, n_classes: int = 4, n_domains: int = 3,
                            mc_samples: int = 4, seed: int = 2024) -> ObjectiveFixture:
    rng = np.random.default_rng(seed)
    dims = EncoderDims()
    classes = ["dog", "elephant", "guitar", "horse"][:n_classes]
    bundle = build_bundle(dims, default_vocab(classes), seed=seed)
    x = rng.normal(size=(batch, dims.d_x))
    z = encode_image(bundle, x)
    labels = rng.integers(0, n_classes, size=batch)
    # two samples per domain minimum, then round-robin
    domains = np.array([i % n_domains for i in range(batch)], dtype=np.int64)
    prompter = init_gaussian_prompter(dims.d_i, dims.d_t, seed=seed + 1)
    eps = Tensor(rng.standard_normal((batch * mc_samples, dims.d_t)))
    anchors = build_reg_anchors(bundle, classes)
    return ObjectiveFixture(bundle=bundle, prompter=prompter, z=z, labels=labels,
                            domains=domains, eps=eps, anchors=anchors,
                            weights=LossWeights(), mc_samples=mc_samples,
                            classes=classes)


def objective_value(fx: ObjectiveFixture, prompter: StylePrompter) -> Tensor:
    """The trainer's step objective on the fixture, at its frozen Monte Carlo draw,
    with the domain loss in float64: finite differences cannot resolve float32 rounding."""
    return step_losses(fx.bundle, prompter, fx.z, fx.labels, fx.domains, fx.classes,
                       fx.anchors, fx.weights, fx.mc_samples, None, eps=fx.eps,
                       dtype=np.float64)[0]


def run_objective_check(fixture: ObjectiveFixture | None = None,
                        h: float = 1e-5) -> tuple[dict[str, float], float]:
    """Check d(objective)/d(param) for every prompter parameter tensor.

    Returns (per-parameter max relative error, elapsed seconds).
    """
    fx = fixture if fixture is not None else build_objective_fixture()
    start = time.perf_counter()
    errors: dict[str, float] = {}
    names = [name for name, _ in fx.prompter.parameters()]
    for name in names:
        def f(x: Tensor, name=name) -> Tensor:
            stand_in = StylePrompter(fx.prompter.kind, {
                k: (x if k == name else v) for k, v in fx.prompter.parameters()})
            return objective_value(fx, stand_in)

        errors[name] = finite_diff_grad_check(f, dict(fx.prompter.parameters())[name], h=h)
    return errors, time.perf_counter() - start
