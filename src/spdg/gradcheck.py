"""Gradient verification suite: every fused node that ships, from
l2_normalize to the training-step nodes, against central finite differences,
plus the full training objective, the trainer's own `step_losses`, on a
small fixture.

A case names the shapes of its node's inputs, the leaves of one
`finite_diff_grad_check` pass; the objective's leaves are the prompter's parameters.
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
from .losses import LossWeights, build_reg_anchors, classification_head, domain_discrimination_loss, total_loss
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

# grad-check's bounds on the worst relative error of a fused node and of the objective
PRIMITIVE_TOL = 1e-6
OBJECTIVE_TOL = 1e-4


def _shift(x: Tensor, c: np.ndarray) -> Tensor:
    """x + c for a constant c of x's shape, as one node with the identity backward."""
    return T.apply(x.data + c, (x,), lambda g: (g,))


def _weighted(outs, weights) -> Tensor:
    """sum_k sum(outs[k] * weights[k]), a scalar probe of several outputs, as one node."""
    value = sum(float((out.data * w).sum()) for out, w in zip(outs, weights))
    return T.apply(np.asarray(value), tuple(outs), lambda g: tuple(g * w for w in weights))


def _prompter_case(init, forward, z_shape):
    """The leaves are the prompter's parameters; the image features z, of
    shape z_shape, are a constant."""
    p = init(4, 3, seed=0)
    n_out = len(p.names[4:]) // 2   # one output per head: the (weight, bias) pairs past the trunk

    def make(rng):
        w = [rng.normal(size=z_shape[:-1] + (3,)) for _ in range(n_out)]
        z = rng.normal(size=z_shape)

        def f(*params):
            out = forward(StylePrompter(p.kind, dict(zip(p.names, params))), z)
            return _weighted(out if n_out > 1 else (out,), w)
        return f

    return (forward.__name__, [t.shape for _, t in p.parameters()], make)


def _head_case(with_reg: bool):
    """The leaf is (B*C, d) prompted features: B = 2 images, C = 3 classes, d = 4."""
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

    return ("classification_head" + ("" if with_reg else "_ce_only"), [(6, 4)], make)


def _primitive_cases():
    """(name, leaf shapes, builder) per fused node that ships here. Each builder closes
    over a seeded rng for its constants and returns a scalar-valued function of one
    Tensor per leaf shape."""

    # class names of one, two and three words: three prompt lengths
    prompt_classes = ["dog", "hot dog", "big red bus"]
    prompt_bundle = build_bundle(EncoderDims(), default_vocab(prompt_classes), seed=5)
    d_t, d_f = prompt_bundle.dims.d_t, prompt_bundle.dims.d_f

    # constants are bound as lambda defaults so each f is a fixed function of
    # its leaves; drawing inside the body would change the function between the
    # base evaluation and the perturbed ones
    return [
        ("l2_normalize", [(3, 4)], lambda rng: (lambda x, s=np.sign(rng.normal(size=(3, 4))) * 2.0, w=rng.normal(size=(3, 4)):
                                                _weighted([T.l2_normalize(_shift(x, s))], [w]))),
        ("domain_discrimination_loss", [(8, 3)], lambda rng: (lambda x, dom=np.array([0, 1, 2, 0, 1, 2, 0, 1]):
                                                              domain_discrimination_loss(T.l2_normalize(x), dom, 0.5, dtype=np.float64))),
        ("encode_text_batch", [(3, d_t)], lambda rng: (lambda x, w=rng.normal(size=(9, d_f)):
                                                       _weighted([encode_text_batch(prompt_bundle, x, prompt_classes)], [w]))),
        _prompter_case(init_basic_prompter, basic_forward, (2, 4)),
        _prompter_case(init_gaussian_prompter, gaussian_forward, (4,)),
        ("sample_styles_batch", [(2, 3), (2, 3)], lambda rng: (
            lambda mu, sigma, eps=rng.normal(size=(6, 3)), w=rng.normal(size=(6, 3)):
            _weighted([sample_styles_batch(mu, sigma, eps)], [w]))),
        _head_case(with_reg=True),
        _head_case(with_reg=False),
        ("total_loss", [(), (), ()], lambda rng: (lambda *parts: total_loss(
            LossWeights(w_d=0.3, w_reg=2.0, ce_scale=1.5), *parts))),
    ]


def run_primitive_checks(n_inputs: int, cases=None) -> dict[str, float]:
    """Worst finite-difference relative error per case, over its leaves and n_inputs
    seeded inputs; `cases` defaults to the fused nodes that ship here."""
    if n_inputs < 1:
        raise ConfigError(f"a gradient check needs at least one input per case, got {n_inputs}")
    results: dict[str, float] = {}
    for name, shapes, make in _primitive_cases() if cases is None else cases:
        worst = 0.0
        for seed in range(n_inputs):
            rng = np.random.default_rng([911, seed])
            f = make(rng)
            leaves = [Tensor(rng.normal(size=shape)) for shape in shapes]
            worst = max(worst, *finite_diff_grad_check(f, leaves))
        results[name] = worst
    return results


@dataclass
class ObjectiveFixture:
    bundle: object
    prompter: StylePrompter
    z: np.ndarray
    labels: np.ndarray
    domains: np.ndarray
    eps: np.ndarray
    anchors: object
    weights: LossWeights
    classes: list[str]


def build_objective_fixture(batch: int = 8, n_classes: int = 4, n_domains: int = 3,
                            mc_samples: int = 4, seed: int = 2024) -> ObjectiveFixture:
    rng = np.random.default_rng(seed)
    dims = EncoderDims()
    classes = ["dog", "elephant", "guitar", "horse"][:n_classes]
    bundle = build_bundle(dims, default_vocab(classes), seed=seed)
    z = encode_image(bundle, rng.normal(size=(batch, dims.d_x)))
    labels = rng.integers(0, n_classes, size=batch)
    # two samples per domain minimum, then round-robin
    domains = np.array([i % n_domains for i in range(batch)], dtype=np.int64)
    prompter = init_gaussian_prompter(dims.d_i, dims.d_t, seed=seed + 1)
    eps = rng.standard_normal((batch * mc_samples, dims.d_t))
    anchors = build_reg_anchors(bundle, classes)
    return ObjectiveFixture(bundle=bundle, prompter=prompter, z=z, labels=labels, domains=domains,
                            eps=eps, anchors=anchors, weights=LossWeights(), classes=classes)


def objective_value(fx: ObjectiveFixture, prompter: StylePrompter) -> Tensor:
    """The trainer's step objective on the fixture, at its frozen Monte Carlo draw,
    with the domain loss in float64: finite differences cannot resolve float32 rounding."""
    return step_losses(fx.bundle, prompter, fx.z, fx.labels, fx.domains, fx.classes,
                       fx.anchors, fx.weights, fx.eps, dtype=np.float64)[0]


def run_objective_check(fixture: ObjectiveFixture | None = None) -> tuple[dict[str, float], float]:
    """(max relative error of d(objective)/d(param) per prompter parameter, from one
    checker pass over them all, elapsed seconds)."""
    fx = fixture if fixture is not None else build_objective_fixture()
    start = time.perf_counter()
    names, params = zip(*fx.prompter.parameters())
    errors = finite_diff_grad_check(
        lambda *p: objective_value(fx, StylePrompter(fx.prompter.kind, dict(zip(names, p)))), params)
    return dict(zip(names, errors)), time.perf_counter() - start
