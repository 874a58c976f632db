"""Gradient verification suite: every differentiable primitive, the fused
training-step nodes among them, against central finite differences, plus the
full training objective on a small fixture.

The fixture freezes one Monte Carlo draw so the objective is a deterministic
function of the prompter parameters, which is what finite differencing needs.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .encoders import EncoderDims, build_bundle, default_vocab, encode_image, encode_text_batch
from .losses import (
    LossParts,
    LossWeights,
    build_reg_anchors,
    classification_head,
    domain_discrimination_loss,
    prompted_ce_and_reg,
    total_loss,
)
from .prompter import (
    BasicPrompter,
    GaussianPrompter,
    basic_forward,
    gaussian_forward,
    init_basic_prompter,
    init_gaussian_prompter,
    sample_styles_batch,
)
from .tensor import Tensor, finite_diff_grad_check


def _split(x: Tensor, shapes) -> tuple[Tensor, ...]:
    """Consecutive pieces of a flat x, one per shape, as one multi-output node."""
    bounds = np.cumsum([0] + [int(np.prod(s)) for s in shapes]).tolist()
    pieces = tuple(x.data[a:b].reshape(s) for a, b, s in zip(bounds, bounds[1:], shapes))
    return T.apply(pieces, (x,), lambda g: (np.concatenate([gi.reshape(-1) for gi in g]),))


def _weighted(outs, weights) -> Tensor:
    """sum_k sum(outs[k] * weights[k]), a scalar probe of several outputs."""
    total = None
    for out, w in zip(outs, weights):
        term = T.sum_all(T.mul(out, Tensor(w)))
        total = term if total is None else T.add(total, term)
    return total


def _prompter_case(kind: str, z_shape):
    """x holds z (shape z_shape), then every prompter parameter, flattened."""
    init = init_basic_prompter if kind == "basic" else init_gaussian_prompter
    shapes = tuple(t.shape for _, t in init(4, 3, seed=0).parameters())
    n_out = 1 if kind == "basic" else 2
    out_shape = z_shape[:-1] + (3,)

    def make(rng):
        w = [rng.normal(size=out_shape) for _ in range(n_out)]

        def f(x):
            z, *params = _split(x, (z_shape,) + shapes)
            if kind == "basic":
                return _weighted([basic_forward(BasicPrompter(*params), z)], w)
            return _weighted(gaussian_forward(GaussianPrompter(*params), z), w)
        return f

    return (f"{kind}_forward", (int(np.prod(z_shape)) + sum(int(np.prod(s)) for s in shapes),), make)


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
            feats = T.add(x, Tensor(np.full((6, 4), 1.5)))
            out = classification_head(feats, unit_z, labels, 3.0, anchors)
            return _weighted(out if with_reg else (out,), w)
        return f

    return ("classification_head" + ("" if with_reg else "_ce_only"), (6, 4), make)


def _primitive_cases():
    """(name, input shape, builder) per differentiable primitive.

    Each builder closes over a seeded rng for its constants and returns a
    scalar-valued function of one Tensor.
    """

    # class names of one, two and three words: three prompt lengths
    prompt_classes = ["dog", "hot dog", "big red bus"]
    prompt_bundle = build_bundle(EncoderDims(), default_vocab(prompt_classes), seed=5)
    d_t, d_f = prompt_bundle.dims.d_t, prompt_bundle.dims.d_f

    # constants are bound as lambda defaults so each f is a fixed function of
    # x; drawing inside the body would change the function between the base
    # evaluation and the perturbed ones
    return [
        ("add", (3, 4), lambda rng: (lambda x, c=rng.normal(size=(3, 4)): T.sum_all(T.add(x, Tensor(c))))),
        ("add_broadcast", (3, 4), lambda rng: (lambda x, c=rng.normal(size=4): T.sum_all(T.add(x, Tensor(c))))),
        ("sub", (3, 4), lambda rng: (lambda x, c=rng.normal(size=(3, 4)): T.sum_all(T.sub(Tensor(c), x)))),
        ("mul", (3, 4), lambda rng: (lambda x, c=rng.normal(size=(3, 4)): T.sum_all(T.mul(x, Tensor(c))))),
        ("mul_broadcast", (3, 4), lambda rng: (lambda x, c=rng.normal(size=4): T.sum_all(T.mul(x, Tensor(c))))),
        ("neg", (5,), lambda rng: (lambda x: T.sum_all(T.neg(x)))),
        ("matmul", (3, 4), lambda rng: (lambda x, c=rng.normal(size=(4, 2)): T.sum_all(T.matmul(x, Tensor(c))))),
        ("matmul_left", (4, 2), lambda rng: (lambda x, a=rng.normal(size=(3, 4)): T.sum_all(T.matmul(Tensor(a), x)))),
        ("matvec", (3, 4), lambda rng: (lambda x, c=rng.normal(size=4): T.sum_all(T.matmul(x, Tensor(c))))),
        ("reshape", (3, 4), lambda rng: (lambda x, w=rng.normal(size=12): T.sum_all(T.mul(T.reshape(x, (12,)), Tensor(w))))),
        ("sum_all", (3, 4), lambda rng: (lambda x: T.sum_all(x))),
        ("mean_all", (3, 4), lambda rng: (lambda x: T.mean_all(x))),
        ("l2_normalize", (3, 4), lambda rng: (lambda x, s=np.sign(rng.normal(size=(3, 4))) * 2.0, w=rng.normal(size=(3, 4)):
                                              T.sum_all(T.mul(T.l2_normalize(T.add(x, Tensor(s))), Tensor(w))))),
        ("domain_discrimination_loss", (8, 3), lambda rng: (lambda x, dom=np.array([0, 1, 2, 0, 1, 2, 0, 1]):
                                                            domain_discrimination_loss(T.l2_normalize(x), dom, 0.5))),
        ("encode_text_batch", (3, d_t), lambda rng: (lambda x, w=rng.normal(size=(9, d_f)):
                                                     T.sum_all(T.mul(encode_text_batch(prompt_bundle, x, prompt_classes),
                                                                     Tensor(w))))),
        _prompter_case("basic", (2, 4)),
        _prompter_case("gaussian", (4,)),
        ("sample_styles_batch", (2 * 2 * 3,), lambda rng: (
            lambda x, eps=Tensor(rng.normal(size=(6, 3))), w=rng.normal(size=(6, 3)):
            _weighted([sample_styles_batch(*_split(x, ((2, 3), (2, 3))), 3, None, eps=eps)], [w]))),
        _head_case(with_reg=True),
        _head_case(with_reg=False),
        ("total_loss", (3,), lambda rng: (lambda x: total_loss(
            LossParts(*_split(x, ((), (), ()))), LossWeights(w_d=0.3, w_reg=2.0, ce_scale=1.5)))),
    ]


def run_primitive_checks(n_inputs: int = 100, cases=None) -> dict[str, float]:
    """Worst finite-difference relative error per primitive over seeded inputs.

    `cases` defaults to the primitives and fused nodes that ship here.
    """
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
    prompter: GaussianPrompter
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


def objective_value(fx: ObjectiveFixture, prompter: GaussianPrompter) -> Tensor:
    mu, sigma = gaussian_forward(prompter, Tensor(fx.z))
    samples = sample_styles_batch(mu, sigma, fx.mc_samples, None, eps=fx.eps)
    normed = T.l2_normalize(samples)
    loss_d = domain_discrimination_loss(normed, np.repeat(fx.domains, fx.mc_samples),
                                        fx.weights.tau_d)
    loss_ce, loss_reg = prompted_ce_and_reg(fx.bundle, fx.z, mu, fx.labels, fx.classes,
                                            fx.anchors)
    return total_loss(LossParts(loss_ce=loss_ce, loss_d=loss_d, loss_reg=loss_reg),
                      fx.weights)


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
            stand_in = GaussianPrompter(
                **{k: (x if k == name else v) for k, v in fx.prompter.parameters()},
                sigma_floor=fx.prompter.sigma_floor,
            )
            return objective_value(fx, stand_in)

        errors[name] = finite_diff_grad_check(f, dict(fx.prompter.parameters())[name], h=h)
    return errors, time.perf_counter() - start
