"""Gradient verification suite: every differentiable primitive against central
finite differences, plus the full training objective on a small fixture.

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
    domain_discrimination_loss,
    prompted_ce_and_reg,
    total_loss,
)
from .prompter import GaussianPrompter, gaussian_forward, init_gaussian_prompter, reparameterize
from .tensor import Tensor, finite_diff_grad_check


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
        ("transpose", (3, 4), lambda rng: (lambda x, w=rng.normal(size=(4, 3)): T.sum_all(T.mul(T.transpose(x), Tensor(w))))),
        ("reshape", (3, 4), lambda rng: (lambda x, w=rng.normal(size=12): T.sum_all(T.mul(T.reshape(x, (12,)), Tensor(w))))),
        ("concat_rows", (2, 3), lambda rng: (lambda x, c=rng.normal(size=(2, 3)), w=rng.normal(size=(4, 3)):
                                             T.sum_all(T.mul(T.concat_rows([x, Tensor(c)]), Tensor(w))))),
        ("stack_rows", (3,), lambda rng: (lambda x, c=rng.normal(size=3), w=rng.normal(size=(2, 3)):
                                          T.sum_all(T.mul(T.stack_rows([x, Tensor(c)]), Tensor(w))))),
        ("get_row", (4, 3), lambda rng: (lambda x, w=rng.normal(size=3): T.sum_all(T.mul(T.get_row(x, 2), Tensor(w))))),
        ("take_rows", (4, 3), lambda rng: (lambda x, w=rng.normal(size=(3, 3)):
                                           T.sum_all(T.mul(T.take_rows(x, [0, 2, 0]), Tensor(w))))),
        ("repeat_rows", (3, 2), lambda rng: (lambda x, w=rng.normal(size=(6, 2)):
                                             T.sum_all(T.mul(T.repeat_rows(x, 2), Tensor(w))))),
        ("sum_all", (3, 4), lambda rng: (lambda x: T.sum_all(x))),
        ("mean_all", (3, 4), lambda rng: (lambda x: T.mean_all(x))),
        ("sum_axis0", (3, 4), lambda rng: (lambda x, w=rng.normal(size=4): T.sum_all(T.mul(T.sum_axis(x, 0), Tensor(w))))),
        ("sum_axis1", (3, 4), lambda rng: (lambda x, w=rng.normal(size=3): T.sum_all(T.mul(T.sum_axis(x, 1), Tensor(w))))),
        ("exp", (3, 3), lambda rng: (lambda x: T.sum_all(T.exp(x)))),
        ("log", (3, 3), lambda rng: (lambda x: T.sum_all(T.log(T.add(T.mul(x, x), T.constant(0.5)))))),
        ("elu", (3, 4), lambda rng: (lambda x: T.sum_all(T.elu(x)))),
        ("softplus", (3, 4), lambda rng: (lambda x: T.sum_all(T.softplus(x)))),
        ("linear_forward_x", (3, 4), lambda rng: (lambda x, w=rng.normal(size=(4, 2)), b=rng.normal(size=2):
                                                  T.sum_all(T.linear_forward(x, Tensor(w), Tensor(b))))),
        ("linear_forward_w", (4, 2), lambda rng: (lambda x, a=rng.normal(size=(3, 4)), b=rng.normal(size=2):
                                                  T.sum_all(T.linear_forward(Tensor(a), x, Tensor(b))))),
        ("linear_forward_b", (2,), lambda rng: (lambda x, a=rng.normal(size=(3, 4)), w=rng.normal(size=(4, 2)):
                                                T.sum_all(T.linear_forward(Tensor(a), Tensor(w), x)))),
        ("l2_normalize", (3, 4), lambda rng: (lambda x, s=np.sign(rng.normal(size=(3, 4))) * 2.0, w=rng.normal(size=(3, 4)):
                                              T.sum_all(T.mul(T.l2_normalize(T.add(x, Tensor(s))), Tensor(w))))),
        ("cosine_similarity", (5,), lambda rng: (lambda x, c=rng.normal(size=5) + 2.0:
                                                 T.cosine_similarity(T.add(x, T.constant(3.0)), Tensor(c)))),
        ("log_sum_exp", (6,), lambda rng: (lambda x: T.log_sum_exp(x))),
        ("masked_lse_rows", (3, 5), lambda rng: (lambda x, m=_random_mask(rng, 3, 5), w=rng.normal(size=3):
                                                 T.sum_all(T.mul(T.masked_log_sum_exp_rows(x, m), Tensor(w))))),
        ("rowwise_dot_grouped", (6, 3), lambda rng: (lambda x, a=rng.normal(size=(2, 3)), w=rng.normal(size=(2, 3)):
                                                     T.sum_all(T.mul(T.rowwise_dot_grouped(x, a, group=3), Tensor(w))))),
        ("domain_discrimination_loss", (8, 3), lambda rng: (lambda x, dom=np.array([0, 1, 2, 0, 1, 2, 0, 1]):
                                                            domain_discrimination_loss(T.l2_normalize(x), dom, 0.5))),
        ("encode_text_batch", (3, d_t), lambda rng: (lambda x, w=rng.normal(size=(9, d_f)):
                                                     T.sum_all(T.mul(encode_text_batch(prompt_bundle, x, prompt_classes),
                                                                     Tensor(w))))),
    ]


def _random_mask(rng, rows, cols):
    mask = rng.random((rows, cols)) < 0.5
    for i in range(rows):
        if not mask[i].any():
            mask[i, rng.integers(cols)] = True
    return mask


def run_primitive_checks(n_inputs: int = 100, tol: float = 1e-6) -> dict[str, float]:
    """Worst finite-difference relative error per primitive over seeded inputs."""
    results: dict[str, float] = {}
    for name, shape, make in _primitive_cases():
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
    samples = reparameterize(T.repeat_rows(mu, fx.mc_samples),
                             T.repeat_rows(sigma, fx.mc_samples), fx.eps)
    normed = T.l2_normalize(samples)
    loss_d = domain_discrimination_loss(normed, np.repeat(fx.domains, fx.mc_samples),
                                        fx.weights.tau_d)
    loss_ce, loss_reg = prompted_ce_and_reg(fx.bundle, fx.z, mu, fx.labels, fx.classes,
                                            fx.anchors)
    return total_loss(LossParts(loss_ce=loss_ce, loss_d=loss_d, loss_reg=loss_reg),
                      fx.weights)


def run_objective_check(tol: float = 1e-4, fixture: ObjectiveFixture | None = None,
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
