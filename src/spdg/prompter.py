"""Trainable style prompters: map image features to a style token embedding.

The basic prompter emits a point in token-embedding space; the Gaussian
prompter emits a diagonal Gaussian (mu, sigma) and draws reparameterized
Monte Carlo samples from it. Only these parameters ever receive gradients.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import tensor as T
from .blob import manifest_fields, read_blob, read_manifest, write_blob
from .errors import ConfigError, FormatError, ShapeError
from .tensor import Tensor

SIGMA_FLOOR = 1e-6
CHECKPOINT_FORMAT_VERSION = 1

# softplus(x) = 0.1 at this raw value, so sigma starts near 0.1
_SIGMA_RAW_INIT = math.log(math.expm1(0.1))


@dataclass
class StyleDistribution:
    """Diagonal Gaussian over token-embedding space for one image."""

    mu: Tensor
    sigma: Tensor


class BasicPrompter:
    """Linear -> ELU -> Linear -> ELU -> Linear, hidden width d_i // 2."""

    kind = "basic"

    def __init__(self, w1, b1, w2, b2, w3, b3):
        self.w1, self.b1 = w1, b1
        self.w2, self.b2 = w2, b2
        self.w3, self.b3 = w3, b3

    def parameters(self) -> list[tuple[str, Tensor]]:
        return [("w1", self.w1), ("b1", self.b1), ("w2", self.w2),
                ("b2", self.b2), ("w3", self.w3), ("b3", self.b3)]

    @property
    def d_i(self) -> int:
        return self.w1.data.shape[0]

    @property
    def d_t(self) -> int:
        return self.w3.data.shape[1]


class GaussianPrompter:
    """Shared two-layer trunk with separate mu and raw-sigma heads."""

    kind = "gaussian"

    def __init__(self, w1, b1, w2, b2, w_mu, b_mu, w_sigma, b_sigma,
                 sigma_floor: float = SIGMA_FLOOR):
        self.w1, self.b1 = w1, b1
        self.w2, self.b2 = w2, b2
        self.w_mu, self.b_mu = w_mu, b_mu
        self.w_sigma, self.b_sigma = w_sigma, b_sigma
        self.sigma_floor = float(sigma_floor)

    def parameters(self) -> list[tuple[str, Tensor]]:
        return [("w1", self.w1), ("b1", self.b1), ("w2", self.w2), ("b2", self.b2),
                ("w_mu", self.w_mu), ("b_mu", self.b_mu),
                ("w_sigma", self.w_sigma), ("b_sigma", self.b_sigma)]

    @property
    def d_i(self) -> int:
        return self.w1.data.shape[0]

    @property
    def d_t(self) -> int:
        return self.w_mu.data.shape[1]


def _uniform_init(rng, fan_in: int, *shape) -> Tensor:
    bound = 1.0 / np.sqrt(fan_in)
    return Tensor(rng.uniform(-bound, bound, size=shape), requires_grad=True)


def _check_dims(d_i: int, d_t: int) -> int:
    if d_i % 2 != 0:
        raise ConfigError(f"image feature dimension must be even, got {d_i}")
    if d_i < 2 or d_t < 2:
        raise ConfigError(f"prompter dims too small: d_i={d_i}, d_t={d_t}")
    return d_i // 2


def init_basic_prompter(d_i: int, d_t: int, seed: int) -> BasicPrompter:
    hidden = _check_dims(d_i, d_t)
    rng = np.random.default_rng(seed)
    return BasicPrompter(
        _uniform_init(rng, d_i, d_i, hidden), Tensor(np.zeros(hidden), requires_grad=True),
        _uniform_init(rng, hidden, hidden, hidden), Tensor(np.zeros(hidden), requires_grad=True),
        _uniform_init(rng, hidden, hidden, d_t), Tensor(np.zeros(d_t), requires_grad=True),
    )


def init_gaussian_prompter(d_i: int, d_t: int, seed: int,
                           sigma_floor: float = SIGMA_FLOOR) -> GaussianPrompter:
    hidden = _check_dims(d_i, d_t)
    rng = np.random.default_rng(seed)
    return GaussianPrompter(
        _uniform_init(rng, d_i, d_i, hidden), Tensor(np.zeros(hidden), requires_grad=True),
        _uniform_init(rng, hidden, hidden, hidden), Tensor(np.zeros(hidden), requires_grad=True),
        _uniform_init(rng, hidden, hidden, d_t), Tensor(np.zeros(d_t), requires_grad=True),
        _uniform_init(rng, hidden, hidden, d_t),
        Tensor(np.full(d_t, _SIGMA_RAW_INIT), requires_grad=True),
        sigma_floor=sigma_floor,
    )


def basic_parameter_count(d_i: int, d_t: int) -> int:
    h = d_i // 2
    return d_i * h + h + h * h + h + h * d_t + d_t


def gaussian_parameter_count(d_i: int, d_t: int) -> int:
    h = d_i // 2
    return d_i * h + h + h * h + h + 2 * (h * d_t + d_t)


def _as_batch(z) -> tuple[Tensor, bool]:
    t = z if isinstance(z, Tensor) else Tensor(z)
    if t.data.ndim == 1:
        return T.reshape(t, (1, t.data.shape[0])), True
    if t.data.ndim == 2:
        return t, False
    raise ShapeError(f"expected image features of rank 1 or 2, got shape {t.shape}")


def _trunk(p, z: Tensor) -> Tensor:
    h1 = T.elu(T.linear_forward(z, p.w1, p.b1))
    return T.elu(T.linear_forward(h1, p.w2, p.b2))


def basic_forward(p: BasicPrompter, z) -> Tensor:
    """Style embeddings for a batch of image features, (B, d_i) -> (B, d_t)."""
    zb, squeeze = _as_batch(z)
    out = T.linear_forward(_trunk(p, zb), p.w3, p.b3)
    return T.reshape(out, (p.d_t,)) if squeeze else out


def gaussian_forward(p: GaussianPrompter, z) -> tuple[Tensor, Tensor]:
    """Per-row (mu, sigma) in token-embedding space; sigma strictly positive."""
    zb, squeeze = _as_batch(z)
    h = _trunk(p, zb)
    mu = T.linear_forward(h, p.w_mu, p.b_mu)
    sigma = T.add(T.softplus(T.linear_forward(h, p.w_sigma, p.b_sigma)),
                  T.constant(p.sigma_floor))
    if squeeze:
        return T.reshape(mu, (p.d_t,)), T.reshape(sigma, (p.d_t,))
    return mu, sigma


def gaussian_distribution(p: GaussianPrompter, z) -> StyleDistribution:
    mu, sigma = gaussian_forward(p, z)
    if mu.data.ndim != 1:
        raise ShapeError("gaussian_distribution expects a single feature vector")
    return StyleDistribution(mu=mu, sigma=sigma)


def reparameterize(mu: Tensor, sigma: Tensor, eps: Tensor) -> Tensor:
    """s = mu + sigma * eps with eps held constant; grads flow to mu and sigma."""
    return T.add(T.mul(eps, sigma), mu)


def sample_styles(dist: StyleDistribution, n: int, rng: np.random.Generator) -> Tensor:
    """Reparameterized draws s = mu + sigma * eps, (n, d_t); grads flow to mu, sigma."""
    if n < 1:
        raise ConfigError(f"sample count must be >= 1, got {n}")
    d = dist.mu.data.shape[0]
    eps = Tensor(rng.standard_normal((n, d)))
    return reparameterize(dist.mu, dist.sigma, eps)


def sample_styles_batch(mu: Tensor, sigma: Tensor, n: int,
                        rng: np.random.Generator, eps: Tensor | None = None) -> Tensor:
    """Row-major samples for a whole batch: (B, d_t) -> (B*n, d_t).

    Rows i*n..(i+1)*n-1 belong to batch element i. A fixed eps may be passed
    for deterministic re-evaluation of the same draw.
    """
    if n < 1:
        raise ConfigError(f"sample count must be >= 1, got {n}")
    b, d = mu.data.shape
    if eps is None:
        eps = Tensor(rng.standard_normal((b * n, d)))
    elif eps.data.shape != (b * n, d):
        raise ShapeError(f"eps must have shape {(b * n, d)}, got {eps.shape}")
    return reparameterize(T.repeat_rows(mu, n), T.repeat_rows(sigma, n), eps)


def style_for_prompt(p, z) -> Tensor:
    """The embedding placed in the pseudo slot: point output, or mu for Gaussian."""
    if p.kind == "basic":
        return basic_forward(p, z)
    mu, _ = gaussian_forward(p, z)
    return mu


def save_checkpoint(p, directory, run_config: dict | None = None) -> None:
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    manifest = {
        "format_version": CHECKPOINT_FORMAT_VERSION,
        "prompter_kind": p.kind,
        "dims": {"d_i": p.d_i, "d_t": p.d_t},
        "sigma_floor": getattr(p, "sigma_floor", None),
        "run_config": run_config,
    }
    (directory / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True))
    for name, tensor in p.parameters():
        write_blob(directory / f"{name}.spdg", tensor.data)


def load_checkpoint(directory):
    directory = Path(directory)
    manifest = read_manifest(directory / "manifest.json", "checkpoint", CHECKPOINT_FORMAT_VERSION)
    with manifest_fields(directory, "checkpoint"):
        kind = manifest["prompter_kind"]
    names = ["w1", "b1", "w2", "b2"]
    if kind == "basic":
        names += ["w3", "b3"]
    elif kind == "gaussian":
        names += ["w_mu", "b_mu", "w_sigma", "b_sigma"]
    else:
        raise FormatError(f"unknown prompter_kind {kind!r}")
    arrays = [Tensor(read_blob(directory / f"{n}.spdg"), requires_grad=True) for n in names]
    if kind == "basic":
        prompter = BasicPrompter(*arrays)
    else:
        with manifest_fields(directory, "checkpoint"):
            prompter = GaussianPrompter(*arrays, sigma_floor=manifest["sigma_floor"])
    return prompter, manifest
