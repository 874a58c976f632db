"""Trainable style prompters: map image features to a style token embedding.

The basic prompter emits a point in token-embedding space; the Gaussian
prompter emits a diagonal Gaussian (mu, sigma) and draws reparameterized
Monte Carlo samples from it. Only these parameters ever receive gradients.

Each training forward is one tape node with a hand-written backward: the two
ELU layers and the head(s) of a prompter, and the row repeat plus the
reparameterization of a batch of samples; `style_for_prompt` records none.
"""

from __future__ import annotations

import json
import math
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


def _as_rows(z) -> tuple[Tensor, np.ndarray]:
    """The input as a Tensor and its values as (B, d_i) rows."""
    t = z if isinstance(z, Tensor) else Tensor(z)
    if t.data.ndim not in (1, 2):
        raise ShapeError(f"expected image features of rank 1 or 2, got shape {t.shape}")
    return t, t.data.reshape(-1, t.data.shape[-1])


def _trunk(p, zt: Tensor, x: np.ndarray):
    """Linear -> ELU -> Linear -> ELU over rows x, and the trunk's VJP.

    The VJP maps the trunk output's gradient to those of (z, w1, b1, w2, b2),
    z's only when it requires one; only the VJP computes the ELU slopes, from the outputs.
    """
    if x.shape[1] != p.w1.data.shape[0]:
        raise ShapeError(f"prompter expects {p.w1.data.shape[0]}-wide features, got {zt.shape}")
    w1, w2 = p.w1.data, p.w2.data
    h1 = T.elu(T.affine(x, w1, p.b1.data))
    h2 = T.elu(T.affine(h1, w2, p.b2.data))

    def vjp(g_h2):
        g_a2 = T.elu_slope(h2)
        g_a2 *= g_h2
        g_a1 = T.elu_slope(h1)
        g_a1 *= g_a2 @ w2.T
        g_z = (g_a1 @ w1.T).reshape(zt.shape) if zt.requires_grad else None
        return g_z, x.T @ g_a1, g_a1.sum(axis=0), h1.T @ g_a2, g_a2.sum(axis=0)

    return h2, vjp


def basic_forward(p: BasicPrompter, z) -> Tensor:
    """Style embeddings for a batch of image features, (B, d_i) -> (B, d_t).

    A 1D input gives a 1D output. One tape node.
    """
    zt, x = _as_rows(z)
    h, trunk_vjp = _trunk(p, zt, x)
    w3 = p.w3.data
    out = T.affine(h, w3, p.b3.data)

    def bwd(g):
        g = g.reshape(out.shape)
        return (*trunk_vjp(g @ w3.T), h.T @ g, g.sum(axis=0))

    return T.apply(out.reshape(zt.shape[:-1] + (p.d_t,)),
                   (zt, p.w1, p.b1, p.w2, p.b2, p.w3, p.b3), bwd)


def gaussian_forward(p: GaussianPrompter, z) -> tuple[Tensor, Tensor]:
    """Per-row (mu, sigma) in token-embedding space; sigma strictly positive.

    sigma = softplus(raw) + sigma_floor. A 1D input gives 1D outputs. One tape
    node with two outputs.
    """
    zt, x = _as_rows(z)
    h, trunk_vjp = _trunk(p, zt, x)
    w_mu, w_sigma = p.w_mu.data, p.w_sigma.data
    mu = T.affine(h, w_mu, p.b_mu.data)
    raw = T.affine(h, w_sigma, p.b_sigma.data)
    sigma = np.logaddexp(0.0, raw) + p.sigma_floor

    def bwd(g):
        g_mu, g_sigma = (part.reshape(mu.shape) for part in g)
        g_raw = g_sigma * T.sigmoid(raw)
        return (*trunk_vjp(g_raw @ w_sigma.T + g_mu @ w_mu.T),
                h.T @ g_mu, g_mu.sum(axis=0), h.T @ g_raw, g_raw.sum(axis=0))

    shape = zt.shape[:-1] + (p.d_t,)
    return T.apply((mu.reshape(shape), sigma.reshape(shape)),
                   (zt, p.w1, p.b1, p.w2, p.b2, p.w_mu, p.b_mu, p.w_sigma, p.b_sigma), bwd)


def sample_styles_batch(mu: Tensor, sigma: Tensor, n: int,
                        rng: np.random.Generator, eps: Tensor | None = None) -> Tensor:
    """Row-major reparameterized samples s = mu + sigma * eps, (B, d_t) -> (B*n, d_t).

    Rows i*n..(i+1)*n-1 belong to batch element i; eps is one
    rng.standard_normal((B*n, d_t)) draw, or a fixed eps may be passed for
    deterministic re-evaluation of the same draw. Gradients flow to mu and
    sigma through one tape node.
    """
    if n < 1:
        raise ConfigError(f"sample count must be >= 1, got {n}")
    if mu.data.ndim != 2 or sigma.data.shape != mu.data.shape:
        raise ShapeError(f"mu and sigma must be matching (B, d) arrays, got {mu.shape}, {sigma.shape}")
    b, d = mu.data.shape
    eps = rng.standard_normal((b * n, d)) if eps is None else eps.data
    if eps.shape != (b * n, d):
        raise ShapeError(f"eps must have shape {(b * n, d)}, got {eps.shape}")
    eps3 = eps.reshape(b, n, d)
    out = eps3 * sigma.data[:, None, :] + mu.data[:, None, :]

    def bwd(g):
        g3 = g.reshape(b, n, d)
        return g3.sum(axis=1), np.einsum("bnd,bnd->bd", g3, eps3)

    return T.apply(out.reshape(b * n, d), (mu, sigma), bwd)


def style_for_prompt(p, z) -> Tensor:
    """The pseudo-slot embedding, point output or Gaussian mu; forward only, no node, no sigma."""
    zt, x = _as_rows(z)
    h, _ = _trunk(p, zt, x)
    w, b = (p.w3, p.b3) if p.kind == "basic" else (p.w_mu, p.b_mu)
    return Tensor(T.affine(h, w.data, b.data).reshape(zt.shape[:-1] + (p.d_t,)))


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
