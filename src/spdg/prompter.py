"""Trainable style prompters: map image features to a style token embedding.

One prompter type over one parameter table, in two kinds: the basic prompter
emits a point in token-embedding space; the Gaussian prompter emits a diagonal
Gaussian (mu, sigma) and reparameterizes the caller's Monte Carlo draw with it.
Only these parameters ever receive gradients.

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

_TRUNK = ("w1", "b1", "w2", "b2")
# each kind's parameters: the trunk's, then its heads' as (weight, bias)
# pairs; the first head's output is the prompt embedding
PARAMETER_NAMES = {
    "basic": _TRUNK + ("w3", "b3"),
    "gaussian": _TRUNK + ("w_mu", "b_mu", "w_sigma", "b_sigma"),
}


def parameter_names(kind) -> tuple[str, ...]:
    """The parameter names of a prompter kind; any other kind is a ConfigError."""
    if not (isinstance(kind, str) and kind in PARAMETER_NAMES):
        raise ConfigError(f"unknown prompter_kind {kind!r}, expected one of {sorted(PARAMETER_NAMES)}")
    return PARAMETER_NAMES[kind]


class StylePrompter:
    """Linear -> ELU -> Linear -> ELU trunk, hidden width d_i // 2, then the
    heads of its kind: one point head (basic), or a mu and a raw-sigma head
    (gaussian). Each parameter is an attribute of its name, and so are d_i, w1's
    rows, and d_t, the prompt head's columns. The constructor refuses an unknown
    kind, an odd d_i or one below 2, a d_t below 2, and a parameter not of its
    _parameter_shapes."""

    def __init__(self, kind: str, params):
        self.kind = kind
        self.names = parameter_names(kind)
        for name in self.names:
            setattr(self, name, params[name])
        w1, head = self.w1.shape, self.prompt_head[0].shape
        self.d_i = d_i = w1[0] if w1 else 0
        self.d_t = d_t = head[1] if len(head) > 1 else 0
        for name, shape in _parameter_shapes(kind, d_i, d_t).items():
            if getattr(self, name).shape != shape:
                raise ConfigError(f"parameter {name} has shape {getattr(self, name).shape}, but the "
                                  f"{kind} prompter with d_i={d_i}, d_t={d_t} gives {shape}")

    def parameters(self) -> list[tuple[str, Tensor]]:
        return [(name, getattr(self, name)) for name in self.names]

    @property
    def prompt_head(self) -> tuple[Tensor, Tensor]:
        """The (weight, bias) of the head whose output is the prompt embedding."""
        return getattr(self, self.names[4]), getattr(self, self.names[5])


def _parameter_shapes(kind: str, d_i: int, d_t: int) -> dict[str, tuple]:
    """Each parameter's shape, in PARAMETER_NAMES[kind] order: the trunk's two
    layers (d_i -> d_i // 2 -> d_i // 2), then each head's (d_i // 2 -> d_t). An odd
    d_i or one below 2, or a d_t below 2, is a ConfigError."""
    if d_i < 2 or d_i % 2 or d_t < 2:
        raise ConfigError(f"d_i must be even and >= 2 and d_t >= 2, got d_i={d_i}, d_t={d_t}")
    names = PARAMETER_NAMES[kind]
    shapes = {}
    for layer, (w, b) in enumerate(zip(names[::2], names[1::2])):
        cols = d_i // 2 if layer < 2 else d_t
        shapes[w] = (d_i if layer == 0 else d_i // 2, cols)
        shapes[b] = (cols,)
    return shapes


def _init_prompter(kind: str, d_i: int, d_t: int, seed: int) -> StylePrompter:
    """Uniform weights drawn in name order, zero biases, and b_sigma at _SIGMA_RAW_INIT."""
    rng = np.random.default_rng(seed)
    params = {}
    for name, shape in _parameter_shapes(kind, d_i, d_t).items():
        if len(shape) == 2:  # a weight, drawn over its input width
            bound = 1.0 / np.sqrt(shape[0])
            params[name] = Tensor(rng.uniform(-bound, bound, size=shape))
        else:
            params[name] = Tensor(np.full(shape, _SIGMA_RAW_INIT if name == "b_sigma" else 0.0))
    return StylePrompter(kind, params)


def init_basic_prompter(d_i: int, d_t: int, seed: int) -> StylePrompter:
    return _init_prompter("basic", d_i, d_t, seed)


def init_gaussian_prompter(d_i: int, d_t: int, seed: int) -> StylePrompter:
    return _init_prompter("gaussian", d_i, d_t, seed)


def _rows(p, z: np.ndarray) -> np.ndarray:
    """Image features z of rank 1 or 2 as (B, d_i) rows, d_i being the prompter's input width."""
    if z.ndim not in (1, 2):
        raise ShapeError(f"expected image features of rank 1 or 2, got shape {z.shape}")
    if z.shape[-1] != p.d_i:
        raise ShapeError(f"prompter expects {p.d_i}-wide features, got {z.shape}")
    return z.reshape(-1, z.shape[-1])


def _trunk_forward(p, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Linear -> ELU -> Linear -> ELU over rows x: both layers' outputs (h1, h2)."""
    h1 = T.elu(T.affine(x, p.w1.data, p.b1.data))
    return h1, T.elu(T.affine(h1, p.w2.data, p.b2.data))


def _trunk(p, x: np.ndarray):
    """The trunk's output over rows x, and its VJP.

    The VJP maps the trunk output's gradient to those of (w1, b1, w2, b2); only
    the VJP computes the ELU slopes, from the outputs.
    """
    h1, h2 = _trunk_forward(p, x)
    w2 = p.w2.data

    def vjp(g_h2):
        g_a2 = T.elu_slope(h2)
        g_a2 *= g_h2
        g_a1 = T.elu_slope(h1)
        g_a1 *= g_a2 @ w2.T
        return x.T @ g_a1, g_a1.sum(axis=0), h1.T @ g_a2, g_a2.sum(axis=0)

    return h2, vjp


def basic_forward(p: StylePrompter, z: np.ndarray) -> Tensor:
    """Style embeddings for a batch of image features, (B, d_i) -> (B, d_t).

    A 1D input gives a 1D output. One tape node, whose inputs are the parameters.
    """
    x = _rows(p, z)
    h, trunk_vjp = _trunk(p, x)
    w3 = p.w3.data
    out = T.affine(h, w3, p.b3.data)

    def bwd(g):
        g = g.reshape(out.shape)
        return (*trunk_vjp(g @ w3.T), h.T @ g, g.sum(axis=0))

    return T.apply(out.reshape(z.shape[:-1] + (w3.shape[1],)),
                   (p.w1, p.b1, p.w2, p.b2, p.w3, p.b3), bwd)


def gaussian_forward(p: StylePrompter, z: np.ndarray) -> tuple[Tensor, Tensor]:
    """Per-row (mu, sigma) in token-embedding space; sigma strictly positive.

    sigma = softplus(raw) + SIGMA_FLOOR. A 1D input gives 1D outputs. One tape
    node with two outputs, whose inputs are the parameters.
    """
    x = _rows(p, z)
    h, trunk_vjp = _trunk(p, x)
    w_mu, w_sigma = p.w_mu.data, p.w_sigma.data
    mu = T.affine(h, w_mu, p.b_mu.data)
    raw = T.affine(h, w_sigma, p.b_sigma.data)
    sigma = np.logaddexp(0.0, raw) + SIGMA_FLOOR

    def bwd(g):
        g_mu, g_sigma = (part.reshape(mu.shape) for part in g)
        g_raw = g_sigma * T.sigmoid(raw)
        return (*trunk_vjp(g_raw @ w_sigma.T + g_mu @ w_mu.T),
                h.T @ g_mu, g_mu.sum(axis=0), h.T @ g_raw, g_raw.sum(axis=0))

    shape = z.shape[:-1] + (w_mu.shape[1],)
    return T.apply((mu.reshape(shape), sigma.reshape(shape)),
                   (p.w1, p.b1, p.w2, p.b2, p.w_mu, p.b_mu, p.w_sigma, p.b_sigma), bwd)


def sample_styles_batch(mu: Tensor, sigma: Tensor, eps: np.ndarray) -> Tensor:
    """Row-major reparameterized samples s = mu + sigma * eps, (B, d_t) -> (B*n, d_t).

    eps is the caller's (B*n, d_t) standard normal draw, n = len(eps) // B;
    rows i*n..(i+1)*n-1 belong to batch element i. A draw whose row count is
    not a positive multiple of B is a ShapeError. Gradients flow to mu and
    sigma through one tape node.
    """
    if mu.data.ndim != 2 or sigma.data.shape != mu.data.shape:
        raise ShapeError(f"mu and sigma must be matching (B, d) arrays, got {mu.shape}, {sigma.shape}")
    b, d = mu.data.shape
    n = len(eps) // max(b, 1)
    if n < 1 or eps.shape != (b * n, d):
        raise ShapeError(f"eps must be (n * {b}, {d}) for some n >= 1, got {eps.shape}")
    eps3 = eps.reshape(b, n, d)
    out = eps3 * sigma.data[:, None, :] + mu.data[:, None, :]

    def bwd(g):
        g3 = g.reshape(b, n, d)
        return g3.sum(axis=1), (g3 * eps3).sum(axis=1)

    return T.apply(out.reshape(b * n, d), (mu, sigma), bwd)


def style_for_prompt(p, z: np.ndarray) -> Tensor:
    """The pseudo-slot embedding of image features z, (B, d_i) -> (B, d_t) or 1D -> 1D:
    point output or Gaussian mu; forward only, no node, no sigma."""
    _, h = _trunk_forward(p, _rows(p, z))
    w, b = p.prompt_head
    return Tensor(T.affine(h, w.data, b.data).reshape(z.shape[:-1] + (w.data.shape[1],)))


def _manifest_sigma_floor(kind: str) -> float | None:
    """The manifest's sigma_floor: SIGMA_FLOOR for a Gaussian prompter, none for a basic one."""
    return SIGMA_FLOOR if kind == "gaussian" else None


def save_checkpoint(p, directory, run_config: dict | None = None,
                    bundle_checksum: str | None = None) -> None:
    """Write the prompter's manifest and blobs. bundle_checksum names the encoder
    bundle the prompter was trained against; `infer` and `similarity-report`
    refuse any other bundle, and a checkpoint without one."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    manifest = {
        "bundle_checksum": bundle_checksum,
        "format_version": CHECKPOINT_FORMAT_VERSION,
        "prompter_kind": p.kind,
        "dims": {"d_i": p.d_i, "d_t": p.d_t},
        "sigma_floor": _manifest_sigma_floor(p.kind),
        "run_config": run_config,
    }
    (directory / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True))
    for name, tensor in p.parameters():
        write_blob(directory / f"{name}.spdg", tensor.data)


def load_checkpoint(directory):
    """The prompter and manifest saved in directory. What its constructor refuses is a
    FormatError, as are manifest dims other than the blobs' and another sigma_floor."""
    directory = Path(directory)
    manifest = read_manifest(directory / "manifest.json", "checkpoint", CHECKPOINT_FORMAT_VERSION)
    with manifest_fields(directory, "checkpoint"):
        kind = manifest["prompter_kind"]
        prompter = StylePrompter(kind, {
            name: Tensor(read_blob(directory / f"{name}.spdg")) for name in parameter_names(kind)})
    want = {"dims": {"d_i": prompter.d_i, "d_t": prompter.d_t},
            "sigma_floor": _manifest_sigma_floor(kind)}
    got = {key: manifest.get(key) for key in want}
    if json.dumps(got, sort_keys=True) != json.dumps(want, sort_keys=True):  # 64.0 is not 64
        raise FormatError(f"{directory}: checkpoint manifest gives {got}, but this build's {kind} "
                          f"prompter from its blobs has {want}")
    return prompter, manifest
