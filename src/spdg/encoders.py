"""Frozen, seeded stand-in for a pretrained vision-language backbone.

The bundle holds an image-encoder MLP, a token embedding table, a one-block
self-attention text encoder with sinusoidal positional encodings, and a
projection from image space into the shared image-text feature space. All
weights are drawn once from a seeded generator and never receive gradients;
they are plain numpy arrays, invisible to the tape.

The text encoder is exposed as a single differentiable primitive: its forward
and vector-Jacobian product are written out by hand so a whole batch of
prompts costs one tape node. The finite-difference checker keeps it honest.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import tensor as T
from .blob import manifest_fields, read_blob, read_manifest, write_blob
from .errors import ConfigError, DegenerateVectorError, FormatError, ShapeError, TokenizeError
from .tensor import Tensor

PSEUDO_TOKEN = -1
MAX_TEXT_LEN = 16
BUNDLE_FORMAT_VERSION = 1

STYLE_WORDS = [
    "photo",
    "art painting",
    "cartoon",
    "sketch",
    "clipart",
    "infograph",
    "quickdraw",
    "product",
]
TEMPLATE_WORDS = ["a", "photo", "of", "style", "."]

_WEIGHT_NAMES = [
    "img_w1", "img_b1", "img_w2", "img_b2",
    "tok_emb",
    "txt_wq", "txt_wk", "txt_wv", "txt_wp", "txt_bp",
    "proj_w",
]

# Positional rows are scaled well below the unit-norm token embeddings.
# At full scale the shared positional component dominates every prompt and
# squeezes class cosines into a ~0.01 band, which the short training budget
# cannot pry apart.
POSITION_SCALE = 0.3


@dataclass(frozen=True)
class EncoderDims:
    d_x: int = 32   # raw image vector
    d_i: int = 64   # image feature
    d_t: int = 32   # token embedding
    d_f: int = 48   # shared image-text feature


def style_prompt_text(cls: str) -> str:
    return f"SP {cls}."


def domain_style_text(style_word: str, cls: str) -> str:
    return f"a {style_word} style of a {cls}."


def photo_caption_text(cls: str) -> str:
    return f"a photo of a {cls}"


def bare_class_text(cls: str) -> str:
    return cls


def default_vocab(classes, style_words=STYLE_WORDS) -> list[str]:
    """Closed word list: templates, style words, class names (all lowercased)."""
    words: list[str] = []
    seen = set()
    for group in (TEMPLATE_WORDS, style_words, classes):
        for entry in group:
            for w in entry.lower().split():
                if w not in seen:
                    seen.add(w)
                    words.append(w)
    return words


def _sinusoidal_positions(length: int, dim: int, scale: float = POSITION_SCALE) -> np.ndarray:
    pos = np.arange(length, dtype=np.float64)[:, None]
    idx = np.arange(dim, dtype=np.float64)[None, :]
    angles = pos / np.power(10000.0, (2.0 * np.floor(idx / 2.0)) / dim)
    table = np.where(idx % 2 == 0, np.sin(angles), np.cos(angles))
    return scale * table


class FrozenEncoderBundle:
    """Immutable encoder weights plus vocabulary and logit scale."""

    def __init__(self, dims: EncoderDims, vocab: list[str], seed: int,
                 logit_scale: float, weights: dict[str, np.ndarray]):
        if logit_scale <= 0:
            raise ConfigError(f"logit_scale must be positive, got {logit_scale}")
        missing = [n for n in _WEIGHT_NAMES if n not in weights]
        if missing:
            raise FormatError(f"bundle is missing weights: {missing}")
        self.dims = dims
        self.vocab = list(vocab)
        self.word_to_id = {w: i for i, w in enumerate(self.vocab)}
        self.seed = int(seed)
        self.logit_scale = float(logit_scale)
        self.weights = {k: np.asarray(v, dtype=np.float64) for k, v in weights.items()}
        self.positions = _sinusoidal_positions(MAX_TEXT_LEN, dims.d_t)

    @property
    def vocab_size(self) -> int:
        return len(self.vocab)


def build_bundle(dims: EncoderDims, vocab: list[str], seed: int,
                 logit_scale: float = 100.0) -> FrozenEncoderBundle:
    """Draw all encoder weights from one seeded generator, in a fixed order."""
    for name, val in (("d_x", dims.d_x), ("d_i", dims.d_i), ("d_t", dims.d_t), ("d_f", dims.d_f)):
        if val < 2:
            raise ConfigError(f"{name} must be >= 2, got {val}")
    if not vocab:
        raise ConfigError("vocab must be non-empty")
    if len(set(vocab)) != len(vocab):
        dupes = sorted({w for w in vocab if vocab.count(w) > 1})
        raise ConfigError(f"vocab has duplicate words: {dupes}")

    rng = np.random.default_rng(seed)

    def w(fan_in, *shape):
        return rng.normal(0.0, 1.0 / np.sqrt(fan_in), size=shape)

    def b(*shape):
        return rng.normal(0.0, 0.1, size=shape)

    weights = {
        "img_w1": w(dims.d_x, dims.d_x, dims.d_i),
        "img_b1": b(dims.d_i),
        "img_w2": w(dims.d_i, dims.d_i, dims.d_i),
        "img_b2": b(dims.d_i),
        "tok_emb": w(dims.d_t, len(vocab), dims.d_t),
        "txt_wq": w(dims.d_t, dims.d_t, dims.d_t),
        "txt_wk": w(dims.d_t, dims.d_t, dims.d_t),
        "txt_wv": w(dims.d_t, dims.d_t, dims.d_t),
        "txt_wp": w(dims.d_t, dims.d_t, dims.d_f),
        "txt_bp": b(dims.d_f),
        "proj_w": w(dims.d_i, dims.d_i, dims.d_f),
    }
    return FrozenEncoderBundle(dims, vocab, seed, logit_scale, weights)


def encode_image(bundle: FrozenEncoderBundle, x: np.ndarray) -> np.ndarray:
    """Map raw image vectors into image feature space. Frozen, gradient-free."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape[-1] != bundle.dims.d_x:
        raise ShapeError(
            f"encode_image expected last dim {bundle.dims.d_x}, got shape {x.shape}"
        )
    wgt = bundle.weights
    h = np.tanh(x @ wgt["img_w1"] + wgt["img_b1"])
    return h @ wgt["img_w2"] + wgt["img_b2"]


def tokenize(text: str, vocab) -> list[int]:
    """Lowercase word-level split on whitespace and terminal period.

    The literal word "SP" maps to the pseudo slot (PSEUDO_TOKEN). Every other
    word must be in the vocabulary.
    """
    if isinstance(vocab, FrozenEncoderBundle):
        word_to_id = vocab.word_to_id
    elif isinstance(vocab, dict):
        word_to_id = vocab
    else:
        word_to_id = {w: i for i, w in enumerate(vocab)}
    if not text or not text.strip():
        raise TokenizeError("cannot tokenize empty text")

    words: list[str] = []
    for raw in text.lower().split():
        if raw != "." and raw.endswith("."):
            words.extend([raw[:-1], "."])
        else:
            words.append(raw)

    ids: list[int] = []
    for word in words:
        if word == "sp":
            ids.append(PSEUDO_TOKEN)
        elif word in word_to_id:
            ids.append(word_to_id[word])
        else:
            raise TokenizeError(f"word not in vocabulary: {word!r}")
    if len(ids) > MAX_TEXT_LEN:
        raise TokenizeError(f"text longer than {MAX_TEXT_LEN} tokens: {text!r}")
    return ids


@dataclass
class PromptSequence:
    """Token ids for one text, with the pseudo slot filled by a style vector."""

    token_ids: list[int]
    embeddings: Tensor | None
    source_text: str

    def validate(self, vocab_size: int) -> None:
        if not self.token_ids:
            raise TokenizeError("prompt must have at least one token")
        pseudo_at = [i for i, t in enumerate(self.token_ids) if t == PSEUDO_TOKEN]
        if len(pseudo_at) > 1:
            raise TokenizeError("prompt has more than one pseudo slot")
        if pseudo_at and pseudo_at[0] != 0:
            raise TokenizeError("pseudo slot must be the first token")
        for t in self.token_ids:
            if t != PSEUDO_TOKEN and not (0 <= t < vocab_size):
                raise TokenizeError(f"token id {t} outside vocabulary of size {vocab_size}")


def embed_tokens(bundle: FrozenEncoderBundle, ids: list[int],
                 style: Tensor | None = None) -> Tensor:
    """Look up token embeddings, substituting the style vector in the pseudo slot.

    Gradient flows only through `style`; table rows are frozen constants.
    """
    seq = PromptSequence(list(ids), None, "")
    seq.validate(bundle.vocab_size)
    has_pseudo = ids and ids[0] == PSEUDO_TOKEN
    if has_pseudo and style is None:
        raise TokenizeError("prompt has a pseudo slot but no style embedding was given")
    if not has_pseudo and style is not None:
        raise TokenizeError("style embedding given but prompt has no pseudo slot")

    if not has_pseudo:
        return Tensor(bundle.weights["tok_emb"][np.asarray(ids, dtype=np.int64)])

    if style.data.shape != (bundle.dims.d_t,):
        raise ShapeError(f"style embedding must have shape ({bundle.dims.d_t},), got {style.shape}")
    rest = Tensor(bundle.weights["tok_emb"][np.asarray(ids[1:], dtype=np.int64)])
    if len(ids) == 1:
        return T.reshape(style, (1, bundle.dims.d_t))
    return T.concat_rows([T.reshape(style, (1, bundle.dims.d_t)), rest])


def _text_forward(bundle: FrozenEncoderBundle, emb: np.ndarray):
    # emb: (m, length, d_t)
    wgt = bundle.weights
    length = emb.shape[1]
    alpha = 1.0 / np.sqrt(bundle.dims.d_t)
    x = emb + bundle.positions[:length]
    q = x @ wgt["txt_wq"]
    k = x @ wgt["txt_wk"]
    v = x @ wgt["txt_wv"]
    scores = np.matmul(q, np.swapaxes(k, 1, 2)) * alpha
    m = scores.max(axis=-1, keepdims=True)
    e = np.exp(scores - m)
    attn = e / e.sum(axis=-1, keepdims=True)
    h = np.matmul(attn, v) + x
    pooled = h.mean(axis=1)
    out = pooled @ wgt["txt_wp"] + wgt["txt_bp"]
    return out, (q, k, v, attn, alpha, length)


def _text_backward(bundle: FrozenEncoderBundle, cache, g: np.ndarray) -> np.ndarray:
    q, k, v, attn, alpha, length = cache
    wgt = bundle.weights
    gp = g @ wgt["txt_wp"].T
    gh = np.broadcast_to(gp[:, None, :] / length, q.shape).copy()
    ga = np.matmul(gh, np.swapaxes(v, 1, 2))
    gv = np.matmul(np.swapaxes(attn, 1, 2), gh)
    gs = (ga - (ga * attn).sum(axis=-1, keepdims=True)) * attn
    gq = np.matmul(gs, k) * alpha
    gk = np.matmul(np.swapaxes(gs, 1, 2), q) * alpha
    gx = gh + gq @ wgt["txt_wq"].T + gk @ wgt["txt_wk"].T + gv @ wgt["txt_wv"].T
    return gx


def encode_text_batch(bundle: FrozenEncoderBundle, emb: Tensor) -> Tensor:
    """Encode a batch of equal-length prompt embeddings, (m, L, d_t) -> (m, d_f)."""
    if emb.data.ndim != 3 or emb.data.shape[2] != bundle.dims.d_t:
        raise ShapeError(
            f"encode_text_batch expects (m, L, {bundle.dims.d_t}), got {emb.shape}"
        )
    if emb.data.shape[1] < 1 or emb.data.shape[1] > MAX_TEXT_LEN:
        raise ShapeError(f"sequence length must be in [1, {MAX_TEXT_LEN}], got {emb.data.shape[1]}")
    out, cache = _text_forward(bundle, emb.data)

    def bwd(g):
        return (_text_backward(bundle, cache, g),)

    return T.apply(out, (emb,), bwd)


def encode_text(bundle: FrozenEncoderBundle, embeddings: Tensor) -> Tensor:
    """Encode one prompt, (L, d_t) -> (d_f,). Differentiable in the embeddings."""
    if embeddings.data.ndim != 2:
        raise ShapeError(f"encode_text expects a (L, d_t) matrix, got {embeddings.shape}")
    batched = T.reshape(embeddings, (1,) + embeddings.data.shape)
    return T.reshape(encode_text_batch(bundle, batched), (bundle.dims.d_f,))


def fill_style_slot_batch(styles: Tensor, base: np.ndarray, owner: np.ndarray) -> Tensor:
    """Place style row owner[m] into slot 0 of each prompt in a constant batch.

    `base` is (m, L, d_t) with slot 0 unused; `styles` is (B, d_t). One tape
    node regardless of batch size.
    """
    owner = np.asarray(owner, dtype=np.int64)
    if styles.data.ndim != 2 or base.ndim != 3 or owner.shape != (base.shape[0],):
        raise ShapeError(
            f"fill_style_slot_batch shapes disagree: styles {styles.shape}, base {base.shape}, owner {owner.shape}"
        )
    out = np.array(base, dtype=np.float64, copy=True)
    out[:, 0, :] = styles.data[owner]

    def bwd(g):
        gs = np.zeros_like(styles.data)
        np.add.at(gs, owner, g[:, 0, :])
        return (gs,)

    return T.apply(out, (styles,), bwd)


def project_image(bundle: FrozenEncoderBundle, z: np.ndarray) -> np.ndarray:
    """Project image features into the shared feature space (no gradient)."""
    z = np.asarray(z, dtype=np.float64)
    if z.shape[-1] != bundle.dims.d_i:
        raise ShapeError(f"project_image expected last dim {bundle.dims.d_i}, got {z.shape}")
    # bias-free so the projection is homogeneous: rescaling z cannot move logits
    return z @ bundle.weights["proj_w"]


def similarity_logits(bundle: FrozenEncoderBundle, z: np.ndarray, text_feats: Tensor) -> Tensor:
    """Scaled cosine similarities between one image and candidate text features."""
    if isinstance(z, Tensor):
        z = z.data
    feats = text_feats if isinstance(text_feats, Tensor) else Tensor(text_feats)
    if feats.data.ndim != 2 or feats.data.shape[0] < 1:
        raise ShapeError(f"text_feats must be (C, d_f) with C >= 1, got {feats.shape}")
    zp = project_image(bundle, z)
    norm = np.linalg.norm(zp)
    if norm <= T.EPS_NORM:
        raise DegenerateVectorError("projected image feature has near-zero norm")
    unit = Tensor(zp / norm)
    feats_n = T.l2_normalize(feats)
    return T.mul(T.matmul(feats_n, unit), T.constant(bundle.logit_scale))


def bundle_checksum(bundle: FrozenEncoderBundle) -> str:
    """SHA-256 over every weight array, in name order. Freeze-contract witness."""
    digest = hashlib.sha256()
    for name in _WEIGHT_NAMES:
        digest.update(name.encode())
        digest.update(np.ascontiguousarray(bundle.weights[name]).tobytes())
    return digest.hexdigest()


def save_bundle(bundle: FrozenEncoderBundle, directory) -> None:
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    manifest = {
        "format_version": BUNDLE_FORMAT_VERSION,
        "seed": bundle.seed,
        "dims": {"d_x": bundle.dims.d_x, "d_i": bundle.dims.d_i,
                 "d_t": bundle.dims.d_t, "d_f": bundle.dims.d_f},
        "vocab": bundle.vocab,
        "logit_scale": bundle.logit_scale,
    }
    (directory / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True))
    for name in _WEIGHT_NAMES:
        write_blob(directory / f"{name}.spdg", bundle.weights[name])


def load_bundle(directory) -> FrozenEncoderBundle:
    directory = Path(directory)
    manifest = read_manifest(directory / "manifest.json", "bundle", BUNDLE_FORMAT_VERSION)
    weights = {name: read_blob(directory / f"{name}.spdg") for name in _WEIGHT_NAMES}
    with manifest_fields(directory, "bundle"):
        dims = EncoderDims(*(manifest["dims"][k] for k in ("d_x", "d_i", "d_t", "d_f")))
        return FrozenEncoderBundle(dims, manifest["vocab"], manifest["seed"],
                                   manifest["logit_scale"], weights)
