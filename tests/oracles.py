"""Reference implementations the tests compare the production paths against.

The general text encoder here keeps its whole (m, L, d_t) forward cache and
its hand-derived VJP, so any prompt, style slot included, can be encoded
differentiably and row by row; the production code only differentiates the
style-slot row (`spdg.encoders.encode_text_batch`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from spdg import tensor as T
from spdg.encoders import PSEUDO_TOKEN, FrozenEncoderBundle, MAX_TEXT_LEN, project_image
from spdg.errors import DegenerateVectorError, ShapeError, TokenizeError
from spdg.tensor import Tensor


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

    `base` is (m, L, d_t) with slot 0 unused; `styles` is (B, d_t).
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
