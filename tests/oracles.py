"""Reference implementations the tests compare the production paths against.

The general text encoder here keeps its whole (m, L, d_t) forward cache and
its hand-derived VJP, so any prompt, style slot included, can be encoded
differentiably and row by row; the production code only differentiates the
style-slot row (`spdg.encoders.encode_text_batch`).

The second part composes the training step from tape primitives, node by
node: the prompters, the sample reparameterization, the classification head
with its regularizer, the weighted loss sum and the per-tensor optimizer;
production fuses each into one node. Then the full-objective gradient check
one parameter at a time, the reference for grad-check's one pass over all
of them. Beside them sits a reference prediction
path: the taped style forward, unit-normalized feature rows, then the dots,
and the similarity report filled one image at a time.
The last part holds the composable primitives that only the oracles and
tests build with, the elementary add, sub, mul, neg, matmul, reshape,
sum_all and mean_all among them, and their finite-difference cases.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from spdg import tensor as T
from spdg.encoders import (
    MAX_TEXT_LEN,
    PSEUDO_TOKEN,
    STYLE_WORDS,
    FrozenEncoderBundle,
    domain_style_text,
    encode_image,
    encode_texts,
    project_image,
)
from spdg.encoders import encode_text_batch as production_encode_text_batch
from spdg.errors import ConfigError, DegenerateVectorError, ShapeError, TokenizeError
from spdg.gradcheck import objective_value
from spdg.losses import LossWeights
from spdg.prompter import SIGMA_FLOOR, StylePrompter, basic_forward, gaussian_forward, style_for_prompt
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
    seq.validate(len(bundle.vocab))
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
        return reshape(style, (1, bundle.dims.d_t))
    return concat_rows([reshape(style, (1, bundle.dims.d_t)), rest])


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
    batched = reshape(embeddings, (1,) + embeddings.data.shape)
    return reshape(encode_text_batch(bundle, batched), (bundle.dims.d_f,))


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
    return mul(matmul(feats_n, unit), constant(bundle.logit_scale))


# ---------------------------------------------------------------------------
# the training step, composed from tape primitives


def masked_log_sum_exp_rows(a: Tensor, mask: np.ndarray) -> Tensor:
    """Row-wise log-sum-exp restricted to entries where `mask` is True.

    `mask` is a constant boolean array of the same shape; every row must
    select at least one entry.
    """
    mask = np.asarray(mask, dtype=bool)
    if a.data.ndim != 2 or mask.shape != a.data.shape:
        raise ShapeError(f"masked_log_sum_exp_rows needs matching 2D shapes, got {a.shape}, {mask.shape}")
    if not mask.any(axis=1).all():
        raise ShapeError("masked_log_sum_exp_rows saw a row with an empty mask")
    # masked-out entries become -inf before exp, so they give exactly 0 and never overflow
    masked = np.where(mask, a.data, -np.inf)
    m = masked.max(axis=1, keepdims=True)
    e = np.exp(masked - m)
    s = e.sum(axis=1)
    out = m[:, 0] + np.log(s)

    def bwd(g):
        return (g[:, None] * e / s[:, None],)

    return T.apply(out, (a,), bwd)


def cross_entropy_from_logits(logits: Tensor, labels: np.ndarray) -> Tensor:
    """Mean of -log softmax(logits)[label], stabilized through log-sum-exp."""
    b, n_classes = logits.data.shape
    onehot = np.zeros((b, n_classes))
    onehot[np.arange(b), labels] = 1.0
    lse = masked_log_sum_exp_rows(logits, np.ones((b, n_classes), dtype=bool))
    picked = sum_axis(mul(logits, constant(onehot)), axis=1)
    return mean_all(sub(lse, picked))


def style_regularization_loss(text_feats: Tensor, class_labels, anchors: np.ndarray) -> Tensor:
    """Mean of (1 - cosine) between each prompted text feature and its class anchor."""
    labels = np.asarray(class_labels, dtype=np.int64)
    b = text_feats.data.shape[0]
    if text_feats.data.ndim != 2 or labels.shape != (b,):
        raise ShapeError(f"expected (B, d_f) features with B labels, got {text_feats.shape}")
    if labels.min(initial=0) < 0 or labels.max(initial=-1) >= len(anchors):
        raise ConfigError(f"class label outside anchor table of size {len(anchors)}")
    unit = T.l2_normalize(text_feats)
    cos = rowwise_dot_grouped(unit, anchors[labels], group=1)
    return add(neg(mean_all(cos)), constant(1.0))


def composed_head(feats: Tensor, unit_z: np.ndarray, labels, scale: float,
                  anchors: np.ndarray | None = None):
    """classification_head from primitives: normalize, grouped dots, CE, and
    the regularizer over a take_rows gather of each image's own-class row."""
    labels = np.asarray(labels, dtype=np.int64)
    b = unit_z.shape[0]
    n_classes = feats.data.shape[0] // b
    dots = rowwise_dot_grouped(T.l2_normalize(feats), unit_z, group=n_classes)
    loss_ce = cross_entropy_from_logits(mul(dots, constant(scale)), labels)
    if anchors is None:
        return loss_ce, None
    own = take_rows(feats, np.arange(b) * n_classes + labels)
    return loss_ce, style_regularization_loss(own, labels, anchors)


def composed_prompted_ce_and_reg(bundle: FrozenEncoderBundle, z_batch, styles: Tensor,
                                 labels, classes, anchors: np.ndarray | None = None):
    """prompted_ce_and_reg with the head composed from primitives."""
    zp = project_image(bundle, np.asarray(z_batch, dtype=np.float64))
    unit_z, _ = T.unit_rows(zp, "projected image feature")
    feats = production_encode_text_batch(bundle, styles, classes)
    return composed_head(feats, unit_z, labels, bundle.logit_scale, anchors)


def prompter_shapes(kind: str, d_i: int, d_t: int) -> dict[str, tuple]:
    """Each prompter parameter's shape at any dims, those the prompter refuses too:
    the trunk d_i -> d_i // 2 -> d_i // 2, then each head d_i // 2 -> d_t."""
    h = d_i // 2
    heads = ("w3", "b3") if kind == "basic" else ("w_mu", "b_mu", "w_sigma", "b_sigma")
    return {"w1": (d_i, h), "b1": (h,), "w2": (h, h), "b2": (h,),
            **{name: (h, d_t) if name[0] == "w" else (d_t,) for name in heads}}


def _as_batch(z) -> tuple[Tensor, bool]:
    t = z if isinstance(z, Tensor) else Tensor(z)
    if t.data.ndim == 1:
        return reshape(t, (1, t.data.shape[0])), True
    return t, False


def _trunk(p, z: Tensor) -> Tensor:
    h1 = elu(linear_forward(z, p.w1, p.b1))
    return elu(linear_forward(h1, p.w2, p.b2))


def composed_basic_forward(p, z) -> Tensor:
    zb, squeeze = _as_batch(z)
    out = linear_forward(_trunk(p, zb), p.w3, p.b3)
    return reshape(out, (p.d_t,)) if squeeze else out


def composed_gaussian_forward(p, z) -> tuple[Tensor, Tensor]:
    zb, squeeze = _as_batch(z)
    h = _trunk(p, zb)
    mu = linear_forward(h, p.w_mu, p.b_mu)
    sigma = add(softplus(linear_forward(h, p.w_sigma, p.b_sigma)),
                constant(SIGMA_FLOOR))
    if squeeze:
        return reshape(mu, (p.d_t,)), reshape(sigma, (p.d_t,))
    return mu, sigma


def composed_sample_styles_batch(mu: Tensor, sigma: Tensor, n: int, eps: np.ndarray) -> Tensor:
    """s = eps * repeat(sigma) + repeat(mu), three primitive nodes."""
    return add(mul(Tensor(eps), repeat_rows(sigma, n)), repeat_rows(mu, n))


def composed_total_loss(weights: LossWeights, loss_ce: Tensor, loss_d: Tensor | None = None,
                        loss_reg: Tensor | None = None) -> Tensor:
    total = mul(loss_ce, constant(weights.ce_scale))
    if loss_d is not None:
        total = add(total, mul(loss_d, constant(weights.w_d)))
    if loss_reg is not None:
        total = add(total, mul(loss_reg, constant(weights.w_reg)))
    return total


def per_tensor_sgd_step(params, grads, velocities, lr, momentum, weight_decay) -> None:
    """The optimizer one parameter tensor at a time, rebinding each .data."""
    for p, g, v in zip(params, grads, velocities):
        g_eff = g + weight_decay * p.data
        v *= momentum
        v += g_eff
        p.data = p.data - lr * v


def objective_errors_per_parameter(fx) -> dict[str, float]:
    """The full-objective gradient check one parameter at a time: a stand-in
    prompter with that one parameter as the leaf, and one tape, per parameter."""
    errors = {}
    for name, param in fx.prompter.parameters():
        def f(x, name=name):
            stand_in = StylePrompter(fx.prompter.kind, {
                k: (x if k == name else v) for k, v in fx.prompter.parameters()})
            return objective_value(fx, stand_in)

        [errors[name]] = T.finite_diff_grad_check(f, [param])
    return errors


def normalized_predict_batch(bundle: FrozenEncoderBundle, prompter, x, classes):
    """predict_batch with the style from the taped prompter forward and every
    feature row scaled to unit norm before the dot products."""
    z = encode_image(bundle, np.asarray(x, dtype=np.float64))
    if prompter.kind == "basic":
        styles = basic_forward(prompter, z)
    else:
        styles, _ = gaussian_forward(prompter, z)
    feats, _ = T.unit_rows(production_encode_text_batch(bundle, styles, classes).data,
                           "prompted text feature")
    zp, _ = T.unit_rows(project_image(bundle, z), "projected image feature")
    logits = np.einsum("bcd,bd->bc", feats.reshape(len(z), len(classes), -1), zp) * bundle.logit_scale
    return logits.argmax(axis=1), logits


def looped_similarity_values(bundle: FrozenEncoderBundle, prompter, x, true_class_ids,
                             classes) -> np.ndarray:
    """style_similarity_report's values, filled one image at a time with two
    small matvecs: the true class's style-word rows, then its learned row."""
    z = encode_image(bundle, np.asarray(x, dtype=np.float64))
    zp, _ = T.unit_rows(project_image(bundle, z), "projected image feature")
    word_feats = encode_texts(bundle, [domain_style_text(word, cls)
                                       for cls in classes for word in STYLE_WORDS])
    word_feats, _ = T.unit_rows(word_feats, "style-word text feature")
    word_feats = word_feats.reshape(len(classes), len(STYLE_WORDS), -1)
    learned = production_encode_text_batch(bundle, style_for_prompt(prompter, z), classes).data
    learned, _ = T.unit_rows(learned, "prompted text feature")
    values = np.zeros((len(z), len(STYLE_WORDS) + 1))
    for i, ci in enumerate(np.asarray(true_class_ids, dtype=np.int64)):
        values[i, :-1] = word_feats[ci] @ zp[i]
        values[i, -1] = zp[i] @ learned[i * len(classes) + ci]
    return values


# ---------------------------------------------------------------------------
# composable tape primitives that only the oracles and the tests build with


def _reduce_to(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum `g` down to `shape`, undoing numpy broadcasting."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


def constant(x) -> Tensor:
    """A constant operand: a Tensor as is, anything else wrapped as float64."""
    return x if isinstance(x, Tensor) else Tensor(x)


def add(a: Tensor, b: Tensor) -> Tensor:
    out = a.data + b.data

    def bwd(g):
        return _reduce_to(g, a.data.shape), _reduce_to(g, b.data.shape)

    return T.apply(out, (a, b), bwd)


def sub(a: Tensor, b: Tensor) -> Tensor:
    out = a.data - b.data

    def bwd(g):
        return _reduce_to(g, a.data.shape), _reduce_to(-g, b.data.shape)

    return T.apply(out, (a, b), bwd)


def mul(a: Tensor, b: Tensor) -> Tensor:
    out = a.data * b.data

    def bwd(g):
        return _reduce_to(g * b.data, a.data.shape), _reduce_to(g * a.data, b.data.shape)

    return T.apply(out, (a, b), bwd)


def neg(a: Tensor) -> Tensor:
    return T.apply(-a.data, (a,), lambda g: (-g,))


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.ndim != 2 or b.data.ndim not in (1, 2):
        raise ShapeError(f"matmul supports 2D @ 1D/2D, got {a.shape} @ {b.shape}")
    if a.data.shape[1] != b.data.shape[0]:
        raise ShapeError(f"matmul inner dims disagree: {a.shape} @ {b.shape}")
    out = a.data @ b.data

    if b.data.ndim == 2:
        def bwd(g):
            return g @ b.data.T, a.data.T @ g
    else:
        def bwd(g):
            return np.outer(g, b.data), a.data.T @ g

    return T.apply(out, (a, b), bwd)


def reshape(a: Tensor, shape) -> Tensor:
    shape = tuple(int(s) for s in shape)
    return T.apply(a.data.reshape(shape), (a,), lambda g: (g.reshape(a.data.shape),))


def sum_all(a: Tensor) -> Tensor:
    return T.apply(np.asarray(a.data.sum()), (a,), lambda g: (np.broadcast_to(g, a.data.shape).copy(),))


def mean_all(a: Tensor) -> Tensor:
    n = a.data.size
    return T.apply(
        np.asarray(a.data.mean()),
        (a,),
        lambda g: (np.broadcast_to(g / n, a.data.shape).copy(),),
    )


def transpose(a: Tensor) -> Tensor:
    if a.data.ndim != 2:
        raise ShapeError(f"transpose needs a 2D tensor, got shape {a.shape}")
    return T.apply(a.data.T.copy(), (a,), lambda g: (g.T,))


def concat_rows(tensors) -> Tensor:
    tensors = list(tensors)
    if not tensors or any(t.data.ndim != 2 for t in tensors):
        raise ShapeError("concat_rows needs a non-empty list of 2D tensors")
    out = np.concatenate([t.data for t in tensors], axis=0)
    counts = [t.data.shape[0] for t in tensors]

    def bwd(g):
        parts, start = [], 0
        for n in counts:
            parts.append(g[start:start + n])
            start += n
        return tuple(parts)

    return T.apply(out, tensors, bwd)


def get_row(a: Tensor, i: int) -> Tensor:
    if a.data.ndim != 2:
        raise ShapeError(f"get_row needs a 2D tensor, got shape {a.shape}")

    def bwd(g):
        full = np.zeros_like(a.data)
        full[i] = g
        return (full,)

    return T.apply(a.data[i].copy(), (a,), bwd)


def take_rows(a: Tensor, indices) -> Tensor:
    idx = np.asarray(indices, dtype=np.int64)
    if a.data.ndim != 2:
        raise ShapeError(f"take_rows needs a 2D tensor, got shape {a.shape}")

    def bwd(g):
        full = np.zeros_like(a.data)
        np.add.at(full, idx, g)
        return (full,)

    return T.apply(a.data[idx].copy(), (a,), bwd)


def repeat_rows(a: Tensor, n: int) -> Tensor:
    """Repeat each row of a 2D tensor n consecutive times."""
    if a.data.ndim != 2 or n < 1:
        raise ShapeError(f"repeat_rows needs a 2D tensor and n >= 1, got {a.shape}, n={n}")
    out = np.repeat(a.data, n, axis=0)

    def bwd(g):
        return (g.reshape(a.data.shape[0], n, -1).sum(axis=1),)

    return T.apply(out, (a,), bwd)


def sum_axis(a: Tensor, axis: int) -> Tensor:
    if a.data.ndim != 2 or axis not in (0, 1):
        raise ShapeError(f"sum_axis supports 2D tensors over axis 0/1, got {a.shape}, axis={axis}")
    out = a.data.sum(axis=axis)

    def bwd(g):
        if axis == 0:
            return (np.broadcast_to(g, a.data.shape).copy(),)
        return (np.broadcast_to(g[:, None], a.data.shape).copy(),)

    return T.apply(out, (a,), bwd)


def elu(a: Tensor) -> Tensor:
    out = T.elu(a.data.copy())
    return T.apply(out, (a,), lambda g: (g * T.elu_slope(out),))


def softplus(a: Tensor) -> Tensor:
    out = np.logaddexp(0.0, a.data)
    return T.apply(out, (a,), lambda g: (g * T.sigmoid(a.data),))


def linear_forward(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """Affine map out[i, j] = sum_k x[i, k] * w[k, j] + b[j]."""
    if x.data.ndim != 2 or w.data.ndim != 2 or b.data.ndim != 1:
        raise ShapeError(
            f"linear_forward needs x 2D, w 2D, b 1D; got x{x.shape}, w{w.shape}, b{b.shape}"
        )
    if x.data.shape[1] != w.data.shape[0] or w.data.shape[1] != b.data.shape[0]:
        raise ShapeError(
            f"linear_forward shapes disagree: x{x.shape} @ w{w.shape} + b{b.shape}"
        )
    out = x.data @ w.data + b.data

    def bwd(g):
        return g @ w.data.T, x.data.T @ g, g.sum(axis=0)

    return T.apply(out, (x, w, b), bwd)


def cosine_similarity(a: Tensor, b: Tensor) -> Tensor:
    """Cosine of the angle between two 1D vectors, in [-1, 1]."""
    if a.data.ndim != 1 or b.data.ndim != 1 or a.data.shape != b.data.shape:
        raise ShapeError(f"cosine_similarity needs matching 1D vectors, got {a.shape}, {b.shape}")
    na = np.linalg.norm(a.data)
    nb = np.linalg.norm(b.data)
    if na <= T.EPS_NORM or nb <= T.EPS_NORM:
        raise DegenerateVectorError("cosine_similarity saw a near-zero vector")
    c = float(a.data @ b.data / (na * nb))

    def bwd(g):
        ga = g * (b.data / (na * nb) - c * a.data / (na * na))
        gb = g * (a.data / (na * nb) - c * b.data / (nb * nb))
        return ga, gb

    return T.apply(np.asarray(c), (a, b), bwd)


def log_sum_exp(a: Tensor) -> Tensor:
    """log(sum(exp(x))) over a 1D vector, stabilized by max subtraction."""
    if a.data.ndim != 1 or a.data.size == 0:
        raise ShapeError(f"log_sum_exp needs a non-empty 1D vector, got shape {a.shape}")
    m = a.data.max()
    e = np.exp(a.data - m)
    s = e.sum()
    out = np.asarray(m + np.log(s))

    def bwd(g):
        return (g * e / s,)

    return T.apply(out, (a,), bwd)


def rowwise_dot_grouped(feats: Tensor, anchors: np.ndarray, group: int) -> Tensor:
    """Dot each row block of `feats` against its owning anchor row.

    feats has shape (B*group, D) laid out block-by-block; anchors is a
    constant (B, D) array. Returns (B, group) with
    out[i, c] = feats[i*group + c] . anchors[i].
    """
    anchors = np.asarray(anchors, dtype=feats.data.dtype)
    if feats.data.ndim != 2 or anchors.ndim != 2 or feats.data.shape[1] != anchors.shape[1]:
        raise ShapeError(f"rowwise_dot_grouped shapes disagree: {feats.shape} vs {anchors.shape}")
    b = anchors.shape[0]
    if feats.data.shape[0] != b * group:
        raise ShapeError(
            f"rowwise_dot_grouped expected {b * group} rows, got {feats.data.shape[0]}"
        )
    blocks = feats.data.reshape(b, group, -1)
    out = np.einsum("bgd,bd->bg", blocks, anchors)

    def bwd(g):
        gf = np.einsum("bg,bd->bgd", g, anchors)
        return (gf.reshape(feats.data.shape),)

    return T.apply(out, (feats,), bwd)


def primitive_cases():
    """(name, leaf shapes, builder) per primitive above, in the form of
    `spdg.gradcheck._primitive_cases`, for `run_primitive_checks`."""
    return [
    ("add", [(3, 4)], lambda rng: (lambda x, c=rng.normal(size=(3, 4)): sum_all(add(x, Tensor(c))))),
    ("add_broadcast", [(3, 4)], lambda rng: (lambda x, c=rng.normal(size=4): sum_all(add(x, Tensor(c))))),
    ("sub", [(3, 4)], lambda rng: (lambda x, c=rng.normal(size=(3, 4)): sum_all(sub(Tensor(c), x)))),
    ("mul", [(3, 4)], lambda rng: (lambda x, c=rng.normal(size=(3, 4)): sum_all(mul(x, Tensor(c))))),
    ("mul_broadcast", [(3, 4)], lambda rng: (lambda x, c=rng.normal(size=4): sum_all(mul(x, Tensor(c))))),
    ("neg", [(5,)], lambda rng: (lambda x: sum_all(neg(x)))),
    ("matmul", [(3, 4)], lambda rng: (lambda x, c=rng.normal(size=(4, 2)): sum_all(matmul(x, Tensor(c))))),
    ("matmul_left", [(4, 2)], lambda rng: (lambda x, a=rng.normal(size=(3, 4)): sum_all(matmul(Tensor(a), x)))),
    ("matvec", [(3, 4)], lambda rng: (lambda x, c=rng.normal(size=4): sum_all(matmul(x, Tensor(c))))),
    ("reshape", [(3, 4)], lambda rng: (lambda x, w=rng.normal(size=12): sum_all(mul(reshape(x, (12,)), Tensor(w))))),
    ("sum_all", [(3, 4)], lambda rng: (lambda x: sum_all(x))),
    ("mean_all", [(3, 4)], lambda rng: (lambda x: mean_all(x))),
    ("transpose", [(3, 4)], lambda rng: (lambda x, w=rng.normal(size=(4, 3)): sum_all(mul(transpose(x), Tensor(w))))),
    ("concat_rows", [(2, 3)], lambda rng: (lambda x, c=rng.normal(size=(2, 3)), w=rng.normal(size=(4, 3)):
                                           sum_all(mul(concat_rows([x, Tensor(c)]), Tensor(w))))),
    ("get_row", [(4, 3)], lambda rng: (lambda x, w=rng.normal(size=3): sum_all(mul(get_row(x, 2), Tensor(w))))),
    ("take_rows", [(4, 3)], lambda rng: (lambda x, w=rng.normal(size=(3, 3)):
                                         sum_all(mul(take_rows(x, [0, 2, 0]), Tensor(w))))),
    ("repeat_rows", [(3, 2)], lambda rng: (lambda x, w=rng.normal(size=(6, 2)):
                                           sum_all(mul(repeat_rows(x, 2), Tensor(w))))),
    ("sum_axis0", [(3, 4)], lambda rng: (lambda x, w=rng.normal(size=4): sum_all(mul(sum_axis(x, 0), Tensor(w))))),
    ("sum_axis1", [(3, 4)], lambda rng: (lambda x, w=rng.normal(size=3): sum_all(mul(sum_axis(x, 1), Tensor(w))))),
    ("elu", [(3, 4)], lambda rng: (lambda x: sum_all(elu(x)))),
    ("softplus", [(3, 4)], lambda rng: (lambda x: sum_all(softplus(x)))),
    ("linear_forward_x", [(3, 4)], lambda rng: (lambda x, w=rng.normal(size=(4, 2)), b=rng.normal(size=2):
                                                sum_all(linear_forward(x, Tensor(w), Tensor(b))))),
    ("linear_forward_w", [(4, 2)], lambda rng: (lambda x, a=rng.normal(size=(3, 4)), b=rng.normal(size=2):
                                                sum_all(linear_forward(Tensor(a), x, Tensor(b))))),
    ("linear_forward_b", [(2,)], lambda rng: (lambda x, a=rng.normal(size=(3, 4)), w=rng.normal(size=(4, 2)):
                                              sum_all(linear_forward(Tensor(a), Tensor(w), x)))),
    ("cosine_similarity", [(5,)], lambda rng: (lambda x, c=rng.normal(size=5) + 2.0:
                                               cosine_similarity(add(x, constant(3.0)), Tensor(c)))),
    ("log_sum_exp", [(6,)], lambda rng: (lambda x: log_sum_exp(x))),
    ("rowwise_dot_grouped", [(6, 3)], lambda rng: (lambda x, a=rng.normal(size=(2, 3)), w=rng.normal(size=(2, 3)):
                                                   sum_all(mul(rowwise_dot_grouped(x, a, group=3), Tensor(w))))),
    ]
