"""Training objectives for the style prompter.

Three parts, combined as a weighted sum:
  * domain discrimination: a contrastive pull/push over unit-normalized style
    samples, positives being same-domain samples, with the anchor's own term
    excluded and the denominator running over every other sample;
  * style regularization: cosine penalty tying prompted text features to
    per-class mean anchors built from hand-crafted domain-style texts;
  * classification: cross-entropy over scaled image-text cosine logits, with
    per-image candidate prompts built from that image's own style.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .encoders import (
    PSEUDO_TOKEN,
    STYLE_WORDS,
    FrozenEncoderBundle,
    domain_style_text,
    encode_text,
    encode_text_batch,
    fill_style_slot_batch,
    project_image,
    style_prompt_text,
    tokenize,
)
from .errors import BatchCompositionError, ConfigError, NormalizationError, ShapeError
from .tensor import Tensor

NORM_TOLERANCE = 1e-6
# Smallest numerator kept under the shared shift: far above the subnormals, so
# no term large enough to matter has underflowed.
LOW_MASS = 1e-280


@dataclass
class LossWeights:
    w_d: float = 0.1
    w_reg: float = 1.0
    tau_d: float = 0.1
    ce_scale: float = 1.0

    def __post_init__(self):
        if self.w_d < 0 or self.w_reg < 0:
            raise ConfigError(f"loss weights must be >= 0, got w_d={self.w_d}, w_reg={self.w_reg}")
        if self.tau_d <= 0:
            raise ConfigError(f"temperature must be > 0, got {self.tau_d}")
        if self.ce_scale <= 0:
            raise ConfigError(f"ce_scale must be > 0, got {self.ce_scale}")


@dataclass
class RegAnchorTable:
    """One unit-norm mean text feature per class, frozen for the whole run."""

    classes: list[str]
    anchors: np.ndarray  # (C, d_f), unit rows


@dataclass
class LossParts:
    loss_ce: Tensor
    loss_d: Tensor | None = None
    loss_reg: Tensor | None = None


def domain_discrimination_loss(samples: Tensor, domains, tau: float) -> Tensor:
    """Mean over anchors of -log(same-domain mass / all-others mass).

    Rows of `samples` must be finite and already L2-normalized. Every anchor
    needs at least one other sample from its own domain; a batch violating
    that is an error, never a silent skip.

    One fused primitive whose only N x N buffer is E (outside the small-tau
    fallback below):
      * rows are stably sorted by domain, so each domain's pairs form one
        diagonal block of E and a row's numerator is its sum over that block
        (with one domain the block is all of E, so num == den bit for bit);
      * one shared shift, (max row norm)^2 / tau, rides in the GEMM as an
        extra column; by Cauchy-Schwarz it bounds every entry of
        S = u u^T / tau, so E = exp(S - shift) cannot overflow, is symmetric
        and needs no row max;
      * the closed-form (supervised-contrastive) backward (W + W^T) u with
        W = E * (1/den - same/num) / (N tau) is one GEMM E @ [u, u/den] plus
        one small GEMM per diagonal block for the numerator terms, so W is
        never formed;
      * a row whose numerator falls below LOW_MASS under the shared shift
        (possible only for tau below 2/645, about 3e-3) takes its
        log-denominator, log-numerator and weights from its own maxima
        instead, and drops out of the E products in the backward.
    The gradient is un-permuted back to the caller's row order.
    """
    if tau <= 0:
        raise ConfigError(f"temperature must be > 0, got {tau}")
    dom = np.asarray(domains, dtype=np.int64)
    u = samples.data
    n = u.shape[0]
    if u.ndim != 2 or n == 0 or dom.shape != (n,):
        raise ShapeError(
            f"expected (N, d) samples with N domain labels, got {samples.shape}, {dom.shape}"
        )
    sq = np.einsum("ij,ij->i", u, u)
    max_sq = sq.max()
    # a NaN row makes both reductions NaN, which fails the comparison
    if not ((1.0 - NORM_TOLERANCE) ** 2 <= sq.min() and max_sq <= (1.0 + NORM_TOLERANCE) ** 2):
        worst = float(np.max(np.abs(np.sqrt(sq) - 1.0)))
        raise NormalizationError(
            "style samples must be finite and unit-norm before domain discrimination "
            f"(max deviation {worst:.3e})"
        )
    order = np.argsort(dom, kind="stable")
    sorted_dom = dom[order]
    opens = np.concatenate(([True], sorted_dom[1:] != sorted_dom[:-1]))
    starts = np.flatnonzero(opens)
    bounds = starts.tolist() + [n]
    blocks = list(zip(bounds, bounds[1:]))
    if min(t - s for s, t in blocks) < 2:
        counts = np.diff(bounds)
        lonely = np.sort(order[np.repeat(counts < 2, counts)])
        raise BatchCompositionError(
            f"anchors without a same-domain positive: rows {lonely.tolist()}"
        )

    d = u.shape[1]
    us = u[order]
    # [us / tau, -shift] @ [us, 1]^T = S - shift in one GEMM, with no N x N pass
    left = np.empty((n, d + 1))
    np.multiply(us, 1.0 / tau, out=left[:, :d])
    left[:, d] = -max_sq / tau
    right = np.empty((n, d + 1))
    right[:, :d] = us
    right[:, d] = 1.0
    e = left @ right.T
    np.exp(e, out=e)
    np.fill_diagonal(e, 0.0)
    block_of = np.cumsum(opens) - 1
    mass = np.add.reduceat(e, starts, axis=1)  # (N, K) row sums over each domain's columns
    den = mass.sum(axis=1)
    num = mass[np.arange(n), block_of]

    low = w_low = None
    if num.min() < LOW_MASS:
        # rows whose positives sit far below the shared shift: exact values
        # from each row's own maxima, as (weights, log-sum-exp) pairs
        low = np.flatnonzero(num < LOW_MASS)
        sims = (us[low] @ us.T) * (1.0 / tau)
        sims[np.arange(low.size), low] = -np.inf
        p_low, log_den_low = _softmax_rows(sims)
        q_low, log_num_low = _softmax_rows(
            np.where(block_of[low, None] == block_of, sims, -np.inf))
        w_low = p_low - q_low
        den[low] = num[low] = 1.0  # placeholders, so no log or division sees a zero
    gap = np.log(den / num)
    if low is not None:
        gap[low] = log_den_low - log_num_low
    out = np.asarray(gap.sum() / n)

    def bwd(g):
        scale = float(g) / (n * tau)
        p = scale / den
        q = scale / num
        if low is not None:
            p[low] = q[low] = 0.0
        x = np.empty((n, 2 * d))
        x[:, :d] = us
        np.multiply(us, p[:, None], out=x[:, d:])
        y = e @ x  # E = E^T, so this one product carries both W u and W^T u of the denominator
        grad = y[:, :d] * p[:, None] + y[:, d:]
        np.multiply(us, q[:, None], out=x[:, d:])
        for s, t in blocks:  # the numerator part: E restricted to each domain's block
            np.matmul(e[s:t, s:t], x[s:t], out=y[s:t])
        grad -= y[:, :d] * q[:, None] + y[:, d:]
        if low is not None:
            w = scale * w_low
            grad[low] += w @ us
            grad += w.T @ us[low]
        unsorted = np.empty_like(grad)
        unsorted[order] = grad
        return (unsorted,)

    return T.apply(out, (samples,), bwd)


def _softmax_rows(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row softmax and row log-sum-exp, each row shifted by its own max."""
    top = a.max(axis=1)
    w = np.exp(a - top[:, None])
    mass = w.sum(axis=1)
    w /= mass[:, None]
    return w, top + np.log(mass)


def build_reg_anchors(bundle: FrozenEncoderBundle, classes,
                      style_words=STYLE_WORDS) -> RegAnchorTable:
    """Per class: encode every domain-style text, unit-normalize, average, renormalize."""
    anchors = np.zeros((len(classes), bundle.dims.d_f))
    for ci, cls in enumerate(classes):
        feats = []
        for word in style_words:
            ids = tokenize(domain_style_text(word, cls), bundle)
            emb = bundle.weights["tok_emb"][np.asarray(ids, dtype=np.int64)]
            feat = encode_text(bundle, Tensor(emb)).data
            feats.append(feat / np.linalg.norm(feat))
        mean = np.mean(feats, axis=0)
        anchors[ci] = mean / np.linalg.norm(mean)
    return RegAnchorTable(classes=list(classes), anchors=anchors)


def style_regularization_loss(text_feats: Tensor, class_labels, table: RegAnchorTable) -> Tensor:
    """Mean of (1 - cosine) between each prompted text feature and its class anchor."""
    labels = np.asarray(class_labels, dtype=np.int64)
    b = text_feats.data.shape[0]
    if text_feats.data.ndim != 2 or labels.shape != (b,):
        raise ShapeError(f"expected (B, d_f) features with B labels, got {text_feats.shape}")
    if labels.min(initial=0) < 0 or labels.max(initial=-1) >= len(table.classes):
        raise ConfigError(f"class label outside anchor table of size {len(table.classes)}")
    unit = T.l2_normalize(text_feats)
    cos = T.rowwise_dot_grouped(unit, table.anchors[labels], group=1)
    return T.add(T.neg(T.mean_all(cos)), T.constant(1.0))


def prompt_text_features(bundle: FrozenEncoderBundle, styles: Tensor, classes) -> Tensor:
    """Text features for every (image, class) prompt "SP [CLASS]." pair.

    styles is (B, d_t); the result is (B*C, d_f), row i*C + c holding the
    feature of class c prompted with image i's style. Prompts are assembled
    per token-length group: one table lookup broadcast over the batch, one
    slot fill and one encoder call per group, then one gather into final
    order when classes have names of several lengths.
    """
    if styles.data.ndim != 2:
        raise ShapeError(f"styles must be (B, d_t), got {styles.shape}")
    b = styles.data.shape[0]
    n_classes = len(classes)
    d_t = bundle.dims.d_t
    table = bundle.weights["tok_emb"]
    by_length: dict[int, list[int]] = {}
    tails: list[list[int]] = []
    for c, cls in enumerate(classes):
        ids = tokenize(style_prompt_text(cls), bundle)
        if ids[0] != PSEUDO_TOKEN:
            raise ShapeError("style prompt must start with the pseudo token")
        tails.append(ids[1:])
        by_length.setdefault(len(ids), []).append(c)

    pieces, rows = [], []
    for length, group in by_length.items():
        g = len(group)
        prompt = np.zeros((g, length, d_t))
        prompt[:, 1:] = table[np.asarray([tails[c] for c in group], dtype=np.int64)]
        base = np.broadcast_to(prompt, (b, g, length, d_t)).reshape(b * g, length, d_t)
        emb = fill_style_slot_batch(styles, base, np.repeat(np.arange(b), g))
        pieces.append(encode_text_batch(bundle, emb))
        rows.append((np.arange(b)[:, None] * n_classes + np.asarray(group)).ravel())
    if len(pieces) == 1:  # one group holds every class in order
        return pieces[0]
    # row k of the concatenation is final row rows[k]; gather by the inverse
    source = np.empty(b * n_classes, dtype=np.int64)
    source[np.concatenate(rows)] = np.arange(b * n_classes)
    return T.take_rows(T.concat_rows(pieces), source)


def classification_loss(bundle: FrozenEncoderBundle, z_batch: np.ndarray, styles: Tensor,
                        class_labels, classes) -> Tensor:
    """Cross-entropy over image-text similarity logits, per-image style prompts."""
    return prompted_ce_and_reg(bundle, z_batch, styles, class_labels, classes)[0]


def prompted_ce_and_reg(bundle: FrozenEncoderBundle, z_batch: np.ndarray, styles: Tensor,
                        class_labels, classes,
                        anchors: RegAnchorTable | None = None) -> tuple[Tensor, Tensor | None]:
    """Classification loss plus (optionally) the regularizer, sharing one text pass.

    The regularizer consumes the text features of each image's ground-truth
    prompt, which are a subset of the candidate features the classifier builds.
    """
    labels = np.asarray(class_labels, dtype=np.int64)
    z_batch = np.asarray(z_batch, dtype=np.float64)
    b = z_batch.shape[0]
    n_classes = len(classes)
    if labels.shape != (b,):
        raise ShapeError(f"expected {b} labels, got shape {labels.shape}")
    if labels.min(initial=0) < 0 or labels.max(initial=-1) >= n_classes:
        raise ConfigError(f"class label out of range for {n_classes} classes")
    feats = prompt_text_features(bundle, styles, classes)
    zp = project_image(bundle, z_batch)
    unit_z = zp / np.linalg.norm(zp, axis=1, keepdims=True)
    dots = T.rowwise_dot_grouped(T.l2_normalize(feats), unit_z, group=n_classes)
    logits = T.mul(dots, T.constant(bundle.logit_scale))
    loss_ce = cross_entropy_from_logits(logits, labels)
    loss_reg = None
    if anchors is not None:
        own = T.take_rows(feats, np.arange(b) * n_classes + labels)
        loss_reg = style_regularization_loss(own, labels, anchors)
    return loss_ce, loss_reg


def cross_entropy_from_logits(logits: Tensor, labels: np.ndarray) -> Tensor:
    """Mean of -log softmax(logits)[label], stabilized through log-sum-exp."""
    b, n_classes = logits.data.shape
    onehot = np.zeros((b, n_classes))
    onehot[np.arange(b), labels] = 1.0
    lse = T.masked_log_sum_exp_rows(logits, np.ones((b, n_classes), dtype=bool))
    picked = T.sum_axis(T.mul(logits, T.constant(onehot)), axis=1)
    return T.mean_all(T.sub(lse, picked))


def total_loss(parts: LossParts, weights: LossWeights) -> Tensor:
    """Weighted sum: w_d * discrimination + w_reg * regularization + ce."""
    total = T.mul(parts.loss_ce, T.constant(weights.ce_scale))
    if parts.loss_d is not None:
        total = T.add(total, T.mul(parts.loss_d, T.constant(weights.w_d)))
    if parts.loss_reg is not None:
        total = T.add(total, T.mul(parts.loss_reg, T.constant(weights.w_reg)))
    return total
