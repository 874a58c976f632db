"""Training objectives for the style prompter.

Three parts, combined as a weighted sum:
  * domain discrimination: a contrastive pull/push over unit-normalized style
    samples, positives being same-domain samples, with the anchor's own term
    excluded and the denominator running over every other sample;
  * style regularization: cosine penalty tying prompted text features to
    per-class mean anchors built from hand-crafted domain-style texts;
  * classification: cross-entropy over scaled image-text cosine logits, with
    per-image candidate prompts built from that image's own style.
The regularizer and the classifier share one tape node over the prompted text
features (`classification_head`): each cosine is a raw dot over the feature
row's norm, and the backward builds the feature gradient from the (B, C)
logit gradient. The weighted sum is one more node.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .encoders import (
    STYLE_WORDS,
    FrozenEncoderBundle,
    domain_style_text,
    encode_text_batch,
    encode_texts,
    project_image,
)
from .errors import BatchCompositionError, ConfigError, NormalizationError, ShapeError, check_fields, check_range
from .tensor import Tensor

NORM_TOLERANCE = 1e-6
# Smallest numerator kept under the shared shift, per dtype of the N x N block:
# even at the most rows trainer.MAX_DOMAIN_LOSS_BYTES admits (about 11.6k), N
# times the dtype's smallest normal stays below 1e-10 of it, so the terms that
# were flushed or went subnormal are a negligible share of any kept mass.
LOW_MASS = {np.float64: 1e-280, np.float32: 1e-20}


@dataclass
class LossWeights:
    w_d: float = 0.1
    w_reg: float = 1.0
    tau_d: float = 0.1

    def __post_init__(self):
        check_fields(self)
        check_range("w_d", self.w_d, 0.0)
        check_range("w_reg", self.w_reg, 0.0)
        # the float32 domain-loss block scales rows by 1/tau_d and shifts them by about
        # 1/tau_d, so both are finite in float32 only for tau_d >= 2 / its largest value
        check_range("tau_d", self.tau_d, 2.0 / float(np.finfo(np.float32).max))


def domain_discrimination_loss(samples: Tensor, domains, tau: float,
                               dtype=np.float32) -> Tensor:
    """Mean over anchors of -log(same-domain mass / all-others mass).

    Rows of `samples` must be finite and already L2-normalized. Every anchor
    needs at least one other sample from its own domain; a batch violating
    that is an error, never a silent skip.

    One fused primitive whose only N x N buffer is E (outside the small-tau
    fallback below):
      * E and the GEMM operands that form and use it are of `dtype`: float32,
        the training precision, or float64, which the finite-difference
        checks need. Every N x N and N x d pass stays in `dtype`; the (K, N)
        per-domain sums are promoted, so den, num and the loss are float64,
        and the gradient is promoted once, as it is scattered back;
      * rows are stably sorted by domain into one operand [u, 1, indicator of
        the row's domain], so each domain's pairs form one diagonal block of E
        and the per-domain sums are one GEMM of E with the indicator (with one
        domain the block is all of E, so num == den bit for bit);
      * one shared shift, (max row norm)^2 / tau, rides in the GEMM as an
        extra column; by Cauchy-Schwarz it bounds every entry of
        S = u u^T / tau, and it is widened by the GEMM's worst rounding
        error, so E = exp(S - shift) cannot overflow, is symmetric and needs
        no row max;
      * the closed-form (supervised-contrastive) backward (W + W^T) u with
        W = E * (1/den - same/num) / (N tau) is, for p = 1/(N tau den) and
        q = 1/(N tau num) (rows of `dtype`), E_off the off-diagonal blocks of
        E and E_aa the diagonal ones, p E_off u + E_off p u + (p - q) E_aa u
        + E_aa (p - q) u. Each block of E is in one GEMM, the off-diagonal
        ones against [p u, u] and the diagonal ones against [u, (p - q) u],
        so W is never formed, and one domain (p = q) gives an exact zero;
      * a row whose numerator falls below LOW_MASS[dtype] under the shared
        shift (in float32 1e-20, reachable for tau below about 0.043; in
        float64 1e-280, only for tau below 2/645, about 3e-3) takes its
        log-denominator, log-numerator and weights from its own maxima in
        float64 instead, and drops out of the E products in the backward.
    The gradient is un-permuted back to the caller's row order.
    """
    if dtype not in (np.float32, np.float64):
        raise ConfigError(f"domain-loss dtype must be float32 or float64, got {dtype!r}")
    # so that 1/tau and the shift below, about 1/tau, are finite in dtype (see LossWeights)
    check_range("tau", tau, 2.0 / float(np.finfo(dtype).max))
    low_mass = LOW_MASS[np.dtype(dtype).type]
    dom = np.asarray(domains, dtype=np.int64)
    u = samples.data
    n = u.shape[0]
    if u.ndim != 2 or n == 0 or dom.shape != (n,):
        raise ShapeError(
            f"expected (N, d) samples with N domain labels, got {samples.shape}, {dom.shape}"
        )
    sq = np.vecdot(u, u)
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
    # [us / tau, -shift] @ [us, 1]^T = S - shift in one GEMM, with no N x N pass;
    # the shift's widening covers the rounding of a (d + 1)-term dot product
    left = np.empty((n, d + 1), dtype)
    np.multiply(us, 1.0 / tau, out=left[:, :d])
    left[:, d] = -max_sq / tau * (1.0 + 4 * (d + 2) * np.finfo(dtype).eps)
    # one sorted operand [us, 1, indicator of the row's domain], stored transposed:
    # E's right factor, the indicator of the per-domain sums, the backward's rows
    right = np.empty((d + 1 + len(blocks), n), dtype)
    right[:d] = us.T
    right[d] = 1.0
    onehot = right[d + 1:]
    np.equal(sorted_dom[starts, None], sorted_dom, out=onehot)
    e = left @ right[:d + 1]
    np.exp(e, out=e)
    np.fill_diagonal(e, 0.0)
    # (K, N) per-domain sums of E's rows, one GEMM of the indicator with E (E = E^T)
    mass = (onehot @ e).astype(np.float64)
    den = mass.sum(axis=0)
    num = (mass * onehot).sum(axis=0)

    low = w_low = None
    if num.min() < low_mass:
        # rows whose positives sit far below the shared shift: exact values
        # from each row's own maxima, as (weights, log-sum-exp) pairs
        low = np.flatnonzero(num < low_mass)
        sims = (us[low] @ us.T) * (1.0 / tau)
        sims[np.arange(low.size), low] = -np.inf
        p_low, log_den_low = _softmax_rows(sims)
        q_low, log_num_low = _softmax_rows(
            np.where(sorted_dom[low, None] == sorted_dom, sims, -np.inf))
        w_low = p_low - q_low
        den[low] = num[low] = 1.0  # placeholders, so no log or division sees a zero
    gap = np.log(den / num)
    if low is not None:
        gap[low] = log_den_low - log_num_low
    out = np.asarray(gap.sum() / n)

    def bwd(g):
        scale = float(g) / (n * tau)
        p = scale / den
        pq = np.array([p, p - scale / num], dtype)  # p and p - q, q = scale / num
        if low is not None:
            pq[:, low] = 0.0
        # z = [p u, u, (p - q) u]^T: E's off-diagonal blocks take its first 2d rows,
        # the diagonal blocks its last 2d
        rows = right[:d]
        z = np.concatenate((pq[0] * rows, rows, pq[1] * rows))
        # y = [E_off p u, E_off u, E_aa u, E_aa (p - q) u]^T, each block of E in one GEMM
        y = np.empty((4 * d, n), dtype)
        for s, t in blocks:
            np.matmul(z[d:, s:t], e[s:t, s:t], out=y[2 * d:, s:t])
            # E's off-diagonal rows of the block's columns, in at most two strips (one
            # domain has none, and the empty product writes zeros)
            (a, b), (c, f) = ((0, s), (t, n)) if s else ((t, n), (n, n))
            np.matmul(z[:2 * d, a:b], e[a:b, s:t], out=y[:2 * d, s:t])
            if c < f:
                y[:2 * d, s:t] += z[:2 * d, c:f] @ e[c:f, s:t]
        y = y.reshape(4, d, n)
        y[1:3] *= pq[:, None]
        y[:2] += y[2:]
        y[0] += y[1]
        grad = np.empty((n, d))
        grad[order] = y[0].T  # the one promotion to float64
        if low is not None:
            us = u[order]
            w = scale * w_low
            grad[order[low]] += w @ us
            grad[order] += w.T @ us[low]
        return (grad,)

    return T.apply(out, (samples,), bwd)


def _softmax_rows(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row softmax and row log-sum-exp, each row shifted by its own max."""
    top = a.max(axis=1)
    w = np.exp(a - top[:, None])
    mass = w.sum(axis=1)
    w /= mass[:, None]
    return w, top + np.log(mass)


def build_reg_anchors(bundle: FrozenEncoderBundle, classes) -> np.ndarray:
    """The (C, d_f) anchors, one unit row per class, frozen for the whole run: per
    class, encode every domain-style text, unit-normalize, average, renormalize."""
    texts = [domain_style_text(word, cls) for cls in classes for word in STYLE_WORDS]
    feats = encode_texts(bundle, texts)
    feats /= np.linalg.norm(feats, axis=1, keepdims=True)
    mean = feats.reshape(len(classes), len(STYLE_WORDS), bundle.dims.d_f).mean(axis=1)
    return mean / np.linalg.norm(mean, axis=1, keepdims=True)


def prompt_text_features(bundle: FrozenEncoderBundle, styles: Tensor, classes) -> Tensor:
    """Text features for every (image, class) prompt "SP [CLASS]." pair.

    styles is (B, d_t); the result is (B*C, d_f), row i*C + c holding the
    feature of class c prompted with image i's style, from one
    `encode_text_batch` node.
    """
    return encode_text_batch(bundle, styles, classes)


def classification_head(feats: Tensor, unit_z: np.ndarray, class_labels, scale: float,
                        anchors: np.ndarray | None = None):
    """Cross-entropy and, given anchors, the style regularizer as one tape node.

    feats is (B*C, d_f) with row i*C + c for image i and class c; unit_z holds
    the B unit image features. Each cosine is a raw feature-image dot divided
    by the feature row's checked norm (a degenerate norm raises), so no unit
    feature matrix is formed; the logits are scale * cosine, and the loss is
    the mean of row log-sum-exp minus the label's logit. The regularizer is
    the mean of 1 - cosine between each image's own-class row and the
    anchors[label] row. Returns loss_ce, or (loss_ce, loss_reg) with anchors.

    The backward starts from the (B, C) cosine gradient s: the feature
    gradient is (s / |f|) z - (s * cos / |f| / |f|) f, plus the regularizer's
    own-row terms, two products and one subtraction over the features. Each
    row is divided by its norm twice rather than by its square, so no
    intermediate overflows or underflows.
    """
    labels = np.asarray(class_labels, dtype=np.int64)
    b = unit_z.shape[0]
    n = feats.data.shape[0]
    if feats.data.ndim != 2 or unit_z.ndim != 2 or b == 0 or n % b:
        raise ShapeError(f"expected (B*C, d) features for {unit_z.shape} image rows, got {feats.shape}")
    n_classes = n // b
    if labels.shape != (b,):
        raise ShapeError(f"expected {b} labels, got shape {labels.shape}")
    if labels.min(initial=0) < 0 or labels.max(initial=-1) >= n_classes:
        raise ConfigError(f"class label out of range for {n_classes} classes")
    if anchors is not None and labels.max(initial=-1) >= anchors.shape[0]:
        raise ConfigError(f"class label outside anchor table of size {anchors.shape[0]}")
    f3 = feats.data.reshape(b, n_classes, -1)
    norms = T.checked_norms(f3, "prompted text feature")  # (B, C)
    rows = np.arange(b)
    cos = np.matmul(f3, unit_z[:, :, None])[..., 0]
    cos /= norms
    logits = cos * scale
    top = logits.max(axis=1)
    e = np.exp(logits - top[:, None])
    mass = np.add.reduce(e, axis=1)
    top += np.log(mass)
    top -= logits[rows, labels]
    loss_ce = np.asarray(np.add.reduce(top) / b)
    if anchors is not None:
        own = anchors[labels]
        own_norms = norms[rows, labels]
        own_cos = np.vecdot(f3[rows, labels], own)
        own_cos /= own_norms
        loss_reg = np.asarray(1.0 - np.add.reduce(own_cos) / b)

    def bwd(g):
        g_ce, g_reg = g if anchors is not None else (g, None)
        s = e * (float(g_ce) / b / mass)[:, None]  # dL/dlogits, then dL/dcos
        s[rows, labels] -= float(g_ce) / b
        s *= scale
        along = s * cos
        if g_reg is not None:
            along[rows, labels] -= (float(g_reg) / b) * own_cos
        s /= norms
        along /= norms
        along /= norms
        g_f = s[:, :, None] * unit_z[:, None, :]
        g_f -= along[:, :, None] * f3
        if g_reg is not None:
            g_f[rows, labels] -= ((float(g_reg) / b) / own_norms)[:, None] * own
        return (g_f.reshape(n, -1),)

    return T.apply(loss_ce if anchors is None else (loss_ce, loss_reg), (feats,), bwd)


def prompted_ce_and_reg(bundle: FrozenEncoderBundle, z_batch: np.ndarray, styles: Tensor,
                        class_labels, classes,
                        anchors: np.ndarray | None = None) -> tuple[Tensor, Tensor | None]:
    """Classification loss plus (optionally) the regularizer, sharing one text pass.

    The regularizer consumes the text features of each image's ground-truth
    prompt, which are a subset of the candidate features the classifier builds.
    A zero or non-finite projected image feature raises DegenerateVectorError.
    """
    feats = encode_text_batch(bundle, styles, classes)
    z_batch = np.asarray(z_batch, dtype=np.float64)
    unit_z, _ = T.unit_rows(project_image(bundle, z_batch), "projected image feature")
    out = classification_head(feats, unit_z, class_labels, bundle.logit_scale, anchors)
    return out if anchors is not None else (out, None)


def total_loss(weights: LossWeights, loss_ce: Tensor, loss_d: Tensor | None = None,
               loss_reg: Tensor | None = None) -> Tensor:
    """Weighted sum: ce + w_d * discrimination + w_reg * regularization.

    One tape node over the parts that are present, summed in that order.
    """
    terms = [(t, w) for t, w in ((loss_ce, 1.0), (loss_d, weights.w_d),
                                 (loss_reg, weights.w_reg)) if t is not None]
    out = terms[0][0].data * terms[0][1]
    for t, w in terms[1:]:
        out = out + t.data * w
    return T.apply(np.asarray(out), [t for t, _ in terms], lambda g: [g * w for _, w in terms])
