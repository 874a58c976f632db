"""Frozen, seeded stand-in for a pretrained vision-language backbone.

The bundle holds an image-encoder MLP, a token embedding table, a one-block
self-attention text encoder with sinusoidal positional encodings, and a
projection from image space into the shared image-text feature space. All
weights are drawn once from a seeded generator and never receive gradients;
they are plain numpy arrays, invisible to the tape.

Constant texts are encoded by a tape-free forward. The style prompts are one
differentiable primitive whose forward and vector-Jacobian product are
written out by hand for the one row the style changes, so a whole batch of
prompts costs one tape node. The finite-difference checker keeps it honest.
"""

from __future__ import annotations

import hashlib
import json
import math
from collections import Counter
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import tensor as T
from .blob import manifest_fields, read_blob, read_manifest, write_blob, write_json
from .errors import ConfigError, ShapeError, TokenizeError, check_fields, check_range
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

# Positional rows are scaled well below the unit-norm token embeddings.
# At full scale the shared positional component dominates every prompt and
# squeezes class cosines into a ~0.01 band, which the short training budget
# cannot pry apart.
POSITION_SCALE = 0.3

# The most bytes a bundle's float64 weights may take, the token table aside (its
# rows are the vocab's words, unknown to the dims); the default dims take 112,000.
MAX_BUNDLE_BYTES = 1 << 30


@dataclass(frozen=True)
class EncoderDims:
    d_x: int = 32   # raw image vector
    d_i: int = 64   # image feature
    d_t: int = 32   # token embedding
    d_f: int = 48   # shared image-text feature

    def __post_init__(self):
        check_fields(self)
        for name in ("d_x", "d_i", "d_t", "d_f"):
            check_range(name, getattr(self, name), 2)
        size = 8 * sum(math.prod(shape) for shape in _weight_shapes(self, 0).values())
        if size > MAX_BUNDLE_BYTES:
            raise ConfigError(f"dims {asdict(self)} need {size} bytes of encoder weights, "
                              f"over the cap of {MAX_BUNDLE_BYTES}")


def style_prompt_text(cls: str) -> str:
    return f"SP {cls}."


def domain_style_text(style_word: str, cls: str) -> str:
    return f"a {style_word} style of a {cls}."


def photo_caption_text(cls: str) -> str:
    return f"a photo of a {cls}"


def bare_class_text(cls: str) -> str:
    return cls


def text_words(text: str) -> list[str]:
    """The words a text is read as: lowercased, split on whitespace, and a period
    that ends a word split off as a word of its own."""
    words: list[str] = []
    for raw in text.lower().split():
        words.extend([raw[:-1], "."] if raw != "." and raw.endswith(".") else [raw])
    return words


# the most words a class name may have: what MAX_TEXT_LEN leaves beside the longest
# template's own words, counted around a one-word name
MAX_CLASS_WORDS = MAX_TEXT_LEN + 1 - max(len(text_words(text)) for text in (
    style_prompt_text("x"), photo_caption_text("x"), *(domain_style_text(w, "x") for w in STYLE_WORDS)))


def class_words(classes) -> list[tuple[str, ...]]:
    """Each class name's words. A name of no words, of more than MAX_CLASS_WORDS, or
    holding the pseudo-slot word "sp", and two names of the same words are a
    ConfigError: no prompt could hold the first three, and no score could tell the
    last apart."""
    words = [tuple(text_words(name)) for name in classes]
    first: dict[tuple[str, ...], str] = {}
    for name, w in zip(classes, words):
        if not w or "sp" in w:
            raise ConfigError(f"class name {name!r} must be one or more words, none of them 'sp'")
        if len(w) > MAX_CLASS_WORDS:
            raise ConfigError(f"class name {name!r} has {len(w)} words; a prompt holds at most {MAX_CLASS_WORDS}")
        if w in first:
            raise ConfigError(f"class names {first[w]!r} and {name!r} are the same words to a prompt")
        first[w] = name
    return words


def default_vocab(classes) -> list[str]:
    """Closed word list: the words of the templates, style words and class names, each once."""
    groups = (TEMPLATE_WORDS, STYLE_WORDS, classes)
    return list(dict.fromkeys(w for group in groups for entry in group for w in text_words(entry)))


def _sinusoidal_positions(length: int, dim: int) -> np.ndarray:
    pos = np.arange(length, dtype=np.float64)[:, None]
    idx = np.arange(dim, dtype=np.float64)[None, :]
    angles = pos / np.power(10000.0, (2.0 * np.floor(idx / 2.0)) / dim)
    table = np.where(idx % 2 == 0, np.sin(angles), np.cos(angles))
    return POSITION_SCALE * table


class FrozenEncoderBundle:
    """Immutable encoder weights plus vocabulary and logit scale. The constructor
    refuses a vocab other than a non-empty list of unique strings, a seed other
    than an int >= 0, a logit scale not > 0, and weights other than exactly the
    shapes that the dims and the vocab length give. The bundle owns the weight
    arrays and makes them read-only, because it caches one StylePromptPlan per
    class list built from them.
    """

    def __init__(self, dims: EncoderDims, vocab: list[str], seed: int,
                 logit_scale: float, weights: dict[str, np.ndarray]):
        if not (isinstance(vocab, list) and vocab and all(isinstance(w, str) for w in vocab)):
            raise ConfigError(f"vocab must be a non-empty list of strings, got {vocab!r:.80}")
        if len(set(vocab)) != len(vocab):
            dupes = sorted(w for w, k in Counter(vocab).items() if k > 1)
            raise ConfigError(f"vocab has duplicate words: {dupes}")
        if type(seed) is not int or seed < 0:  # bool and float are refused
            raise ConfigError(f"seed must be an int >= 0, got {type(seed).__name__} {seed!r}")
        check_range("logit_scale", logit_scale, 0.0, low_open=True)
        shapes = _weight_shapes(dims, len(vocab))
        if weights.keys() != shapes.keys():
            raise ConfigError(f"bundle weights must be {sorted(shapes)}, got {sorted(weights)}")
        for name, shape in shapes.items():
            if np.shape(weights[name]) != shape:
                raise ConfigError(f"bundle weight {name} has shape {np.shape(weights[name])}, but "
                                  f"the dims and the vocab's {len(vocab)} words give {shape}")
        self.dims = dims
        self.vocab = list(vocab)
        self.word_to_id = {w: i for i, w in enumerate(self.vocab)}
        self.seed = seed
        self.logit_scale = float(logit_scale)
        # in _weight_shapes order, read-only: an in-place edit would stale the prompt plans
        self.weights = {name: np.asarray(weights[name], dtype=np.float64) for name in shapes}
        self.positions = _sinusoidal_positions(MAX_TEXT_LEN, dims.d_t)
        for arr in (*self.weights.values(), self.positions):
            arr.setflags(write=False)
        self.prompt_plans: dict[tuple, StylePromptPlan] = {}  # see style_prompt_plan


def _weight_shapes(dims: EncoderDims, n_words: int) -> dict[str, tuple]:
    """Each weight's shape, in the order that checksums and files follow."""
    d_x, d_i, d_t, d_f = dims.d_x, dims.d_i, dims.d_t, dims.d_f
    return {"img_w1": (d_x, d_i), "img_b1": (d_i,), "img_w2": (d_i, d_i), "img_b2": (d_i,),
            "tok_emb": (n_words, d_t),
            "txt_wq": (d_t, d_t), "txt_wk": (d_t, d_t), "txt_wv": (d_t, d_t),
            "txt_wp": (d_t, d_f), "txt_bp": (d_f,), "proj_w": (d_i, d_f)}


def build_bundle(dims: EncoderDims, vocab: list[str], seed: int,
                 logit_scale: float = 100.0) -> FrozenEncoderBundle:
    """Draw all encoder weights from one seeded generator, in a fixed order."""
    rng = np.random.default_rng(seed)
    weights = {}
    for name, shape in _weight_shapes(dims, len(vocab)).items():
        if len(shape) == 1:  # a bias
            weights[name] = rng.normal(0.0, 0.1, size=shape)
        else:  # a weight over its input width; token embeddings are d_t wide
            fan_in = dims.d_t if name == "tok_emb" else shape[0]
            weights[name] = rng.normal(0.0, 1.0 / np.sqrt(fan_in), size=shape)
    return FrozenEncoderBundle(dims, vocab, seed, logit_scale, weights)


def encode_image(bundle: FrozenEncoderBundle, x: np.ndarray) -> np.ndarray:
    """Map raw image vectors into image feature space. Frozen, gradient-free."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape[-1] != bundle.dims.d_x:
        raise ShapeError(
            f"encode_image expected last dim {bundle.dims.d_x}, got shape {x.shape}"
        )
    wgt = bundle.weights
    h = T.affine(x, wgt["img_w1"], wgt["img_b1"])
    return T.affine(np.tanh(h, out=h), wgt["img_w2"], wgt["img_b2"])


def tokenize(text: str, bundle: FrozenEncoderBundle) -> list[int]:
    """Lowercase word-level split on whitespace and terminal period.

    The literal word "SP" maps to the pseudo slot (PSEUDO_TOKEN). Every other
    word must be in the bundle's vocabulary.
    """
    word_to_id = bundle.word_to_id
    if not text or not text.strip():
        raise TokenizeError("cannot tokenize empty text")

    ids: list[int] = []
    for word in text_words(text):
        if word == "sp":
            ids.append(PSEUDO_TOKEN)
        elif word in word_to_id:
            ids.append(word_to_id[word])
        else:
            raise TokenizeError(f"word not in vocabulary: {word!r}")
    if len(ids) > MAX_TEXT_LEN:
        raise TokenizeError(f"text longer than {MAX_TEXT_LEN} tokens: {text!r}")
    return ids


def encode_embeddings(bundle: FrozenEncoderBundle, emb: np.ndarray) -> np.ndarray:
    """Encode equal-length constant token embeddings, (m, L, d_t) -> (m, d_f). No tape."""
    emb = np.asarray(emb, dtype=np.float64)
    if emb.ndim != 3 or emb.shape[2] != bundle.dims.d_t:
        raise ShapeError(f"encode_embeddings expects (m, L, {bundle.dims.d_t}), got {emb.shape}")
    length = emb.shape[1]
    if length < 1 or length > MAX_TEXT_LEN:
        raise ShapeError(f"sequence length must be in [1, {MAX_TEXT_LEN}], got {length}")
    wgt = bundle.weights
    alpha = 1.0 / np.sqrt(bundle.dims.d_t)
    x = emb + bundle.positions[:length]
    q = x @ wgt["txt_wq"]
    k = x @ wgt["txt_wk"]
    v = x @ wgt["txt_wv"]
    scores = np.matmul(q, np.swapaxes(k, 1, 2)) * alpha
    e = np.exp(scores - scores.max(axis=-1, keepdims=True))
    attn = e / e.sum(axis=-1, keepdims=True)
    pooled = (np.matmul(attn, v) + x).mean(axis=1)
    return pooled @ wgt["txt_wp"] + wgt["txt_bp"]


def encode_texts(bundle: FrozenEncoderBundle, texts) -> np.ndarray:
    """Features of constant texts (no pseudo slot), one encoder call per token length."""
    ids_per_text = [tokenize(text, bundle) for text in texts]
    by_length: dict[int, list[int]] = {}
    for t, ids in enumerate(ids_per_text):
        if PSEUDO_TOKEN in ids:
            raise TokenizeError(f"text {texts[t]!r} has a pseudo slot but no style embedding")
        by_length.setdefault(len(ids), []).append(t)
    feats = np.empty((len(ids_per_text), bundle.dims.d_f))
    for group in by_length.values():
        ids = np.asarray([ids_per_text[t] for t in group], dtype=np.int64)
        feats[group] = encode_embeddings(bundle, bundle.weights["tok_emb"][ids])
    return feats


@dataclass(frozen=True)
class StylePromptPlan:
    """Everything in the prompts "SP [CLASS]." that the style row does not change.

    Class c has n_c tokens after the pseudo slot, so L_c = n_c + 1. Token
    arrays are padded to N = max n_c and laid out token-major (row j*C + c
    for token j of class c), so per-prompt reductions over tokens run over
    the outer axis. For slot rows x_0, scores @ x_0^T holds the slot query
    against each class key, then each class query against the slot key.
    Padding never carries weight: its score rows are zero, its bias -inf.
    Each class's value rows end in its constant, so one GEMM over the
    attention weights and a row of ones adds it. Every array is read-only,
    like the bundle weights: the plan is cached, and an edit would stale
    every later call.
    """

    w_style: np.ndarray   # (d_t, d_t + 2 d_f): [M | W_v W_p | W_p], M = alpha W_q W_k^T
    w_back: np.ndarray    # (d_t + 2 d_f, d_t): [M + M^T ; (W_v W_p)^T ; W_p^T]
    slot_pos: np.ndarray  # (d_t,) positional row of the pseudo slot
    scores: np.ndarray    # (2N C, d_t) [alpha K_c W_q^T ; alpha Q_c W_k^T]
    bias: np.ndarray      # (2N, C, 1) [0 ; -log-sum-exp of each class-class score row], -inf on padding
    values: np.ndarray    # (C, 2N + 1, d_f) [V_c W_p ; P_c V_c W_p] / L_c, P_c the class-class
                          # softmax, then the constant (sum of X_c) W_p / L_c + b_p
    inv_len: np.ndarray   # (C,) 1 / L_c

    def __post_init__(self):
        for arr in vars(self).values():
            arr.setflags(write=False)


def _build_style_prompt_plan(bundle: FrozenEncoderBundle, classes: tuple) -> StylePromptPlan:
    tails = []
    for cls in classes:
        ids = tokenize(style_prompt_text(cls), bundle)
        if PSEUDO_TOKEN in ids[1:]:
            raise TokenizeError(f"style prompt for {cls!r} has more than one pseudo slot")
        tails.append(ids[1:])
    wgt = bundle.weights
    d_t, d_f = bundle.dims.d_t, bundle.dims.d_f
    alpha = 1.0 / np.sqrt(d_t)
    n_classes, width = len(tails), max(map(len, tails))
    scores = np.zeros((2, width, n_classes, d_t))
    bias = np.full((2, width, n_classes, 1), -np.inf)
    values = np.zeros((n_classes, 2 * width + 1, d_f))
    inv_len = np.empty(n_classes)
    for c, tail in enumerate(tails):
        n = len(tail)
        inv_len[c] = 1.0 / (n + 1)
        x = wgt["tok_emb"][np.asarray(tail, dtype=np.int64)] + bundle.positions[1:n + 1]
        q, k = x @ wgt["txt_wq"], x @ wgt["txt_wk"]
        sims = (q @ k.T) * alpha
        top = sims.max(axis=1, keepdims=True)
        e = np.exp(sims - top)
        mass = e.sum(axis=1, keepdims=True)
        v_p = x @ wgt["txt_wv"] @ wgt["txt_wp"]
        scores[0, :n, c] = (k * alpha) @ wgt["txt_wq"].T
        scores[1, :n, c] = (q * alpha) @ wgt["txt_wk"].T
        bias[0, :n, c] = 0.0
        bias[1, :n, c] = -(top + np.log(mass))
        values[c, :n] = v_p * inv_len[c]
        values[c, width:width + n] = (e / mass) @ v_p * inv_len[c]
        values[c, -1] = x.sum(axis=0) @ wgt["txt_wp"] * inv_len[c] + wgt["txt_bp"]
    slot_score = (wgt["txt_wq"] * alpha) @ wgt["txt_wk"].T
    value_basis = np.concatenate([wgt["txt_wv"] @ wgt["txt_wp"], wgt["txt_wp"]], axis=1)
    return StylePromptPlan(
        w_style=np.concatenate([slot_score, value_basis], axis=1),
        w_back=np.concatenate([slot_score + slot_score.T, value_basis.T]),
        slot_pos=bundle.positions[0], scores=scores.reshape(-1, d_t),
        bias=bias.reshape(-1, n_classes, 1), values=values, inv_len=inv_len)


def style_prompt_plan(bundle: FrozenEncoderBundle, classes) -> StylePromptPlan:
    """The plan for this class list, built on first use and kept on the bundle."""
    key = tuple(classes)
    plan = bundle.prompt_plans.get(key)
    if plan is None:
        if not key:
            raise ConfigError("class set must be non-empty")
        plan = bundle.prompt_plans[key] = _build_style_prompt_plan(bundle, key)
    return plan


def encode_text_batch(bundle: FrozenEncoderBundle, styles: Tensor, classes) -> Tensor:
    """Encode the prompt "SP [CLASS]." for every (style, class) pair, one tape node.

    styles is (B, d_t); row i*C + c of the (B*C, d_f) result is class c
    prompted with style i. Only the pseudo-slot row x_0 depends on the style:
    a call projects the B slot rows once through [M | W_v W_p | W_p], with
    M = alpha W_q W_k^T, so the slot-slot score is (x_0 M) . x_0. Every other
    style-dependent score comes from one GEMM with the plan's score rows, into
    a (2N + 2, C, B) buffer: the slot-slot score, the slot query against the N
    class keys, the N class queries against the slot key, then a row of ones.
    The slot row's softmax runs over the first N + 1 rows. A class row's
    softmax is its constant class-class part plus one slot score t (less the
    part's log-sum-exp), so the slot's share is p = e^(t-m) / (e^(t-m) + e^-m),
    m = max(t, 0), and the class columns keep the plan's proportions scaled by
    q = 1 - p, which overwrites t. The pooled output is the attention column
    sums times the value rows plus the residual rows. Per class, buffer rows
    1.. (the slot row's class weights, the q's and the ones) times the plan's
    values, which end in the class constant, is one batched GEMM that writes
    the output in place; per style, [col_0 / L, 1 / L] times
    [v_0 W_p ; x_0 W_p] is added to it. The backward returns only the (B, d_t)
    gradient and sends both score blocks back through the plan's score rows in
    one GEMM, and the slot-slot score through M + M^T with the value basis in
    another.
    """
    s = styles.data
    d_t, d_f = bundle.dims.d_t, bundle.dims.d_f
    if s.ndim != 2 or s.shape[1] != d_t or not len(s):
        raise ShapeError(f"styles must be a non-empty (B, {d_t}) array, got {styles.shape}")
    plan = style_prompt_plan(bundle, classes)
    b = s.shape[0]
    n_classes, width = len(plan.inv_len), len(plan.bias) // 2

    x0 = s + plan.slot_pos
    proj = x0 @ plan.w_style
    basis = proj[:, d_t:].reshape(b, 2, d_f)  # [v_0 W_p ; x_0 W_p] per style
    att = np.empty((2 * width + 2, n_classes, b))
    scored = att[1:2 * width + 1]
    np.matmul(plan.scores, x0.T, out=scored.reshape(-1, b))
    scored += plan.bias
    np.vecdot(proj[:, :d_t], x0, out=att[0])
    att[-1] = 1.0  # weights each class's constant value row
    slot = att[:width + 1]
    slot -= np.maximum.reduce(slot, axis=0)
    np.exp(slot, out=slot)
    slot /= np.add.reduce(slot, axis=0)
    q = att[width + 1:-1]  # each class row's slot score t, then its class share q
    m = np.maximum(q, 0.0)
    p = np.exp(q - m)
    np.exp(np.negative(m, out=q), out=q)
    np.add(p, q, out=m)
    p /= m
    q /= m
    col0 = att[0] + np.add.reduce(p, axis=0)
    ext = np.empty((b, n_classes, 2))
    ext[:, :, 0] = (col0 * plan.inv_len[:, None]).T
    ext[:, :, 1] = plan.inv_len
    out = np.empty((b, n_classes, d_f))
    np.matmul(att[1:].transpose(1, 2, 0), plan.values, out=out.transpose(1, 0, 2))
    out += np.matmul(ext, basis)

    def bwd(g):
        g = g.reshape(b, n_classes, d_f)
        d = np.empty((2 * width + 1, n_classes, b))  # d col_0, then d of the rows 1..2N
        np.multiply(np.matmul(g, basis[:, 0, :, None])[:, :, 0].T, plan.inv_len[:, None], out=d[0])
        np.matmul(plan.values[:, :-1], g.transpose(1, 2, 0), out=d[1:].transpose(1, 0, 2))
        d_t_rows = d[width + 1:]
        np.subtract(d[0], d_t_rows, out=d_t_rows)
        d_t_rows *= p
        d_t_rows *= q
        d_slot = d[:width + 1]
        d_slot -= np.add.reduce(slot * d_slot, axis=0)
        d_slot *= slot
        d_proj = np.empty_like(proj)
        np.multiply(np.add.reduce(d[0], axis=0)[:, None], x0, out=d_proj[:, :d_t])
        d_proj[:, d_t:] = np.matmul(ext.transpose(0, 2, 1), g).reshape(b, 2 * d_f)
        d_x0 = d_proj @ plan.w_back
        d_x0 += d[1:].reshape(-1, b).T @ plan.scores
        return (d_x0,)

    return T.apply(out.reshape(b * n_classes, d_f), (styles,), bwd)


def project_image(bundle: FrozenEncoderBundle, z: np.ndarray) -> np.ndarray:
    """Project image features into the shared feature space (no gradient)."""
    z = np.asarray(z, dtype=np.float64)
    if z.shape[-1] != bundle.dims.d_i:
        raise ShapeError(f"project_image expected last dim {bundle.dims.d_i}, got {z.shape}")
    # bias-free so the projection is homogeneous: rescaling z cannot move logits
    return z @ bundle.weights["proj_w"]


def bundle_checksum(bundle: FrozenEncoderBundle) -> str:
    """SHA-256 over the vocab in order, the logit scale and every weight array in
    name order: all that maps a token or a score. Freeze-contract witness."""
    digest = hashlib.sha256(json.dumps([bundle.vocab, bundle.logit_scale]).encode())
    for name, weight in bundle.weights.items():
        digest.update(name.encode())
        digest.update(np.ascontiguousarray(weight).tobytes())
    return digest.hexdigest()


def save_bundle(bundle: FrozenEncoderBundle, directory) -> None:
    directory = Path(directory)
    manifest = {
        "format_version": BUNDLE_FORMAT_VERSION,
        "seed": bundle.seed,
        "dims": asdict(bundle.dims),
        "vocab": bundle.vocab,
        "logit_scale": bundle.logit_scale,
    }
    write_json(directory / "manifest.json", manifest)
    for name, weight in bundle.weights.items():
        write_blob(directory / f"{name}.spdg", weight)


def load_bundle(directory) -> FrozenEncoderBundle:
    """The bundle saved in directory; what its constructor refuses is a FormatError."""
    directory = Path(directory)
    manifest = read_manifest(directory / "manifest.json", "bundle", BUNDLE_FORMAT_VERSION)
    with manifest_fields(directory, "bundle"):
        dims = EncoderDims(*(manifest["dims"][k] for k in ("d_x", "d_i", "d_t", "d_f")))
        names = _weight_shapes(dims, 0)  # the weight names, whatever the vocab
        weights = {name: read_blob(directory / f"{name}.spdg") for name in names}
        return FrozenEncoderBundle(dims, manifest["vocab"], manifest["seed"],
                                   manifest["logit_scale"], weights)
