"""Offline prediction paths: style-prompted matching and zero-shot baselines.

Everything here is read-only over bundle and checkpoint state; no tape, no
parameter updates. Ties at the argmax go to the lowest class index.
"""

from __future__ import annotations

import numpy as np

from . import tensor as T
from .encoders import FrozenEncoderBundle, encode_image, encode_texts, project_image
from .errors import ConfigError, ShapeError
from .losses import prompt_text_features
from .prompter import style_for_prompt


def _one_row(x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1:
        raise ShapeError(f"expected one image vector, got shape {x.shape}")
    return x[None, :]


def _batch(x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or not len(x):
        raise ShapeError(f"expected a non-empty (n, d_x) batch, got shape {x.shape}")
    return x


def infer(bundle: FrozenEncoderBundle, prompter, x: np.ndarray, classes):
    """Classify one image: extract its style, prompt every class, take the argmax.

    A one-row predict_batch. Returns (predicted class name, per-class
    similarity scores).
    """
    preds, logits = predict_batch(bundle, prompter, _one_row(x), classes)
    return classes[int(preds[0])], logits[0]


def predict_batch(bundle: FrozenEncoderBundle, prompter, x: np.ndarray, classes):
    """Forward-only inference over (n, d_x) inputs: (argmax ids, logits scale * f.z / (|f| |z|))."""
    logits = prompted_cosines(bundle, prompter, x, classes)[0]
    logits *= bundle.logit_scale
    return logits.argmax(axis=1), logits


def prompted_cosines(bundle: FrozenEncoderBundle, prompter, x: np.ndarray, classes):
    """The (n, C) cosines f.z / (|f| |z|) of each image's prompted class texts f with
    its projected feature z, and the (n, d_f) projected features with their (n,) checked norms."""
    if not classes:
        raise ConfigError("class set must be non-empty")
    x = _batch(x)
    z = encode_image(bundle, x)
    styles = style_for_prompt(prompter, z)
    feats = prompt_text_features(bundle, styles, classes).data.reshape(x.shape[0], len(classes), -1)
    norms = T.checked_norms(feats, "prompted text feature")
    zp = project_image(bundle, z)
    z_norms = T.checked_norms(zp, "projected image feature")
    cos = np.vecdot(feats, zp[:, None, :])
    norms *= z_norms[:, None]
    cos /= norms
    return cos, zp, z_norms


def zero_shot_predict_batch(bundle: FrozenEncoderBundle, x: np.ndarray, class_texts):
    """(argmax ids, logits) of (n, d_x) inputs against one rendered text per class."""
    if not class_texts:
        raise ConfigError("class set must be non-empty")
    feats, _ = T.unit_rows(encode_texts(bundle, class_texts), "zero-shot text feature")
    zp = project_image(bundle, encode_image(bundle, _batch(x)))
    logits = T.unit_rows(zp, "projected image feature")[0] @ feats.T * bundle.logit_scale
    return logits.argmax(axis=1), logits


def accuracy(pred_ids: np.ndarray, labels: np.ndarray) -> float:
    pred_ids = np.asarray(pred_ids)
    labels = np.asarray(labels)
    return float((pred_ids == labels).mean())
