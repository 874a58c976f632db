"""Style-prompted domain generalization at desk scale.

A trainable style prompter inverts an image's style into a pseudo-word token
embedding that prefixes class-name prompts for a frozen, seeded stand-in of a
vision-language backbone. Training combines an open domain-discrimination
loss over unit-normalized style samples, a hand-crafted style regularizer,
and cross-entropy over image-text similarity logits.
"""

from .encoders import (
    STYLE_WORDS,
    EncoderDims,
    FrozenEncoderBundle,
    build_bundle,
    bundle_checksum,
    default_vocab,
    encode_image,
    encode_texts,
    load_bundle,
    save_bundle,
    tokenize,
)
from .errors import SpdgError
from .losses import (
    LossWeights,
    build_reg_anchors,
    domain_discrimination_loss,
    total_loss,
)
from .prompter import (
    StylePrompter,
    init_basic_prompter,
    init_gaussian_prompter,
    load_checkpoint,
    save_checkpoint,
    style_for_prompt,
)
from .tensor import Tape, Tensor, finite_diff_grad_check
from .trainer import RunConfig, train_style_prompter

__version__ = "0.1.0"

__all__ = [
    "STYLE_WORDS",
    "EncoderDims",
    "FrozenEncoderBundle",
    "LossWeights",
    "RunConfig",
    "SpdgError",
    "StylePrompter",
    "Tape",
    "Tensor",
    "build_bundle",
    "build_reg_anchors",
    "bundle_checksum",
    "default_vocab",
    "domain_discrimination_loss",
    "encode_image",
    "encode_texts",
    "finite_diff_grad_check",
    "init_basic_prompter",
    "init_gaussian_prompter",
    "load_bundle",
    "load_checkpoint",
    "save_bundle",
    "save_checkpoint",
    "style_for_prompt",
    "tokenize",
    "total_loss",
    "train_style_prompter",
    "__version__",
]
