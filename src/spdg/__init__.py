"""Style-prompted domain generalization at desk scale.

A trainable style prompter inverts an image's style into a pseudo-word token
embedding that prefixes class-name prompts for a frozen, seeded stand-in of a
vision-language backbone. Training combines an open domain-discrimination
loss over unit-normalized style samples, a hand-crafted style regularizer,
and cross-entropy over image-text similarity logits.
"""
