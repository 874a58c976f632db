"""Optimization loop for the style prompter.

SGD with momentum and coupled weight decay, a fixed-rate warmup epoch followed
by per-step cosine annealing to zero, domain-stratified batches, and per-domain
90/10 train/validation splits. Only prompter parameters are updated; the
encoder bundle is checksummed before and after to witness the freeze contract.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, fields
from hashlib import sha256
from pathlib import Path

import numpy as np

from . import datagen
from .encoders import EncoderDims, build_bundle, bundle_checksum, default_vocab, encode_image, save_bundle
from .errors import ConfigError, DegenerateVectorError, NormalizationError, TrainingDiverged, check_range
from .inference import accuracy, predict_batch
from .losses import LossWeights, build_reg_anchors, domain_discrimination_loss, prompted_ce_and_reg, total_loss
from .prompter import (
    basic_forward,
    gaussian_forward,
    init_basic_prompter,
    init_gaussian_prompter,
    parameter_names,
    sample_styles_batch,
    save_checkpoint,
)
from .tensor import Tape, l2_normalize

# The largest N x N domain-loss block a recipe may ask for, N being its style rows per
# batch, counted at float64 width so that the float64 form of the loss fits too: at
# most 11,585 rows. Training forms the block in float32, N^2 * 4 bytes, so the
# default recipe's 480 rows make 0.9 MB.
MAX_DOMAIN_LOSS_BYTES = 1 << 30


@dataclass
class RunConfig:
    prompter_kind: str = "gaussian"
    use_style_reg: bool = True
    epochs: int = 3
    batch_size: int = 12
    mc_samples: int = 40
    lr_max: float = 0.002
    lr_warmup: float = 1e-5
    momentum: float = 0.9
    weight_decay: float = 5e-4
    weights: LossWeights = field(default_factory=LossWeights)
    seed: int = 0
    dims: EncoderDims = field(default_factory=EncoderDims)
    dataset: str = ""
    held_out_domain: str | None = None
    out_dir: str | None = None
    logit_scale: float = 100.0
    val_ratio: float = 0.9
    select_best: bool = False
    extra_classes: list = field(default_factory=list)

    def __post_init__(self):
        parameter_names(self.prompter_kind)  # an unknown kind is a ConfigError
        check_range("epochs", self.epochs, 1)
        check_range("batch_size", self.batch_size, 2)  # a positive pair per domain
        check_range("mc_samples", self.mc_samples, 1)
        # a zero rate is allowed: it trains nothing, a control run whose parameters stay put
        check_range("lr_max", self.lr_max, 0.0)
        check_range("lr_warmup", self.lr_warmup, 0.0)
        check_range("momentum", self.momentum, 0.0, 1.0)
        check_range("weight_decay", self.weight_decay, 0.0)
        check_range("seed", self.seed, 0)
        check_range("logit_scale", self.logit_scale, 0.0, low_open=True)
        check_range("val_ratio", self.val_ratio, 0.0, 1.0, low_open=True)
        rows = self.batch_size * (self.mc_samples if self.prompter_kind == "gaussian" else 1)
        if 8 * rows * rows > MAX_DOMAIN_LOSS_BYTES:
            raise ConfigError(f"{rows} style rows per batch need {8 * rows * rows} bytes for the "
                              f"float64 domain-loss matrix, over the cap of {MAX_DOMAIN_LOSS_BYTES}")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, raw: dict) -> "RunConfig":
        """Build from a to_dict()-shaped mapping; an unknown key or a value of
        the wrong JSON type is a ConfigError."""
        if not isinstance(raw, dict):
            raise ConfigError(f"a run config must be a JSON object, got {type(raw).__name__}")
        raw = dict(raw)
        for key, kind in (("weights", LossWeights), ("dims", EncoderDims)):
            if key in raw:
                if not isinstance(raw[key], dict):
                    raise ConfigError(f"run config key {key} must be an object, "
                                      f"got {type(raw[key]).__name__}")
                raw[key] = _from_fields(kind, raw[key], f"{key}.")
        return _from_fields(cls, raw, "")

    def config_hash(self) -> str:
        return sha256(json.dumps(self.to_dict(), sort_keys=True).encode()).hexdigest()[:12]


# the values each field annotation admits; bool is an int to isinstance, so it
# is accepted only where listed
_VALUE_TYPES = {
    "int": (int,), "float": (int, float), "bool": (bool,), "str": (str,),
    "str | None": (str, type(None)),
    "list": (list,), "LossWeights": (LossWeights,), "EncoderDims": (EncoderDims,),
}


def _from_fields(kind, raw: dict, prefix: str):
    types = {f.name: f.type for f in fields(kind)}
    unknown = sorted(set(raw) - set(types))
    if unknown:
        raise ConfigError(f"unknown run config keys: {[prefix + k for k in unknown]}")
    for key, value in raw.items():
        allowed = _VALUE_TYPES[types[key]]
        if (not isinstance(value, allowed) or (isinstance(value, bool) and bool not in allowed)
                or (isinstance(value, list) and not all(isinstance(v, str) for v in value))):
            raise ConfigError(f"run config key {prefix}{key} must be {types[key]}, "
                              f"got {type(value).__name__} {value!r}")
    return kind(**raw)


@dataclass
class OptimizerState:
    """Momentum state over one flat f64 buffer that holds every parameter.

    `for_params` copies the parameters into `flat` and rebinds each one's
    .data to a reshaped view of it, so a step is a few whole-buffer array
    operations.
    """

    flat: np.ndarray
    velocity: np.ndarray
    flat_grad: np.ndarray
    views: list[np.ndarray]
    step: int = 0

    @classmethod
    def for_params(cls, params) -> "OptimizerState":
        bounds = np.cumsum([0] + [p.data.size for p in params]).tolist()
        flat = np.empty(bounds[-1])
        velocity = np.zeros_like(flat)
        views = []
        for p, start, stop in zip(params, bounds, bounds[1:]):
            view = flat[start:stop].reshape(p.data.shape)
            view[...] = p.data
            p.data = view
            views.append(view)
        return cls(flat=flat, velocity=velocity, flat_grad=np.empty_like(flat), views=views)


def sgd_momentum_step(params, grads, state: OptimizerState, lr: float,
                      momentum: float, weight_decay: float) -> None:
    """p -= lr * v with v = momentum * v + (g + weight_decay * p).

    Decay is coupled: it joins the gradient before the velocity update and so
    is carried by momentum. Applied to every parameter, biases included, in
    place over the state's flat buffer.
    """
    if len(params) != len(grads) or len(params) != len(state.views):
        raise ConfigError("params, grads and velocities must align")
    for p, g, view in zip(params, grads, state.views):
        if p.data is not view:
            raise ConfigError("a parameter was rebound away from the optimizer's buffer")
        if g.shape != view.shape:
            raise ConfigError(f"grad shape {g.shape} does not match param shape {view.shape}")
    flat_grad = np.concatenate([g.reshape(-1) for g in grads], out=state.flat_grad)
    if not np.isfinite(flat_grad).all():
        raise TrainingDiverged(f"non-finite gradient at step {state.step}")
    flat_grad += weight_decay * state.flat
    state.velocity *= momentum
    state.velocity += flat_grad
    state.flat -= lr * state.velocity
    if not np.isfinite(state.flat).all():
        raise TrainingDiverged(f"non-finite parameter after step {state.step}")
    state.step += 1


def lr_at(step: int, steps_per_epoch: int, config: RunConfig) -> float:
    """The config's warmup epoch at lr_warmup, then cosine from lr_max to zero per step."""
    total_steps = steps_per_epoch * config.epochs
    if not (0 <= step < total_steps):
        raise ConfigError(f"step {step} outside schedule of {total_steps} steps")
    if step < steps_per_epoch:
        return config.lr_warmup
    t = step - steps_per_epoch
    t_cos = total_steps - steps_per_epoch
    return 0.5 * config.lr_max * (1.0 + np.cos(np.pi * t / t_cos))


def _n_train(size: int, ratio: float) -> int:
    """How many of a domain's size samples the split keeps for training: the
    ratio's share, rounded, but at least 1 and leaving at least 1 to validate."""
    return min(max(int(round(ratio * size)), 1), size - 1)


def split_train_val(indices_by_domain: dict, ratio: float, seed: int):
    """Per-domain seeded shuffle, then a ratio split. Disjoint and exhaustive."""
    train, val = {}, {}
    for d in sorted(indices_by_domain):
        idx = np.asarray(indices_by_domain[d])
        rng = np.random.default_rng([seed, int(d)])
        shuffled = idx.copy()
        rng.shuffle(shuffled)
        n_train = _n_train(idx.size, ratio)
        train[d] = shuffled[:n_train]
        val[d] = shuffled[n_train:]
    return train, val


def stratified_batches(train_by_domain: dict, batch_size: int, seed: int) -> list[np.ndarray]:
    """One epoch of batches where every present domain contributes >= 2 samples.

    Domains enter a batch two samples at a time; once present, they may add
    singles. A trailing partial batch is kept only when it still satisfies the
    two-per-domain contract, which the construction guarantees, so only an
    unpairable remainder is dropped. Under check_run's contract (a batch holds
    2 samples of each domain, and each domain has 2) every epoch has a batch.
    """
    order = sorted(train_by_domain)
    rng = np.random.default_rng(seed)
    pools = {}
    for d in order:
        pool = np.asarray(train_by_domain[d]).copy()
        rng.shuffle(pool)
        pools[d] = list(pool)

    batches = []
    while True:
        batch: list[int] = []
        present: set = set()
        while len(batch) < batch_size:
            progressed = False
            for d in order:
                if len(batch) >= batch_size:
                    break
                pool = pools[d]
                if not pool:
                    continue
                if d in present:
                    batch.append(pool.pop())
                    progressed = True
                elif len(pool) >= 2 and batch_size - len(batch) >= 2:
                    batch.append(pool.pop())
                    batch.append(pool.pop())
                    present.add(d)
                    progressed = True
            if not progressed:
                break
        if len(batch) == batch_size:
            batches.append(np.asarray(batch, dtype=np.int64))
        else:
            if len(batch) >= 2:
                batches.append(np.asarray(batch, dtype=np.int64))
            break
    return batches


@dataclass
class TrainResult:
    prompter: object
    bundle: object
    config: RunConfig
    metrics: list[dict]
    val_accuracies: list[float]
    encoder_checksum: str
    final_dir: str | None
    metrics_path: str | None


def _dump_diagnostics(out_dir, step, parts_values, params, grads):
    """Write the failing step's losses and norms; its gradient norms are null
    when grads is None, that is, when the step failed before its backward."""
    if out_dir is None:
        return None
    path = Path(out_dir) / f"diagnostics_step_{step}.json"
    payload = {
        "step": step,
        "losses": parts_values,
        "param_norms": {name: float(np.linalg.norm(p.data)) for name, p in params},
        "grad_norms": {name: None for name, _ in params} if grads is None else
                      {name: float(np.linalg.norm(g)) for (name, _), g in zip(params, grads)},
    }
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True))
    return str(path)


def check_sample_width(dataset, dims: EncoderDims, what: str = "dataset") -> None:
    """Reject a dataset whose samples are not dims.d_x wide, before any work on it."""
    if dataset.x.shape[1] != dims.d_x:
        raise ConfigError(f"{what} samples have d_x = {dataset.x.shape[1]}, "
                          f"but the config's dims.d_x is {dims.d_x}")


def check_run(dataset, config: RunConfig) -> list[int]:
    """The run's training domain ids, once the dataset fits the recipe. Checked
    before any work: the sample width, the held-out domain's name, a batch that
    holds 2 samples from each training domain, and a val_ratio that keeps at
    least 2 of a domain's samples for training. A dataset has at least 3
    domains, so at least 2 are left to train on."""
    check_sample_width(dataset, config.dims)
    held_out = config.held_out_domain
    if held_out is not None and held_out not in dataset.domains:
        raise ConfigError(f"held-out domain {held_out!r} not in dataset domains {dataset.domains}")
    train_domains = [d for d, name in enumerate(dataset.domains) if name != held_out]
    if config.batch_size < 2 * len(train_domains):
        raise ConfigError(
            f"batch size {config.batch_size} must be >= 2 x {len(train_domains)} training domains"
        )
    size = len(dataset.classes) * dataset.manifest.n_per_cell  # each domain's samples
    if (kept := _n_train(size, config.val_ratio)) < 2:
        raise ConfigError(f"val_ratio {config.val_ratio} keeps {kept} of each domain's {size} "
                          f"samples for training, need >= 2")
    return train_domains


def step_losses(bundle, prompter, z, labels, domains, classes, anchors, weights: LossWeights,
                eps, dtype=np.float32):
    """The training objective on one batch of image features z: (total, ce, domain, reg).

    The Gaussian prompter's domain loss runs over the reparameterized samples of
    eps, its (B*n, d_t) standard normal draw, n per image; its prompts carry the
    mean. The basic prompter's single embedding serves both, and its eps is None.
    anchors is build_reg_anchors' (C, d_f) array, or None without the
    regularizer. dtype is the precision of the domain loss's N x N block.
    """
    if prompter.kind == "gaussian":
        mu, sigma = gaussian_forward(prompter, z)
        style_samples = l2_normalize(sample_styles_batch(mu, sigma, eps))
        sample_domains = np.repeat(domains, len(eps) // len(domains))
        prompt_styles = mu
    else:
        prompt_styles = basic_forward(prompter, z)
        style_samples = l2_normalize(prompt_styles)
        sample_domains = domains
    loss_d = domain_discrimination_loss(style_samples, sample_domains, weights.tau_d, dtype=dtype)
    loss_ce, loss_reg = prompted_ce_and_reg(bundle, z, prompt_styles, labels, classes, anchors)
    total = total_loss(weights, loss_ce, loss_d, loss_reg)
    return total, loss_ce, loss_d, loss_reg


def train_style_prompter(config: RunConfig, dataset=None) -> TrainResult:
    """Run the full training recipe and return the trained prompter plus logs."""
    if dataset is None:
        if not config.dataset:
            raise ConfigError("config.dataset is empty and no dataset was passed")
        dataset = datagen.load(config.dataset)

    train_domains = check_run(dataset, config)
    out_dir = Path(config.out_dir) if config.out_dir else None
    if out_dir is not None and out_dir.exists() and (not out_dir.is_dir() or any(out_dir.iterdir())):
        # another run's checkpoints would be left beside this run's
        raise ConfigError(f"out_dir {out_dir} exists and is not an empty directory")

    vocab = default_vocab(list(dataset.classes) + list(config.extra_classes))
    bundle = build_bundle(config.dims, vocab, seed=config.seed, logit_scale=config.logit_scale)
    checksum_before = bundle_checksum(bundle)

    init = init_basic_prompter if config.prompter_kind == "basic" else init_gaussian_prompter
    prompter = init(config.dims.d_i, config.dims.d_t, seed_from(config.seed, 1))
    named_params = prompter.parameters()
    params = [p for _, p in named_params]

    anchors = build_reg_anchors(bundle, dataset.classes) if config.use_style_reg else None

    indices_by_domain = {d: dataset.domain_indices(d) for d in train_domains}
    train_idx, val_idx = split_train_val(indices_by_domain, config.val_ratio, seed_from(config.seed, 0))
    val_all = np.concatenate([val_idx[d] for d in sorted(val_idx)])

    epoch_batches = [
        stratified_batches(train_idx, config.batch_size, seed_from(config.seed, 3, epoch))
        for epoch in range(config.epochs)
    ]
    steps_per_epoch = len(epoch_batches[0])
    if any(len(b) != steps_per_epoch for b in epoch_batches):
        raise AssertionError("batch count drifted between epochs")

    mc_rng = np.random.default_rng([config.seed, 2])
    opt_state = OptimizerState.for_params(params)

    # the echo stored in checkpoints drops the output path, so identical runs
    # written to different directories stay byte-identical
    config_echo = {**config.to_dict(), "out_dir": None}
    metrics_fh = None
    metrics_path = None
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / "config.json").write_text(json.dumps(config.to_dict(), indent=2, sort_keys=True))
        save_bundle(bundle, out_dir / "bundle")
        metrics_path = str(out_dir / "metrics.ndjson")
        metrics_fh = open(metrics_path, "w")

    metrics: list[dict] = []
    val_accuracies: list[float] = []
    best_acc, best_flat = -1.0, None

    def emit(record: dict):
        metrics.append(record)
        if metrics_fh is not None:
            metrics_fh.write(json.dumps(record, sort_keys=True) + "\n")

    try:
        step = 0
        for epoch in range(config.epochs):
            for batch in epoch_batches[epoch]:
                xb = dataset.x[batch]
                labels = dataset.class_ids[batch]
                doms = dataset.domain_ids[batch]
                z = encode_image(bundle, xb)
                # the step's Monte Carlo draw; the basic prompter takes none
                eps = (mc_rng.standard_normal((len(batch) * config.mc_samples, config.dims.d_t))
                       if config.prompter_kind == "gaussian" else None)

                parts_values, grads = None, None
                try:
                    with Tape() as tape:
                        loss, loss_ce, loss_d, loss_reg = step_losses(
                            bundle, prompter, z, labels, doms, dataset.classes, anchors,
                            config.weights, eps)
                    parts_values = {
                        "loss_total": float(loss.item()),
                        "loss_d": float(loss_d.item()),
                        "loss_reg": float(loss_reg.item()) if loss_reg is not None else 0.0,
                        "loss_ce": float(loss_ce.item()),
                    }
                    if not np.isfinite(parts_values["loss_total"]):
                        raise TrainingDiverged("non-finite loss")
                    grads = tape.backward(loss, params)
                    lr = lr_at(step, steps_per_epoch, config)
                    sgd_momentum_step(params, grads, opt_state, lr,
                                      config.momentum, config.weight_decay)
                except (NormalizationError, DegenerateVectorError, TrainingDiverged) as exc:
                    dump = _dump_diagnostics(out_dir, step, parts_values or {"error": str(exc)},
                                             named_params, grads)
                    raise TrainingDiverged(f"training diverged at step {step}: {exc}"
                                           + (f", diagnostics at {dump}" if dump else "")) from exc
                emit({"step": step, "epoch": epoch, "lr": float(lr), **parts_values})
                step += 1

            preds, _ = predict_batch(bundle, prompter, dataset.x[val_all], dataset.classes)
            val_acc = accuracy(preds, dataset.class_ids[val_all])
            val_accuracies.append(val_acc)
            emit({"epoch": epoch, "val_accuracy": val_acc})
            if val_acc > best_acc:
                best_acc, best_flat = val_acc, opt_state.flat.copy()
            if out_dir is not None:
                save_checkpoint(prompter, out_dir / "checkpoints" / f"epoch_{epoch + 1}",
                                run_config=config_echo, bundle_checksum=checksum_before)
    finally:
        if metrics_fh is not None:
            metrics_fh.close()

    if config.select_best:
        opt_state.flat[...] = best_flat  # the parameters are views of this buffer
    final_dir = None
    if out_dir is not None:
        final_dir = str(out_dir / "final")
        save_checkpoint(prompter, final_dir, run_config=config_echo,
                        bundle_checksum=checksum_before)

    checksum_after = bundle_checksum(bundle)
    if checksum_after != checksum_before:
        raise AssertionError("frozen encoder weights changed during training")

    return TrainResult(
        prompter=prompter, bundle=bundle, config=config, metrics=metrics,
        val_accuracies=val_accuracies, encoder_checksum=checksum_after,
        final_dir=final_dir, metrics_path=metrics_path,
    )


def seed_from(base: int, *path: int) -> list[int]:
    """Derived integer seed list for independent deterministic streams."""
    return [int(base), *[int(p) for p in path]]
