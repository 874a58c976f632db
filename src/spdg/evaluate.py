"""Leave-one-domain-out evaluation, cross-category transfer, and the
style-similarity report. The component ablation (baseline / +BSP / +GSP /
+GSP+SR) is the leave-one-domain-out matrix over baseline_C, bsp, gsp, gsp_sr.

Reports are plain data: JSON summaries plus CSV tables. Accuracy aggregation
is a sum over samples, so parallel and serial fold execution agree exactly.
"""

from __future__ import annotations

import csv
import ctypes
import json
import os
from dataclasses import asdict, dataclass, field, replace
from functools import partial
from pathlib import Path

import numpy as np

from . import datagen
from .encoders import STYLE_WORDS, build_bundle, class_words, default_vocab, domain_style_text, encode_texts
from .errors import ConfigError, DegenerateVectorError, TrainingDiverged
from .inference import accuracy, predict_batch, prompted_cosines, zero_shot_predict_batch
from .tensor import unit_rows
from .trainer import RunConfig, check_run, check_sample_width, train_style_prompter

BASELINE_METHODS = ("baseline_C", "baseline_PC")
TRAINED_METHODS = {
    "bsp": {"prompter_kind": "basic", "use_style_reg": False},
    "gsp": {"prompter_kind": "gaussian", "use_style_reg": False},
    "gsp_sr": {"prompter_kind": "gaussian", "use_style_reg": True},
}


@dataclass
class MethodResult:
    per_domain: dict[str, float]
    per_domain_std: dict[str, float]
    average: float | None   # None when no fold succeeded
    runs: list[dict]
    config_hash: str | None = None


@dataclass
class EvalReport:
    domains: list[str]
    methods: dict[str, MethodResult]
    metadata: dict = field(default_factory=dict)
    partial: bool = False
    failures: list[dict] = field(default_factory=list)

    def to_dict(self) -> dict:
        return asdict(self)


def _method_result(runs: list[dict], domains, config_hash: str | None) -> MethodResult:
    """Per-domain mean and std of the runs' accuracies, and their average over domains."""
    per_domain, per_std = {}, {}
    for dom in domains:
        vals = [r["accuracy"] for r in runs if r["held_out"] == dom]
        if vals:
            per_domain[dom] = float(np.mean(vals))
            per_std[dom] = float(np.std(vals))
    average = float(np.mean(list(per_domain.values()))) if per_domain else None
    return MethodResult(per_domain=per_domain, per_domain_std=per_std, average=average,
                        runs=runs, config_hash=config_hash)


def method_config(base: RunConfig, method: str, seed: int,
                  held_out: str | None) -> RunConfig:
    if method not in TRAINED_METHODS:
        raise ConfigError(f"unknown trained method {method!r}")
    return replace(base, seed=seed, held_out_domain=held_out, out_dir=None,
                   **TRAINED_METHODS[method])


def _evaluate_fold(dataset, base: RunConfig, method: str, seed: int,
                   held_out: str) -> float:
    """Accuracy of one method on the entire held-out domain."""
    held_id = dataset.domains.index(held_out)
    test_idx = dataset.domain_indices(held_id)
    x_test = dataset.x[test_idx]
    y_test = dataset.class_ids[test_idx]
    if method in BASELINE_METHODS:
        vocab = default_vocab(list(dataset.classes) + list(base.extra_classes))
        bundle = build_bundle(base.dims, vocab, seed=seed, logit_scale=base.logit_scale)
        template = "C" if method == "baseline_C" else "PC"
        preds, _ = zero_shot_predict_batch(bundle, x_test, dataset.classes, template)
        return accuracy(preds, y_test)
    cfg = method_config(base, method, seed, held_out)
    result = train_style_prompter(cfg, dataset=dataset)
    preds, _ = predict_batch(result.bundle, result.prompter, x_test, dataset.classes)
    return accuracy(preds, y_test)


def _fold_outcome(dataset, base: RunConfig, task):
    """(held_out, seed, method, accuracy, error) of one fold. Only a numeric outcome
    is a fold failure; any other error, typed or not, aborts the run."""
    held_out, seed, method = task
    try:
        return (*task, _evaluate_fold(dataset, base, method, seed, held_out), None)
    except (TrainingDiverged, DegenerateVectorError) as exc:
        return (*task, None, f"{type(exc).__name__}: {exc}")


_worker_fold = None  # a pool worker's _fold_outcome, bound once by _init_worker


def _init_worker(dataset, base: RunConfig) -> None:
    """Set up a pool worker: bind the run's dataset and config once, and pin the
    loaded OpenBLAS to one thread. The workers already fill the cores; BLAS threads
    of their own spin against each other's (2 workers on 2 cores ran a fixture
    matrix 2.4x slower than one process did)."""
    global _worker_fold
    _worker_fold = partial(_fold_outcome, dataset, base)
    with open("/proc/self/maps") as fh:  # Linux only, as os.sched_getaffinity is
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for lib in map(ctypes.CDLL, libs):
        for name in ("openblas_set_num_threads", "openblas_set_num_threads64_",
                     "scipy_openblas_set_num_threads", "scipy_openblas_set_num_threads64_"):
            if hasattr(lib, name):
                setter = getattr(lib, name)
                setter.argtypes, setter.restype = [ctypes.c_int], None
                setter(1)


def _run_worker_fold(task):
    return _worker_fold(task)


def _process_pool(workers: int, dataset, base: RunConfig):
    """A pool of workers set up by _init_worker. The pool modules load here, so a
    process that runs no pool never imports them."""
    from concurrent.futures import ProcessPoolExecutor

    return ProcessPoolExecutor(max_workers=workers, initializer=_init_worker,
                               initargs=(dataset, base))


def evaluate_leave_one_out(dataset_path, methods, seeds, base: RunConfig | None = None,
                           dataset=None, threads: int = 1) -> EvalReport:
    """Rotate the held-out domain; per fold and seed, score each method. Folds run
    in-process or on min(threads, usable CPUs, folds) workers, with one report."""
    if dataset is None:
        dataset = datagen.load(dataset_path)
    base = base if base is not None else RunConfig()
    if not methods:
        raise ConfigError("need at least one method")
    for m in methods:
        if m not in BASELINE_METHODS and m not in TRAINED_METHODS:
            raise ConfigError(f"unknown method {m!r}")
    seeds = list(seeds)
    if not seeds:
        raise ConfigError("need at least one seed")
    for what, values in (("method", methods), ("seed", seeds)):
        if len(set(values)) != len(values):
            raise ConfigError(f"each {what} may be given once, got {values}")
    if min(seeds) < 0:
        raise ConfigError(f"seeds must be >= 0, got {seeds}")
    if threads < 1:
        raise ConfigError(f"threads must be >= 1, got {threads}")
    # the report names each trained method by its config at the first seed and fold
    configs = {m: method_config(base, m, seeds[0], dataset.domains[0])
               for m in methods if m in TRAINED_METHODS}
    if configs:  # the trained methods differ in no field that check_run reads
        for held_out in dataset.domains:
            check_run(dataset, replace(base, held_out_domain=held_out))
    else:
        check_sample_width(dataset, base.dims)

    tasks = [(held_out, seed, method)
             for held_out in dataset.domains for seed in seeds for method in methods]
    workers = min(threads, len(os.sched_getaffinity(0)), len(tasks))
    if workers == 1:
        outcomes = list(map(partial(_fold_outcome, dataset, base), tasks))
    else:
        with _process_pool(workers, dataset, base) as pool:
            outcomes = list(pool.map(_run_worker_fold, tasks))

    outcomes.sort(key=lambda r: (r[2], r[0], r[1]))
    failures = [
        {"held_out": held_out, "seed": seed, "method": method, "error": err}
        for held_out, seed, method, acc, err in outcomes if err is not None
    ]

    methods_out: dict[str, MethodResult] = {}
    for method in methods:
        runs = [
            {"held_out": held_out, "seed": seed, "accuracy": acc}
            for held_out, seed, m, acc, err in outcomes
            if m == method and err is None
        ]
        cfg_hash = configs[method].config_hash() if method in configs else None
        methods_out[method] = _method_result(runs, dataset.domains, cfg_hash)

    return EvalReport(
        domains=list(dataset.domains),
        methods=methods_out,
        metadata={"dataset": str(dataset_path), "seeds": seeds,
                  "base_config_hash": base.config_hash()},
        partial=bool(failures),
        failures=failures,
    )


def evaluate_cross_category(base: RunConfig, train_dataset_path, test_dataset_path) -> EvalReport:
    """Train on one dataset, test on another with disjoint classes and domains."""
    dataset = datagen.load(train_dataset_path)
    test_dataset = datagen.load(test_dataset_path)

    test_words = dict(zip(class_words(test_dataset.classes), test_dataset.classes))
    class_overlap = [test_words[w] for w in test_words.keys() & set(class_words(dataset.classes))]
    if class_overlap:
        raise ConfigError(f"train and test class sets overlap: {sorted(class_overlap)}")
    domain_overlap = set(dataset.domains) & set(test_dataset.domains)
    if domain_overlap:
        raise ConfigError(f"train and test domain sets overlap: {sorted(domain_overlap)}")
    check_sample_width(test_dataset, base.dims, "test dataset")

    cfg = replace(base, held_out_domain=None, out_dir=None,
                  extra_classes=list(test_dataset.classes))
    result = train_style_prompter(cfg, dataset=dataset)

    runs_ours, runs_base = [], []
    for dom_id, dom in enumerate(test_dataset.domains):
        idx = test_dataset.domain_indices(dom_id)
        x_test, y_test = test_dataset.x[idx], test_dataset.class_ids[idx]
        preds, _ = predict_batch(result.bundle, result.prompter, x_test, test_dataset.classes)
        runs_ours.append({"held_out": dom, "seed": cfg.seed, "accuracy": accuracy(preds, y_test)})
        zs_preds, _ = zero_shot_predict_batch(result.bundle, x_test, test_dataset.classes, "C")
        runs_base.append({"held_out": dom, "seed": cfg.seed, "accuracy": accuracy(zs_preds, y_test)})

    methods = {
        "ours": _method_result(runs_ours, test_dataset.domains, cfg.config_hash()),
        "baseline_C": _method_result(runs_base, test_dataset.domains, None),
    }
    return EvalReport(
        domains=list(test_dataset.domains), methods=methods,
        metadata={"train_dataset": str(train_dataset_path),
                  "test_dataset": str(test_dataset_path),
                  "train_classes": list(dataset.classes),
                  "test_classes": list(test_dataset.classes),
                  "seed": cfg.seed},
    )


@dataclass
class SimilarityMatrix:
    image_ids: list[int]
    true_domains: list[str]
    columns: list[str]        # style words, then "learned"
    values: np.ndarray        # (n_images, n_columns), raw cosines

    def column_means(self) -> dict[str, float]:
        return {c: float(self.values[:, j].mean()) for j, c in enumerate(self.columns)}


def style_similarity_report(bundle, prompter, x, true_class_ids, true_domain_names,
                            classes, image_ids=None) -> SimilarityMatrix:
    """Cosine similarity of each test image against hand-crafted domain-style
    texts for its true class, plus its own learned-style prompt.

    The learned column is the true class's prompted cosine, the one predict_batch
    scales into its logit; each style-word column is one batched dot of the
    image's unit feature, from the same pass, with the true class's row."""
    x = np.asarray(x, dtype=np.float64)
    true_class_ids = np.asarray(true_class_ids, dtype=np.int64)
    n = x.shape[0]
    if image_ids is None:
        image_ids = list(range(n))

    cosines, zp, z_norms = prompted_cosines(bundle, prompter, x, classes)
    zp /= z_norms[:, None]

    # row ci * W + j: style word j with class ci
    word_feats = encode_texts(bundle, [domain_style_text(word, cls)
                                       for cls in classes for word in STYLE_WORDS])
    word_feats, _ = unit_rows(word_feats, "style-word text feature")
    word_feats = word_feats.reshape(len(classes), len(STYLE_WORDS), -1)

    learned = cosines[np.arange(n), true_class_ids]
    values = np.column_stack([np.vecdot(word_feats[true_class_ids], zp[:, None, :]), learned])
    return SimilarityMatrix(image_ids=list(image_ids),
                            true_domains=list(true_domain_names),
                            columns=STYLE_WORDS + ["learned"], values=values)


def write_similarity_csv(matrix: SimilarityMatrix, path) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["image", "true_domain"] + matrix.columns)
        for i, image_id in enumerate(matrix.image_ids):
            writer.writerow([image_id, matrix.true_domains[i]]
                            + [f"{v:.10f}" for v in matrix.values[i]])


def write_report_json(payload: dict, path) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True))


def write_report_csv(report: EvalReport, path) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["method"] + report.domains + ["average"])
        for name, m in report.methods.items():
            values = [m.per_domain.get(d) for d in report.domains] + [m.average]
            writer.writerow([name] + [f"{float('nan') if v is None else v:.6f}" for v in values])
