import argparse
import json
import os
import shutil
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

import spdg.cli
import spdg.datagen
import spdg.evaluate
import spdg.gradcheck
from conftest import (
    MANIFEST_FAULTS,
    SAMPLE_FAULTS,
    edit_manifest,
    raw_blob,
    run_python,
    spoil_samples,
    write_format_2_dataset,
)
from spdg.cli import _build_parser, main
from spdg.errors import ConfigError, TrainingDiverged


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture(scope="module")
def cli_dataset(tmp_path_factory):
    out = tmp_path_factory.mktemp("cli") / "data"
    code = main(["gen-data", "--out-dir", str(out), "--seed", "7",
                 "--n-per-cell", "12", "--domains", "photo,cartoon,sketch"])
    assert code == 0
    return out


@pytest.fixture(scope="module")
def cli_run(tmp_path_factory, cli_dataset):
    out = tmp_path_factory.mktemp("cli") / "run"
    code = main(["train", "--dataset", str(cli_dataset), "--held-out", "sketch",
                 "--epochs", "1", "--batch-size", "8", "--mc-samples", "2",
                 "--seed", "3", "--out-dir", str(out)])
    assert code == 0
    return out


def test_gen_data_reports_summary(capsys, tmp_path):
    code, out, _ = run_cli(capsys, "gen-data", "--out-dir", str(tmp_path / "d"),
                           "--seed", "0", "--n-per-cell", "10")
    assert code == 0
    payload = json.loads(out)
    assert payload["samples"] == 10 * 4 * 4
    # a dataset is its manifest and its samples, at format_version 3
    assert sorted(p.name for p in (tmp_path / "d").iterdir()) == ["manifest.json", "samples.spdg"]
    assert json.loads((tmp_path / "d" / "manifest.json").read_text())["format_version"] == 3


def test_train_emits_summary(capsys, cli_dataset, tmp_path):
    code, out, _ = run_cli(capsys, "train", "--dataset", str(cli_dataset),
                           "--held-out", "sketch", "--epochs", "1",
                           "--batch-size", "8", "--mc-samples", "2",
                           "--seed", "1", "--out-dir", str(tmp_path / "r"))
    assert code == 0
    payload = json.loads(out)
    assert payload["final_checkpoint"]
    assert len(payload["val_accuracies"]) == 1


def test_cli_import_loads_no_evaluation_pool_or_grad_check_module():
    loaded = run_python("import sys, spdg.cli; print(' '.join(sorted(sys.modules)))").split()
    assert "spdg.trainer" in loaded
    assert not {"concurrent.futures.process", "multiprocessing", "spdg.evaluate",
                "spdg.gradcheck"} & set(loaded)


def test_infer_round_trip(capsys, cli_dataset, cli_run):
    code, out, _ = run_cli(capsys, "infer", "--checkpoint", str(cli_run / "final"),
                           "--bundle", str(cli_run / "bundle"),
                           "--dataset", str(cli_dataset), "--index", "5")
    assert code == 0
    payload = json.loads(out)
    assert payload["predicted_class"] in ["dog", "elephant", "guitar", "horse"]
    assert set(payload["scores"]) == {"dog", "elephant", "guitar", "horse"}


def test_similarity_report_command(capsys, cli_dataset, cli_run, tmp_path):
    code, out, _ = run_cli(capsys, "similarity-report",
                           "--checkpoint", str(cli_run / "final"),
                           "--bundle", str(cli_run / "bundle"),
                           "--dataset", str(cli_dataset), "--domain", "sketch",
                           "--out-dir", str(tmp_path / "sim"))
    assert code == 0
    payload = json.loads(out)
    assert payload["rows"] == 48  # 4 classes x 12 per cell
    header = (tmp_path / "sim" / "similarity_report.csv").read_text().splitlines()[0]
    assert header.endswith(",learned")


def test_similarity_values_match_the_per_image_loop(cli_dataset, cli_run):
    from oracles import looped_similarity_values
    from spdg import datagen
    from spdg.encoders import load_bundle
    from spdg.evaluate import style_similarity_report
    from spdg.prompter import load_checkpoint

    prompter, _ = load_checkpoint(cli_run / "final")
    bundle = load_bundle(cli_run / "bundle")
    ds = datagen.load(cli_dataset)
    names = [ds.domains[d] for d in ds.domain_ids]
    got = style_similarity_report(bundle, prompter, ds.x, ds.class_ids, names, ds.classes).values
    want = looped_similarity_values(bundle, prompter, ds.x, ds.class_ids, ds.classes)
    assert got.shape == want.shape == (len(ds), 9)
    assert np.abs(got - want).max() <= 1e-12


@pytest.mark.parametrize("dataset_from", ["flag", "config"])
def test_eval_lodo_reads_its_config_file_and_flags(capsys, cli_dataset, tmp_path, dataset_from):
    from spdg.evaluate import method_config
    from spdg.trainer import RunConfig

    quick = {"epochs": 1, "batch_size": 8, "mc_samples": 2}
    dataset = ["--dataset", str(cli_dataset)]
    if dataset_from == "config":
        quick["dataset"], dataset = str(cli_dataset), []
    config = tmp_path / "config.json"
    config.write_text(json.dumps(quick))
    code, out, _ = run_cli(capsys, "eval-lodo", "--config", str(config),
                           *dataset, "--methods", "baseline_PC,bsp",
                           "--seeds", "5,6", "--out-dir", str(tmp_path / "lodo"))
    assert code == 0
    assert set(json.loads(out)["averages"]) == {"baseline_PC", "bsp"}
    report = json.loads((tmp_path / "lodo" / "lodo_report.json").read_text())
    assert not report["partial"]
    assert report["metadata"]["seeds"] == [5, 6]
    base = RunConfig(**quick)
    assert report["metadata"]["base_config_hash"] == base.config_hash()
    assert report["methods"]["bsp"]["config_hash"] == \
        method_config(base, "bsp", 5, "photo").config_hash()
    assert {(r["held_out"], r["seed"]) for r in report["methods"]["bsp"]["runs"]} == \
        {(d, s) for d in ("photo", "cartoon", "sketch") for s in (5, 6)}


@pytest.mark.parametrize("command, flag", [("eval-lodo", "--matrix")])
def test_second_config_file_flag_is_gone(capsys, command, flag):
    with pytest.raises(SystemExit) as exc:
        main([command, *_REQUIRED.get(command, []), flag, "c.json"])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["train", "--no-style-reg"],
                                  ["grad-check", "--primitive-inputs", "1"]], ids=lambda a: a[1])
def test_removed_switch_is_an_unrecognized_argument(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert f"unrecognized arguments: {' '.join(argv[1:])}" in capsys.readouterr().err


@pytest.mark.parametrize("config, keys", [
    ({"use_style_reg": False}, ["use_style_reg"]),
    ({"weights": {"ce_scale": 1}}, ["weights.ce_scale"]),
    # unknown keys at every depth are named together, top level first
    ({"weights": {"ce_scale": 1}, "use_style_reg": False, "dims": {"d_z": 3}},
     ["use_style_reg", "weights.ce_scale", "dims.d_z"]),
], ids=["use_style_reg", "weights.ce_scale", "use_style_reg+weights.ce_scale+dims.d_z"])
def test_removed_config_key_is_unknown(capsys, cli_dataset, tmp_path, config, keys):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    code, _, err = run_cli(capsys, "train", "--config", str(path), "--dataset", str(cli_dataset),
                           "--out-dir", str(tmp_path / "out"))
    assert code == 2
    assert json.loads(err) == {"error": "config_error",
                               "message": f"unknown run config keys: {keys}"}
    assert not (tmp_path / "out").exists()


def test_sr_arm_on_a_base_without_regularizer_is_config_error(capsys, cli_dataset, tmp_path,
                                                            monkeypatch):
    folds = []
    monkeypatch.setattr(spdg.evaluate, "_evaluate_fold", lambda *a: folds.append(a) or 0.5)
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"weights": {"w_reg": 0}}))
    code, out, err = run_cli(capsys, "eval-lodo", "--config", str(path), "--dataset",
                             str(cli_dataset), "--methods", "gsp_sr", "--out-dir", str(tmp_path / "out"))
    assert code == 2 and out == ""
    payload = json.loads(err)
    assert payload["error"] == "config_error" and "weights.w_reg is 0" in payload["message"]
    assert folds == []
    assert not (tmp_path / "out").exists()


def test_eval_crosscat_is_an_unknown_command(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["eval-crosscat", "--config", "c.json", "--test-data", "d"])
    assert exc.value.code == 2
    assert "invalid choice: 'eval-crosscat'" in capsys.readouterr().err


@pytest.mark.parametrize("command", [["train"], ["eval-lodo", "--methods", "baseline_C,bsp"]],
                         ids=lambda c: c[0])
def test_dataset_narrower_than_the_config_is_config_error(capsys, tmp_path, command):
    data = tmp_path / "data16"
    assert run_cli(capsys, "gen-data", "--out-dir", str(data), "--seed", "0",
                   "--n-per-cell", "12", "--dx", "16")[0] == 0
    code, _, err = run_cli(capsys, *command, "--dataset", str(data), "--out-dir",
                           str(tmp_path / "run"))
    assert code == 2
    payload = json.loads(err)
    assert payload["error"] == "config_error"
    assert "16" in payload["message"] and "32" in payload["message"]
    assert not (tmp_path / "run").exists()


def test_report_of_a_method_with_no_successful_fold_is_strict_json(capsys, tmp_path,
                                                                   monkeypatch):
    def reject(constant):
        raise ValueError(f"not JSON: {constant}")

    def diverge(config, dataset=None):
        raise TrainingDiverged(f"training diverged at step 0 holding out {config.held_out_domain}")

    data = tmp_path / "data"
    assert run_cli(capsys, "gen-data", "--out-dir", str(data), "--seed", "0",
                   "--n-per-cell", "12")[0] == 0
    monkeypatch.setattr(spdg.evaluate, "train_style_prompter", diverge)
    code, out, _ = run_cli(capsys, "eval-lodo", "--dataset", str(data),
                           "--methods", "gsp_sr", "--out-dir", str(tmp_path / "lodo"))
    assert code == 4
    assert json.loads(out, parse_constant=reject)["averages"] == {"gsp_sr": None}
    report = json.loads((tmp_path / "lodo" / "lodo_report.json").read_text(),
                        parse_constant=reject)
    assert report["methods"]["gsp_sr"]["average"] is None and len(report["failures"]) == 4
    assert all(f["error"].startswith("TrainingDiverged") for f in report["failures"])
    assert (tmp_path / "lodo" / "lodo_report.csv").read_text().splitlines()[1].endswith(",nan")


def test_config_error_inside_a_fold_exits_2_without_a_report(capsys, cli_dataset, tmp_path,
                                                             monkeypatch):
    def fold(dataset, base, method, seed, held_out):
        if held_out == "cartoon":
            raise ConfigError(f"no recipe for {held_out}")
        return 0.5

    monkeypatch.setattr(spdg.evaluate, "_evaluate_fold", fold)
    code, out, err = run_cli(capsys, "eval-lodo", "--dataset", str(cli_dataset),
                             "--methods", "gsp_sr", "--out-dir", str(tmp_path / "lodo"))
    assert (code, out) == (2, "")
    assert json.loads(err) == {"error": "config_error", "message": "no recipe for cartoon"}
    assert not (tmp_path / "lodo").exists()


def test_batch_too_small_for_the_training_domains_fails_before_any_fold(capsys, tmp_path,
                                                                        monkeypatch):
    folds = []
    monkeypatch.setattr(spdg.evaluate, "_evaluate_fold", lambda *a: folds.append(a))
    data = tmp_path / "data"
    assert run_cli(capsys, "gen-data", "--out-dir", str(data), "--seed", "0",
                   "--n-per-cell", "12")[0] == 0
    config = tmp_path / "config.json"   # a batch of 4 is too small for 3 training domains
    config.write_text(json.dumps({"batch_size": 4, "epochs": 1, "mc_samples": 2}))
    code, out, err = run_cli(capsys, "eval-lodo", "--config", str(config), "--dataset", str(data),
                             "--methods", "baseline_C,gsp_sr", "--out-dir", str(tmp_path / "lodo"))
    assert (code, out, folds) == (2, "", [])
    payload = json.loads(err)
    assert payload["error"] == "config_error" and "batch size 4" in payload["message"]
    assert not (tmp_path / "lodo").exists()


def test_split_that_keeps_too_few_to_train_fails_before_any_fold(capsys, tmp_path, monkeypatch):
    folds = []
    monkeypatch.setattr(spdg.evaluate, "_evaluate_fold", lambda *a: folds.append(a))
    data = tmp_path / "data"
    assert run_cli(capsys, "gen-data", "--out-dir", str(data), "--seed", "0")[0] == 0
    config = tmp_path / "config.json"   # 0.004 of a domain's 240 samples rounds to 1
    config.write_text(json.dumps({"val_ratio": 0.004, "epochs": 1, "mc_samples": 2}))
    code, out, err = run_cli(capsys, "eval-lodo", "--config", str(config), "--dataset", str(data),
                             "--out-dir", str(tmp_path / "lodo"))
    assert (code, out, folds) == (2, "", [])
    payload = json.loads(err)
    assert payload["error"] == "config_error"
    assert "keeps 1 of each domain's 240 samples" in payload["message"]
    assert not (tmp_path / "lodo").exists()


@pytest.fixture(scope="module")
def seed_runs(tmp_path_factory, cli_dataset):
    """Run directories of the same short recipe at training seeds 1 and 2."""
    runs = {}
    for seed in (1, 2):
        runs[seed] = tmp_path_factory.mktemp("cli") / f"seed{seed}"
        assert main(["train", "--dataset", str(cli_dataset), "--held-out", "sketch",
                     "--epochs", "1", "--batch-size", "8", "--mc-samples", "2",
                     "--seed", str(seed), "--out-dir", str(runs[seed])]) == 0
    return runs


def _scoring_argv(command, checkpoint, bundle, dataset, out_dir):
    argv = [command, "--checkpoint", str(checkpoint), "--bundle", str(bundle),
            "--dataset", str(dataset)]
    return argv + (["--index", "0"] if command == "infer" else ["--out-dir", str(out_dir)])


@pytest.mark.parametrize("command", ["infer", "similarity-report"])
def test_checkpoint_given_another_seeds_bundle_is_format_error(capsys, cli_dataset, seed_runs,
                                                               tmp_path, command):
    from spdg.encoders import bundle_checksum, load_bundle

    manifest = json.loads((seed_runs[1] / "final" / "manifest.json").read_text())
    assert manifest["bundle_checksum"] == bundle_checksum(load_bundle(seed_runs[1] / "bundle"))
    code, out, err = run_cli(capsys, *_scoring_argv(command, seed_runs[1] / "final",
                                                    seed_runs[2] / "bundle", cli_dataset,
                                                    tmp_path / "out"))
    assert (code, out) == (2, "")
    payload = json.loads(err)
    assert payload["error"] == "format_error" and "bundle checksum" in payload["message"]
    assert not (tmp_path / "out").exists()
    code, _, _ = run_cli(capsys, *_scoring_argv(command, seed_runs[2] / "final",
                                                seed_runs[2] / "bundle", cli_dataset,
                                                tmp_path / "out"))
    assert code == 0


@pytest.mark.parametrize("command", ["infer", "similarity-report"])
def test_checkpoint_bound_to_no_bundle_is_format_error(capsys, cli_dataset, cli_run, tmp_path,
                                                       command):
    from spdg.prompter import load_checkpoint, save_checkpoint

    prompter, manifest = load_checkpoint(cli_run / "final")
    save_checkpoint(prompter, tmp_path / "final", run_config=manifest["run_config"])
    assert json.loads((tmp_path / "final" / "manifest.json").read_text())["bundle_checksum"] is None
    code, out, err = run_cli(capsys, *_scoring_argv(command, tmp_path / "final",
                                                    cli_run / "bundle", cli_dataset,
                                                    tmp_path / "out"))
    assert (code, out) == (2, "")
    assert json.loads(err)["error"] == "format_error"
    assert not (tmp_path / "out").exists()


def test_bundle_with_a_reordered_vocab_is_format_error(capsys, cli_dataset, cli_run, tmp_path):
    shutil.copytree(cli_run / "bundle", tmp_path / "bundle")
    manifest = tmp_path / "bundle" / "manifest.json"
    raw = json.loads(manifest.read_text())
    i, j = raw["vocab"].index("dog"), raw["vocab"].index("horse")
    raw["vocab"][i], raw["vocab"][j] = "horse", "dog"
    manifest.write_text(json.dumps(raw))
    code, out, err = run_cli(capsys, "infer", "--checkpoint", str(cli_run / "final"),
                             "--bundle", str(tmp_path / "bundle"), "--dataset", str(cli_dataset),
                             "--index", "0")
    assert (code, out) == (2, "")
    payload = json.loads(err)
    assert payload["error"] == "format_error" and "bundle checksum" in payload["message"]


def test_checkpoint_of_another_sigma_floor_is_format_error(capsys, cli_dataset, cli_run,
                                                           tmp_path):
    shutil.copytree(cli_run / "final", tmp_path / "final")
    manifest = tmp_path / "final" / "manifest.json"
    raw = json.loads(manifest.read_text())
    assert raw["sigma_floor"] == 1e-6
    raw["sigma_floor"] = 1e-3
    manifest.write_text(json.dumps(raw))
    code, out, err = run_cli(capsys, "infer", "--checkpoint", str(tmp_path / "final"),
                             "--bundle", str(cli_run / "bundle"), "--dataset", str(cli_dataset),
                             "--index", "0")
    assert (code, out) == (2, "")
    payload = json.loads(err)
    assert payload["error"] == "format_error" and "sigma_floor" in payload["message"]


# (damage, what the format error says); the run's Gaussian prompter has d_i = 64
# (hidden width 32) and d_t = 32
CHECKPOINT_SHAPE_FAULTS = [
    ("w2 cut to (32, 31)", "parameter w2 has shape (32, 31), but the gaussian prompter with "
                           "d_i=64, d_t=32 gives (32, 32)"),
    ("w1 transposed", "parameter w1 has shape (32, 64)"),
    ("b_sigma as a row", "parameter b_sigma has shape (1, 32)"),
    ("w_mu as a scalar", "d_i must be even and >= 2 and d_t >= 2, got d_i=64, d_t=0"),
    ("manifest d_t 31", "checkpoint manifest gives {'dims': {'d_i': 64, 'd_t': 31}"),
    ("manifest d_i 66", "checkpoint manifest gives {'dims': {'d_i': 66, 'd_t': 32}"),
    ("manifest d_i '64'", "checkpoint manifest gives {'dims': {'d_i': '64', 'd_t': 32}"),
    ("manifest d_i 64.0", "checkpoint manifest gives {'dims': {'d_i': 64.0, 'd_t': 32}"),
    ("manifest d_t true", "checkpoint manifest gives {'dims': {'d_i': 64, 'd_t': True}"),
    ("manifest without d_t", "checkpoint manifest gives {'dims': {'d_i': 64}"),
]


@pytest.mark.parametrize("damage, message", CHECKPOINT_SHAPE_FAULTS,
                         ids=[d for d, _ in CHECKPOINT_SHAPE_FAULTS])
def test_checkpoint_blob_of_the_wrong_shape_is_format_error(capsys, cli_dataset, cli_run,
                                                            tmp_path, damage, message):
    from spdg.blob import read_blob, write_blob

    final = tmp_path / "final"
    shutil.copytree(cli_run / "final", final)
    if damage.startswith("manifest"):
        raw = json.loads((final / "manifest.json").read_text())
        edit = {"manifest d_t 31": ("d_t", 31), "manifest d_i 66": ("d_i", 66),
                "manifest d_i '64'": ("d_i", "64"), "manifest d_i 64.0": ("d_i", 64.0),
                "manifest d_t true": ("d_t", True)}
        if damage in edit:
            key, value = edit[damage]
            raw["dims"][key] = value
        else:
            del raw["dims"]["d_t"]
        (final / "manifest.json").write_text(json.dumps(raw))
    else:
        name = damage.split()[0]
        data = read_blob(final / f"{name}.spdg")
        write_blob(final / f"{name}.spdg", {"w2": lambda a: a[:, :31], "w1": lambda a: a.T,
                                            "b_sigma": lambda a: a[None],
                                            "w_mu": lambda a: a[0, 0]}[name](data))
    code, out, err = run_cli(capsys, "infer", "--checkpoint", str(final),
                             "--bundle", str(cli_run / "bundle"), "--dataset", str(cli_dataset),
                             "--index", "0")
    assert (code, out) == (2, "")
    payload = json.loads(err)
    assert payload["error"] == "format_error"
    assert message in payload["message"]


@pytest.mark.parametrize("index", [0, 11, 12, 48, 143])
def test_infer_names_the_cell_of_its_row(capsys, cli_dataset, cli_run, index):
    # cli_dataset's rows are domain-major, then by class, 12 rows per cell
    code, out, err = run_cli(capsys, "infer", "--checkpoint", str(cli_run / "final"),
                             "--bundle", str(cli_run / "bundle"), "--dataset", str(cli_dataset),
                             "--index", str(index))
    assert code == 0, err
    payload = json.loads(out)
    classes, domains = ["dog", "elephant", "guitar", "horse"], ["photo", "cartoon", "sketch"]
    assert (payload["true_class"], payload["true_domain"]) == (classes[index // 12 % 4],
                                                                domains[index // 48])


def _infer_on(capsys, cli_dataset, checkpoint, bundle):
    return run_cli(capsys, "infer", "--checkpoint", str(checkpoint), "--bundle", str(bundle),
                   "--dataset", str(cli_dataset), "--index", "0")


# bundle manifest edits the bundle's constructor refuses, and what the format error
# says; the checksum binding covers the vocab but not the seed
BUNDLE_MANIFEST_FAULTS = [
    ("duplicate word", lambda raw: {"vocab": raw["vocab"][:-1] + ["a"]},
     "vocab has duplicate words: ['a']"),
    ("word not a string", lambda raw: {"vocab": [1] + raw["vocab"][1:]},
     "vocab must be a non-empty list of strings"),
    ("vocab a string", lambda raw: {"vocab": "x" * len(raw["vocab"])},
     "vocab must be a non-empty list of strings, got 'xxx"),
    ("float seed", lambda raw: {"seed": 3.5}, "seed must be an int >= 0, got float 3.5"),
    ("bool seed", lambda raw: {"seed": True}, "seed must be an int >= 0, got bool True"),
    ("negative seed", lambda raw: {"seed": -3}, "seed must be an int >= 0, got int -3"),
    ("float d_x", lambda raw: {"dims": {**raw["dims"], "d_x": 32.0}},
     "d_x must be int, got float 32.0"),
]


@pytest.mark.parametrize("edit, message", [f[1:] for f in BUNDLE_MANIFEST_FAULTS],
                         ids=[f[0] for f in BUNDLE_MANIFEST_FAULTS])
def test_bundle_its_constructor_refuses_is_format_error(capsys, cli_dataset, cli_run, tmp_path,
                                                        edit, message):
    shutil.copytree(cli_run / "bundle", tmp_path / "bundle")
    edit_manifest(tmp_path / "bundle", edit(json.loads((cli_run / "bundle" / "manifest.json").read_text())))
    code, out, err = _infer_on(capsys, cli_dataset, cli_run / "final", tmp_path / "bundle")
    assert (code, out) == (2, "")
    payload = json.loads(err)
    assert payload["error"] == "format_error"
    assert payload["message"].startswith(f"{tmp_path / 'bundle'}: malformed bundle: ConfigError: ")
    assert message in payload["message"]


@pytest.mark.parametrize("warnings_raise", [False, True], ids=["warnings shown", "warnings raised"])
@pytest.mark.parametrize("command", ["infer", "similarity-report"])
def test_checkpoint_whose_finite_parameter_overflows_is_one_error_line(
        capsys, cli_dataset, cli_run, tmp_path, command, warnings_raise):
    from spdg.blob import read_blob, write_blob

    final = tmp_path / "final"
    shutil.copytree(cli_run / "final", final)
    b_mu = read_blob(final / "b_mu.spdg")
    b_mu[0] = 1e300
    write_blob(final / "b_mu.spdg", b_mu)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("error" if warnings_raise else "always", RuntimeWarning)
        code, out, err = run_cli(capsys, *_scoring_argv(command, final, cli_run / "bundle",
                                                        cli_dataset, tmp_path / "out"))
    assert (code, out, caught) == (2, "", [])
    [line] = err.splitlines()
    payload = json.loads(line)
    assert payload["error"] == "degenerate_vector" and "overflow" in payload["message"]
    assert not (tmp_path / "out").exists()


def test_odd_d_i_checkpoint_is_format_error(capsys, cli_dataset, cli_run, tmp_path):
    from spdg.blob import write_blob
    from oracles import prompter_shapes

    final = tmp_path / "final"
    shutil.copytree(cli_run / "final", final)
    for name, shape in prompter_shapes("gaussian", 63, 32).items():
        write_blob(final / f"{name}.spdg", np.full(shape, 0.01))
    edit_manifest(final, {"dims": {"d_i": 63, "d_t": 32}})
    code, out, err = _infer_on(capsys, cli_dataset, final, cli_run / "bundle")
    assert (code, out) == (2, "")
    payload = json.loads(err)
    assert payload["error"] == "format_error"
    assert "malformed checkpoint: ConfigError: d_i must be even and >= 2 and d_t >= 2, got d_i=63" \
        in payload["message"]


def _train_refuses(capsys, data, tmp_path) -> dict:
    """Run train on data: it must exit 2 with no stdout and write no run directory;
    returns the JSON error."""
    code, out, err = run_cli(capsys, "train", "--dataset", str(data), "--held-out", "sketch",
                             "--epochs", "1", "--out-dir", str(tmp_path / "run"))
    assert (code, out) == (2, "")
    assert not (tmp_path / "run").exists()
    return json.loads(err)


@pytest.mark.parametrize("damage", SAMPLE_FAULTS)
def test_train_refuses_a_spoiled_samples_blob(capsys, cli_dataset, tmp_path, damage):
    data = tmp_path / "data"
    shutil.copytree(cli_dataset, data)
    message = spoil_samples(data, damage)
    payload = _train_refuses(capsys, data, tmp_path)
    assert payload["error"] == "format_error" and message in payload["message"]
    assert str(data / "samples.spdg") in payload["message"]


def test_train_refuses_a_format_2_dataset(capsys, tmp_path):
    data = tmp_path / "data"
    write_format_2_dataset(spdg.datagen.generate(n_per_cell=10, seed=0), data)
    payload = _train_refuses(capsys, data, tmp_path)
    assert payload["error"] == "format_error"
    assert payload["message"].endswith("format_version 2, this build reads 3; "
                                       "regenerate it with `spdg gen-data`")


def test_tau_d_whose_inverse_overflows_float32_is_config_error(capsys, cli_dataset, tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"weights": {"tau_d": 1e-39}}))
    code, out, err = run_cli(capsys, "train", "--config", str(config), "--dataset", str(cli_dataset),
                             "--held-out", "sketch", "--out-dir", str(tmp_path / "run"))
    assert (code, out) == (2, "")
    payload = json.loads(err)
    assert payload["error"] == "config_error" and "tau_d must be in [5.87" in payload["message"]
    assert not (tmp_path / "run").exists()


def test_tau_d_of_1e_38_still_trains(capsys, cli_dataset, tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"weights": {"tau_d": 1e-38}, "epochs": 1, "batch_size": 8,
                                  "mc_samples": 2}))
    code, out, err = run_cli(capsys, "train", "--config", str(config), "--dataset", str(cli_dataset),
                             "--held-out", "sketch", "--out-dir", str(tmp_path / "run"))
    assert code == 0, err
    losses = [json.loads(line) for line in (tmp_path / "run" / "metrics.ndjson").read_text().splitlines()]
    assert all(np.isfinite(r["loss_total"]) for r in losses if "loss_total" in r)


def test_readme_flag_table_names_exactly_the_subcommands():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text().splitlines()
    start = next(i for i, line in enumerate(readme) if line.startswith("| subcommand | `--seed`"))
    names = []
    for line in readme[start + 2:]:
        if not line.startswith("|"):
            break
        names += [n.strip().strip("`") for n in line.split("|")[1].split(",")]
    sub = next(a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    assert sorted(names) == sorted(sub.choices)


def test_error_json_on_stderr(capsys, tmp_path):
    code, out, err = run_cli(capsys, "train", "--dataset", str(tmp_path / "missing"),
                             "--out-dir", str(tmp_path / "r"))
    assert code != 0
    payload = json.loads(err)
    assert payload["error"]
    assert payload["message"]


def test_blob_cut_inside_header_is_format_error(capsys, cli_dataset, tmp_path):
    data = tmp_path / "data"
    shutil.copytree(cli_dataset, data)
    blob = data / "samples.spdg"
    blob.write_bytes(blob.read_bytes()[:12])
    code, _, err = run_cli(capsys, "train", "--dataset", str(data), "--held-out", "sketch",
                           "--out-dir", str(tmp_path / "r"))
    assert code == 2
    assert json.loads(err)["error"] == "format_error"


@pytest.mark.parametrize("blob", ["data/samples.spdg", "final/w2.spdg", "bundle/tok_emb.spdg"])
def test_int64_blob_where_floats_belong_is_format_error(capsys, cli_dataset, cli_run, tmp_path,
                                                        blob):
    from spdg.blob import read_blob

    for name, source in (("data", cli_dataset), ("bundle", cli_run / "bundle"),
                         ("final", cli_run / "final")):
        shutil.copytree(source, tmp_path / name)
    path = tmp_path / blob
    path.write_bytes(raw_blob(read_blob(path).astype(np.int64), 2))
    code, out, err = run_cli(capsys, "infer", "--checkpoint", str(tmp_path / "final"),
                             "--bundle", str(tmp_path / "bundle"),
                             "--dataset", str(tmp_path / "data"), "--index", "0")
    assert (code, out) == (2, "")
    payload = json.loads(err)
    assert payload["error"] == "format_error"
    assert f"{path}: unknown dtype flag 2, a blob holds float64" in payload["message"]


@pytest.mark.parametrize("artifact, key", [("data", "d_x"), ("bundle", "vocab"),
                                           ("final", "prompter_kind")])
@pytest.mark.parametrize("damage", ["truncated", "dropped-key"])
def test_malformed_manifest_is_format_error(capsys, cli_dataset, cli_run, tmp_path,
                                            artifact, key, damage):
    shutil.copytree(cli_dataset, tmp_path / "data")
    shutil.copytree(cli_run / "bundle", tmp_path / "bundle")
    shutil.copytree(cli_run / "final", tmp_path / "final")
    manifest = tmp_path / artifact / "manifest.json"
    if damage == "truncated":
        manifest.write_text(manifest.read_text()[:40])
    else:
        raw = json.loads(manifest.read_text())
        del raw[key]
        manifest.write_text(json.dumps(raw))
    code, _, err = run_cli(capsys, "infer", "--checkpoint", str(tmp_path / "final"),
                           "--bundle", str(tmp_path / "bundle"),
                           "--dataset", str(tmp_path / "data"), "--index", "0")
    assert code == 2
    assert json.loads(err)["error"] == "format_error"


@pytest.mark.parametrize("missing", ["dataset", "checkpoint", "blob"])
def test_missing_artifact_is_format_error(capsys, cli_dataset, cli_run, tmp_path, missing):
    shutil.copytree(cli_run / "final", tmp_path / "final")
    (tmp_path / "final" / "w2.spdg").unlink()
    infer = ["infer", "--bundle", str(cli_run / "bundle"), "--dataset", str(cli_dataset),
             "--index", "0"]
    nowhere = tmp_path / "nowhere"
    argv, gone = {
        "dataset": (["eval-lodo", "--dataset", str(nowhere), "--out-dir", str(tmp_path / "out")],
                    nowhere),
        "checkpoint": (infer + ["--checkpoint", str(nowhere)], nowhere),
        "blob": (infer + ["--checkpoint", str(tmp_path / "final")], tmp_path / "final" / "w2.spdg"),
    }[missing]
    code, _, err = run_cli(capsys, *argv)
    assert code == 2
    payload = json.loads(err)
    assert payload["error"] == "format_error"
    assert str(gone) in payload["message"]
    assert not (tmp_path / "out").exists()


def _eval_lodo_refuses(capsys, data, tmp_path) -> dict:
    """Run eval-lodo on data: it must exit 2 and write no --out-dir; returns the JSON error."""
    code, _, err = run_cli(capsys, "eval-lodo", "--dataset", str(data), "--out-dir",
                           str(tmp_path / "out"))
    assert code == 2
    assert not (tmp_path / "out").exists()
    return json.loads(err)


@pytest.mark.parametrize("damage", SAMPLE_FAULTS)
def test_spoiled_samples_blob_is_format_error(capsys, cli_dataset, tmp_path, damage):
    data = tmp_path / "data"
    shutil.copytree(cli_dataset, data)
    message = spoil_samples(data, damage)
    payload = _eval_lodo_refuses(capsys, data, tmp_path)
    assert payload["error"] == "format_error"
    assert message in payload["message"]


@pytest.mark.parametrize("edit, message", [
    *MANIFEST_FAULTS, ({"format_version": 1}, "regenerate it with `spdg gen-data`"),
], ids=lambda v: json.dumps(v)[:40])
def test_faulty_dataset_manifest_is_format_error(capsys, cli_dataset, tmp_path, edit, message):
    data = tmp_path / "data"
    shutil.copytree(cli_dataset, data)
    edit_manifest(data, edit)
    payload = _eval_lodo_refuses(capsys, data, tmp_path)
    assert payload["error"] == "format_error"
    assert message in payload["message"]


@pytest.mark.parametrize("flags", [
    ["--dx", "0"], ["--dx", "-3"], ["--seed", "-1"], ["--n-per-cell", "100000000"],
    ["--n-per-cell", "9"], ["--style-strength", "nan"], ["--noise-std", "inf"],
    ["--noise-std", "1e308"], ["--classes", "dog,dog"], ["--domains", "photo,sketch"],
    ["--classes", "dog,Dog,horse"], ["--classes", " ,dog,horse"], ["--classes", "sp,dog,horse"],
    ["--classes", "hot dog,Hot  Dog,horse"], ["--classes", "dog,big sp.,horse"],
    ["--classes", "one two three four five six seven eight nine ten,dog,horse"],
    ["--dx", "20000", "--n-per-cell", "10"],
], ids=" ".join)
def test_gen_data_refuses_what_it_cannot_save(capsys, tmp_path, flags):
    code, _, err = run_cli(capsys, "gen-data", "--out-dir", str(tmp_path / "d"), *flags)
    assert code == 2
    assert json.loads(err)["error"] == "config_error"
    assert not (tmp_path / "d").exists()


def test_class_name_of_the_most_words_a_prompt_holds_trains(capsys, tmp_path):
    # nine words fill the longest template, "a art painting style of a ... nine.", to 16 tokens
    code, *_ = run_cli(capsys, "gen-data", "--out-dir", str(tmp_path / "d"), "--seed", "0",
                       "--n-per-cell", "10", "--classes", "one two three four five six seven eight nine,dog,horse")
    assert code == 0
    code, *_ = run_cli(capsys, "train", "--dataset", str(tmp_path / "d"), "--held-out", "sketch",
                       "--epochs", "1", "--seed", "0", "--out-dir", str(tmp_path / "r"))
    assert code == 0
    code, *_ = run_cli(capsys, "similarity-report", "--checkpoint", str(tmp_path / "r" / "final"),
                       "--bundle", str(tmp_path / "r" / "bundle"), "--dataset", str(tmp_path / "d"),
                       "--domain", "sketch", "--out-dir", str(tmp_path / "sim"))
    assert code == 0


def test_missing_out_dir_is_config_error(capsys, cli_dataset):
    code, _, err = run_cli(capsys, "gen-data", "--seed", "0")
    assert code == 2
    assert json.loads(err)["error"] == "config_error"


def test_train_determinism_across_cli_runs(capsys, cli_dataset, tmp_path):
    paths = []
    for name in ("r1", "r2"):
        code, *_ = run_cli(capsys, "train", "--dataset", str(cli_dataset),
                           "--held-out", "photo", "--epochs", "1",
                           "--batch-size", "8", "--mc-samples", "2",
                           "--seed", "11", "--out-dir", str(tmp_path / name))
        assert code == 0
        paths.append(tmp_path / name)
    assert (paths[0] / "metrics.ndjson").read_bytes() == (paths[1] / "metrics.ndjson").read_bytes()
    for blob in sorted((paths[0] / "final").glob("*.spdg")):
        assert blob.read_bytes() == (paths[1] / "final" / blob.name).read_bytes()


def test_train_into_a_used_directory_is_config_error_and_leaves_it_as_it_was(capsys, cli_dataset,
                                                                            tmp_path):
    def train(epochs):
        return run_cli(capsys, "train", "--dataset", str(cli_dataset), "--held-out", "sketch",
                       "--epochs", epochs, "--batch-size", "8", "--mc-samples", "2",
                       "--out-dir", str(tmp_path / "run"))

    def files():
        return {p: p.read_bytes() for p in sorted((tmp_path / "run").rglob("*")) if p.is_file()}

    assert train("2")[0] == 0
    before = files()
    code, out, err = train("1")   # would leave epoch_2 beside its own final
    assert code == 2
    assert json.loads(err)["error"] == "config_error"
    assert out == ""
    assert files() == before


def test_default_train_repeats_byte_for_byte_under_one_and_two_blas_threads(cli_dataset,
                                                                            tmp_path):
    # the default Gaussian recipe (N = 12 x 40 = 480 float32 domain-loss rows), one
    # epoch, four fresh processes at once: two with one OpenBLAS thread, two with two
    src = str(Path(spdg.__file__).resolve().parents[1])
    runs = {(threads, k): tmp_path / f"t{threads}_{k}" for threads in (1, 2) for k in (0, 1)}
    procs = []
    for (threads, _), out in runs.items():
        env = {**os.environ, "OPENBLAS_NUM_THREADS": str(threads),
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        argv = ["train", "--dataset", str(cli_dataset), "--held-out", "sketch", "--epochs", "1",
                "--seed", "0", "--out-dir", str(out)]
        procs.append(subprocess.Popen(
            [sys.executable, "-c", "import sys; from spdg.cli import main; sys.exit(main(sys.argv[1:]))",
             *argv], env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True))
    for proc in procs:
        _, err = proc.communicate()
        assert proc.returncode == 0, err

    def outputs(out):
        files = [out / "metrics.ndjson", *sorted((out / "final").glob("*.spdg"))]
        return {f.relative_to(out): f.read_bytes() for f in files}

    for threads in (1, 2):
        first = outputs(runs[threads, 0])
        assert len(first) == 9  # metrics and the Gaussian prompter's eight blobs
        assert first == outputs(runs[threads, 1]), f"{threads} BLAS threads"


@pytest.mark.parametrize("below", [False, True], ids=["a-file", "below-a-file"])
@pytest.mark.parametrize("command", ["gen-data", "train", "eval-lodo", "similarity-report"])
def test_out_dir_that_cannot_be_a_directory_is_config_error(capsys, cli_dataset, cli_run, tmp_path,
                                                            monkeypatch, command, below):
    def no_fold(*args):
        raise AssertionError("a fold ran")

    monkeypatch.setattr(spdg.evaluate, "_evaluate_fold", no_fold)
    blocker = tmp_path / "blocker"
    blocker.write_text("not a directory")
    argv = {
        "gen-data": ["gen-data", "--seed", "0", "--n-per-cell", "4"],
        "train": ["train", "--dataset", str(cli_dataset), "--held-out", "sketch", "--epochs", "1",
                  "--batch-size", "8", "--mc-samples", "2"],
        "eval-lodo": ["eval-lodo", "--dataset", str(cli_dataset), "--methods", "baseline_C,gsp_sr"],
        "similarity-report": ["similarity-report", "--checkpoint", str(cli_run / "final"),
                              "--bundle", str(cli_run / "bundle"), "--dataset", str(cli_dataset)],
    }[command]
    code, out, err = run_cli(capsys, *argv, "--out-dir", str(blocker / "sub" if below else blocker))
    assert code == 2 and out == ""
    payload = json.loads(err)
    assert payload["error"] == "config_error" and "is not a directory" in payload["message"]
    assert list(tmp_path.iterdir()) == [blocker]
    assert blocker.read_text() == "not a directory"


@pytest.mark.parametrize("reader, damage", [
    *((r, d) for r in ("train", "eval-lodo")
      for d in ("not-json", "not-object", "unknown-key")),
    ("eval-lodo", "no-dataset"),
])
def test_malformed_config_file_is_config_error(capsys, cli_dataset, tmp_path, reader, damage):
    config = {"not-json": "{\"epochs\": 1", "not-object": [1, 2],
              "unknown-key": {"epochs": 1, "bogus": 1}, "no-dataset": {}}[damage]
    path = tmp_path / "config.json"
    path.write_text(config if isinstance(config, str) else json.dumps(config))
    dataset = [] if damage == "no-dataset" else ["--dataset", str(cli_dataset)]
    argv = {"train": ["train", "--config", str(path), *dataset],
            "eval-lodo": ["eval-lodo", "--config", str(path), *dataset]}[reader]
    code, _, err = run_cli(capsys, *argv, "--out-dir", str(tmp_path / "out"))
    assert code == 2
    assert json.loads(err)["error"] == "config_error"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("config", [
    {"epochs": "three"}, {"epochs": True}, {"epochs": 2.0}, {"lr_max": None},
    {"use_style_reg": 1}, {"held_out_domain": 2}, {"held_out_domain": 1.5},
    {"extra_classes": "kite"}, {"extra_classes": [1]}, {"weights": {"w_d": "x"}},
    {"weights": [0.1]}, {"dims": 5}, {"dims": {"d_i": 64.0}}, {"precision": "f64"},
], ids=lambda c: json.dumps(c))
def test_wrong_config_value_type_is_config_error(capsys, cli_dataset, tmp_path, config):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    code, _, err = run_cli(capsys, "train", "--config", str(path), "--dataset", str(cli_dataset),
                           "--out-dir", str(tmp_path / "out"))
    assert code == 2
    assert json.loads(err)["error"] == "config_error"
    assert not (tmp_path / "out").exists()


_OUT_OF_RANGE = [
    ("lr_max", -1), ("lr_max", float("nan")), ("lr_max", float("inf")), ("lr_max", 10 ** 400),
    ("lr_warmup", -1), ("lr_warmup", float("-inf")),
    ("momentum", 5), ("momentum", -3), ("momentum", 1), ("weight_decay", -100),
    ("logit_scale", float("nan")), ("logit_scale", 0), ("seed", -1), ("batch_size", 1),
    ("weights.tau_d", float("nan")), ("weights.w_d", -0.1), ("weights.w_reg", float("inf")),
    ("dims.d_t", 1),
]


@pytest.mark.parametrize("key, value", _OUT_OF_RANGE,
                         ids=[f"{k}={v if len(str(v)) < 9 else f'{len(str(v))}-digit'}"
                              for k, v in _OUT_OF_RANGE])
def test_config_value_out_of_range_is_config_error(capsys, cli_dataset, tmp_path, key, value):
    *outer, name = key.split(".")
    path = tmp_path / "config.json"
    path.write_text(json.dumps({outer[0]: {name: value}} if outer else {name: value}))
    code, _, err = run_cli(capsys, "train", "--config", str(path), "--dataset", str(cli_dataset),
                           "--out-dir", str(tmp_path / "out"))
    assert code == 2
    payload = json.loads(err)
    assert payload["error"] == "config_error" and payload["message"].startswith(f"{name} must be in")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", [["train"], ["eval-lodo", "--methods", "baseline_C,gsp_sr"]],
                         ids=lambda c: c[0])
def test_domain_loss_over_the_size_cap_is_config_error(capsys, cli_dataset, tmp_path,
                                                       monkeypatch, command):
    runs = []
    monkeypatch.setattr(spdg.cli, "train_style_prompter", lambda *a, **k: runs.append(a))
    monkeypatch.setattr(spdg.evaluate, "_evaluate_fold", lambda *a: runs.append(a))
    path = tmp_path / "config.json"   # 12 x 1e8 style rows: a domain-loss matrix of ~1e19 bytes
    path.write_text(json.dumps({"mc_samples": 100_000_000}))
    code, out, err = run_cli(capsys, *command, "--config", str(path), "--dataset",
                             str(cli_dataset), "--out-dir", str(tmp_path / "out"))
    assert (code, out, runs) == (2, "", [])
    payload = json.loads(err)
    assert payload["error"] == "config_error" and "domain-loss matrix" in payload["message"]
    assert not (tmp_path / "out").exists()


def test_non_finite_sample_is_format_error(capsys, tmp_path):
    from spdg.blob import read_blob, write_blob

    data = tmp_path / "data"
    assert run_cli(capsys, "gen-data", "--out-dir", str(data), "--n-per-cell", "12")[0] == 0
    x = read_blob(data / "samples.spdg")
    x[100, 7] = np.nan
    write_blob(data / "samples.spdg", x)
    code, out, err = run_cli(capsys, "train", "--dataset", str(data), "--held-out", "sketch",
                             "--out-dir", str(tmp_path / "run"))
    assert (code, out) == (2, "")
    payload = json.loads(err)
    assert payload["error"] == "format_error"
    assert payload["message"] == f"{data}: malformed dataset: ConfigError: sample 100 is not finite"
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("d_t", [16, 1, 100000],
                         ids=["narrower-than-weights", "out-of-range", "over-the-bundle-cap"])
def test_bundle_manifest_dims_that_do_not_fit_the_weights_are_format_error(
        capsys, cli_dataset, cli_run, tmp_path, d_t):
    bundle = tmp_path / "bundle"
    shutil.copytree(cli_run / "bundle", bundle)
    raw = json.loads((bundle / "manifest.json").read_text())
    assert raw["dims"]["d_t"] == 32
    raw["dims"]["d_t"] = d_t
    (bundle / "manifest.json").write_text(json.dumps(raw))
    code, out, err = run_cli(capsys, "infer", "--checkpoint", str(cli_run / "final"),
                             "--bundle", str(bundle), "--dataset", str(cli_dataset),
                             "--index", "0")
    assert (code, out) == (2, "")
    payload = json.loads(err)
    assert payload["error"] == "format_error" and str(bundle) in payload["message"]


def test_dims_over_the_bundle_cap_are_config_error(capsys, cli_dataset, tmp_path):
    # d_t = 100000 asks for 240 GB of text-encoder weights; refused before any is drawn
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"dims": {"d_t": 100000}}))
    tracemalloc.start()
    try:
        code, _, err = run_cli(capsys, "train", "--config", str(path), "--dataset",
                               str(cli_dataset), "--out-dir", str(tmp_path / "out"))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    payload = json.loads(err)
    assert payload["error"] == "config_error" and "over the cap of" in payload["message"]
    assert peak < 1 << 20
    assert not (tmp_path / "out").exists()


def test_default_config_hash_is_pinned():
    from spdg.trainer import RunConfig

    assert RunConfig().config_hash() == "d0f1a1241b5a"


_REQUIRED = {
    "infer": ["--checkpoint", "c", "--bundle", "b", "--dataset", "d", "--index", "0"],
    "similarity-report": ["--checkpoint", "c", "--bundle", "b", "--dataset", "d"],
}
_FLAG_VALUES = {"--seed": "1", "--out-dir": "o", "--precision": "f32", "--threads": "1"}
_REMOVED_FLAGS = [
    ("gen-data", "--threads"), ("gen-data", "--precision"),
    ("train", "--precision"), ("train", "--threads"),
    ("eval-lodo", "--seed"), ("eval-lodo", "--precision"),
    *(("infer", f) for f in _FLAG_VALUES), *(("grad-check", f) for f in _FLAG_VALUES),
    ("similarity-report", "--seed"), ("similarity-report", "--precision"),
    ("similarity-report", "--threads"),
]


@pytest.mark.parametrize("command, flag", _REMOVED_FLAGS, ids=lambda v: v)
def test_flag_a_command_does_not_read_is_rejected(capsys, command, flag):
    # eval-lodo has --seeds: without prefix matching, --seed is still no flag of it
    with pytest.raises(SystemExit) as exc:
        main([command, *_REQUIRED.get(command, []), flag, _FLAG_VALUES[flag]])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


def test_each_command_declares_only_the_shared_flags_it_reads():
    sub = next(a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    declared = {name: sorted(set(_FLAG_VALUES) & set(p._option_string_actions))
                for name, p in sub.choices.items()}
    assert declared == {
        "gen-data": ["--out-dir", "--seed"], "train": ["--out-dir", "--seed"],
        "eval-lodo": ["--out-dir", "--threads"], "infer": [],
        "similarity-report": ["--out-dir"], "grad-check": [],
    }
    assert sum(map(len, declared.values())) + len(set(_REMOVED_FLAGS)) == 4 * len(declared)


def test_non_integer_seeds_are_config_error(capsys, cli_dataset, tmp_path):
    code, _, err = run_cli(capsys, "eval-lodo", "--dataset", str(cli_dataset), "--seeds", "0,a",
                           "--out-dir", str(tmp_path / "out"))
    assert code == 2
    assert json.loads(err)["error"] == "config_error"
    assert not (tmp_path / "out").exists()


def test_negative_seed_is_config_error(capsys, cli_dataset, tmp_path):
    # a baseline method too: its bundle seed would reach the generator as -1
    code, _, err = run_cli(capsys, "eval-lodo", "--dataset", str(cli_dataset), "--seeds", "0,-1",
                           "--methods", "baseline_C", "--out-dir", str(tmp_path / "out"))
    assert code == 2
    assert json.loads(err)["error"] == "config_error"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv", [["--methods", ","], ["--threads", "-3"]])
def test_empty_methods_or_no_workers_is_config_error(capsys, cli_dataset, tmp_path, argv):
    code, _, err = run_cli(capsys, "eval-lodo", "--dataset", str(cli_dataset), *argv,
                           "--out-dir", str(tmp_path / "out"))
    assert code == 2
    assert json.loads(err)["error"] == "config_error"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv", [["--seeds", ","],
                                  ["--methods", "baseline_C,baseline_C", "--seeds", "0,0"]])
def test_empty_seeds_or_repeated_entries_are_config_error(capsys, cli_dataset, tmp_path, argv):
    code, _, err = run_cli(capsys, "eval-lodo", "--dataset", str(cli_dataset), *argv,
                           "--out-dir", str(tmp_path / "out"))
    assert code == 2
    assert json.loads(err)["error"] == "config_error"
    assert not (tmp_path / "out").exists()


def test_grad_check_lists_the_shipped_fused_nodes(capsys, monkeypatch, objective_check):
    # the full-objective check at grad-check's default fixture, computed once per session,
    # and one input per fused node in place of PRIMITIVE_INPUTS
    monkeypatch.setattr(spdg.gradcheck, "run_objective_check", lambda: objective_check[0])
    monkeypatch.setattr(spdg.gradcheck, "PRIMITIVE_INPUTS", 1)
    code, out, _ = run_cli(capsys, "grad-check")
    assert code == 0
    assert run_cli(capsys, "grad-check") == (0, out, "")  # no clock in the output
    lines = out.splitlines()
    assert len(lines) == 9 + 8
    checked = sorted(line.split(":")[0].split()[1] for line in lines if line.startswith("primitive "))
    assert checked == sorted([
        "l2_normalize", "domain_discrimination_loss", "encode_text_batch", "basic_forward",
        "gaussian_forward", "sample_styles_batch", "classification_head",
        "classification_head_ce_only", "total_loss",
    ])
    assert sum(line.startswith("objective d/d") for line in lines) == 8
    assert all(line.endswith("[ok]") for line in lines if "max_rel_err" in line)


@pytest.mark.parametrize("flag", ["--primitive-tol", "--objective-tol"])
def test_grad_check_tolerances_are_not_flags(capsys, flag):
    with pytest.raises(SystemExit) as exc:
        main(["grad-check", flag, "1e-3"])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["gen-data", "--style-strength", "-1e-1"], ["gen-data", "--noise-std", "-1e-6"],
    ["gen-data", "--noise-std", "-1_000.5"],
    *(["gen-data", flag, value] for flag in ("--style-strength", "--noise-std")
      for value in ("-inf", "-Infinity", "-INF", "-nan", "-NaN")),
], ids=lambda a: " ".join(a))
def test_negative_exponent_value_after_its_flag_reaches_the_range_check(capsys, tmp_path, argv):
    code, out, err = run_cli(capsys, *argv, "--out-dir", str(tmp_path / "data"))
    assert code == 2
    assert json.loads(err)["error"] == "config_error"
    assert out == ""
    assert not (tmp_path / "data").exists()


def test_negative_exponent_value_is_read_as_the_flags_value(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["train", "--seed", "-1e3"])
    assert exc.value.code == 2
    assert "invalid int value: '-1e3'" in capsys.readouterr().err
