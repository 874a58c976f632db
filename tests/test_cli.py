import argparse
import json
import shutil

import numpy as np
import pytest

from spdg.cli import _build_parser, main


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
    assert (tmp_path / "d" / "samples.spdg").exists()


def test_train_emits_summary(capsys, cli_dataset, tmp_path):
    code, out, _ = run_cli(capsys, "train", "--dataset", str(cli_dataset),
                           "--held-out", "sketch", "--epochs", "1",
                           "--batch-size", "8", "--mc-samples", "2",
                           "--seed", "1", "--out-dir", str(tmp_path / "r"))
    assert code == 0
    payload = json.loads(out)
    assert payload["final_checkpoint"]
    assert len(payload["val_accuracies"]) == 1


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


def test_eval_lodo_with_matrix_file(capsys, cli_dataset, tmp_path):
    matrix = tmp_path / "matrix.json"
    matrix.write_text(json.dumps({
        "dataset": str(cli_dataset),
        "methods": ["baseline_C", "baseline_PC"],
        "seeds": [0],
        "config": {"epochs": 1, "batch_size": 8, "mc_samples": 2},
    }))
    code, out, _ = run_cli(capsys, "eval-lodo", "--matrix", str(matrix),
                           "--out-dir", str(tmp_path / "lodo"))
    assert code == 0
    payload = json.loads(out)
    assert set(payload["averages"]) == {"baseline_C", "baseline_PC"}
    report = json.loads((tmp_path / "lodo" / "lodo_report.json").read_text())
    assert not report["partial"]


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


def _spoil_labels(labels, damage):
    if damage == "directory":
        labels.unlink()
        labels.mkdir()
    elif damage == "missing":
        labels.unlink()
    elif damage == "empty":
        labels.write_bytes(b"")
    elif damage == "not utf-8":
        labels.write_bytes(labels.read_bytes().replace(b"photo", b"ph\xffto", 1))
    else:  # duplicated line
        lines = labels.read_bytes().splitlines(keepends=True)
        labels.write_bytes(b"".join(lines[:5] + lines[4:]))


@pytest.mark.parametrize("damage", ["missing", "directory", "empty", "not utf-8", "duplicated line"])
def test_unreadable_labels_csv_is_format_error(capsys, cli_dataset, tmp_path, damage):
    data = tmp_path / "data"
    shutil.copytree(cli_dataset, data)
    _spoil_labels(data / "labels.csv", damage)
    code, _, err = run_cli(capsys, "eval-lodo", "--dataset", str(data), "--out-dir",
                           str(tmp_path / "out"))
    assert code == 2
    assert json.loads(err)["error"] == "format_error"


def test_missing_out_dir_is_config_error(capsys, cli_dataset):
    code, _, err = run_cli(capsys, "gen-data", "--seed", "0")
    assert code == 2
    assert json.loads(err)["error"] == "config_error"


def test_precision_flag_stores_f32(capsys, tmp_path):
    code, _, _ = run_cli(capsys, "gen-data", "--out-dir", str(tmp_path / "d32"),
                         "--seed", "0", "--n-per-cell", "10", "--precision", "f32")
    assert code == 0
    from spdg.blob import read_blob
    assert read_blob(tmp_path / "d32" / "samples.spdg").dtype == np.float32


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


@pytest.mark.parametrize("reader, damage", [
    *((r, d) for r in ("train", "eval-crosscat", "eval-lodo")
      for d in ("not-json", "not-object", "unknown-key")),
    ("eval-lodo", "no-dataset"),
])
def test_malformed_config_file_is_config_error(capsys, cli_dataset, tmp_path, reader, damage):
    config = {"not-json": "{\"epochs\": 1", "not-object": [1, 2],
              "unknown-key": {"epochs": 1, "bogus": 1}, "no-dataset": {}}[damage]
    path = tmp_path / "config.json"
    if reader == "eval-lodo" and damage in ("not-object", "unknown-key"):
        config = {"dataset": str(cli_dataset), "config": config}
    path.write_text(config if isinstance(config, str) else json.dumps(config))
    argv = {"train": ["train", "--config", str(path), "--dataset", str(cli_dataset)],
            "eval-crosscat": ["eval-crosscat", "--train-config", str(path),
                              "--test-data", str(cli_dataset)],
            "eval-lodo": ["eval-lodo", "--matrix", str(path)]}[reader]
    code, _, err = run_cli(capsys, *argv, "--out-dir", str(tmp_path / "out"))
    assert code == 2
    assert json.loads(err)["error"] == "config_error"


@pytest.mark.parametrize("config", [
    {"epochs": "three"}, {"epochs": True}, {"epochs": 2.0}, {"lr_max": None},
    {"use_style_reg": 1}, {"held_out_domain": 1.5}, {"extra_classes": "kite"},
    {"extra_classes": [1]}, {"weights": {"w_d": "x"}}, {"weights": [0.1]},
    {"dims": 5}, {"dims": {"d_i": 64.0}}, {"precision": "f64"},
], ids=lambda c: json.dumps(c))
def test_wrong_config_value_type_is_config_error(capsys, cli_dataset, tmp_path, config):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    code, _, err = run_cli(capsys, "train", "--config", str(path), "--dataset", str(cli_dataset),
                           "--out-dir", str(tmp_path / "out"))
    assert code == 2
    assert json.loads(err)["error"] == "config_error"
    assert not (tmp_path / "out").exists()


_REQUIRED = {
    "eval-crosscat": ["--train-config", "c.json", "--test-data", "d"],
    "infer": ["--checkpoint", "c", "--bundle", "b", "--dataset", "d", "--index", "0"],
    "similarity-report": ["--checkpoint", "c", "--bundle", "b", "--dataset", "d"],
    "ablation": ["--dataset", "d"],
}
_FLAG_VALUES = {"--seed": "1", "--out-dir": "o", "--precision": "f64", "--threads": "1"}
_REMOVED_FLAGS = [
    ("gen-data", "--threads"), ("train", "--precision"), ("train", "--threads"),
    ("eval-lodo", "--seed"), ("eval-lodo", "--precision"),
    ("eval-crosscat", "--precision"), ("eval-crosscat", "--threads"),
    *(("infer", f) for f in _FLAG_VALUES), *(("grad-check", f) for f in _FLAG_VALUES),
    ("similarity-report", "--seed"), ("similarity-report", "--precision"),
    ("similarity-report", "--threads"), ("ablation", "--seed"), ("ablation", "--precision"),
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
        "gen-data": ["--out-dir", "--precision", "--seed"], "train": ["--out-dir", "--seed"],
        "eval-lodo": ["--out-dir", "--threads"], "eval-crosscat": ["--out-dir", "--seed"],
        "infer": [], "similarity-report": ["--out-dir"], "grad-check": [],
        "ablation": ["--out-dir", "--threads"],
    }
    assert sum(map(len, declared.values())) + len(set(_REMOVED_FLAGS)) == 4 * len(declared)


@pytest.mark.parametrize("command", ["eval-lodo", "ablation"])
def test_non_integer_seeds_are_config_error(capsys, cli_dataset, tmp_path, command):
    code, _, err = run_cli(capsys, command, "--dataset", str(cli_dataset), "--seeds", "0,a",
                           "--out-dir", str(tmp_path / "out"))
    assert code == 2
    assert json.loads(err)["error"] == "config_error"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("matrix", [
    {"methods": "baseline_C"}, {"methods": [1]}, {"methods": []}, {"seeds": "0"},
    {"seeds": ["0"]}, {"seeds": [0.5]}, {"seeds": [True]}, {"seeds": []}, {"dataset": 5},
], ids=lambda m: json.dumps(m))
def test_malformed_matrix_list_is_config_error(capsys, cli_dataset, tmp_path, matrix):
    path = tmp_path / "matrix.json"
    path.write_text(json.dumps({"dataset": str(cli_dataset), "methods": ["baseline_C"], **matrix}))
    code, _, err = run_cli(capsys, "eval-lodo", "--matrix", str(path),
                           "--out-dir", str(tmp_path / "out"))
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


def test_grad_check_lists_the_shipped_fused_nodes(capsys):
    code, out, _ = run_cli(capsys, "grad-check", "--primitive-inputs", "1")
    assert code == 0
    lines = out.splitlines()
    checked = sorted(line.split(":")[0].split()[1] for line in lines if line.startswith("primitive "))
    assert checked == sorted([
        "l2_normalize", "domain_discrimination_loss", "encode_text_batch", "basic_forward",
        "gaussian_forward", "sample_styles_batch", "classification_head",
        "classification_head_ce_only", "total_loss",
    ])
    assert sum(line.startswith("objective d/d") for line in lines) == 8
    assert all(line.endswith("[ok]") for line in lines if "max_rel_err" in line)


@pytest.mark.parametrize("argv", [
    ["--primitive-inputs", "0"], ["--primitive-inputs", "-3"],
    ["--primitive-tol", "0"], ["--primitive-tol=-1e-6"], ["--primitive-tol", "nan"],
    ["--objective-tol", "inf"], ["--objective-tol", "nan"],
])
def test_grad_check_that_checks_nothing_is_config_error(capsys, argv):
    code, out, err = run_cli(capsys, "grad-check", *argv)
    assert code == 2
    assert json.loads(err)["error"] == "config_error"
    assert out == ""


@pytest.mark.parametrize("argv", [
    ["grad-check", "--primitive-tol", "-1e-6"], ["grad-check", "--objective-tol", "-1e-4"],
    ["gen-data", "--style-strength", "-1e-1"],
], ids=lambda a: " ".join(a))
def test_negative_exponent_value_after_its_flag_reaches_the_range_check(capsys, tmp_path, argv):
    if argv[0] == "gen-data":
        argv = argv + ["--out-dir", str(tmp_path / "data")]
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert json.loads(err)["error"] == "config_error"
    assert out == ""
    assert not (tmp_path / "data").exists()


def test_negative_exponent_value_is_read_as_the_flags_value(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["train", "--seed", "-1e3"])
    assert exc.value.code == 2
    assert "invalid int value: '-1e3'" in capsys.readouterr().err
