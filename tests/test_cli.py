"""Command-line behavior: exit codes, file outputs, determinism, overrides."""

import hashlib
import json
import math

import numpy as np
import pytest

from popflow.cli import main
from popflow.grid import bundled_case, case_hash, load_case, serialize_case
from popflow.pipeline import load_dataset
from popflow.sdae import TrainConfig
from popflow.solver import oracle_opf

from conftest import stall_dispatch, two_bus_case


def write_case(tmp_path, case=None, name="case.json"):
    case = case or two_bus_case()
    path = tmp_path / name
    path.write_text(serialize_case(case), encoding="utf-8")
    return path


def write_config(tmp_path, case_path, **extra):
    cfg = {
        "case": str(case_path),
        "output_dir": str(tmp_path / "out"),
        "train": {
            "hidden_sizes": [8],
            "epochs_unsup": 10,
            "epochs_sup": 25,
            "batch_size": 100,
            "patience": 25,
            "corruption_level": 0.05,
            "seed": 3,
        },
        "sampling": {"n_train": 400, "n_mcs": 150, "seed": 5},
        "report": {"bins": 20},
    }
    cfg.update(extra)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    return path


# ---------------------------------------------------------------------------
# validate


def test_validate_ok_exit_zero(tmp_path, capsys):
    path = write_case(tmp_path)
    assert main(["validate", str(path)]) == 0
    assert capsys.readouterr().out == ""


def test_validate_two_slack_exit_one(tmp_path, capsys):
    doc = json.loads(serialize_case(two_bus_case()))
    doc["buses"][1]["kind"] = "slack"
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["validate", str(path)]) == 1
    out = capsys.readouterr().out
    assert "exactly one Slack bus" in out


def test_validate_missing_file_exit_two(tmp_path):
    assert main(["validate", str(tmp_path / "nope.json")]) == 2


def test_validate_malformed_json_exit_two(tmp_path):
    path = tmp_path / "garbage.json"
    path.write_text("{{{", encoding="utf-8")
    assert main(["validate", str(path)]) == 2


@pytest.mark.parametrize("section, field, value", [("generators", "p_max_mw", math.inf),
                                                   ("branches", "x", math.nan),
                                                   ("buses", "p_load_mw", -math.inf),
                                                   ("generators", "cost_b", 10 ** 400)])
def test_validate_non_finite_number_exit_two(tmp_path, capsys, section, field, value):
    """Python's json reads NaN, Infinity and integers past the float range,
    which no float holds; the case parser refuses them as a schema error that
    names the field."""
    doc = json.loads(serialize_case(bundled_case("twobus")))
    doc[section][0][field] = value
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["validate", str(path)]) == 2
    assert f"$.{section}[0].{field}: expected a finite number" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# gen-data


def test_gen_data_deterministic_bytes(tmp_path):
    case_path = write_case(tmp_path)
    cfg = write_config(tmp_path, case_path)
    assert main(["gen-data", "-c", str(cfg)]) == 0
    dataset_dir = tmp_path / "out" / "dataset"
    first = {f.name: f.read_bytes() for f in dataset_dir.iterdir()}
    assert main(["gen-data", "-c", str(cfg)]) == 0
    second = {f.name: f.read_bytes() for f in dataset_dir.iterdir()}
    assert first == second
    assert {"X.tsv", "Y.tsv", "samples.tsv", "provenance.json"} <= set(first)


def test_gen_data_rows_equal_solves_alone(tmp_path, capsys):
    """A row labelled in a gen-data run equals the same sample solved alone
    on a freshly loaded case, bit for bit; the run logs nothing by default."""
    case_path = write_case(tmp_path, bundled_case("case14"))
    cfg = write_config(tmp_path, case_path)
    assert main(["gen-data", "-c", str(cfg), "--set", "sampling.n_train=40"]) == 0
    assert capsys.readouterr().err == ""
    ds = load_dataset(tmp_path / "out" / "dataset")
    for i in (0, 17, 39):
        alone = oracle_opf(load_case(case_path), ds.samples[i])
        assert np.array_equal(alone.as_vector(), ds.y[i])


def test_gen_data_zero_samples_usage_error(tmp_path):
    case_path = write_case(tmp_path)
    cfg = write_config(tmp_path, case_path)
    assert main(["gen-data", "-c", str(cfg), "--set", "sampling.n_train=0"]) == 2


def test_gen_data_provenance_hash_matches(tmp_path):
    case_path = write_case(tmp_path)
    cfg = write_config(tmp_path, case_path)
    main(["gen-data", "-c", str(cfg)])
    prov = json.loads((tmp_path / "out" / "dataset" / "provenance.json").read_text())
    assert prov["case_hash"] == case_hash(load_case(case_path))
    assert prov["seed"] == 5


# ---------------------------------------------------------------------------
# train


def test_train_defaults_match_documented_hyperparameters():
    cfg = TrainConfig()
    assert cfg.eta_sup == 0.001
    assert cfg.eta_unsup == 0.0001
    assert cfg.batch_size == 500
    assert cfg.momentum == 0.9
    assert cfg.epochs_sup == 300
    assert cfg.epochs_unsup == 500
    # fine-tuning corruption follows the pretraining level unless overridden
    assert cfg.finetune_corruption == cfg.corruption_level
    assert TrainConfig(corruption_level_finetune=0.0).finetune_corruption == 0.0


@pytest.fixture()
def generated(tmp_path):
    case_path = write_case(tmp_path)
    cfg = write_config(tmp_path, case_path)
    assert main(["gen-data", "-c", str(cfg)]) == 0
    return cfg, tmp_path


def test_train_checkpoint_and_history(generated, capsys):
    cfg, tmp_path = generated
    assert main(["train", "-c", str(cfg)]) == 0
    out = capsys.readouterr().out
    assert "val loss" in out
    ckpt = tmp_path / "out" / "model.ckpt"
    history = tmp_path / "out" / "model.history.tsv"
    assert ckpt.exists() and history.exists()
    lines = history.read_text().strip().split("\n")
    n_epochs = int(out.split("trained ")[1].split(" epochs")[0])
    assert len(lines) - 1 == n_epochs

    digest = hashlib.sha256(ckpt.read_bytes()).hexdigest()
    assert main(["train", "-c", str(cfg)]) == 0
    assert hashlib.sha256(ckpt.read_bytes()).hexdigest() == digest


def test_train_writes_pretraining_losses_and_stop(generated, capsys):
    cfg, tmp_path = generated
    out = tmp_path / "out"
    runs = []
    for _ in range(2):
        assert main(["train", "-c", str(cfg)]) == 0
        runs.append({name: (out / name).read_bytes()
                     for name in ("model.pretrain.tsv", "model.stop.tsv")})
    assert runs[0] == runs[1]
    printed = capsys.readouterr().out

    assert (out / "model.pretrain.tsv").read_text().startswith("layer\tepoch\tloss\n")
    rows = np.loadtxt(out / "model.pretrain.tsv", delimiter="\t", skiprows=1)
    assert np.array_equal(rows[:, :2], [[0, e] for e in range(10)])  # one layer, 10 epochs
    assert np.all(np.isfinite(rows[:, 2]) & (rows[:, 2] > 0))

    history = np.loadtxt(out / "model.history.tsv", delimiter="\t", skiprows=1)
    header, row = (out / "model.stop.tsv").read_text().strip().split("\n")
    assert header == "epochs\tbest_epoch\tbest_val_loss\treason"
    epochs, best, best_val, reason = row.split("\t")
    assert int(epochs) == len(history)
    assert int(best) == int(np.argmin(history[:, 2]))
    assert float(best_val) == history[int(best), 2]
    assert f"({reason}); best validation epoch {best}" in printed


def test_train_missing_dataset_exit_two(tmp_path):
    case_path = write_case(tmp_path)
    cfg = write_config(tmp_path, case_path)
    assert main(["train", "-c", str(cfg)]) == 2


# ---------------------------------------------------------------------------
# popf


@pytest.fixture()
def trained(generated):
    cfg, tmp_path = generated
    assert main(["train", "-c", str(cfg)]) == 0
    return cfg, tmp_path


def test_popf_single_sample_degenerate(trained, capsys):
    cfg, tmp_path = trained
    assert main(["popf", "-c", str(cfg), "--samples", "1"]) == 0
    assert "degenerate" in capsys.readouterr().out
    stats = (tmp_path / "out" / "popf_stats.tsv").read_text().strip().split("\n")
    assert all(line.endswith("degenerate") for line in stats[1:])


def test_popf_fixed_samples_and_densities(trained, capsys):
    cfg, tmp_path = trained
    assert main(["popf", "-c", str(cfg), "--samples", "200"]) == 0
    out_dir = tmp_path / "out"
    for f in out_dir.glob("density_*.tsv"):
        rows = [line.split("\t") for line in f.read_text().strip().split("\n")[1:]]
        centers = np.array([float(r[0]) for r in rows])
        dens = np.array([float(r[1]) for r in rows])
        if len(centers) > 1:
            width = centers[1] - centers[0]
            assert np.sum(dens * width) == pytest.approx(1.0, abs=1e-9)
    assert not list(out_dir.glob("*.tmp"))


def test_popf_converge_near_zero_variance(tmp_path, capsys):
    """A practically deterministic case converges at the minimum count."""
    case = two_bus_case()
    doc = json.loads(serialize_case(case))
    doc["sources"][0]["std_mw"] = 1e-20
    case_path = tmp_path / "case.json"
    case_path.write_text(json.dumps(doc), encoding="utf-8")
    cfg = write_config(tmp_path, case_path)
    assert main(["gen-data", "-c", str(cfg)]) == 0
    assert main(["train", "-c", str(cfg)]) == 0
    capsys.readouterr()
    assert main(["popf", "-c", str(cfg), "--converge"]) == 0
    out = capsys.readouterr().out
    assert "converged at 2" in out


def test_gen_data_stalled_dispatch_exit_one(tmp_path, capsys, monkeypatch):
    """A dispatch round-cap failure reaches the CLI as a domain error."""
    stall_dispatch(monkeypatch)
    cfg = write_config(tmp_path, write_case(tmp_path))
    assert main(["gen-data", "-c", str(cfg), "--set", "sampling.n_train=4"]) == 1
    assert "TooManyRejections" in capsys.readouterr().err


def test_popf_missing_checkpoint_fails(generated):
    cfg, tmp_path = generated
    rc = main(["popf", "-c", str(cfg), "--samples", "10"])
    assert rc != 0


# ---------------------------------------------------------------------------
# compare


def test_compare_summary_and_report(trained, capsys):
    cfg, tmp_path = trained
    assert main(["compare", "-c", str(cfg)]) == 0
    out = capsys.readouterr().out
    for method in ("oracle", "surrogate", "dc_only"):
        assert method in out
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["n_samples"] + report["dropped"] == 150
    assert set(report["timings_seconds"]) == {"oracle", "surrogate", "dc_only"}


def test_compare_self_check_zero_columns(trained, capsys):
    cfg, tmp_path = trained
    assert main(["compare", "-c", str(cfg), "--self-check"]) == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["self_check"] is True
    err = report["errors"]["surrogate"]
    assert all(v == 0.0 for v in err["e_mean"])
    assert all(v == 0.0 for v in err["e_std"])


def test_config_override_precedence(trained, capsys):
    cfg, tmp_path = trained
    assert main(["compare", "-c", str(cfg), "--set", "sampling.n_mcs=60"]) == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["n_samples"] + report["dropped"] == 60


def test_bad_override_usage_error(trained):
    cfg, _ = trained
    assert main(["compare", "-c", str(cfg), "--set", "no_equals_sign"]) == 2


def test_missing_config_usage_error(tmp_path):
    assert main(["compare", "-c", str(tmp_path / "none.json")]) == 2
