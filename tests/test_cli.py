"""Command-line behavior: exit codes, file outputs, determinism, overrides."""

import ast
import dataclasses
import hashlib
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from popflow import cli, pipeline, rowblocks, sdae
from popflow.cli import main
from popflow.grid import bundled_case, case_hash, load_case, serialize_case
from popflow.pipeline import default_density_labels, load_dataset, operating_features
from popflow.sampling import sample_operating_conditions
from popflow.sdae import TrainConfig
from popflow.solver import oracle_opf

from conftest import as_vector, solution_dim, stall_dispatch, two_bus_case


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


@pytest.mark.parametrize("command", [["validate", "CASE"], ["popf", "-c", "CASE"],
                                     ["gen-data", "-c", "CONFIG"]],
                         ids=["validate", "config", "config-case"])
def test_file_that_is_not_utf8_exit_two(tmp_path, capsys, command):
    """A case file, a config file or a config's case that is not UTF-8 text
    exits 2 with one message line that names the file."""
    bad = tmp_path / "bad.bin"
    bad.write_bytes(b"\xff\xfe{\x00\x81")
    cfg = write_config(tmp_path, bad)
    argv = [{"CASE": str(bad), "CONFIG": str(cfg)}.get(arg, arg) for arg in command]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and f"{bad} is not" in err
    assert err.startswith("error: " if command[0] == "popf" else "parse error: $: ")


def test_validate_malformed_json_exit_two(tmp_path):
    path = tmp_path / "garbage.json"
    path.write_text("{{{", encoding="utf-8")
    assert main(["validate", str(path)]) == 2


@pytest.mark.parametrize("command", [["validate", "CASE"], ["gen-data", "-c", "CONFIG"]],
                         ids=["validate", "config-case"])
@pytest.mark.parametrize("text, fault", [("{{{", "$: not valid JSON: "),
                                         ('{"format_version": 1}', "$.system: missing required")])
def test_case_schema_error_names_the_file(tmp_path, capsys, command, text, fault):
    """A case that does not parse, named directly or by a config, exits 2
    with one message line that names the file, then the offending element."""
    bad = tmp_path / "garbage.json"
    bad.write_text(text, encoding="utf-8")
    cfg = write_config(tmp_path, bad)
    argv = [{"CASE": str(bad), "CONFIG": str(cfg)}.get(arg, arg) for arg in command]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith(f"parse error: {bad}: {fault}")


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
        assert np.array_equal(as_vector(alone), ds.y[i])


@pytest.mark.parametrize("command", [["gen-data"], ["popf", "--samples", "20"],
                                     ["popf", "--converge"], ["compare"]])
def test_case_without_sources_usage_error_before_drawing(tmp_path, capsys, command):
    """A valid case with no stochastic sources passes validate; each command
    that samples it exits 2 with a one-line usage message before it loads a
    checkpoint, draws or writes anything."""
    doc = json.loads(serialize_case(bundled_case("case14")))
    doc["sources"] = []
    case_path = tmp_path / "case.json"
    case_path.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["validate", str(case_path)]) == 0
    cfg = write_config(tmp_path, case_path)
    before = {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()}
    capsys.readouterr()
    assert main([*command, "-c", str(cfg)]) == 2
    assert (capsys.readouterr().err
            == f"error: case {case_path} has no stochastic sources to sample\n")
    assert {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()} == before


def test_case14_commands_load_no_scipy(tmp_path):
    """In one fresh process, gen-data, train, popf --samples, popf --converge
    and compare on case14 each exit 0 and print nothing to stderr (logging
    stays quiet by default). The same process runs each path that once
    reached scipy: gen-data on case14 with its branch limits scaled by 0.35,
    where the proportional fill breaks a flow limit and phase 1 runs, PV
    values past the quantile table and of a shape whose nodes underflow, and
    a power flow whose Jacobian is singular. No scipy module is loaded."""
    case = bundled_case("case14")
    case_path = write_case(tmp_path, case)
    cfg = write_config(tmp_path, case_path, sampling={
        "n_train": 300, "n_mcs": 60, "seed": 5,
        "correlation": {"area_loads": [[1.0, 0.6], [0.6, 1.0]]}})
    tight = write_case(tmp_path, dataclasses.replace(case, branches=tuple(
        dataclasses.replace(br, p_limit=0.35 * br.p_limit) for br in case.branches)),
        name="tight.json")
    tight_cfg = tmp_path / "tight_config.json"
    tight_cfg.write_text(json.dumps({"case": str(tight), "output_dir": str(tmp_path / "tight"),
                                     "sampling": {"n_train": 600, "seed": 1}}),
                         encoding="utf-8")
    singular = write_case(tmp_path, two_bus_case(), name="twobus.json")
    code = f"""
import sys
import numpy as np
from popflow import solver
from popflow.cli import main
from popflow.errors import SingularJacobian
from popflow.grid import SRC_PV, StochasticSource, load_case
from popflow.sampling import transform_marginal

for command in (["gen-data"], ["train"], ["popf", "--samples", "5000"],
                ["popf", "--converge"], ["compare"]):
    assert main([*command, "-c", {str(cfg)!r}]) == 0, command
phase_one = []
cold = solver._primal_active_set
def counted(qp, total, h, x):
    phase_one.append(len(x) > len(qp.p_min))
    return cold(qp, total, h, x)
solver._primal_active_set = counted
assert main(["gen-data", "-c", {str(tight_cfg)!r}]) == 0
assert any(phase_one)
z = np.array([-40.0, -9.0, -1.0, 1.5, 9.0, 40.0])
for alpha, beta in ((0.01, 2.0), (2.06, 2.5)):
    params = {{"alpha": alpha, "beta": beta, "rated": 1.0}}
    assert np.isfinite(transform_marginal(z, StochasticSource(1, SRC_PV, params))).all()
try:
    solver.ac_power_flow(load_case({str(singular)!r}), np.zeros(2), np.array([0.0, -5.0]))
    raise AssertionError("the Jacobian was not singular")
except SingularJacobian:
    pass
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert (run.returncode, run.stderr) == (0, "")
    assert run.stdout.splitlines()[-1] == "[]"


def test_no_module_of_the_package_imports_scipy():
    """scipy is a test dependency only: no file of the package imports it."""
    package = Path(cli.__file__).parent
    files = sorted(package.rglob("*.py"))
    assert len(files) > 5
    for path in files:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""] if node.level == 0 else []
            else:
                continue
            assert not any(n.split(".")[0] == "scipy" for n in names), (path, node.lineno)


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


@pytest.mark.parametrize("setting, message", [
    ("train=5", "train must be a JSON object, got 5"),
    ("train.hidden_sizes=5", "bad train config"),
    ("train.hidden_sizes=[0]", "every hidden size must be an integer of at least 1, got 0"),
    ("train.hidden_sizes=[8.0]", "every hidden size must be an integer of at least 1, got 8.0"),
    ('train.hidden_sizes="abc"', "hidden_sizes must be a non-empty list of integers, got 'abc'"),
    ("train.batch_size=2.5", "batch_size must be an integer of at least 1, got 2.5"),
    ("train.batch_size=true", "batch_size must be an integer of at least 1, got True"),
    ("train.epochs_sup=0", "epochs_sup must be an integer of at least 1, got 0"),
    ("train.epochs_unsup=2.5", "epochs_unsup must be an integer of at least 0, got 2.5"),
    ("train.patience=-1", "patience must be an integer of at least 0, got -1"),
    ("train.seed=-1", "seed must be an integer of at least 0, got -1"),
    ("train.seed=abc", "seed must be an integer of at least 0, got 'abc'"),
    ("train.eta_sup=true", "eta_sup must be a finite number, got True"),
    ("train.eta_unsup=true", "eta_unsup must be a finite number, got True"),
    ('train.eta_sup="1e-3"', "eta_sup must be a finite number, got '1e-3'"),
    ("train.eta_sup=NaN", "eta_sup must be a finite number, got nan"),
    ("train.eta_unsup=Infinity", "eta_unsup must be a finite number, got inf"),
    ("train.momentum=false", "momentum must be a finite number, got False"),
    ("train.momentum=[0.9]", "momentum must be a finite number, got [0.9]"),
    ("train.corruption_level=false", "corruption_level must be a finite number, got False"),
    ("train.corruption_level=NaN", "corruption_level must be a finite number, got nan"),
    ("train.corruption_level_finetune=true",
     "corruption_level_finetune must be a finite number, got True"),
    ("train.corruption_level_finetune=-Infinity",
     "corruption_level_finetune must be a finite number, got -inf"),
])
def test_bad_train_config_usage_error_before_dataset_load(generated, capsys, monkeypatch,
                                                          setting, message):
    """A bad train setting exits 2 with a usage message before the dataset
    loads, and no file changes."""
    def no_dataset_load(directory):
        raise AssertionError("the dataset was loaded")

    monkeypatch.setattr(cli.pipeline, "load_dataset", no_dataset_load)
    cfg, tmp_path = generated
    before = {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()}
    capsys.readouterr()
    assert main(["train", "-c", str(cfg), "--set", setting]) == 2
    assert message in capsys.readouterr().err
    assert {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()} == before


def test_train_too_few_rows_for_two_batches_usage_error(generated, capsys, monkeypatch):
    """A dataset with fewer rows than two batches exits 2 with one usage line
    after it loads and before any training work, and writes no file."""
    def no_training(*args):
        raise AssertionError("training started")

    monkeypatch.setattr(cli.pipeline, "train_popf_model", no_training)
    cfg, tmp_path = generated
    before = {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()}
    capsys.readouterr()
    assert main(["train", "-c", str(cfg), "--set", "train.batch_size=500"]) == 2
    assert capsys.readouterr().err == (f"error: dataset in {tmp_path / 'out' / 'dataset'} has "
                                       f"400 rows; train.batch_size 500 needs at least 1000\n")
    assert {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()} == before


def _replace_cell(text):
    lines = text.split("\n")
    lines[2] = "abc" + lines[2][lines[2].index("\t"):]
    return "\n".join(lines)


def _truncate_row(text):
    lines = text.split("\n")
    lines[3] = lines[3].rsplit("\t", 1)[0]
    return "\n".join(lines)


@pytest.mark.parametrize("name, damage, fault", [
    ("X.tsv", _replace_cell, "could not convert"),
    ("Y.tsv", _truncate_row, "number of columns changed"),
    ("Y.tsv", lambda text: text.rstrip("\n").rsplit("\n", 1)[0] + "\n", "399 rows, X.tsv has 400"),
    ("provenance.json", lambda text: text[:-3], "not UTF-8 JSON"),
], ids=["non-numeric-cell", "truncated-row", "missing-row", "bad-json"])
def test_train_malformed_dataset_exit_one(generated, capsys, name, damage, fault):
    """A dataset file that does not parse, or a Y.tsv whose row count is not
    X.tsv's, exits 1 with one CorruptFile line naming the file and the
    fault, and no checkpoint is written."""
    cfg, tmp_path = generated
    path = tmp_path / "out" / "dataset" / name
    path.write_text(damage(path.read_text(encoding="utf-8")), encoding="utf-8")
    capsys.readouterr()
    assert main(["train", "-c", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: CorruptFile: {path}: ") and err.count("\n") == 1
    assert fault in err
    assert not (tmp_path / "out" / "model.ckpt").exists()


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


@pytest.fixture()
def case14_study(tmp_path, case14):
    """A case14 config with the README's correlation whose checkpoint is a
    random network over case14's features: ``popf`` without training."""
    checkpoint = tmp_path / "model.ckpt"
    cfg = write_config(tmp_path, write_case(tmp_path, case14), checkpoint=str(checkpoint),
                       sampling={"seed": 11,
                                 "correlation": {"area_loads": [[1.0, 0.6], [0.6, 1.0]]}})
    x = operating_features(case14, sample_operating_conditions(case14, 2000, None, 1).values)
    rng = np.random.Generator(np.random.PCG64(5))
    model = sdae.init_model(x.shape[1], (16, 24), solution_dim(case14), 0.0, rng)
    model.x_lo, model.x_hi = sdae.fit_bounds(x)
    model.y_lo = rng.uniform(-1.0, 0.0, solution_dim(case14))
    model.y_hi = model.y_lo + rng.uniform(0.5, 2.0, solution_dim(case14))
    sdae.save_model(model, checkpoint)
    return cfg, tmp_path


def test_popf_density_columns_give_the_files_of_full_rows(case14_study, case14, monkeypatch,
                                                          capsys):
    """``popf --samples``, over four blocks on three workers, and ``popf
    --converge`` keep only their density columns, and each writes the stats
    and density tables of a run that keeps every column and selects them
    afterwards, byte for byte."""
    cfg, tmp_path = case14_study
    monkeypatch.setattr(rowblocks, "_usable_cores", lambda: 3)
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    real_run_popf = pipeline.run_popf
    widths = []

    def recording_run_popf(*args, **kwargs):
        result = real_run_popf(*args, **kwargs)
        widths.append(result.values.shape[1])
        return result

    def full_rows_run_popf(*args, columns=None, **kwargs):
        result = recording_run_popf(*args, **kwargs)
        return dataclasses.replace(result, values=result.values[:, columns])

    for mode in (["--samples", str(3 * rowblocks.BLOCK_ROWS + 5)], ["--converge"]):
        argv = ["popf", "-c", str(cfg), *mode]
        widths.clear()
        for name, run_popf in (("kept", recording_run_popf), ("full", full_rows_run_popf)):
            monkeypatch.setattr(pipeline, "run_popf", run_popf)
            assert main([*argv, "--set", f"output_dir={tmp_path / mode[0] / name}"]) == 0
        assert widths == [len(default_density_labels(case14)), solution_dim(case14)]
        kept, full = tmp_path / mode[0] / "kept", tmp_path / mode[0] / "full"
        files = sorted(path.name for path in full.iterdir())
        assert "popf_stats.tsv" in files and len(files) == 1 + len(default_density_labels(case14))
        for name in files:
            assert (kept / name).read_bytes() == (full / name).read_bytes()


def test_popf_memory_grows_by_the_kept_columns_only(case14_study, case14, monkeypatch, capsys):
    """On one worker, the traced peak of ``popf --samples`` (tracemalloc sees
    numpy's allocations) grows from 20,000 to 80,000 rows by at most the
    bytes of the kept density columns plus 1 MB. Holding every row's outputs
    would add 60,000 x 40 x 8 bytes, 19 MB, and every row's normals more."""
    cfg, _ = case14_study
    monkeypatch.setattr(rowblocks, "_usable_cores", lambda: 1)
    argv = ["popf", "-c", str(cfg), "--samples"]

    def traced_peak(n):
        tracemalloc.start()
        try:
            assert main([*argv, str(n)]) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert main([*argv, "20000"]) == 0   # builds the cached per-case tables untraced
    growth = traced_peak(80_000) - traced_peak(20_000)
    kept_bytes = 60_000 * len(default_density_labels(case14)) * 8
    assert growth <= kept_bytes + 2 ** 20, (growth, kept_bytes)


def test_popf_converge_memory_grows_by_the_kept_columns_only(case14_study, case14, monkeypatch,
                                                             capsys):
    """A ``popf --converge`` run held to its cap keeps only its density
    columns and folds the stopping rule block by block: its traced peak
    grows from a 20,000- to an 80,000-row cap by at most the bytes of the
    kept columns plus one block of every output column. Holding every row's
    outputs would add 60,000 x 40 x 8 bytes, 19 MB, and folding the rule
    over more rows than a block at once would add more."""
    cfg, _ = case14_study
    monkeypatch.setattr(rowblocks, "_usable_cores", lambda: 1)
    real_run_popf = pipeline.run_popf

    def run_to(cap):
        monkeypatch.setattr(pipeline, "run_popf", lambda *args, **kwargs: real_run_popf(
            *args, cv_threshold=1e-9, max_samples=cap, **kwargs))
        assert main(["popf", "-c", str(cfg), "--converge"]) == 0
        assert capsys.readouterr().out.startswith(f"{cap} samples in ")

    def traced_peak(cap):
        tracemalloc.start()
        try:
            run_to(cap)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    run_to(20_000)   # builds the cached per-case tables untraced
    growth = traced_peak(80_000) - traced_peak(20_000)
    kept_bytes = 60_000 * len(default_density_labels(case14)) * 8
    block_bytes = rowblocks.BLOCK_ROWS * solution_dim(case14) * 8
    assert growth <= kept_bytes + block_bytes, (growth, kept_bytes, block_bytes)


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


BAD_REPORT_SETTINGS = [("report.bins=0", "report.bins must be a positive integer"),
                       ("report.bins=2.5", "report.bins must be a positive integer"),
                       ("report.bins=fifty", "report.bins must be a positive integer"),
                       ('report.density_indexes=["v_mag:99"]', "'v_mag:99' is not an output"),
                       ('report.density_indexes="cost"', "must be a list of output labels")]


def assert_bad_report_settings_refused(command, trained, capsys):
    """Each bad report setting exits 2 with a usage message, and the command
    writes nothing: the check runs before any sample is drawn or solved."""
    cfg, tmp_path = trained
    out_dir = tmp_path / "out"
    before = sorted(p.relative_to(out_dir) for p in out_dir.rglob("*"))
    capsys.readouterr()
    for setting, message in BAD_REPORT_SETTINGS:
        assert main([*command, "-c", str(cfg), "--set", setting]) == 2
        assert message in capsys.readouterr().err
        assert sorted(p.relative_to(out_dir) for p in out_dir.rglob("*")) == before


def test_popf_bad_report_config_usage_error_before_sampling(trained, capsys):
    assert_bad_report_settings_refused(["popf", "--samples", "50"], trained, capsys)


# ---------------------------------------------------------------------------
# compare


def test_compare_bad_report_config_usage_error_before_solving(trained, capsys):
    assert_bad_report_settings_refused(["compare"], trained, capsys)


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


@pytest.mark.parametrize("command, written", [(["popf", "--samples", "50"], "popf_stats.tsv"),
                                              (["compare"], "report.json")])
def test_empty_density_indexes_write_no_density_table(trained, capsys, command, written):
    """``report.density_indexes: []`` plots nothing in either command, and
    unset it plots the default labels."""
    cfg, tmp_path = trained
    out_dir = tmp_path / "out"
    assert main([*command, "-c", str(cfg), "--set", "report.density_indexes=[]"]) == 0
    assert (out_dir / written).exists()
    assert list(out_dir.glob("density_*.tsv")) == []
    assert main([*command, "-c", str(cfg)]) == 0
    assert len(list(out_dir.glob("density_*.tsv"))) == 4


def test_config_override_precedence(trained, capsys):
    cfg, tmp_path = trained
    assert main(["compare", "-c", str(cfg), "--set", "sampling.n_mcs=60"]) == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["n_samples"] + report["dropped"] == 60


@pytest.mark.parametrize("command, key, minimum", [("gen-data", "seed", 0),
                                                     ("gen-data", "n_train", 1),
                                                     ("popf", "seed", 0), ("popf", "n_mcs", 1),
                                                     ("compare", "seed", 0),
                                                     ("compare", "n_mcs", 2)])
def test_bad_sampling_integer_usage_error_before_case_load(tmp_path, capsys, monkeypatch,
                                                           command, key, minimum):
    """A sampling integer that is not an integer, or is below its minimum,
    exits 2 with a usage message before the case is loaded, so nothing is
    drawn or written."""
    def no_case_load(path):
        raise AssertionError("the case was loaded")

    monkeypatch.setattr(cli, "load_case", no_case_load)
    cfg = write_config(tmp_path, write_case(tmp_path))
    (tmp_path / "out").mkdir()
    (tmp_path / "out" / "kept.txt").write_text("kept", encoding="utf-8")
    before = {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()}
    for raw, shown in [("abc", "'abc'"), ("2.5", "2.5"), ("true", "True"),
                       (str(minimum - 1), str(minimum - 1))]:
        assert main([command, "-c", str(cfg), "--set", f"sampling.{key}={raw}"]) == 2
        assert (f"sampling.{key} must be an integer of at least {minimum}, got {shown}"
                in capsys.readouterr().err)
        assert {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()} == before


@pytest.mark.parametrize("command, key", [("gen-data", "n_train"), ("popf", "n_mcs")])
def test_missing_sampling_count_usage_error(tmp_path, capsys, command, key):
    """A count with no default that the config leaves out is named as
    missing, before the case is loaded."""
    sampling = {"n_train": 400, "n_mcs": 150, "seed": 5}
    del sampling[key]
    cfg = write_config(tmp_path, write_case(tmp_path), sampling=sampling)
    assert main([command, "-c", str(cfg)]) == 2
    assert (f"config is missing sampling.{key}, an integer of at least 1"
            in capsys.readouterr().err)
    assert not (tmp_path / "out").exists()


def test_sampling_not_an_object_usage_error(tmp_path, capsys):
    cfg = write_config(tmp_path, write_case(tmp_path))
    assert main(["gen-data", "-c", str(cfg), "--set", "sampling=5"]) == 2
    assert "sampling must be a JSON object, got 5" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


BAD_SHAPE_SETTINGS = [
    ("report=5", "report must be a JSON object, got 5"),
    ("report=[1]", "report must be a JSON object, got [1]"),
    ("sampling.correlation=5", "sampling.correlation must be a JSON object of group matrices, got 5"),
    ("sampling.correlation=[[1]]",
     "sampling.correlation must be a JSON object of group matrices, got [[1]]"),
    ('sampling.correlation={"area_loads":5}',
     "sampling.correlation.area_loads must be a square matrix of numbers, got 5"),
    ('sampling.correlation={"area_loads":[[1,0.5]]}',
     "sampling.correlation.area_loads must be a square matrix of numbers, got [[1, 0.5]]"),
    ('sampling.correlation={"area_loads":[[true]]}',
     "sampling.correlation.area_loads must be a square matrix of numbers, got [[True]]"),
    ("output_dir=5", "output_dir must be a path string, got 5"),
    ("checkpoint=5", "checkpoint must be a path string, got 5"),
    ("dataset_dir=5", "dataset_dir must be a path string, got 5"),
    ("case=[1]", "case must be a path string, got [1]"),
    ("case=5", "case must be a path string, got 5"),
    ("case=true", "case must be a path string, got True"),
]


@pytest.mark.parametrize("command", [["gen-data"], ["train"], ["popf", "--samples", "20"],
                                     ["compare"]])
def test_config_value_of_the_wrong_shape_usage_error_before_case_load(tmp_path, capsys,
                                                                      monkeypatch, command):
    """A path that is not a string, a section that is not an object or a
    correlation that is not an object of square matrices exits 2 with a
    usage message before the case or dataset loads, so nothing is drawn or
    written; a number is never opened as a file descriptor."""
    def no_load(path):
        raise AssertionError("the case or dataset was loaded")

    monkeypatch.setattr(cli, "load_case", no_load)
    monkeypatch.setattr(cli.pipeline, "load_dataset", no_load)
    cfg = write_config(tmp_path, write_case(tmp_path))
    before = {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()}
    for setting, message in BAD_SHAPE_SETTINGS:
        assert main([*command, "-c", str(cfg), "--set", setting]) == 2, setting
        assert message in capsys.readouterr().err
        assert {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()} == before


def test_bad_override_usage_error(trained):
    cfg, _ = trained
    assert main(["compare", "-c", str(cfg), "--set", "no_equals_sign"]) == 2


def test_missing_config_usage_error(tmp_path):
    assert main(["compare", "-c", str(tmp_path / "none.json")]) == 2
