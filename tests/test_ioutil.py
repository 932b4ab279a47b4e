"""Atomic writes and the shared TSV writer: failure safety and exact bytes."""

import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from popflow import ioutil, sdae
from popflow.ioutil import atomic_write_bytes, atomic_write_text, write_tsv
from popflow.pipeline import TrainingDataset, save_dataset

from conftest import two_bus_case


# ---------------------------------------------------------------------------
# atomic writes


def test_failed_replace_keeps_old_file_and_leaves_no_temp(tmp_path, monkeypatch):
    target = tmp_path / "stats.tsv"
    target.write_text("old\n", encoding="utf-8")

    def failing_replace(src, dst):
        raise OSError("simulated rename failure")

    monkeypatch.setattr(ioutil.os, "replace", failing_replace)
    with pytest.raises(OSError, match="simulated"):
        atomic_write_text(target, "new\n")
    assert target.read_text(encoding="utf-8") == "old\n"
    assert [p.name for p in tmp_path.iterdir()] == ["stats.tsv"]


def test_temp_files_are_unique_per_write(tmp_path, monkeypatch):
    """Two writers of one target never share a temp file."""
    seen = []
    real_replace = os.replace

    def recording_replace(src, dst):
        seen.append(os.fspath(src))
        real_replace(src, dst)

    monkeypatch.setattr(ioutil.os, "replace", recording_replace)
    atomic_write_bytes(tmp_path / "model.ckpt", b"a")
    atomic_write_bytes(tmp_path / "model.ckpt", b"b")
    assert len(set(seen)) == 2
    assert all(os.path.dirname(s) == str(tmp_path) and s.endswith(".tmp") for s in seen)
    assert (tmp_path / "model.ckpt").read_bytes() == b"b"
    assert not list(tmp_path.glob("*.tmp"))


def test_written_file_mode_follows_umask(tmp_path):
    mask = os.umask(0o027)
    try:
        atomic_write_text(tmp_path / "report.json", "{}\n")
    finally:
        os.umask(mask)
    assert (tmp_path / "report.json").stat().st_mode & 0o777 == 0o640


# ---------------------------------------------------------------------------
# TSV bytes


def test_dataset_matrix_bytes(tmp_path):
    case = two_bus_case()
    ds = TrainingDataset(
        x=np.array([[0.1, -2.5e-17]]),
        y=np.array([[7285.5, 1.0, 0.99, 1 / 3, 123456789.123]]),
        samples=np.array([[0.5]]),
        provenance={"seed": 0},
    )
    save_dataset(ds, tmp_path, case)
    assert (tmp_path / "X.tsv").read_bytes() == (
        b"p@bus1\tq@bus1\n0.10000000000000001\t-2.4999999999999999e-17\n")
    assert (tmp_path / "Y.tsv").read_bytes() == (
        b"cost\tv_mag:0\tv_mag:1\tp_gen:0\tp_branch:0\n"
        b"7285.5\t1\t0.98999999999999999\t0.33333333333333331\t123456789.123\n")
    assert (tmp_path / "samples.tsv").read_bytes() == b"source0\n0.5\n"


def test_history_bytes_keep_integer_epochs(tmp_path):
    path = tmp_path / "model.history.tsv"
    sdae.save_history([(0, 0.5, 0.25), (1, 0.1, 1 / 3), (12, np.float64(2.0), 1e300)], path)
    assert path.read_bytes() == (
        b"epoch\ttrain_loss\tval_loss\n"
        b"0\t0.5\t0.25\n"
        b"1\t0.10000000000000001\t0.33333333333333331\n"
        b"12\t2\t1.0000000000000001e+300\n")


def test_degenerate_stats_rows_bytes(tmp_path):
    """The single-sample popf_stats.tsv layout: one value, then a text cell."""
    labels = ["cost", "v_mag:0"]
    path = tmp_path / "popf_stats.tsv"
    write_tsv(path, ["index", "mean", "std"],
              zip(labels, np.array([7285.5, 1.0]), ["degenerate"] * len(labels)))
    assert path.read_bytes() == (
        b"index\tmean\tstd\ncost\t7285.5\tdegenerate\nv_mag:0\t1\tdegenerate\n")


@settings(max_examples=200, deadline=None)
@given(arrays(st.sampled_from([np.float64, np.float32]),
              array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=6)))
def test_float_matrix_rows_are_the_per_cell_text(tmp_path_factory, matrix):
    """A float matrix formatted a row at a time gives the text of formatting
    each cell with ``.17g``: subnormals, +-0, inf and nan included."""
    path = tmp_path_factory.mktemp("tsv") / "matrix.tsv"
    header = [f"c{j}" for j in range(matrix.shape[1])]
    write_tsv(path, header, matrix)
    want = "".join("\t".join(f"{v:.17g}" for v in row) + "\n" for row in matrix)
    assert path.read_text(encoding="utf-8") == "\t".join(header) + "\n" + want


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_constant_columns_are_the_per_cell_text(tmp_path, dtype):
    """Columns the same in every row, in value but not in bits (-0.0 beside
    0.0, NaNs of two signs), and with a row of their own, give the text of
    formatting each cell."""
    nan = np.float64("nan")
    matrix = np.array([[1.5, 0.0, nan, 7.0, 1e-300, -0.0],
                       [1.5, -0.0, -nan, 8.0, 1e-300, -0.0],
                       [1.5, 0.0, nan, 9.0, 1e-300, -0.0]]).astype(dtype)
    for rows in (matrix, matrix[:1], matrix[:, [0, 4, 5]], matrix[:0]):
        path = tmp_path / "matrix.tsv"
        header = [f"c{j}" for j in range(rows.shape[1])]
        write_tsv(path, header, rows)
        want = "".join("\t".join(f"{v:.17g}" for v in row) + "\n" for row in rows)
        assert path.read_text(encoding="utf-8") == "\t".join(header) + "\n" + want
