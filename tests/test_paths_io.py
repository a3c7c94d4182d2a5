"""Path-batch round-trips through CSV and .npy with JSON sidecars, read
back by the reference reader in ``_reference``."""

import json

import numpy as np
import pytest

from _reference import load_paths
from hedgelab.paths_io import save_paths


def _batch(seed=0, shape=(5, 9)):
    rng = np.random.default_rng(seed)
    return np.exp(rng.normal(0.0, 0.01, shape).cumsum(axis=1))


def test_csv_round_trip_is_bit_faithful(tmp_path):
    paths = _batch()
    p = tmp_path / "paths.csv"
    save_paths(p, paths, {"seed": 3, "generator": "gbm"})
    loaded, meta = load_paths(p)
    np.testing.assert_array_equal(loaded, paths)  # repr floats reload exactly
    assert meta == {"seed": 3, "generator": "gbm"}


def test_csv_header_names_columns(tmp_path):
    p = tmp_path / "paths.csv"
    save_paths(p, _batch(shape=(2, 4)), {})
    header = p.read_text().split("\n", 1)[0]
    assert header == "t_0,t_1,t_2,t_3"


def test_npy_round_trip(tmp_path):
    paths = _batch(seed=1)
    p = tmp_path / "paths.npy"
    save_paths(p, paths, {"n": 5})
    loaded, meta = load_paths(p)
    np.testing.assert_array_equal(loaded, paths)
    assert meta == {"n": 5}


def test_sidecar_format(tmp_path):
    p = tmp_path / "paths.csv"
    save_paths(p, _batch(), {"b": 1, "a": np.float64(0.5)})
    sidecar = tmp_path / "paths.csv.json"
    assert sidecar.exists()
    text = sidecar.read_text()
    assert text.endswith("\n")
    assert json.loads(text) == {"a": 0.5, "b": 1}
    assert text.index('"a"') < text.index('"b"')  # keys sorted


def test_missing_sidecar_gives_empty_meta(tmp_path):
    p = tmp_path / "paths.csv"
    save_paths(p, _batch(), {"x": 1})
    (tmp_path / "paths.csv.json").unlink()
    _, meta = load_paths(p)
    assert meta == {}


def test_not_a_path_csv_rejected(tmp_path):
    p = tmp_path / "other.csv"
    p.write_text("date,close\n2024-01-02,1.0\n")
    with pytest.raises(ValueError, match="not a path-batch"):
        load_paths(p)


def test_non_matrix_rejected(tmp_path):
    with pytest.raises(ValueError, match="2-D"):
        save_paths(tmp_path / "paths.csv", np.ones(7), {})


def test_rewrite_is_byte_identical(tmp_path):
    paths = _batch(seed=2)
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    save_paths(a, paths, {"seed": 2})
    save_paths(b, paths, {"seed": 2})
    assert a.read_bytes() == b.read_bytes()
    assert (tmp_path / "a.csv.json").read_bytes() == \
        (tmp_path / "b.csv.json").read_bytes()
