"""One BLAS thread per extraction-pool worker (``repro.engine.blas``)."""

from __future__ import annotations

import multiprocessing

import pytest

from repro.engine.blas import limit_blas_threads, loaded_openblas, openblas_function
from repro.engine.scan import extract_feature_rows, sources_from_pairs


def _openblas_threads():
    """Thread count of every loaded OpenBLAS, read through ``get_num_threads``."""
    return [openblas_function(lib, "get_num_threads")() for lib in loaded_openblas()]


def test_pool_worker_runs_one_blas_thread() -> None:
    if not loaded_openblas():
        pytest.skip("no OpenBLAS loaded in this process")
    with multiprocessing.Pool(1, initializer=limit_blas_threads) as pool:
        counts = pool.apply(_openblas_threads)
    assert counts and all(count == 1 for count in counts)


def test_unreadable_maps_is_a_silent_no_op(tmp_path, caplog) -> None:
    missing = str(tmp_path / "no-such-maps")
    before = _openblas_threads()
    assert loaded_openblas(missing) == []
    assert limit_blas_threads(missing) is None
    assert _openblas_threads() == before
    assert not caplog.records


def test_pooled_wide_design_rows_are_byte_identical(wide_designs) -> None:
    sources = sources_from_pairs(wide_designs)
    serial, serial_errors = extract_feature_rows(sources, workers=1)
    pooled, pooled_errors = extract_feature_rows(sources, workers=2)
    assert not serial_errors and not pooled_errors
    assert sorted(pooled) == sorted(serial) == [0, 1]
    for index, row in serial.items():
        for expected, got in zip(row, pooled[index]):
            assert got.dtype == expected.dtype and got.shape == expected.shape
            assert got.tobytes() == expected.tobytes()
