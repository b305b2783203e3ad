#!/usr/bin/env python
"""Micro-benchmarks for the NN compute core (conv + pooling kernels).

Times the vectorized ``sliding_window_view`` kernels in
:mod:`repro.nn.layers` against the golden loop implementations preserved in
:mod:`repro.nn._reference`, at the paper's CNN shapes: 16x16 adjacency
images (``DEFAULT_IMAGE_SIZE``), 3x3 kernels, the (16, 32) channel plan and
the batch size 16 of ``ClassifierConfig``.  Also times the full paper 1-D
CNN stack at scan batch size under each compute backend
(``forward_f64`` / ``forward_fused_f32``, see
:mod:`repro.nn.backend`).  Writes the results — including best-vs-best
speedup factors — to ``BENCH_nn.json`` at the repository root.

Run with::

    PYTHONPATH=src python benchmarks/perf/bench_nn.py [--output BENCH_nn.json]
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from repro.nn import Dense, Flatten, ReLU, Sequential, Sigmoid  # noqa: E402
from repro.nn import _reference as golden  # noqa: E402
from repro.nn.backend import get_backend  # noqa: E402
from repro.nn.layers import (  # noqa: E402
    AvgPool2d,
    Conv1d,
    Conv2d,
    MaxPool1d,
    MaxPool2d,
    _col2im_2d,
)
from repro.perf import BenchmarkSuite  # noqa: E402

#: ClassifierConfig.batch_size — the paper's training mini-batch.
BATCH = 16
IMAGE_SIZE = 16  # repro.features.image.DEFAULT_IMAGE_SIZE
TABULAR_LENGTH = 32
KERNEL = 3
CHANNELS = (16, 32)  # ClassifierConfig default channel plan
DENSE_UNITS = 64  # ClassifierConfig default dense head width

#: Inference batch for the backend comparison — InferencePlan.predict_proba's
#: internal micro-batch, the shape batched scanning actually runs.
SCAN_BATCH = 256


def build_paper_stack(rng: np.random.Generator) -> Sequential:
    """The paper's 1-D CNN classifier stack (CNNModalityClassifier shape)."""
    return Sequential(
        [
            Conv1d(1, CHANNELS[0], kernel_size=KERNEL, padding=KERNEL // 2, rng=rng),
            ReLU(),
            MaxPool1d(2),
            Conv1d(
                CHANNELS[0], CHANNELS[1], kernel_size=KERNEL, padding=KERNEL // 2, rng=rng
            ),
            ReLU(),
            Flatten(),
            Dense(CHANNELS[1] * (TABULAR_LENGTH // 2), DENSE_UNITS, rng=rng),
            ReLU(),
            Dense(DENSE_UNITS, 1, rng=rng),
            Sigmoid(),
        ],
        loss="bce",
    )


def conv2d_forward_loop(layer: Conv2d, x: np.ndarray) -> np.ndarray:
    """The seed's Conv2d forward: per-position im2col + batched 3-D matmul."""
    n, _, h, w = x.shape
    out_h, out_w = layer._output_size(h, w)
    ph, pw = layer.padding
    x_pad = np.pad(x, ((0, 0), (0, 0), (ph, ph), (pw, pw))) if (ph or pw) else x
    cols = golden.im2col_2d_loop(x_pad, layer.kernel_size, layer.stride, (out_h, out_w))
    w_mat = layer.weight.reshape(layer.out_channels, -1)
    out = cols @ w_mat.T + layer.bias
    return out.transpose(0, 2, 1).reshape(n, layer.out_channels, out_h, out_w)


def conv2d_backward_loop(
    layer: Conv2d, seed_cols: np.ndarray, grad_output: np.ndarray, input_shape
) -> np.ndarray:
    """The seed's Conv2d backward: 3-D matmuls + per-position col2im scatter.

    ``seed_cols`` is the seed-layout ``(N, oH*oW, C*kh*kw)`` column tensor,
    prepared outside the timed region exactly as the seed cached it.
    """
    n, _, h, w = input_shape
    out_h, out_w = layer._output_size(h, w)
    ph, pw = layer.padding
    grad = grad_output.reshape(n, layer.out_channels, out_h * out_w).transpose(0, 2, 1)
    w_mat = layer.weight.reshape(layer.out_channels, -1)
    _ = grad.sum(axis=(0, 1))
    _ = (
        grad.reshape(-1, layer.out_channels).T @ seed_cols.reshape(-1, seed_cols.shape[2])
    ).reshape(layer.weight.shape)
    grad_cols = grad @ w_mat
    grad_x_pad = golden.col2im_2d_loop(
        grad_cols,
        layer.in_channels,
        layer.kernel_size,
        layer.stride,
        (out_h, out_w),
        (h + 2 * ph, w + 2 * pw),
    )
    if ph or pw:
        return grad_x_pad[:, :, ph : ph + h, pw : pw + w]
    return grad_x_pad


def conv1d_forward_loop(layer: Conv1d, x: np.ndarray) -> np.ndarray:
    """The seed's Conv1d forward: per-position im2col + batched 3-D matmul."""
    n, _, length = x.shape
    out_len = layer._output_length(length)
    if layer.padding:
        x_pad = np.pad(x, ((0, 0), (0, 0), (layer.padding, layer.padding)))
    else:
        x_pad = x
    cols = golden.im2col_1d_loop(x_pad, layer.kernel_size, layer.stride, out_len)
    w_mat = layer.weight.reshape(layer.out_channels, -1)
    out = cols @ w_mat.T + layer.bias
    return out.transpose(0, 2, 1)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--output", type=Path, default=ROOT / "BENCH_nn.json")
    parser.add_argument("--repeats", type=int, default=30)
    args = parser.parse_args()

    rng = np.random.default_rng(0)
    suite = BenchmarkSuite("nn")

    # -- Conv2d, first paper block: (N, 1, 16, 16) -> (N, 16, 16, 16) -------
    conv2d = Conv2d(1, CHANNELS[0], kernel_size=KERNEL, padding=KERNEL // 2, rng=rng)
    images = rng.standard_normal((BATCH, 1, IMAGE_SIZE, IMAGE_SIZE))
    shape_meta = {"input": list(images.shape), "kernel": KERNEL, "padding": KERNEL // 2}
    fast_fwd = suite.time(
        lambda: conv2d.forward(images), "conv2d_forward", repeats=args.repeats, meta=shape_meta
    )
    loop_fwd = suite.time(
        lambda: conv2d_forward_loop(conv2d, images),
        "conv2d_forward_loop",
        repeats=args.repeats,
        meta=shape_meta,
    )
    suite.record_speedup("conv2d_forward", loop_fwd, fast_fwd)

    conv2d.forward(images)  # populate the cache for the backward timing
    x_pad = np.pad(images, ((0, 0), (0, 0), (1, 1), (1, 1)))
    seed_cols = golden.im2col_2d_loop(x_pad, (KERNEL, KERNEL), (1, 1), (IMAGE_SIZE, IMAGE_SIZE))
    grad2d = rng.standard_normal((BATCH, CHANNELS[0], IMAGE_SIZE, IMAGE_SIZE))
    fast_bwd = suite.time(
        lambda: conv2d.backward(grad2d), "conv2d_backward", repeats=args.repeats, meta=shape_meta
    )
    loop_bwd = suite.time(
        lambda: conv2d_backward_loop(conv2d, seed_cols, grad2d, images.shape),
        "conv2d_backward_loop",
        repeats=args.repeats,
        meta=shape_meta,
    )
    suite.record_speedup("conv2d_backward", loop_bwd, fast_bwd)

    # -- Conv2d, second paper block: (N, 16, 8, 8) -> (N, 32, 8, 8) ---------
    conv2d_b2 = Conv2d(CHANNELS[0], CHANNELS[1], kernel_size=KERNEL, padding=KERNEL // 2, rng=rng)
    images_b2 = rng.standard_normal((BATCH, CHANNELS[0], IMAGE_SIZE // 2, IMAGE_SIZE // 2))
    meta_b2 = {"input": list(images_b2.shape), "kernel": KERNEL, "padding": KERNEL // 2}
    fast_b2 = suite.time(
        lambda: conv2d_b2.forward(images_b2), "conv2d_block2_forward", repeats=args.repeats, meta=meta_b2
    )
    loop_b2 = suite.time(
        lambda: conv2d_forward_loop(conv2d_b2, images_b2),
        "conv2d_block2_forward_loop",
        repeats=args.repeats,
        meta=meta_b2,
    )
    suite.record_speedup("conv2d_block2_forward", loop_b2, fast_b2)

    # -- Conv1d over the tabular modality: (N, 1, 32) -> (N, 16, 32) --------
    conv1d = Conv1d(1, CHANNELS[0], kernel_size=KERNEL, padding=KERNEL // 2, rng=rng)
    signals = rng.standard_normal((BATCH, 1, TABULAR_LENGTH))
    meta_1d = {"input": list(signals.shape), "kernel": KERNEL, "padding": KERNEL // 2}
    fast_1d = suite.time(
        lambda: conv1d.forward(signals), "conv1d_forward", repeats=args.repeats, meta=meta_1d
    )
    loop_1d = suite.time(
        lambda: conv1d_forward_loop(conv1d, signals),
        "conv1d_forward_loop",
        repeats=args.repeats,
        meta=meta_1d,
    )
    suite.record_speedup("conv1d_forward", loop_1d, fast_1d)

    # -- Pooling -------------------------------------------------------------
    pool2d = MaxPool2d(2)
    pooled_input = rng.standard_normal((BATCH, CHANNELS[0], IMAGE_SIZE, IMAGE_SIZE))
    fast_pool = suite.time(
        lambda: pool2d.forward(pooled_input),
        "maxpool2d_forward",
        repeats=args.repeats,
        meta={"input": list(pooled_input.shape), "pool": 2},
    )
    loop_pool = suite.time(
        lambda: golden.pool_windows_2d_loop(pooled_input, (2, 2), (2, 2)).max(axis=4),
        "maxpool2d_forward_loop",
        repeats=args.repeats,
        meta={"input": list(pooled_input.shape), "pool": 2},
    )
    suite.record_speedup("maxpool2d_forward", loop_pool, fast_pool)

    pool1d = MaxPool1d(2)
    signals_wide = np.repeat(signals, CHANNELS[0], axis=1)
    fast_pool1d = suite.time(
        lambda: pool1d.forward(signals_wide),
        "maxpool1d_forward",
        repeats=args.repeats,
        meta={"input": list(signals_wide.shape), "pool": 2},
    )
    loop_pool1d = suite.time(
        lambda: golden.pool_windows_1d_loop(signals_wide, 2, 2).max(axis=3),
        "maxpool1d_forward_loop",
        repeats=args.repeats,
        meta={"input": list(signals_wide.shape), "pool": 2},
    )
    suite.record_speedup("maxpool1d_forward", loop_pool1d, fast_pool1d)

    avgpool = AvgPool2d(2)
    suite.time(
        lambda: avgpool.forward(pooled_input),
        "avgpool2d_forward",
        repeats=args.repeats,
        meta={"input": list(pooled_input.shape), "pool": 2},
    )

    # -- Full-stack inference: the compute backends --------------------------
    # The whole paper 1-D CNN at scan batch size, float64 golden forward vs
    # the fused float32 plan.  The plan is compiled outside the timed region
    # (engines compile once per model).
    model = build_paper_stack(np.random.default_rng(7))
    scan_x = rng.standard_normal((SCAN_BATCH, 1, TABULAR_LENGTH))
    meta_fw = {
        "input": list(scan_x.shape),
        "stack": "conv1d-pool-conv1d-dense-dense",
        "dense_units": DENSE_UNITS,
    }
    forward_f64 = suite.time(
        lambda: model.predict_proba(scan_x),
        "forward_f64",
        repeats=args.repeats,
        meta=meta_fw,
    )
    fused_plan = get_backend("fused_f32").compile(model)
    fused_plan.predict_proba(scan_x)  # allocate scratch outside the timing
    forward_fused = suite.time(
        lambda: fused_plan.predict_proba(scan_x),
        "forward_fused_f32",
        repeats=args.repeats,
        meta=dict(meta_fw, backend="fused_f32"),
    )
    suite.record_speedup("forward_fused_f32", forward_f64, forward_fused)

    # -- col2im in isolation (the scatter is the backward's hot piece) -------
    ck = 1 * KERNEL * KERNEL
    grad_cols_fast = rng.standard_normal((ck, BATCH * IMAGE_SIZE * IMAGE_SIZE))
    grad_cols_seed = (
        grad_cols_fast.reshape(1, KERNEL, KERNEL, BATCH, IMAGE_SIZE * IMAGE_SIZE)
        .transpose(3, 4, 0, 1, 2)
        .reshape(BATCH, IMAGE_SIZE * IMAGE_SIZE, ck)
        .copy()
    )
    fast_scatter = suite.time(
        lambda: _col2im_2d(
            grad_cols_fast,
            BATCH,
            1,
            (KERNEL, KERNEL),
            (1, 1),
            (IMAGE_SIZE, IMAGE_SIZE),
            (IMAGE_SIZE + 2, IMAGE_SIZE + 2),
        ),
        "col2im_2d",
        repeats=args.repeats,
    )
    loop_scatter = suite.time(
        lambda: golden.col2im_2d_loop(
            grad_cols_seed,
            1,
            (KERNEL, KERNEL),
            (1, 1),
            (IMAGE_SIZE, IMAGE_SIZE),
            (IMAGE_SIZE + 2, IMAGE_SIZE + 2),
        ),
        "col2im_2d_loop",
        repeats=args.repeats,
    )
    suite.record_speedup("col2im_2d", loop_scatter, fast_scatter)

    path = suite.write_json(args.output)
    print(f"wrote {path}")
    for name, factor in sorted(suite.speedups.items()):
        baseline = (
            "vs float64 forward" if name.startswith("forward_") else "vs golden loop"
        )
        print(f"  {name}: {factor:.1f}x {baseline}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
