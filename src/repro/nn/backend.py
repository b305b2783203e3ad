"""Pluggable compute backends for the numpy neural-network substrate.

The training stack in :mod:`repro.nn.layers` is deliberately golden: float64,
explicit caches for the hand-derived backward passes, one allocation per
intermediate.  Inference in the scan engine needs none of that — no gradients,
no caches, and the same batch shape over and over — so this module introduces a
*backend seam*: a registry of named compute backends that compile a fitted
:class:`repro.nn.model.Sequential` into an inference-only execution plan.

Two backends ship by default:

``numpy`` (the golden default)
    Delegates to ``Sequential.forward(training=False)`` — bit-identical to the
    training stack, float64, used for calibration and as the reference the
    other backends are equivalence-tested against.

``fused_f32``
    A float32 inference path that fuses conv im2col + GEMM + bias + activation
    into one step per layer, allocates **no** backward caches, reuses
    preallocated per-batch-shape scratch buffers across micro-batches, and
    tiles the im2col GEMM across threads once the matrix crosses
    :data:`GEMM_THREAD_THRESHOLD` (BLAS releases the GIL, so column tiles
    genuinely run in parallel).

Backends are selected per engine — ``ScanEngine(..., backend=...)``, the CLI's
``--backend`` flag and the serve layer's ``--backend`` all resolve through
:func:`get_backend`.  Step timings are accumulated in the module-level
:data:`PROFILER` so ``scan --profile`` can report ``infer/prep``,
``infer/gemm`` and ``infer/activation`` per backend.
"""

from __future__ import annotations

import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .activations import Identity, LeakyReLU, ReLU, Sigmoid, Tanh
from .layers import (
    AvgPool1d,
    AvgPool2d,
    BatchNorm1d,
    Conv1d,
    Conv2d,
    Dense,
    Dropout,
    Flatten,
    GlobalAveragePool1d,
    Layer,
    MaxPool1d,
    MaxPool2d,
)
from .model import Sequential

#: Name of the golden reference backend (and the universal default).
DEFAULT_BACKEND = "numpy"

#: Minimum ``M * K * N`` product before the fused GEMM is worth tiling
#: across threads — below this the submit/join overhead beats the win.
GEMM_THREAD_THRESHOLD = 1 << 22

#: Minimum number of output columns per thread tile; tiles thinner than
#: this spend more time in scheduling than in BLAS.
GEMM_MIN_TILE_COLS = 2048

#: Upper bound on GEMM worker threads (beyond ~4 the shared memory bus,
#: not the cores, is the bottleneck for these matrix shapes).
MAX_GEMM_THREADS = 4


# ---------------------------------------------------------------------------
# Per-stage profiler (feeds `scan --profile`'s infer/* sub-stages)
# ---------------------------------------------------------------------------


class BackendProfiler:
    """Thread-safe accumulator of per-stage backend timings.

    Execution steps call :meth:`add` with one of the canonical stage names
    (``prep``, ``gemm``, ``activation``, ``fallback``); the
    scan engine calls :meth:`reset` before inference and :meth:`snapshot`
    after, turning the totals into ``infer/<stage>`` profile entries.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._stages: Dict[str, float] = {}

    def reset(self) -> None:
        """Zero every accumulated stage."""
        with self._lock:
            self._stages.clear()

    def add(self, stage: str, seconds: float) -> None:
        """Accumulate ``seconds`` against ``stage``."""
        with self._lock:
            self._stages[stage] = self._stages.get(stage, 0.0) + seconds

    def snapshot(self) -> Dict[str, float]:
        """A copy of the accumulated ``{stage: seconds}`` mapping."""
        with self._lock:
            return dict(self._stages)


#: Process-global profiler instance shared by every compiled plan.
PROFILER = BackendProfiler()


# ---------------------------------------------------------------------------
# Threaded / tiled GEMM
# ---------------------------------------------------------------------------

_GEMM_POOL: Optional[ThreadPoolExecutor] = None
_GEMM_POOL_LOCK = threading.Lock()


def _gemm_workers() -> int:
    """Worker-thread count for the tiled GEMM (1 disables tiling)."""
    return max(1, min(MAX_GEMM_THREADS, (os.cpu_count() or 1) - 1))


def _gemm_pool() -> ThreadPoolExecutor:
    """The lazily-created shared GEMM thread pool."""
    global _GEMM_POOL
    if _GEMM_POOL is None:
        with _GEMM_POOL_LOCK:
            if _GEMM_POOL is None:
                _GEMM_POOL = ThreadPoolExecutor(
                    max_workers=_gemm_workers(), thread_name_prefix="repro-gemm"
                )
    return _GEMM_POOL


def fused_gemm(a: np.ndarray, b: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``out[:] = a @ b``, column-tiled across threads above a size threshold.

    Small products (everything at the paper's batch/feature shapes) go
    straight to one ``np.matmul`` call; once ``M*K*N`` crosses
    :data:`GEMM_THREAD_THRESHOLD` *and* there are enough output columns for
    :data:`GEMM_MIN_TILE_COLS`-wide tiles, the columns of ``b``/``out`` are
    split across the shared thread pool — each tile is an independent BLAS
    call that releases the GIL, so the tiles genuinely overlap.
    """
    m, k = a.shape
    n_cols = b.shape[1]
    workers = _gemm_workers()
    if (
        workers <= 1
        or m * k * n_cols < GEMM_THREAD_THRESHOLD
        or n_cols < 2 * GEMM_MIN_TILE_COLS
    ):
        return np.matmul(a, b, out=out)
    n_tiles = min(workers, n_cols // GEMM_MIN_TILE_COLS)
    bounds = np.linspace(0, n_cols, n_tiles + 1).astype(int)
    futures = [
        _gemm_pool().submit(np.matmul, a, b[:, lo:hi], out[:, lo:hi])
        for lo, hi in zip(bounds[:-1], bounds[1:])
    ]
    for future in futures:
        future.result()
    return out


# ---------------------------------------------------------------------------
# Fused activation application (in place on the step's output buffer)
# ---------------------------------------------------------------------------

#: Activation layers the fused steps can fold into the preceding GEMM/affine.
_FUSABLE_ACTIVATIONS = (ReLU, LeakyReLU, Sigmoid, Tanh, Identity)


def _activation_spec(layer: Layer) -> Tuple[str, float]:
    """``(kind, alpha)`` spec for a fusable activation layer."""
    if isinstance(layer, ReLU):
        return "relu", 0.0
    if isinstance(layer, LeakyReLU):
        return "leaky_relu", float(layer.alpha)
    if isinstance(layer, Sigmoid):
        return "sigmoid", 0.0
    if isinstance(layer, Tanh):
        return "tanh", 0.0
    return "identity", 0.0


def _apply_activation(kind: str, alpha: float, out: np.ndarray) -> None:
    """Apply an activation in place on ``out`` (float32, no new buffers)."""
    if kind == "relu":
        np.maximum(out, 0.0, out=out)
    elif kind == "leaky_relu":
        negative = out < 0
        out[negative] *= alpha
    elif kind == "sigmoid":
        # Same two-branch stable form as repro.nn.activations.Sigmoid.
        positive = out >= 0
        out[positive] = 1.0 / (1.0 + np.exp(-out[positive]))
        exp_x = np.exp(out[~positive])
        out[~positive] = exp_x / (1.0 + exp_x)
    elif kind == "tanh":
        np.tanh(out, out=out)
    # "identity": nothing to do.


# ---------------------------------------------------------------------------
# Execution plans and steps
# ---------------------------------------------------------------------------


class InferencePlan:
    """A compiled, inference-only executable form of a ``Sequential`` model.

    Plans are produced by :meth:`InferenceBackend.compile`.  ``forward``
    returns a view into the plan's reusable scratch buffers (valid until the
    next ``forward`` call); ``predict_proba`` copies, so it is always safe.
    """

    def __init__(self, backend: str, dtype: str) -> None:
        self.backend = backend
        self.dtype = dtype

    def forward(self, x: np.ndarray) -> np.ndarray:
        """One inference forward pass over a batch."""
        raise NotImplementedError

    def predict_proba(self, x: np.ndarray, batch_size: int = 256) -> np.ndarray:
        """Micro-batched forward pass mirroring ``Sequential.predict_proba``."""
        outputs: List[np.ndarray] = []
        for start in range(0, len(x), batch_size):
            outputs.append(np.array(self.forward(x[start : start + batch_size])))
        return np.concatenate(outputs, axis=0) if outputs else np.empty((0,))


class _GoldenPlan(InferencePlan):
    """The ``numpy`` backend's plan: defer to the golden training stack."""

    def __init__(self, model: Sequential) -> None:
        super().__init__(DEFAULT_BACKEND, "float64")
        self._model = model

    def forward(self, x: np.ndarray) -> np.ndarray:
        return self._model.forward(x, training=False)

    def predict_proba(self, x: np.ndarray, batch_size: int = 256) -> np.ndarray:
        """Bit-identical to ``Sequential.predict_proba``."""
        return self._model.predict_proba(x, batch_size=batch_size)


class _CompiledPlan(InferencePlan):
    """Step-list plan with per-batch-shape scratch buffers (fused backends)."""

    def __init__(self, backend: str, dtype: str, steps: List["_Step"]) -> None:
        super().__init__(backend, dtype)
        self.steps = steps
        self._scratch: Dict[Tuple, np.ndarray] = {}

    def scratch(self, key: Tuple, shape: Tuple[int, ...], zero: bool = False) -> np.ndarray:
        """A reusable float32 buffer for ``key``+``shape``.

        Buffers persist across ``forward`` calls, so a steady stream of
        same-shaped micro-batches allocates on the first batch only.  With
        ``zero=True`` the buffer is zero-filled **once** at creation — used
        for padding buffers whose border stays zero because later batches
        only overwrite the interior.
        """
        full_key = key + (shape,)
        buffer = self._scratch.get(full_key)
        if buffer is None:
            buffer = (np.zeros if zero else np.empty)(shape, dtype=np.float32)
            self._scratch[full_key] = buffer
        return buffer

    def forward(self, x: np.ndarray) -> np.ndarray:
        t0 = time.perf_counter()
        out = np.asarray(x, dtype=np.float32)
        PROFILER.add("prep", time.perf_counter() - t0)
        for step in self.steps:
            out = step.run(out, self)
        return out


class _Step:
    """One fused execution step; ``run`` consumes/returns float32 arrays."""

    #: Whether a following activation layer may be folded into this step.
    fusable = False

    def __init__(self, idx: int, layer: Optional[Layer] = None) -> None:
        self.idx = idx
        self.act: Tuple[str, float] = ("identity", 0.0)

    def run(self, x: np.ndarray, plan: _CompiledPlan) -> np.ndarray:
        raise NotImplementedError

    def _activate(self, out: np.ndarray) -> None:
        kind, alpha = self.act
        if kind == "identity":
            return
        t0 = time.perf_counter()
        _apply_activation(kind, alpha, out)
        PROFILER.add("activation", time.perf_counter() - t0)


class _FusedConv1d(_Step):
    """im2col + GEMM + bias + activation for ``Conv1d`` in one step."""

    fusable = True

    def __init__(self, idx: int, layer: Conv1d) -> None:
        super().__init__(idx)
        self.in_channels = layer.in_channels
        self.out_channels = layer.out_channels
        self.kernel_size = layer.kernel_size
        self.stride = layer.stride
        self.padding = layer.padding
        self.w = np.ascontiguousarray(
            layer.weight.reshape(layer.out_channels, -1), dtype=np.float32
        )
        self.b = layer.bias.astype(np.float32)

    def _columns(self, x: np.ndarray, plan: _CompiledPlan) -> Tuple[np.ndarray, int, int]:
        """Padded im2col into scratch; returns ``(cols, n, out_len)``."""
        n, c, length = x.shape
        out_len = (length + 2 * self.padding - self.kernel_size) // self.stride + 1
        if self.padding:
            x_pad = plan.scratch(
                (self.idx, "pad"), (n, c, length + 2 * self.padding), zero=True
            )
            x_pad[:, :, self.padding : self.padding + length] = x
        else:
            x_pad = x
        windows = sliding_window_view(x_pad, self.kernel_size, axis=2)[
            :, :, :: self.stride, :
        ]
        cols = plan.scratch((self.idx, "cols"), (c * self.kernel_size, n * out_len))
        cols.reshape(c, self.kernel_size, n, out_len)[...] = windows.transpose(1, 3, 0, 2)
        return cols, n, out_len

    def run(self, x: np.ndarray, plan: _CompiledPlan) -> np.ndarray:
        t0 = time.perf_counter()
        cols, n, out_len = self._columns(x, plan)
        t1 = time.perf_counter()
        out = plan.scratch((self.idx, "out"), (self.out_channels, n * out_len))
        fused_gemm(self.w, cols, out)
        out += self.b[:, None]
        t2 = time.perf_counter()
        PROFILER.add("prep", t1 - t0)
        PROFILER.add("gemm", t2 - t1)
        self._activate(out)
        return out.reshape(self.out_channels, n, out_len).transpose(1, 0, 2)


class _FusedConv2d(_Step):
    """im2col + GEMM + bias + activation for ``Conv2d`` in one step."""

    fusable = True

    def __init__(self, idx: int, layer: Conv2d) -> None:
        super().__init__(idx)
        self.in_channels = layer.in_channels
        self.out_channels = layer.out_channels
        self.kernel_size = layer.kernel_size
        self.stride = layer.stride
        self.padding = layer.padding
        self.w = np.ascontiguousarray(
            layer.weight.reshape(layer.out_channels, -1), dtype=np.float32
        )
        self.b = layer.bias.astype(np.float32)

    def _columns(
        self, x: np.ndarray, plan: _CompiledPlan
    ) -> Tuple[np.ndarray, int, int, int]:
        """Padded im2col into scratch; returns ``(cols, n, out_h, out_w)``."""
        kh, kw = self.kernel_size
        sh, sw = self.stride
        ph, pw = self.padding
        n, c, h, w = x.shape
        out_h = (h + 2 * ph - kh) // sh + 1
        out_w = (w + 2 * pw - kw) // sw + 1
        if ph or pw:
            x_pad = plan.scratch(
                (self.idx, "pad"), (n, c, h + 2 * ph, w + 2 * pw), zero=True
            )
            x_pad[:, :, ph : ph + h, pw : pw + w] = x
        else:
            x_pad = x
        windows = sliding_window_view(x_pad, (kh, kw), axis=(2, 3))[:, :, ::sh, ::sw]
        cols = plan.scratch((self.idx, "cols"), (c * kh * kw, n * out_h * out_w))
        cols.reshape(c, kh, kw, n, out_h, out_w)[...] = windows.transpose(1, 4, 5, 0, 2, 3)
        return cols, n, out_h, out_w

    def run(self, x: np.ndarray, plan: _CompiledPlan) -> np.ndarray:
        t0 = time.perf_counter()
        cols, n, out_h, out_w = self._columns(x, plan)
        t1 = time.perf_counter()
        out = plan.scratch((self.idx, "out"), (self.out_channels, n * out_h * out_w))
        fused_gemm(self.w, cols, out)
        out += self.b[:, None]
        t2 = time.perf_counter()
        PROFILER.add("prep", t1 - t0)
        PROFILER.add("gemm", t2 - t1)
        self._activate(out)
        return out.reshape(self.out_channels, n, out_h, out_w).transpose(1, 0, 2, 3)


class _FusedDense(_Step):
    """GEMM + bias + activation for ``Dense`` in one step."""

    fusable = True

    def __init__(self, idx: int, layer: Dense) -> None:
        super().__init__(idx)
        self.out_features = layer.out_features
        self.w = np.ascontiguousarray(layer.weight, dtype=np.float32)
        self.b = layer.bias.astype(np.float32) if layer.use_bias else None

    def run(self, x: np.ndarray, plan: _CompiledPlan) -> np.ndarray:
        t0 = time.perf_counter()
        out = plan.scratch((self.idx, "out"), (x.shape[0], self.out_features))
        fused_gemm(x, self.w, out)
        if self.b is not None:
            out += self.b
        PROFILER.add("gemm", time.perf_counter() - t0)
        self._activate(out)
        return out


class _FusedBatchNorm1d(_Step):
    """Inference batch-norm folded to one affine transform (+ activation)."""

    fusable = True

    def __init__(self, idx: int, layer: BatchNorm1d) -> None:
        super().__init__(idx)
        inv_std = 1.0 / np.sqrt(layer.running_var + layer.eps)
        self.scale = (layer.gamma * inv_std).astype(np.float32)
        self.shift = (layer.beta - layer.running_mean * layer.gamma * inv_std).astype(
            np.float32
        )

    def run(self, x: np.ndarray, plan: _CompiledPlan) -> np.ndarray:
        t0 = time.perf_counter()
        out = plan.scratch((self.idx, "out"), x.shape)
        np.multiply(x, self.scale, out=out)
        out += self.shift
        PROFILER.add("gemm", time.perf_counter() - t0)
        self._activate(out)
        return out


class _FusedMaxPool1d(_Step):
    """1-D max pool without the training path's argmax bookkeeping."""

    def __init__(self, idx: int, layer: MaxPool1d) -> None:
        super().__init__(idx)
        self.pool_size = layer.pool_size
        self.stride = layer.stride

    def run(self, x: np.ndarray, plan: _CompiledPlan) -> np.ndarray:
        t0 = time.perf_counter()
        n, c, length = x.shape
        out_len = (length - self.pool_size) // self.stride + 1
        out = plan.scratch((self.idx, "out"), (n, c, out_len))
        # One strided elementwise pass per kernel tap beats a windowed
        # reduction here: the input is usually a non-contiguous view of the
        # preceding conv's output, which reduction kernels handle poorly.
        span = (out_len - 1) * self.stride + 1
        np.copyto(out, x[:, :, 0:span : self.stride])
        for k in range(1, self.pool_size):
            np.maximum(out, x[:, :, k : k + span : self.stride], out=out)
        PROFILER.add("prep", time.perf_counter() - t0)
        return out


class _FusedMaxPool2d(_Step):
    """2-D max pool without the training path's argmax bookkeeping."""

    def __init__(self, idx: int, layer: MaxPool2d) -> None:
        super().__init__(idx)
        self.pool_size = layer.pool_size
        self.stride = layer.stride

    def run(self, x: np.ndarray, plan: _CompiledPlan) -> np.ndarray:
        t0 = time.perf_counter()
        n, c, h, w = x.shape
        ph, pw = self.pool_size
        sh, sw = self.stride
        out_h = (h - ph) // sh + 1
        out_w = (w - pw) // sw + 1
        out = plan.scratch((self.idx, "out"), (n, c, out_h, out_w))
        # Per-tap elementwise passes (see _FusedMaxPool1d for why).
        span_h = (out_h - 1) * sh + 1
        span_w = (out_w - 1) * sw + 1
        np.copyto(out, x[:, :, 0:span_h:sh, 0:span_w:sw])
        for a in range(ph):
            for b in range(pw):
                if a == 0 and b == 0:
                    continue
                np.maximum(
                    out, x[:, :, a : a + span_h : sh, b : b + span_w : sw], out=out
                )
        PROFILER.add("prep", time.perf_counter() - t0)
        return out


class _FusedAvgPool1d(_Step):
    """1-D average pool into a reusable buffer."""

    def __init__(self, idx: int, layer: AvgPool1d) -> None:
        super().__init__(idx)
        self.pool_size = layer.pool_size
        self.stride = layer.stride

    def run(self, x: np.ndarray, plan: _CompiledPlan) -> np.ndarray:
        t0 = time.perf_counter()
        n, c, length = x.shape
        out_len = (length - self.pool_size) // self.stride + 1
        out = plan.scratch((self.idx, "out"), (n, c, out_len))
        span = (out_len - 1) * self.stride + 1
        np.copyto(out, x[:, :, 0:span : self.stride])
        for k in range(1, self.pool_size):
            out += x[:, :, k : k + span : self.stride]
        out *= np.float32(1.0 / self.pool_size)
        PROFILER.add("prep", time.perf_counter() - t0)
        return out


class _FusedAvgPool2d(_Step):
    """2-D average pool into a reusable buffer."""

    def __init__(self, idx: int, layer: AvgPool2d) -> None:
        super().__init__(idx)
        self.pool_size = layer.pool_size
        self.stride = layer.stride

    def run(self, x: np.ndarray, plan: _CompiledPlan) -> np.ndarray:
        t0 = time.perf_counter()
        n, c, h, w = x.shape
        ph, pw = self.pool_size
        sh, sw = self.stride
        out_h = (h - ph) // sh + 1
        out_w = (w - pw) // sw + 1
        out = plan.scratch((self.idx, "out"), (n, c, out_h, out_w))
        span_h = (out_h - 1) * sh + 1
        span_w = (out_w - 1) * sw + 1
        np.copyto(out, x[:, :, 0:span_h:sh, 0:span_w:sw])
        for a in range(ph):
            for b in range(pw):
                if a == 0 and b == 0:
                    continue
                out += x[:, :, a : a + span_h : sh, b : b + span_w : sw]
        out *= np.float32(1.0 / (ph * pw))
        PROFILER.add("prep", time.perf_counter() - t0)
        return out


class _FusedFlatten(_Step):
    """Flatten into a contiguous reusable buffer (handles strided inputs)."""

    def run(self, x: np.ndarray, plan: _CompiledPlan) -> np.ndarray:
        t0 = time.perf_counter()
        n = x.shape[0]
        flat = int(np.prod(x.shape[1:]))
        out = plan.scratch((self.idx, "out"), (n, flat))
        out.reshape(x.shape)[...] = x
        PROFILER.add("prep", time.perf_counter() - t0)
        return out


class _FusedGlobalAvgPool1d(_Step):
    """Global average over the length axis into a reusable buffer."""

    def run(self, x: np.ndarray, plan: _CompiledPlan) -> np.ndarray:
        t0 = time.perf_counter()
        out = plan.scratch((self.idx, "out"), x.shape[:2])
        np.mean(x, axis=2, out=out)
        PROFILER.add("prep", time.perf_counter() - t0)
        return out


class _ActivationStep(_Step):
    """A standalone (unfused) activation, applied on a private copy."""

    def __init__(self, idx: int, layer: Layer) -> None:
        super().__init__(idx)
        self.act = _activation_spec(layer)

    def run(self, x: np.ndarray, plan: _CompiledPlan) -> np.ndarray:
        out = plan.scratch((self.idx, "out"), x.shape)
        out[...] = x
        self._activate(out)
        return out


class _FallbackStep(_Step):
    """Escape hatch: run an unrecognised layer through its own ``forward``.

    Keeps the fused backends correct for any layer this module does not
    specialise (e.g. ``Softmax``); the layer sees float32 inputs, which the
    dtype policy accepts.
    """

    def __init__(self, idx: int, layer: Layer) -> None:
        super().__init__(idx)
        self.layer = layer

    def run(self, x: np.ndarray, plan: _CompiledPlan) -> np.ndarray:
        t0 = time.perf_counter()
        out = np.asarray(self.layer.forward(x, training=False), dtype=np.float32)
        PROFILER.add("fallback", time.perf_counter() - t0)
        return out


# ---------------------------------------------------------------------------
# Backends
# ---------------------------------------------------------------------------


class InferenceBackend:
    """A named compute strategy that compiles models into inference plans."""

    #: Registry name (also what ``--backend`` selects).
    name = "abstract"
    #: Dominant arithmetic dtype, reported by ``/metrics`` and profiles.
    dtype = "float64"

    def compile(self, model: Sequential) -> InferencePlan:
        """Compile ``model`` into an executable :class:`InferencePlan`."""
        raise NotImplementedError


class NumpyBackend(InferenceBackend):
    """The golden float64 reference backend (no compilation at all)."""

    name = DEFAULT_BACKEND
    dtype = "float64"

    def compile(self, model: Sequential) -> InferencePlan:
        """Wrap the model's own forward pass — bit-identical by construction."""
        return _GoldenPlan(model)


class FusedF32Backend(InferenceBackend):
    """Fused float32 inference: no grads, fused steps, reusable scratch."""

    name = "fused_f32"
    dtype = "float32"

    #: Layer types compiled to fused steps (others go through the fallback).
    _STEP_TYPES = {
        Conv1d: _FusedConv1d,
        Conv2d: _FusedConv2d,
        Dense: _FusedDense,
        BatchNorm1d: _FusedBatchNorm1d,
        MaxPool1d: _FusedMaxPool1d,
        MaxPool2d: _FusedMaxPool2d,
        AvgPool1d: _FusedAvgPool1d,
        AvgPool2d: _FusedAvgPool2d,
        Flatten: _FusedFlatten,
        GlobalAveragePool1d: _FusedGlobalAvgPool1d,
    }

    def compile(self, model: Sequential) -> InferencePlan:
        """Walk the layer list, fusing trailing activations into each step.

        Weights are snapshotted (cast to float32) at compile time; refitting
        the model requires recompiling the plan (the classifier seam in
        :mod:`repro.core.classifiers` invalidates plans on ``fit``).
        """
        steps: List[_Step] = []
        layers = model.layers
        i = 0
        while i < len(layers):
            layer = layers[i]
            if isinstance(layer, Dropout):
                i += 1  # inference no-op: drop the layer entirely
                continue
            step_cls = self._STEP_TYPES.get(type(layer))
            if step_cls is not None:
                step: _Step = step_cls(i, layer)
            elif isinstance(layer, _FUSABLE_ACTIVATIONS):
                step = _ActivationStep(i, layer)
            else:
                step = _FallbackStep(i, layer)
            if (
                step.fusable
                and i + 1 < len(layers)
                and isinstance(layers[i + 1], _FUSABLE_ACTIVATIONS)
            ):
                step.act = _activation_spec(layers[i + 1])
                i += 1
            steps.append(step)
            i += 1
        return _CompiledPlan(self.name, self.dtype, steps)


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

_BACKENDS: Dict[str, Callable[[], InferenceBackend]] = {}


def register_backend(name: str, factory: Callable[[], InferenceBackend]) -> None:
    """Register (or replace) a backend factory under ``name``."""
    _BACKENDS[name] = factory


def available_backends() -> List[str]:
    """Sorted names of every registered backend."""
    return sorted(_BACKENDS)


def get_backend(name: str) -> InferenceBackend:
    """Instantiate the backend registered under ``name``.

    Raises ``ValueError`` (listing the known names) for unknown backends —
    the CLI turns that into a usage error (exit status 2).
    """
    try:
        factory = _BACKENDS[name]
    except KeyError:
        known = ", ".join(available_backends())
        raise ValueError(f"unknown compute backend {name!r}; known backends: {known}")
    return factory()


register_backend(NumpyBackend.name, NumpyBackend)
register_backend(FusedF32Backend.name, FusedF32Backend)
