"""The served models, their inputs, and the checks that stay outside the runtime.

- :data:`WORKLOADS` names each workload's model, TASD series, request shape
  and serving substrate.
- :func:`reference_outputs` computes, for each input, the logits of the
  *uncompiled* model in eval mode with every TASD layer's effective weight
  set to the :func:`repro.core.decompose` approximation of its weight, plus
  the dense-weight logits.  No runtime kernel is involved.
- :func:`dense_floor` times ``x @ W.T`` on each layer's dense (pruned)
  weight at the exact GEMM shape the layer served.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.core import TASDConfig
from repro.core.decompose import decompose
from repro.nn.models.mlp import MLP
from repro.nn.models.resnet import resnet18
from repro.nn.module import Module
from repro.pruning.magnitude import global_magnitude_prune
from repro.pruning.targets import gemm_layers
from repro.tasder.transform import TASDTransform

__all__ = ["RTOL", "ATOL", "WORKLOADS", "Workload", "dense_floor", "make_inputs", "reference_outputs"]

# Served logits must match the reference within this tolerance: loose
# enough for the allclose backends (reassociated float64 sums), tight
# enough that any wrong weight or dropped term fails.
RTOL, ATOL = 1e-6, 1e-9
INPUT_POOL = 256  # distinct seeded inputs each workload cycles through


def _resnet() -> Module:
    model = resnet18(num_classes=10, base_width=16)
    global_magnitude_prune(model, sparsity=0.6)
    return model


def _mlp() -> Module:
    model = MLP(1024, hidden=(1024,) * 4, num_classes=10)
    global_magnitude_prune(model, sparsity=0.8)
    return model


@dataclass(frozen=True)
class Workload:
    name: str
    build: Callable[[], Module]  # dense model, magnitude-pruned
    series: str  # TASD series on every prunable GEMM layer
    request_shape: tuple[int, ...]
    autotune_cols: int
    pool_workers: int  # 0: in-process PlanExecutor; N: ProcessWorkerPool(workers=N)
    open_loop: bool

    def transform(self, model: Module) -> TASDTransform:
        config = TASDConfig.parse(self.series)
        return TASDTransform(weight_configs={name: config for name, _ in gemm_layers(model)})


WORKLOADS = {
    w.name: w
    for w in (
        Workload("resnet18-b1-closed", _resnet, "2:4", (1, 3, 8, 8), 32, 0, False),
        Workload("resnet18-poisson-proc2", _resnet, "2:4", (1, 3, 8, 8), 32, 2, True),
        Workload("mlp-tasd-b16", _mlp, "2:8+1:8", (16, 1024), 16, 0, False),
    )
}


def make_inputs(workload: Workload, seed: int) -> list[np.ndarray]:
    rng = np.random.default_rng(seed)
    return [rng.normal(size=workload.request_shape) for _ in range(INPUT_POOL)]


def reference_outputs(
    model: Module, transform: TASDTransform, inputs: list[np.ndarray]
) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """``(approx, dense)`` logits per input from the uncompiled ``model``.

    ``model`` must not carry a compiled plan; its effective weights are set
    to the decomposed approximation and left that way.
    """
    model.eval()
    dense = [model(x) for x in inputs]
    for name, layer in gemm_layers(model, include_head=True):
        config = transform.weight_configs.get(name)
        if config is None or config.is_dense:
            continue
        w = layer.weight_matrix()
        pad = (-w.shape[1]) % config.block_lcm
        padded = np.pad(w, ((0, 0), (0, pad)))
        approx = decompose(padded, config.patterns, axis=-1).reconstruct()
        layer.set_effective_weight(approx[:, : w.shape[1]])
    approx = [model(x) for x in inputs]
    return approx, dense


def dense_floor(model: Module, rows: dict[str, int], repeats: int = 200) -> dict[str, float]:
    """Median seconds of ``x @ W.T`` per layer, at ``rows`` x reduction.

    ``W`` is the layer's dense (pruned) weight matrix; layers missing from
    ``rows`` (never served) are skipped.
    """
    rng = np.random.default_rng(0)
    out: dict[str, float] = {}
    for name, layer in gemm_layers(model, include_head=True):
        if name not in rows:
            continue
        w = layer.weight_matrix()
        x = rng.normal(size=(rows[name], w.shape[1])).astype(w.dtype, copy=False)
        for _ in range(3):
            x @ w.T
        samples = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            x @ w.T
            samples.append(time.perf_counter() - t0)
        out[name] = float(np.median(samples))
    return out
