"""Static cost accounting: exact parameter and FLOP counts per layer and
per module at a stated input resolution.

Conventions (also printed in every report header):
  * one multiply-accumulate = 2 FLOPs, so a convolution costs
    2 * Cout * Cin * kh * kw * Hout * Wout per image (bias adds excluded);
  * elementwise ops, resizes and pooling cost 1 FLOP per output element.

FLOPs are measured by running one eval-mode forward pass with a recorder
installed in the engine, so the numbers always reflect the real graph.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np

from . import engine
from .engine import Tensor
from .model import EFANet, ModelConfig

_PARAM_SUFFIXES = (".weight", ".bias", ".gamma", ".beta")


class FlopRecorder:
    def __init__(self):
        self.scope = ""
        self.entries = defaultdict(int)   # (scope, kind) -> flops

    def add(self, kind, count):
        self.entries[(self.scope, kind)] += count


@dataclass
class CostReport:
    input_resolution: int
    layer_params: dict = field(default_factory=dict)   # layer name -> int
    layer_flops: dict = field(default_factory=dict)    # scope name -> int
    module_params: dict = field(default_factory=dict)
    module_flops: dict = field(default_factory=dict)
    total_params: int = 0
    total_flops: int = 0

    def render(self):
        lines = [
            f"cost report at input resolution {self.input_resolution}"
            f"x{self.input_resolution}",
            "convention: 1 MAC = 2 FLOPs; elementwise/resize/pool ops cost "
            "1 FLOP per output element; conv bias adds excluded",
            "",
            f"{'module':<12} {'params':>12} {'flops':>16}",
        ]
        for name in sorted(set(self.module_params) | set(self.module_flops)):
            lines.append(f"{name:<12} {self.module_params.get(name, 0):>12} "
                         f"{self.module_flops.get(name, 0):>16}")
        lines.append(f"{'TOTAL':<12} {self.total_params:>12} "
                     f"{self.total_flops:>16}")
        lines.append("")
        lines.append(f"{'layer':<44} {'params':>10} {'flops':>14}")
        for name in sorted(set(self.layer_params) | set(self.layer_flops)):
            lines.append(f"{name:<44} {self.layer_params.get(name, 0):>10} "
                         f"{self.layer_flops.get(name, 0):>14}")
        return "\n".join(lines) + "\n"


def _module_of(scope):
    head = scope.split(".", 1)[0]
    return head if head else "decoder"


def count_params(model):
    """Exact integer parameter counts grouped by layer name."""
    per_layer = defaultdict(int)
    for name, p in model.named_parameters():
        layer = name
        for suffix in _PARAM_SUFFIXES:
            if name.endswith(suffix):
                layer = name[: -len(suffix)]
                break
        per_layer[layer] += p.data.size
    return dict(per_layer)


def analyze_model(config: ModelConfig, resolution, batch=1):
    """Build a model and measure its cost at `resolution`."""
    model = EFANet(config, seed=0, dtype=np.float32)
    model.eval()
    rec = FlopRecorder()
    engine.set_flop_recorder(rec)
    try:
        with engine.no_grad():
            dummy = Tensor(np.zeros(
                (batch, config.backbone.input_channels, resolution, resolution),
                dtype=np.float32))
            model(dummy)
    finally:
        engine.set_flop_recorder(None)

    layer_params = count_params(model)
    layer_flops = defaultdict(int)
    for (scope, _kind), flops in rec.entries.items():
        layer_flops[scope] += flops

    module_params = defaultdict(int)
    for layer, n in layer_params.items():
        module_params[_module_of(layer)] += n
    module_flops = defaultdict(int)
    for scope, flops in layer_flops.items():
        module_flops[_module_of(scope)] += flops

    return CostReport(
        input_resolution=resolution,
        layer_params=dict(layer_params),
        layer_flops=dict(layer_flops),
        module_params=dict(module_params),
        module_flops=dict(module_flops),
        total_params=sum(layer_params.values()),
        total_flops=sum(layer_flops.values()),
    )


def single_conv_cost(cin, cout, k, out_h, out_w, bias=True):
    """Reference formulas for one convolution layer."""
    params = cout * cin * k * k + (cout if bias else 0)
    flops = 2 * cout * cin * k * k * out_h * out_w
    return params, flops
