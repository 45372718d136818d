"""Layer building blocks on top of the autodiff engine.

A tiny Module system: assigning a Tensor attribute registers a parameter,
assigning a Module registers a child.  Subclasses define ``forward``; calling
a module enters its FLOP scope and runs it.  Parameter initialization is
driven by a numpy Generator so whole models are reproducible from one seed.
"""

from __future__ import annotations

import numpy as np

from . import engine
from .engine import Tensor


class Module:
    """Base class with parameter/child registration and train/eval state."""

    def __init__(self):
        object.__setattr__(self, "_params", {})
        object.__setattr__(self, "_children", {})
        object.__setattr__(self, "_buffers", {})
        object.__setattr__(self, "training", True)
        object.__setattr__(self, "scope", None)

    def __setattr__(self, name, value):
        if isinstance(value, Tensor):
            self._params[name] = value
        elif isinstance(value, Module):
            self._children[name] = value
        object.__setattr__(self, name, value)

    def __call__(self, *args, **kwargs):
        with engine.scoped(self.scope):
            return self.forward(*args, **kwargs)

    def register_buffer(self, name, array):
        self._buffers[name] = array
        object.__setattr__(self, name, array)

    def named_parameters(self, prefix=""):
        for name, p in self._params.items():
            yield (prefix + name, p)
        for cname, child in self._children.items():
            yield from child.named_parameters(prefix + cname + ".")

    def named_buffers(self, prefix=""):
        for name, b in self._buffers.items():
            yield (prefix + name, b)
        for cname, child in self._children.items():
            yield from child.named_buffers(prefix + cname + ".")

    def parameters(self):
        return [p for _, p in self.named_parameters()]

    def train(self):
        self.set_training(True)

    def eval(self):
        self.set_training(False)

    def set_training(self, flag):
        object.__setattr__(self, "training", bool(flag))
        for child in self._children.values():
            child.set_training(flag)

    def zero_grad(self):
        for p in self.parameters():
            p.grad = None

    def annotate_scopes(self, prefix=""):
        """Assign dotted path names used by the FLOP recorder."""
        object.__setattr__(self, "scope", prefix.rstrip(".") or "top")
        for cname, child in self._children.items():
            child.annotate_scopes(prefix + cname + ".")


class NamedList(Module):
    """Children registered under the given names, in order; iterates over and
    indexes (from 0) the children like a list."""

    def __init__(self, pairs):
        super().__init__()
        for name, module in pairs:
            setattr(self, name, module)

    def __iter__(self):
        return iter(self._children.values())

    def __getitem__(self, i):
        return list(self._children.values())[i]


class Conv2d(Module):
    """Convolution layer; weights use fan-in-scaled uniform init, zero bias."""

    def __init__(self, cin, cout, k, rng, stride=1, padding=0, dilation=1,
                 dtype=np.float64):
        super().__init__()
        self.stride = stride
        self.padding = padding
        self.dilation = dilation
        bound = float(np.sqrt(1.0 / (cin * k * k)))
        w = rng.uniform(-bound, bound, size=(cout, cin, k, k)).astype(dtype)
        self.weight = Tensor(w, requires_grad=True)
        self.bias = Tensor(np.zeros(cout, dtype=dtype), requires_grad=True)

    def forward(self, x):
        return engine.conv2d(x, self.weight, self.bias, stride=self.stride,
                             padding=self.padding, dilation=self.dilation)


class BatchNorm2d(Module):
    def __init__(self, c, dtype=np.float64):
        super().__init__()
        self.gamma = Tensor(np.ones(c, dtype=dtype), requires_grad=True)
        self.beta = Tensor(np.zeros(c, dtype=dtype), requires_grad=True)
        self.register_buffer("running_mean", np.zeros(c, dtype=np.float64))
        self.register_buffer("running_var", np.ones(c, dtype=np.float64))

    def forward(self, x, relu=False):
        return engine.batch_norm(x, self.gamma, self.beta, self.running_mean,
                                 self.running_var, self.training, relu)


class ConvBNReLU(Module):
    """Conv ("same" padding for odd k) -> batch norm -> ReLU, the main block."""

    def __init__(self, cin, cout, k, rng, stride=1, dilation=1,
                 dtype=np.float64):
        super().__init__()
        self.conv = Conv2d(cin, cout, k, rng, stride=stride,
                           padding=dilation * (k - 1) // 2,
                           dilation=dilation, dtype=dtype)
        self.bn = BatchNorm2d(cout, dtype=dtype)

    def forward(self, x):
        return self.bn_relu(self.conv(x))

    def bn_relu(self, y):
        """Batch norm and ReLU of the conv's output `y`."""
        out = self.bn(y, relu=True)
        # the ReLU's FLOPs, as engine.relu books them, on this block's scope:
        # the analyzer's ledger puts them here and the norm's on .bn
        engine._record_flops("elementwise", out.size)
        return out


def sibling_blocks(blocks, x):
    """ConvBNReLU `blocks` of one conv geometry applied to one input `x`, as
    one conv of their weights and biases stacked along Cout: each block's
    batch norm and ReLU take its slice of the output channels.  Each block's
    FLOPs are booked on its own scopes, as separate calls book them."""
    convs = [block.conv for block in blocks]
    first = convs[0]
    with engine.unrecorded():
        y = engine.conv2d(x, engine.concat([c.weight for c in convs], 0),
                          engine.concat([c.bias for c in convs], 0),
                          stride=first.stride, padding=first.padding,
                          dilation=first.dilation)
    outs, start = [], 0
    for block in blocks:
        part = engine.channel_slice(y, start, start + block.conv.weight.shape[0])
        start += part.shape[1]
        with engine.scoped(block.scope):
            with engine.scoped(block.conv.scope):
                engine._record_flops(
                    "conv", 2 * part.size * block.conv.weight.data[0].size)
            outs.append(block.bn_relu(part))
    return outs


class ResidualBlock(Module):
    """Two 3x3 ConvBNReLU convs with identity skip (same channel count)."""

    def __init__(self, c, rng, dtype=np.float64):
        super().__init__()
        self.block1 = ConvBNReLU(c, c, 3, rng, dtype=dtype)
        self.conv2 = Conv2d(c, c, 3, rng, padding=1, dtype=dtype)
        self.bn2 = BatchNorm2d(c, dtype=dtype)

    def forward(self, x):
        y = self.bn2(self.conv2(self.block1(x)))
        return engine.relu(y + x)
