"""Multi-level feature extractor: its forward returns the list [F1, ..., F5].

A small residual CNN stands in for a heavyweight encoder: the only contract
downstream modules rely on is that level i has stride 2^i and channel count
channels_per_level[i-1].
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .layers import ConvBNReLU, Module, NamedList, ResidualBlock


@dataclass
class BackboneConfig:
    input_channels: int = 1
    stem_channels: int = 16
    channels_per_level: tuple = (16, 24, 32, 48, 64)
    blocks_per_level: tuple = (1, 1, 1, 1, 1)

    def __post_init__(self):
        self.channels_per_level = tuple(int(c) for c in self.channels_per_level)
        self.blocks_per_level = tuple(int(b) for b in self.blocks_per_level)
        if len(self.channels_per_level) != 5 or len(self.blocks_per_level) != 5:
            raise ValueError("backbone needs exactly 5 levels")
        if min(self.channels_per_level + (self.input_channels, self.stem_channels)) < 1:
            raise ValueError("channel counts must be strictly positive")


class Backbone(Module):
    def __init__(self, config: BackboneConfig, rng, dtype=np.float64):
        super().__init__()
        self.config = config
        chans = config.channels_per_level
        # stem downsamples once; level 1 keeps stride 2, levels 2..5 halve again
        self.stem = ConvBNReLU(config.input_channels, config.stem_channels, 3,
                               rng, stride=2, dtype=dtype)
        prev = config.stem_channels
        levels = []
        for i in range(5):
            stride = 1 if i == 0 else 2
            levels.append((f"level{i + 1}", _Level(
                prev, chans[i], config.blocks_per_level[i], stride, rng, dtype)))
            prev = chans[i]
        self.levels = NamedList(levels)

    def forward(self, image):
        n, c, h, w = image.shape
        if c != self.config.input_channels:
            raise ValueError(
                f"backbone expects {self.config.input_channels} input channels, got {c}")
        if h % 32 or w % 32 or h < 32 or w < 32:
            raise ValueError(
                f"input spatial size ({h}x{w}) must be a multiple of 32 and >= 32")
        x = self.stem(image)
        feats = []
        for level in self.levels:
            x = level(x)
            feats.append(x)
        return feats


class _Level(Module):
    def __init__(self, cin, cout, n_blocks, stride, rng, dtype):
        super().__init__()
        self.transition = ConvBNReLU(cin, cout, 3, rng, stride=stride, dtype=dtype)
        self.blocks = NamedList((f"block{b + 1}", ResidualBlock(cout, rng, dtype))
                                for b in range(n_blocks))

    def forward(self, x):
        x = self.transition(x)
        for block in self.blocks:
            x = block(x)
        return x
