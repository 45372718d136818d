"""The segmentation network: edge guidance, scale-aware convolution and
cross-level fusion modules wired into a top-down decoder with four
edge-weighted side outputs, plus the training loss.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import engine
from .backbone import Backbone, BackboneConfig
from .engine import (Tensor, bilinear_resize, concat_channels,
                     global_avg_pool, relu, sigmoid)
from .layers import Conv2d, ConvBNReLU, Module, NamedList, sibling_blocks


@dataclass
class ModelConfig:
    common_width: int = 32              # shared channel width K after each SCM
    dilation_rates: tuple = (2, 4, 8)
    cfm_reduction: int = 4              # channel bottleneck ratio t inside CFM
    beta_edge: float = 5.0              # weight of the edge loss term
    backbone: BackboneConfig = field(default_factory=BackboneConfig)

    def __post_init__(self):
        self.dilation_rates = tuple(int(r) for r in self.dilation_rates)
        w, t = self.common_width, self.cfm_reduction
        for key, value in (("common_width", w), ("cfm_reduction", t)):
            if value < 1:
                raise ValueError(f"model.{key} must be positive, got {value}")
        if (2 * w) % t:
            raise ValueError(f"model.cfm_reduction must divide 2*model.common_width "
                             f"= {2 * w}, got {t}")
        rates = self.dilation_rates
        if not rates or min(rates) < 1 or len(set(rates)) != len(rates):
            raise ValueError("model.dilation_rates must hold one or more distinct "
                             f"rates >= 1, got {rates}")
        if not 0 <= self.beta_edge < np.inf:
            raise ValueError(f"model.beta_edge must be in [0, inf), got {self.beta_edge}")


@dataclass
class ModelOutput:
    """Side-output logits S1..S4 and edge logits Se at input resolution,
    plus the internal edge feature Fe (at stride 2)."""
    side_logits: list            # [S1, S2, S3, S4]
    edge_logits: Tensor          # Se
    edge_feature: Tensor         # Fe


@dataclass
class LossBreakdown:
    seg_losses: list             # scalar Tensors, one per side output
    edge_loss: Tensor
    total: Tensor

    def values(self):
        return ([float(t.data) for t in self.seg_losses],
                float(self.edge_loss.data), float(self.total.data))


class EdgeGuidance(Module):
    """Fuses F1, F2 and F5 into an edge feature and edge-map logits."""

    def __init__(self, c1, c2, c5, width, rng, dtype):
        super().__init__()
        self.reduce2 = Conv2d(c2, width, 1, rng, dtype=dtype)
        self.reduce5 = Conv2d(c5, width, 1, rng, dtype=dtype)
        self.fuse12 = ConvBNReLU(c1 + width, width, 3, rng, dtype=dtype)
        self.fuse_edge = ConvBNReLU(2 * width, width, 3, rng, dtype=dtype)
        self.edge_out = Conv2d(width, 1, 1, rng, dtype=dtype)

    def forward(self, f1, f2, f5, out_h, out_w):
        h, w = f1.shape[2], f1.shape[3]
        f2r = bilinear_resize(self.reduce2(f2), h, w)
        f5r = bilinear_resize(self.reduce5(f5), h, w)
        f12 = self.fuse12(concat_channels([f1, f2r]))
        fe = self.fuse_edge(concat_channels([f12, f5r]))
        se = bilinear_resize(self.edge_out(fe), out_h, out_w)
        return fe, se


class ScaleAwareConv(Module):
    """Parallel dilated 3x3 branches plus a residual 1x1 path."""

    def __init__(self, cin, width, rates, rng, dtype):
        super().__init__()
        self.pre_a = Conv2d(cin, width, 1, rng, dtype=dtype)
        self.pre_b = Conv2d(cin, width, 1, rng, dtype=dtype)
        self.branches = NamedList(
            (f"rate{r}", ConvBNReLU(width, width, 3, rng, dilation=r, dtype=dtype))
            for r in rates)
        self.fuse_cat = ConvBNReLU(len(rates) * width, width, 3, rng, dtype=dtype)
        self.fuse_res = ConvBNReLU(width, width, 3, rng, dtype=dtype)
        self.out = ConvBNReLU(width, width, 3, rng, dtype=dtype)

    def forward(self, x):
        a = self.pre_a(x)
        b = self.pre_b(x)
        scaled = [branch(a) for branch in self.branches]
        merged = self.fuse_cat(concat_channels(scaled)) + self.fuse_res(b)
        return self.out(merged)


class CrossLevelFusion(Module):
    """Concatenates two same-size features and re-weights them with local
    (per-pixel) and global (pooled) sigmoid attention before reduction."""

    def __init__(self, width, reduction, rng, dtype):
        super().__init__()
        c = 2 * width
        mid = c // reduction
        self.branch1 = ConvBNReLU(c, c, 3, rng, dtype=dtype)
        self.branch2 = ConvBNReLU(c, c, 3, rng, dtype=dtype)
        self.branch3 = ConvBNReLU(c, c, 3, rng, dtype=dtype)
        self.local_pwc1 = Conv2d(c, mid, 1, rng, dtype=dtype)
        self.local_pwc2 = Conv2d(mid, c, 1, rng, dtype=dtype)
        self.global_pwc1 = Conv2d(c, mid, 1, rng, dtype=dtype)
        self.global_pwc2 = Conv2d(mid, c, 1, rng, dtype=dtype)
        self.out = ConvBNReLU(3 * c, width, 3, rng, dtype=dtype)

    def forward(self, fa, fb):
        if fa.shape[2:] != fb.shape[2:]:
            raise ValueError(
                f"cross-level fusion needs matching spatial sizes, got "
                f"{fa.shape} vs {fb.shape}")
        # each branch output is dropped once the graph holds what it needs,
        # so none stays alive through `self.out`, the step's peak
        cat1, cat2, cat3 = sibling_blocks(
            (self.branch1, self.branch2, self.branch3),
            concat_channels([fa, fb]))
        w_local = sigmoid(self.local_pwc2(relu(self.local_pwc1(cat1))))
        en1 = cat1 * w_local + cat1
        del cat1, w_local
        w_global = sigmoid(self.global_pwc2(relu(self.global_pwc1(
            global_avg_pool(cat2)))))
        en2 = cat2 * w_global + cat2
        del cat2, w_global
        x = concat_channels([en1, en2, cat3])
        del en1, en2, cat3
        return self.out(x)


class SideHead(Module):
    """Two 3x3 conv blocks followed by a 1x1 conv to one logit channel."""

    def __init__(self, width, rng, dtype):
        super().__init__()
        self.block1 = ConvBNReLU(width, width, 3, rng, dtype=dtype)
        self.block2 = ConvBNReLU(width, width, 3, rng, dtype=dtype)
        self.out = Conv2d(width, 1, 1, rng, dtype=dtype)

    def forward(self, x):
        return self.out(self.block2(self.block1(x)))


class EFANet(Module):
    def __init__(self, config: ModelConfig, seed=0, dtype=np.float64):
        super().__init__()
        self.config = config
        rng = np.random.default_rng(seed)
        k = config.common_width
        chans = config.backbone.channels_per_level
        self.backbone = Backbone(config.backbone, rng, dtype)
        self.egm = EdgeGuidance(chans[0], chans[1], chans[4], k, rng, dtype)
        self.scms = NamedList(
            (f"scm{i + 1}",
             ScaleAwareConv(chans[i], k, config.dilation_rates, rng, dtype))
            for i in range(5))
        self.cfms = NamedList(
            (f"cfm{i + 1}", CrossLevelFusion(k, config.cfm_reduction, rng, dtype))
            for i in range(4))
        self.edge_attn = Conv2d(k, 1, 1, rng, dtype=dtype)
        self.heads = NamedList((f"head{i + 1}", SideHead(k, rng, dtype))
                               for i in range(4))
        self.annotate_scopes()

    def edge_weight(self, fcfm, fe):
        """Residual edge attention: fcfm * sigma(attn(fe)) + fcfm."""
        a = sigmoid(self.edge_attn(fe))
        a = bilinear_resize(a, fcfm.shape[2], fcfm.shape[3])
        return fcfm * a + fcfm

    def forward(self, image):
        # ops of the model's own code are booked to "decoder"
        with engine.scoped("decoder"):
            n, c, h, w = image.shape
            feats = self.backbone(image)
            scaled = [scm(f) for scm, f in zip(self.scms, feats)]
            fe, se = self.egm(feats[0], feats[1], feats[4], h, w)

            # top-down cascade: D5 = T5, D_i = CFM_i(Up(D_{i+1}), T_i)
            d = scaled[4]
            decoded = [None] * 4
            for i in range(4, 0, -1):
                t = scaled[i - 1]
                up = bilinear_resize(d, t.shape[2], t.shape[3])
                d = self.cfms[i - 1](up, t)
                decoded[i - 1] = d

            side = []
            for head, d in zip(self.heads, decoded):
                logits = head(self.edge_weight(d, fe))
                side.append(bilinear_resize(logits, h, w))
            return ModelOutput(side_logits=side, edge_logits=se, edge_feature=fe)


# -- losses ------------------------------------------------------------------


def boundary_weights(mask):
    """Boundary-emphasis weight map 1 + 5*|meanpool_k(G) - G|, the mean
    over a k x k window with replicated borders.

    Kernel size scales with resolution: nearest odd to 31 * H / 352, min 3.
    """
    g = np.asarray(mask, dtype=np.float64)
    kernel = int(round(31.0 * g.shape[-2] / 352.0))
    kernel += (kernel + 1) % 2
    kernel = max(kernel, 3)
    pooled = _box_mean(_box_mean(g, kernel, -2), kernel, -1)
    return 1.0 + 5.0 * np.abs(pooled - g)


def _box_mean(a, k, axis):
    """Mean over a centred window of odd length k along `axis`, borders
    replicated, with scipy.ndimage.uniform_filter1d's arithmetic and so its
    bits: the first window summed left to right, then one running sum of
    (entering - leaving) values, each output that sum divided by k."""
    n, half = a.shape[axis], k // 2
    p = np.moveaxis(a, axis, 0)[np.clip(np.arange(-half, n + half), 0, n - 1)]
    steps = np.concatenate([p[:k], p[k:] - p[:-k]])
    sums = np.cumsum(steps, axis=0)[k - 1:]   # sequential, not pairwise
    return np.moveaxis(sums / k, 0, axis)


def _check_binary(arr, name):
    a = np.asarray(arr)
    if not np.all((a == 0) | (a == 1)):
        raise ValueError(f"{name} must be binary (0/1)")


def seg_loss(side_logits, mask):
    """Weighted BCE + weighted IoU loss of each side output against one mask,
    whose check, weight map and target are built once for all of them; each
    side output's loss is one graph node."""
    mask = np.asarray(mask)
    for logits in side_logits:
        if logits.shape != mask.shape:
            raise ValueError(f"seg_loss: logits {logits.shape} vs mask "
                             f"{mask.shape}")
    _check_binary(mask, "mask")
    dtype = side_logits[0].dtype
    w = boundary_weights(mask).astype(dtype)
    g = mask.astype(dtype)
    return [engine.structure_loss(logits, g, w) for logits in side_logits]


def edge_loss(edge_logits, edge_gt):
    """Plain mean BCE between the edge logits and the Sobel edge target."""
    _check_binary(edge_gt, "edge ground truth")
    return engine.structure_loss(edge_logits, edge_gt)


def total_loss(output: ModelOutput, mask, edge_gt, config: ModelConfig):
    """Sum of the four side-output losses plus beta * edge loss."""
    seg_terms = seg_loss(output.side_logits, mask)
    l_e = edge_loss(output.edge_logits, edge_gt)
    total = seg_terms[0]
    for t in seg_terms[1:]:
        total = total + t
    total = total + float(config.beta_edge) * l_e
    return LossBreakdown(seg_losses=seg_terms, edge_loss=l_e, total=total)
