"""Spiking network architectures: VGG and ResNet families.

The paper evaluates spiking VGG-16 and ResNet-19.  The builders here follow
those topologies (conv -> normalization -> LIF blocks, average pooling between
stages, a final linear classifier averaged over timesteps) while exposing a
``width_multiplier`` and reduced presets so the same code runs at laptop scale
on the synthetic datasets used by the benchmark harness.

Every builder returns a :class:`~repro.snn.network.SpikingNetwork`, so the
DT-SNN engine, the trainer and the IMC mapper treat all architectures
uniformly.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Union

from ..autograd import Tensor, functional as F, is_grad_enabled
from ..nn import AvgPool2d, BatchNorm2d, Conv2d, Flatten, Identity, Linear, Sequential
from ..nn.module import Module
from ..utils.registry import Registry
from .encoding import DirectEncoder
from .folding import fold_candidate
from .neurons import LIFNeuron
from .network import SpikingNetwork
from .surrogate import SurrogateGradient, TriangularSurrogate
from .tdbn import TemporalBatchNorm2d

__all__ = [
    "ConvSpikeBlock",
    "SpikingResidualBlock",
    "spiking_vgg",
    "spiking_resnet",
    "build_architecture",
    "ARCHITECTURES",
    "VGG_PRESETS",
    "RESNET_PRESETS",
]

ARCHITECTURES = Registry("architecture")

# Stage configurations: integers are conv output channels, "M" is a 2x2
# average-pool.  The full vgg16 preset mirrors Simonyan & Zisserman; the small
# presets keep the stage structure but shrink depth/width for CPU training.
VGG_PRESETS: Dict[str, List[Union[int, str]]] = {
    "vgg16": [64, 64, "M", 128, 128, "M", 256, 256, 256, "M", 512, 512, 512, "M", 512, 512, 512],
    "vgg11": [64, "M", 128, "M", 256, 256, "M", 512, 512, "M", 512, 512],
    "vgg9": [64, "M", 128, "M", 256, 256, "M", 512, 512],
    "vgg5": [64, "M", 128, "M", 256],
    "tiny": [16, "M", 32, "M"],
}

# (block counts per stage, stage widths). resnet19 follows Zheng et al. 2021.
RESNET_PRESETS: Dict[str, Dict[str, Sequence[int]]] = {
    "resnet19": {"blocks": (3, 3, 2), "widths": (128, 256, 512)},
    "resnet11": {"blocks": (2, 2, 1), "widths": (64, 128, 256)},
    "tiny": {"blocks": (1, 1), "widths": (16, 32)},
}


def _make_norm(norm: str, channels: int, v_threshold: float) -> Module:
    """Build the normalization layer placed between conv and LIF."""
    if norm == "bn":
        return BatchNorm2d(channels)
    if norm == "tdbn":
        return TemporalBatchNorm2d(channels, v_threshold=v_threshold)
    if norm == "none":
        return Identity()
    raise ValueError(f"unknown norm {norm!r}; expected 'bn', 'tdbn' or 'none'")


def _conv_norm_forward(conv: Module, norm: Module, folded, x, training: bool):
    """Run a conv→norm pair, using the folded single-GEMM form when frozen.

    Folding applies during frozen inference — eval mode with gradient
    recording off; every other situation (training-mode statistics,
    surrogate-gradient backward) runs the unfused modules.  The
    compiled plan folds the *same* pairs from the *same* cache, so the
    define-by-run oracle and the runtime fast path stay bitwise-identical
    (see :mod:`repro.snn.folding` and docs/NUMERICS.md).

    Instance-level ``forward`` overrides (the IMC mapper temporarily wraps
    conv/linear forwards to trace geometry and input activity) also disable
    folding, so instrumentation observes the real per-layer dataflow.
    """
    instrumented = "forward" in conv.__dict__ or "forward" in norm.__dict__
    if (
        folded is not None
        and not training
        and not instrumented
        and not is_grad_enabled()
    ):
        weight, bias = folded.arrays()
        return F.conv2d(
            x, Tensor(weight), Tensor(bias), stride=conv.stride, padding=conv.padding
        )
    return norm(conv(x))


class ConvSpikeBlock(Module):
    """``g_l`` of Eq. 1: convolution, optional normalization, LIF firing."""

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: int = 3,
        stride: int = 1,
        padding: int = 1,
        norm: str = "bn",
        tau: float = 0.5,
        v_threshold: float = 1.0,
        surrogate: Optional[SurrogateGradient] = None,
    ):
        super().__init__()
        self.conv = Conv2d(in_channels, out_channels, kernel_size, stride=stride, padding=padding)
        self.norm = _make_norm(norm, out_channels, v_threshold)
        self.lif = LIFNeuron(tau=tau, v_threshold=v_threshold, surrogate=surrogate)
        # Eval-time conv+norm fold (shared with the compiled plan, which is
        # what keeps the two execution paths bitwise-identical after folding).
        self.folded = fold_candidate(self.conv, self.norm)

    def forward(self, x):
        return self.lif(_conv_norm_forward(self.conv, self.norm, self.folded, x, self.training))


class SpikingResidualBlock(Module):
    """Basic spiking residual block (two conv-norm stages, LIF after the sum).

    The residual sum is taken on the normalized membrane currents before the
    final LIF, following the tdBN-style spiking ResNet used by the paper's
    ResNet-19 baseline.
    """

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        stride: int = 1,
        norm: str = "bn",
        tau: float = 0.5,
        v_threshold: float = 1.0,
        surrogate: Optional[SurrogateGradient] = None,
    ):
        super().__init__()
        self.conv1 = Conv2d(in_channels, out_channels, 3, stride=stride, padding=1)
        self.norm1 = _make_norm(norm, out_channels, v_threshold)
        self.lif1 = LIFNeuron(tau=tau, v_threshold=v_threshold, surrogate=surrogate)
        self.conv2 = Conv2d(out_channels, out_channels, 3, stride=1, padding=1)
        self.norm2 = _make_norm(norm, out_channels, v_threshold)
        self.lif2 = LIFNeuron(tau=tau, v_threshold=v_threshold, surrogate=surrogate)
        if stride != 1 or in_channels != out_channels:
            self.shortcut_conv = Conv2d(in_channels, out_channels, 1, stride=stride, padding=0)
            self.shortcut_norm = _make_norm(norm, out_channels, v_threshold)
            self._has_projection = True
        else:
            self.shortcut_conv = Identity()
            self.shortcut_norm = Identity()
            self._has_projection = False
        self.folded1 = fold_candidate(self.conv1, self.norm1)
        self.folded2 = fold_candidate(self.conv2, self.norm2)
        self.folded_shortcut = fold_candidate(self.shortcut_conv, self.shortcut_norm)

    def forward(self, x):
        out = self.lif1(_conv_norm_forward(self.conv1, self.norm1, self.folded1, x, self.training))
        out = _conv_norm_forward(self.conv2, self.norm2, self.folded2, out, self.training)
        shortcut = _conv_norm_forward(
            self.shortcut_conv, self.shortcut_norm, self.folded_shortcut, x, self.training
        )
        return self.lif2(out + shortcut)


def _classifier(in_features: int, num_classes: int, hidden: Optional[int] = None,
                tau: float = 0.5, v_threshold: float = 1.0,
                surrogate: Optional[SurrogateGradient] = None) -> Module:
    """Final classifier ``h``; optionally a hidden spiking linear stage."""
    if hidden is None:
        return Sequential(Flatten(), Linear(in_features, num_classes))
    return Sequential(
        Flatten(),
        Linear(in_features, hidden),
        LIFNeuron(tau=tau, v_threshold=v_threshold, surrogate=surrogate),
        Linear(hidden, num_classes),
    )


def _spatial_after_pools(input_size: int, num_pools: int) -> int:
    size = input_size
    for _ in range(num_pools):
        size = max(size // 2, 1)
    return size


@ARCHITECTURES.register("vgg")
def spiking_vgg(
    preset: str = "vgg16",
    num_classes: int = 10,
    in_channels: int = 3,
    input_size: int = 32,
    width_multiplier: float = 1.0,
    norm: str = "bn",
    tau: float = 0.5,
    v_threshold: float = 1.0,
    surrogate: Optional[SurrogateGradient] = None,
    default_timesteps: int = 4,
    encoder=None,
) -> SpikingNetwork:
    """Build a spiking VGG network.

    ``preset`` selects the stage layout (see :data:`VGG_PRESETS`);
    ``width_multiplier`` scales every stage width, which is how the benchmark
    harness shrinks VGG-16 to a CPU-trainable size without changing topology.
    """
    if preset not in VGG_PRESETS:
        raise KeyError(f"unknown VGG preset {preset!r}; available: {sorted(VGG_PRESETS)}")
    surrogate = surrogate or TriangularSurrogate()
    layers: List[Module] = []
    channels = in_channels
    num_pools = 0
    for item in VGG_PRESETS[preset]:
        if item == "M":
            layers.append(AvgPool2d(2))
            num_pools += 1
            continue
        out_channels = max(int(round(item * width_multiplier)), 4)
        layers.append(
            ConvSpikeBlock(
                channels,
                out_channels,
                norm=norm,
                tau=tau,
                v_threshold=v_threshold,
                surrogate=surrogate,
            )
        )
        channels = out_channels
    features = Sequential(*layers)
    spatial = _spatial_after_pools(input_size, num_pools)
    classifier = _classifier(channels * spatial * spatial, num_classes)
    return SpikingNetwork(
        features,
        classifier,
        default_timesteps=default_timesteps,
        encoder=encoder or DirectEncoder(),
        name=f"spiking-{preset}",
    )


@ARCHITECTURES.register("resnet")
def spiking_resnet(
    preset: str = "resnet19",
    num_classes: int = 10,
    in_channels: int = 3,
    input_size: int = 32,
    width_multiplier: float = 1.0,
    norm: str = "bn",
    tau: float = 0.5,
    v_threshold: float = 1.0,
    surrogate: Optional[SurrogateGradient] = None,
    default_timesteps: int = 4,
    encoder=None,
) -> SpikingNetwork:
    """Build a spiking ResNet (ResNet-19 by default, per the paper)."""
    if preset not in RESNET_PRESETS:
        raise KeyError(f"unknown ResNet preset {preset!r}; available: {sorted(RESNET_PRESETS)}")
    surrogate = surrogate or TriangularSurrogate()
    config = RESNET_PRESETS[preset]
    widths = [max(int(round(w * width_multiplier)), 4) for w in config["widths"]]
    blocks = list(config["blocks"])

    stem_channels = widths[0]
    layers: List[Module] = [
        ConvSpikeBlock(
            in_channels,
            stem_channels,
            norm=norm,
            tau=tau,
            v_threshold=v_threshold,
            surrogate=surrogate,
        )
    ]
    channels = stem_channels
    num_downsamples = 0
    for stage_index, (stage_blocks, stage_width) in enumerate(zip(blocks, widths)):
        for block_index in range(stage_blocks):
            stride = 2 if (block_index == 0 and stage_index > 0) else 1
            if stride == 2:
                num_downsamples += 1
            layers.append(
                SpikingResidualBlock(
                    channels,
                    stage_width,
                    stride=stride,
                    norm=norm,
                    tau=tau,
                    v_threshold=v_threshold,
                    surrogate=surrogate,
                )
            )
            channels = stage_width
    # Global average pooling to 1x1 keeps the classifier small regardless of
    # the input resolution.
    spatial = input_size
    for _ in range(num_downsamples):
        spatial = math.ceil(spatial / 2)
    layers.append(AvgPool2d(spatial))
    features = Sequential(*layers)
    classifier = _classifier(channels, num_classes)
    return SpikingNetwork(
        features,
        classifier,
        default_timesteps=default_timesteps,
        encoder=encoder or DirectEncoder(),
        name=f"spiking-{preset}",
    )


def build_architecture(family: str, **kwargs) -> SpikingNetwork:
    """Instantiate an architecture family (``vgg`` or ``resnet``) by name."""
    return ARCHITECTURES.create(family, **kwargs)
