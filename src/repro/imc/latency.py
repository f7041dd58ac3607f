"""Analytical latency model of the IMC chip.

The paper processes timesteps **sequentially without pipelining** (Sec. III-B)
so that dynamic-timestep inference can terminate cleanly after any timestep;
as a consequence latency is proportional to the number of timesteps executed
(Fig. 1(B): 1x ... 8x for T = 1..8).  The per-timestep latency is dominated by
the serial sequence of layers; within a layer, crossbars operate in parallel
across the weight matrix but output positions are processed serially through
the shared ADCs.

A pipelined mode is included (``pipelined=True``) for the ablation discussed
in DESIGN.md: it overlaps consecutive timesteps across layers, which is
faster for static SNNs but would have to flush the pipeline on a dynamic
exit — exactly the overhead the paper's design choice avoids.
"""

from __future__ import annotations

from typing import Dict, Optional

from .config import HardwareConfig
from .mapping import ChipMapping, LayerMapping

__all__ = ["LatencyModel"]


class LatencyModel:
    """Prices the per-timestep latency of a :class:`ChipMapping` (nanoseconds)."""

    def __init__(
        self,
        mapping: ChipMapping,
        config: Optional[HardwareConfig] = None,
        pipelined: bool = False,
    ):
        self.mapping = mapping
        self.config = (config or mapping.config).validate()
        self.pipelined = pipelined
        # per_timestep_latency() by the ``pipelined`` flag it was computed
        # under — the one input that is not frozen (see EnergyModel).
        self._per_timestep: Dict[bool, float] = {}

    # ------------------------------------------------------------------ #
    def layer_latency(self, layer: LayerMapping) -> float:
        """Latency of one layer for one timestep (ns)."""
        constants = self.config.latency
        positions = float(layer.geometry.output_positions)
        # Each output position: one analog read (rows settle in parallel),
        # then the used columns are converted through the shared ADCs.
        physical_cols = layer.geometry.weight_cols * self.config.cells_per_weight
        adc_serial = (physical_cols / self.config.adc_share_columns) * constants.adc_conversion_ns
        read_time = constants.crossbar_read_ns + adc_serial
        accumulate = max(layer.row_splits - 1, 0) * constants.accumulation_ns
        transfer = (
            constants.htree_transfer_ns
            + (constants.noc_hop_ns if layer.num_tiles >= 1 else 0.0)
        )
        lif = constants.lif_update_ns
        return positions * (read_time + accumulate + transfer + lif)

    def per_timestep_latency(self) -> float:
        """Latency of one timestep: the serial sum over layers (ns).

        Summed over the layers once per instance; every later call, and so
        every ``latency(T)``, reads the remembered float.
        """
        pipelined = bool(self.pipelined)
        if pipelined not in self._per_timestep:
            layer_latencies = [self.layer_latency(layer) for layer in self.mapping.layers]
            # A perfectly balanced pipeline is limited by its slowest stage.
            self._per_timestep[pipelined] = (
                max(layer_latencies) if pipelined else sum(layer_latencies)
            )
        return self._per_timestep[pipelined]

    def sigma_e_latency(self) -> float:
        """Latency of one entropy-module exit check (ns)."""
        return self.config.latency.sigma_e_check_ns

    def latency(self, timesteps: int, include_exit_checks: bool = True) -> float:
        """Latency of one inference with ``timesteps`` timesteps (ns)."""
        if timesteps < 1:
            raise ValueError("timesteps must be >= 1")
        base = timesteps * self.per_timestep_latency() + self.config.latency.input_load_ns
        if include_exit_checks:
            base += timesteps * self.sigma_e_latency()
        if self.pipelined:
            # Pipelining overlaps timesteps but pays a fill/drain penalty of one
            # pipeline depth (the number of layers) when inference terminates.
            fill_drain = self.per_timestep_latency() * max(len(self.mapping.layers) - 1, 0)
            base += fill_drain
        return base

    def normalized_latency_curve(self, max_timesteps: int = 8) -> Dict[int, float]:
        """Latency at T = 1..max normalized to T = 1 (the Fig. 1(B) series)."""
        baseline = self.latency(1)
        return {t: self.latency(t) / baseline for t in range(1, max_timesteps + 1)}
