"""Hardware configuration of the monolithic-tiled IMC chip (Table I).

:class:`HardwareConfig` collects every architectural parameter the paper
lists in Table I (crossbar size, crossbars per tile, device precision,
Ron/Roff, buffer sizes, supply/read voltages, LUT sizes) plus the per-event
energy and latency constants the analytical energy model multiplies against
event counts.  The default per-event constants are plausible 32 nm values;
:class:`repro.imc.energy.EnergyCalibrator` can rescale them so the
component-wise breakdown matches the paper's Fig. 1(A) for a reference
network, which is how the benchmark harness uses them (see DESIGN.md §7).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict

from ..utils.validation import check_non_negative, check_positive

__all__ = ["EnergyConstants", "LatencyConstants", "HardwareConfig", "ENERGY_BREAKDOWN_TARGETS"]


# Component-wise energy share reported in Fig. 1(A) for CIFAR10 VGG-16 on the
# 64x64 4-bit RRAM chip.  Used as the calibration target and by tests.
ENERGY_BREAKDOWN_TARGETS: Dict[str, float] = {
    "crossbar_adc": 0.25,
    "digital_peripherals": 0.45,
    "htree": 0.17,
    "noc": 0.09,
    "lif": 0.01,
    # The remaining ~3% in the paper's pie chart is buffer leakage folded into
    # digital peripherals here; shares are renormalized when calibrating.
}


@dataclass(frozen=True)
class EnergyConstants:
    """Per-event dynamic energies in picojoules.

    Every architectural event the simulator counts is priced by one of these
    constants.  They are grouped by the Fig. 1(A) component they belong to so
    the calibrator can rescale a whole component at once.

    Frozen (like :class:`LatencyConstants` and :class:`HardwareConfig`): the
    energy/latency models price a mapping once and remember the result, so a
    different operating point is a new object (:meth:`scaled`,
    :meth:`HardwareConfig.with_energy`), never an edit of this one.
    """

    # -- crossbar + ADC ------------------------------------------------- #
    row_activation_pj: float = 0.08      # driving one wordline for one read
    cell_read_pj: float = 0.002          # per bitcell sensed on an active row
    adc_conversion_pj: float = 1.6       # one ADC conversion (per column read)

    # -- digital peripherals (switch matrix, buffers, accumulators, S&A) - #
    switch_matrix_pj: float = 0.35       # per crossbar read operation
    buffer_access_pj: float = 0.45       # per word read/written from PE/tile buffer
    accumulator_op_pj: float = 0.25      # per partial-sum addition
    shift_add_pj: float = 0.15           # per shift-and-add combining bit slices

    # -- interconnect ---------------------------------------------------- #
    htree_transfer_pj: float = 0.9       # per word moved over the intra-tile H-tree
    noc_transfer_pj: float = 1.8         # per word moved over the inter-tile NoC

    # -- LIF module ------------------------------------------------------ #
    lif_update_pj: float = 0.05          # one membrane update + threshold compare

    # -- sigma-E module (softmax + entropy + compare; Sec. III-B) -------- #
    lut_lookup_pj: float = 0.4           # one LUT read (sigma or log sigma)
    fifo_access_pj: float = 0.1          # one FIFO push/pop
    multiplier_pj: float = 0.6           # one multiply in the entropy MAC
    comparator_pj: float = 0.05          # threshold comparison

    # -- per-inference static cost (independent of timestep count) ------- #
    input_load_pj_per_pixel: float = 4.0     # loading an input pixel into the GB
    control_setup_pj: float = 20000.0        # global control / sequencing setup

    def scaled(self, factors: Dict[str, float]) -> "EnergyConstants":
        """Return a copy with component groups scaled by ``factors``.

        ``factors`` keys follow the Fig. 1(A) component names; see
        :data:`COMPONENT_FIELDS` for the grouping.
        """
        updates: Dict[str, float] = {}
        for component, scale in factors.items():
            check_non_negative(f"scale[{component}]", scale)
            for field_name in COMPONENT_FIELDS.get(component, ()):
                updates[field_name] = getattr(self, field_name) * scale
        return replace(self, **updates)


# Mapping from Fig. 1(A) component names to the EnergyConstants fields that
# belong to them (used by the calibrator and by the breakdown report).
COMPONENT_FIELDS: Dict[str, tuple] = {
    "crossbar_adc": ("row_activation_pj", "cell_read_pj", "adc_conversion_pj"),
    "digital_peripherals": (
        "switch_matrix_pj",
        "buffer_access_pj",
        "accumulator_op_pj",
        "shift_add_pj",
    ),
    "htree": ("htree_transfer_pj",),
    "noc": ("noc_transfer_pj",),
    "lif": ("lif_update_pj",),
}


@dataclass(frozen=True)
class LatencyConstants:
    """Per-event latencies in nanoseconds."""

    crossbar_read_ns: float = 40.0     # one analog read of a crossbar (all rows settled)
    adc_conversion_ns: float = 5.0     # one ADC conversion (columns are muxed)
    accumulation_ns: float = 1.0       # one partial-sum addition
    htree_transfer_ns: float = 2.0     # one word over the H-tree
    noc_hop_ns: float = 4.0            # one word over the NoC
    lif_update_ns: float = 1.0         # one LIF membrane update
    sigma_e_check_ns: float = 50.0     # one sigma-E entropy evaluation
    input_load_ns: float = 0.0         # overlapped with compute (paper: latency ∝ T)


@dataclass(frozen=True)
class HardwareConfig:
    """Full chip configuration (Table I parameters + analytical-model constants)."""

    # ---- Table I ------------------------------------------------------- #
    technology_nm: int = 32
    crossbar_size: int = 64
    crossbars_per_tile: int = 64
    crossbars_per_pe: int = 16
    device_bits: int = 4
    weight_bits: int = 8
    r_on_ohm: float = 20e3
    r_off_on_ratio: float = 10.0
    device_variation_sigma: float = 0.20
    global_buffer_kb: float = 20.0
    tile_buffer_kb: float = 10.0
    pe_buffer_kb: float = 5.0
    vdd: float = 0.9
    v_read: float = 0.1
    sigma_lut_kb: float = 3.0
    entropy_lut_kb: float = 3.0

    # ---- activation / ADC precision ------------------------------------ #
    input_bits: int = 1                 # SNN inputs are binary spikes
    adc_bits: int = 4
    adc_share_columns: int = 8          # columns multiplexed per ADC

    # ---- analytical-model constants ------------------------------------ #
    energy: EnergyConstants = field(default_factory=EnergyConstants)
    latency: LatencyConstants = field(default_factory=LatencyConstants)

    def validate(self) -> "HardwareConfig":
        check_positive("crossbar_size", self.crossbar_size)
        check_positive("crossbars_per_tile", self.crossbars_per_tile)
        check_positive("crossbars_per_pe", self.crossbars_per_pe)
        if self.crossbars_per_tile % self.crossbars_per_pe:
            raise ValueError("crossbars_per_tile must be a multiple of crossbars_per_pe")
        check_positive("device_bits", self.device_bits)
        check_positive("weight_bits", self.weight_bits)
        if self.weight_bits % self.device_bits:
            raise ValueError("weight_bits must be a multiple of device_bits")
        check_positive("r_on_ohm", self.r_on_ohm)
        if self.r_off_on_ratio <= 1.0:
            raise ValueError("r_off_on_ratio must exceed 1")
        check_non_negative("device_variation_sigma", self.device_variation_sigma)
        check_positive("adc_share_columns", self.adc_share_columns)
        return self

    # ------------------------------------------------------------------ #
    @property
    def cells_per_weight(self) -> int:
        """Number of RRAM cells holding one weight (bit slicing)."""
        return self.weight_bits // self.device_bits

    @property
    def pes_per_tile(self) -> int:
        return self.crossbars_per_tile // self.crossbars_per_pe

    @property
    def conductance_levels(self) -> int:
        """Distinct conductance states one device can store."""
        return 2**self.device_bits

    @property
    def g_on(self) -> float:
        """Maximum (on-state) conductance in siemens."""
        return 1.0 / self.r_on_ohm

    @property
    def g_off(self) -> float:
        """Minimum (off-state) conductance in siemens."""
        return 1.0 / (self.r_on_ohm * self.r_off_on_ratio)

    def with_energy(self, energy: EnergyConstants) -> "HardwareConfig":
        """Return a copy of the config using different energy constants."""
        return replace(self, energy=energy)

    @classmethod
    def paper_default(cls) -> "HardwareConfig":
        """The Table I configuration used throughout the paper's evaluation."""
        return cls().validate()
