"""Analytical energy model of the IMC chip.

Energy for one inference with ``T`` timesteps decomposes as

    E(T) = E_static + T * E_dynamic

where ``E_dynamic`` is the per-timestep energy (crossbar + ADC reads, digital
peripherals, H-Tree, NoC, LIF module — the Fig. 1(A) components) and
``E_static`` is the per-inference cost that does not repeat with timesteps
(loading the input into the global buffer, control setup).  The paper's
Fig. 1(B) measurement — normalized energy 1.0, 1.4, 2.0, 2.6, ... for
T = 1..8 — corresponds to ``E_static ≈ 0.4`` and ``E_dynamic ≈ 0.6`` of the
one-timestep total, and that ratio together with the Fig. 1(A) component
shares is what :class:`EnergyCalibrator` reproduces for a reference mapping.

All energies are reported in picojoules (the unit of the per-event constants
in :class:`~repro.imc.config.EnergyConstants`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from .config import COMPONENT_FIELDS, ENERGY_BREAKDOWN_TARGETS, EnergyConstants, HardwareConfig
from .mapping import ChipMapping

__all__ = ["EnergyBreakdown", "EnergyModel", "EnergyCalibrator"]


@dataclass(frozen=True)
class EnergyBreakdown:
    """Per-component energy of one timestep (picojoules)."""

    crossbar_adc: float
    digital_peripherals: float
    htree: float
    noc: float
    lif: float

    def total(self) -> float:
        return self.crossbar_adc + self.digital_peripherals + self.htree + self.noc + self.lif

    def shares(self) -> Dict[str, float]:
        total = self.total()
        if total <= 0:
            raise ValueError("energy breakdown total must be positive")
        return {
            "crossbar_adc": self.crossbar_adc / total,
            "digital_peripherals": self.digital_peripherals / total,
            "htree": self.htree / total,
            "noc": self.noc / total,
            "lif": self.lif / total,
        }

    def as_dict(self) -> Dict[str, float]:
        return {
            "crossbar_adc": self.crossbar_adc,
            "digital_peripherals": self.digital_peripherals,
            "htree": self.htree,
            "noc": self.noc,
            "lif": self.lif,
            "total": self.total(),
        }


class EnergyModel:
    """Prices the event counts of a :class:`ChipMapping`.

    The mapping is priced once, at construction: ``E(T)`` is affine in ``T``,
    so the serving path's per-request ``energy(T)`` is two remembered floats
    and one multiply-add, not a re-summation of every layer's events.  The
    constants the memo read are frozen (:mod:`repro.imc.config`), so it
    cannot go stale behind a caller's back.
    """

    def __init__(self, mapping: ChipMapping, config: Optional[HardwareConfig] = None):
        self.mapping = mapping
        self.config = (config or mapping.config).validate()
        constants = self.config.energy
        self._breakdown = self._price_events()
        self._per_timestep = self._breakdown.total()
        self._static = (
            mapping.input_pixels * constants.input_load_pj_per_pixel
            + constants.control_setup_pj
        )

    # ------------------------------------------------------------------ #
    def per_timestep_breakdown(self) -> EnergyBreakdown:
        """Dynamic energy of one timestep, split by Fig. 1(A) component."""
        return self._breakdown

    def _price_events(self) -> EnergyBreakdown:
        events = self.mapping.event_totals()
        constants = self.config.energy
        size = self.config.crossbar_size

        crossbar_adc = (
            events["row_activations"] * constants.row_activation_pj
            + events["row_activations"] * size * constants.cell_read_pj
            + events["adc_conversions"] * constants.adc_conversion_pj
        )
        digital = (
            events["crossbar_reads"] * constants.switch_matrix_pj
            + events["buffer_accesses"] * constants.buffer_access_pj
            + events["accumulator_ops"] * constants.accumulator_op_pj
            + events["shift_add_ops"] * constants.shift_add_pj
        )
        htree = events["htree_transfers"] * constants.htree_transfer_pj
        noc = events["noc_transfers"] * constants.noc_transfer_pj
        lif = events["lif_updates"] * constants.lif_update_pj
        return EnergyBreakdown(
            crossbar_adc=crossbar_adc,
            digital_peripherals=digital,
            htree=htree,
            noc=noc,
            lif=lif,
        )

    def per_timestep_energy(self) -> float:
        """Total dynamic energy of one timestep (pJ)."""
        return self._per_timestep

    def static_energy(self) -> float:
        """Per-inference energy independent of the number of timesteps (pJ)."""
        return self._static

    def energy(self, timesteps: int) -> float:
        """Total energy of one inference with ``timesteps`` timesteps (pJ)."""
        if timesteps < 1:
            raise ValueError("timesteps must be >= 1")
        return self.static_energy() + timesteps * self.per_timestep_energy()

    def normalized_energy_curve(self, max_timesteps: int = 8) -> Dict[int, float]:
        """Energy at T = 1..max normalized to T = 1 (the Fig. 1(B) series)."""
        baseline = self.energy(1)
        return {t: self.energy(t) / baseline for t in range(1, max_timesteps + 1)}

    def static_fraction(self) -> float:
        """Share of the 1-timestep inference energy that is static."""
        return self.static_energy() / self.energy(1)


class EnergyCalibrator:
    """Rescales the per-event constants to match the paper's measurements.

    Two calibrations are applied for a *reference* mapping (the spiking
    VGG-16 used in Fig. 1):

    1. Component shares — each Fig. 1(A) component's constants are scaled so
       its share of the per-timestep dynamic energy equals the target
       (digital peripherals 45%, crossbar+ADC 25%, H-Tree 17%, NoC 9%,
       LIF 1%).
    2. Static/dynamic split — the per-inference static constants are scaled
       so the static energy is ``static_fraction`` of the one-timestep total
       (0.4, implied by Fig. 1(B)).

    The calibrated constants are then reused, unchanged, for every other
    network/dataset in the evaluation — mirroring how the paper calibrates
    NeuroSim once for its technology node.
    """

    def __init__(
        self,
        targets: Optional[Dict[str, float]] = None,
        static_fraction: float = 0.4,
    ):
        self.targets = dict(targets or ENERGY_BREAKDOWN_TARGETS)
        if not 0.0 <= static_fraction < 1.0:
            raise ValueError("static_fraction must be in [0, 1)")
        total = sum(self.targets.values())
        if total <= 0:
            raise ValueError("calibration targets must sum to a positive value")
        self.targets = {key: value / total for key, value in self.targets.items()}
        self.static_fraction = static_fraction

    def calibrate(self, mapping: ChipMapping, config: Optional[HardwareConfig] = None) -> HardwareConfig:
        """Return a new config whose constants reproduce the targets on ``mapping``."""
        config = (config or mapping.config).validate()
        model = EnergyModel(mapping, config)
        breakdown = model.per_timestep_breakdown().as_dict()
        dynamic_total = breakdown["total"]

        factors: Dict[str, float] = {}
        for component, target_share in self.targets.items():
            if component not in COMPONENT_FIELDS:
                raise KeyError(f"unknown component {component!r}")
            current = breakdown[component]
            if current <= 0:
                raise ValueError(
                    f"component {component!r} has zero energy on the reference mapping; "
                    "cannot calibrate"
                )
            factors[component] = target_share * dynamic_total / current
        calibrated_energy = config.energy.scaled(factors)

        # After component scaling the dynamic total is unchanged (shares are a
        # partition of the same total), so scale the static constants to hit
        # the requested static fraction of the one-timestep energy:
        #   static = f/(1-f) * dynamic_total
        calibrated_config = config.with_energy(calibrated_energy)
        interim_model = EnergyModel(mapping, calibrated_config)
        desired_static = self.static_fraction / (1.0 - self.static_fraction) * (
            interim_model.per_timestep_energy()
        )
        current_static = interim_model.static_energy()
        if current_static <= 0:
            raise ValueError("static energy is zero; cannot calibrate static fraction")
        static_scale = desired_static / current_static
        final_energy = EnergyConstants(
            **{
                **calibrated_energy.__dict__,
                "input_load_pj_per_pixel": calibrated_energy.input_load_pj_per_pixel * static_scale,
                "control_setup_pj": calibrated_energy.control_setup_pj * static_scale,
            }
        )
        return config.with_energy(final_energy)
