"""Tests for the energy/latency models, calibration, area and sigma-E module."""

import dataclasses

import numpy as np
import pytest

from repro.imc import (
    AreaModel,
    ChipMapping,
    ENERGY_BREAKDOWN_TARGETS,
    EnergyCalibrator,
    EnergyModel,
    HardwareConfig,
    IMCChip,
    LatencyModel,
    SigmaEModuleModel,
)
from repro.serve.batcher import price_request
from repro.snn import spiking_vgg
from repro.utils import seed_everything


@pytest.fixture(scope="module")
def mapping():
    seed_everything(55)
    model = spiking_vgg("vgg5", num_classes=10, input_size=16, width_multiplier=0.25,
                        default_timesteps=2)
    sample = np.random.default_rng(1).random((4, 3, 16, 16)).astype(np.float32)
    return ChipMapping.from_network(model, sample, timesteps=2)


@pytest.fixture(scope="module")
def chip(mapping):
    config = EnergyCalibrator().calibrate(mapping)
    return IMCChip(mapping=mapping, config=config, num_classes=10)


class TestEnergyModel:
    def test_breakdown_components_positive(self, mapping):
        breakdown = EnergyModel(mapping).per_timestep_breakdown()
        assert breakdown.crossbar_adc > 0
        assert breakdown.digital_peripherals > 0
        assert breakdown.htree > 0
        assert breakdown.noc > 0
        assert breakdown.lif > 0

    def test_shares_sum_to_one(self, mapping):
        shares = EnergyModel(mapping).per_timestep_breakdown().shares()
        assert sum(shares.values()) == pytest.approx(1.0)

    def test_energy_affine_in_timesteps(self, mapping):
        model = EnergyModel(mapping)
        e1, e2, e3 = model.energy(1), model.energy(2), model.energy(3)
        assert e2 - e1 == pytest.approx(e3 - e2, rel=1e-9)
        assert e2 - e1 == pytest.approx(model.per_timestep_energy(), rel=1e-9)

    def test_static_energy_independent_of_timesteps(self, mapping):
        model = EnergyModel(mapping)
        assert model.energy(5) - 5 * model.per_timestep_energy() == pytest.approx(
            model.static_energy(), rel=1e-9
        )

    def test_invalid_timesteps(self, mapping):
        with pytest.raises(ValueError):
            EnergyModel(mapping).energy(0)


class TestCalibration:
    def test_component_shares_match_figure_1a(self, mapping):
        config = EnergyCalibrator().calibrate(mapping)
        shares = EnergyModel(mapping, config).per_timestep_breakdown().shares()
        normalizer = sum(ENERGY_BREAKDOWN_TARGETS.values())
        for component, target in ENERGY_BREAKDOWN_TARGETS.items():
            assert shares[component] == pytest.approx(target / normalizer, abs=1e-6)

    def test_static_fraction_matches_figure_1b(self, mapping):
        config = EnergyCalibrator(static_fraction=0.4).calibrate(mapping)
        model = EnergyModel(mapping, config)
        assert model.static_fraction() == pytest.approx(0.4, abs=1e-6)

    def test_energy_curve_matches_paper_series(self, mapping):
        # Fig. 1(B): normalized energy 1.0, 1.4, 2.0, ..., 4.9 for T = 1..8
        config = EnergyCalibrator(static_fraction=0.4).calibrate(mapping)
        curve = EnergyModel(mapping, config).normalized_energy_curve(8)
        paper = {1: 1.0, 2: 1.6, 3: 2.2, 4: 2.8, 5: 3.4, 6: 4.0, 7: 4.6, 8: 5.2}
        # The paper rounds to one decimal (1.0, 1.4, 2.0, 2.6, ...); our affine
        # model with static fraction 0.4 gives E(T)/E(1) = 0.4 + 0.6T which is
        # within 0.3 of every reported point.
        for t, value in paper.items():
            assert curve[t] == pytest.approx(0.4 + 0.6 * t, rel=1e-6)
            assert abs(curve[t] - value) < 0.35

    def test_custom_targets(self, mapping):
        targets = {"crossbar_adc": 0.5, "digital_peripherals": 0.3, "htree": 0.1, "noc": 0.05, "lif": 0.05}
        config = EnergyCalibrator(targets=targets).calibrate(mapping)
        shares = EnergyModel(mapping, config).per_timestep_breakdown().shares()
        assert shares["crossbar_adc"] == pytest.approx(0.5, abs=1e-6)

    def test_invalid_static_fraction(self):
        with pytest.raises(ValueError):
            EnergyCalibrator(static_fraction=1.0)

    def test_unknown_component_rejected(self, mapping):
        with pytest.raises(KeyError):
            EnergyCalibrator(targets={"gpu": 1.0}).calibrate(mapping)


class TestLatencyModel:
    def test_latency_linear_in_timesteps(self, mapping):
        model = LatencyModel(mapping)
        curve = model.normalized_latency_curve(8)
        # Fig. 1(B): latency is T x the single-timestep latency.
        for t in range(1, 9):
            assert curve[t] == pytest.approx(float(t), rel=1e-6)

    def test_per_timestep_latency_positive(self, mapping):
        assert LatencyModel(mapping).per_timestep_latency() > 0

    def test_pipelined_mode_faster_per_timestep_for_static(self, mapping):
        sequential = LatencyModel(mapping, pipelined=False)
        pipelined = LatencyModel(mapping, pipelined=True)
        assert pipelined.per_timestep_latency() <= sequential.per_timestep_latency()

    def test_pipelined_mode_pays_fill_drain_penalty(self, mapping):
        # For a single timestep (the DT-SNN common case) the non-pipelined
        # design is at least as fast, which is the paper's design rationale.
        sequential = LatencyModel(mapping, pipelined=False)
        pipelined = LatencyModel(mapping, pipelined=True)
        assert pipelined.latency(1) >= sequential.latency(1) * 0.99

    def test_invalid_timesteps(self, mapping):
        with pytest.raises(ValueError):
            LatencyModel(mapping).latency(0)


class TestSigmaEModule:
    def test_energy_scales_with_classes(self):
        config = HardwareConfig.paper_default()
        small = SigmaEModuleModel(config, num_classes=10).energy_per_check()
        large = SigmaEModuleModel(config, num_classes=100).energy_per_check()
        assert large > small

    def test_overhead_negligible(self, chip):
        # Paper: sigma-E energy is ~2e-5 of one timestep of inference.
        assert chip.sigma_e_overhead() < 1e-3

    def test_storage_fits_table_one_luts(self):
        module = SigmaEModuleModel(HardwareConfig.paper_default(), num_classes=10)
        assert module.fits_lut_budget()

    def test_quantized_entropy_close_to_float(self):
        module = SigmaEModuleModel(HardwareConfig.paper_default(), num_classes=10)
        rng = np.random.default_rng(0)
        logits = rng.normal(0, 3, size=(50, 10))
        from repro.core import normalized_entropy, softmax_probabilities

        exact = normalized_entropy(softmax_probabilities(logits))
        quantized = module.quantized_entropy(logits)
        assert np.abs(exact - quantized).max() < 0.05

    def test_hardware_decision_matches_software_mostly(self):
        module = SigmaEModuleModel(HardwareConfig.paper_default(), num_classes=10)
        rng = np.random.default_rng(1)
        logits = rng.normal(0, 3, size=(200, 10))
        from repro.core import EntropyExitPolicy

        software = EntropyExitPolicy(threshold=0.2).should_exit(logits)
        hardware = module.should_exit(logits, threshold=0.2)
        agreement = np.mean(software == hardware)
        assert agreement > 0.97

    def test_invalid_threshold(self):
        module = SigmaEModuleModel(HardwareConfig.paper_default())
        with pytest.raises(ValueError):
            module.should_exit(np.zeros((1, 10)), threshold=2.0)

    def test_relative_overhead_validates_input(self):
        module = SigmaEModuleModel(HardwareConfig.paper_default())
        with pytest.raises(ValueError):
            module.relative_overhead(0.0)


class TestIMCChip:
    def test_cost_model_protocol(self, chip):
        assert chip.energy(2) > chip.energy(1)
        assert chip.latency(2) > chip.latency(1)
        assert chip.edp(4) == pytest.approx(chip.energy(4) * chip.latency(4))

    def test_energy_curve_shape(self, chip):
        curve = chip.normalized_energy_curve(8)
        assert curve[1] == pytest.approx(1.0)
        assert curve[8] == pytest.approx(0.4 + 0.6 * 8, rel=0.02)

    def test_latency_curve_shape(self, chip):
        curve = chip.normalized_latency_curve(8)
        assert curve[8] == pytest.approx(8.0, rel=0.02)

    def test_summary_keys(self, chip):
        summary = chip.summary()
        assert {"total_crossbars", "per_timestep_energy_pj", "sigma_e_overhead"} <= set(summary)

    def test_from_network_constructor(self):
        seed_everything(60)
        model = spiking_vgg("tiny", num_classes=10, input_size=8, default_timesteps=2)
        sample = np.random.default_rng(2).random((2, 3, 8, 8)).astype(np.float32)
        chip = IMCChip.from_network(model, sample, num_classes=10)
        shares = chip.energy_breakdown_shares()
        assert shares["digital_peripherals"] == pytest.approx(0.45 / 0.97, abs=1e-3)

    def test_exit_checks_add_energy(self, mapping):
        config = EnergyCalibrator().calibrate(mapping)
        with_checks = IMCChip(mapping=mapping, config=config, include_exit_checks=True)
        without_checks = IMCChip(mapping=mapping, config=config, include_exit_checks=False)
        assert with_checks.energy(4) > without_checks.energy(4)
        # ... but only barely (the Sec. III-B claim).
        assert with_checks.energy(4) / without_checks.energy(4) < 1.001


def _uncached_energy(chip, timesteps):
    """``IMCChip.energy`` as it was computed before the models remembered
    anything: every event total re-summed and re-priced, term by term in the
    same order — the frozen reference the memo must match bit for bit."""
    events = chip.mapping.event_totals()
    constants, size = chip.config.energy, chip.config.crossbar_size
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
    per_timestep = crossbar_adc + digital + htree + noc + lif
    static = (chip.mapping.input_pixels * constants.input_load_pj_per_pixel
              + constants.control_setup_pj)
    base = static + timesteps * per_timestep
    if chip.include_exit_checks:
        base += timesteps * chip.sigma_e.energy_per_check()
    return base


def _uncached_latency(chip, timesteps):
    model = chip.latency_model
    latencies = [model.layer_latency(layer) for layer in chip.mapping.layers]
    per_timestep = max(latencies) if chip.pipelined else sum(latencies)
    base = timesteps * per_timestep + chip.config.latency.input_load_ns
    if chip.include_exit_checks:
        base += timesteps * chip.config.latency.sigma_e_check_ns
    if chip.pipelined:
        base += per_timestep * max(len(chip.mapping.layers) - 1, 0)
    return base


class TestPricingIsBitwise:
    """The cost model prices a mapping once and serves ``energy(T)`` /
    ``latency(T)`` from what it remembered; nothing about the numbers may
    move, and the memo must not be able to go stale."""

    @pytest.mark.parametrize("pipelined", [False, True])
    @pytest.mark.parametrize("include_exit_checks", [False, True])
    def test_memoised_costs_equal_the_uncached_arithmetic(self, mapping, pipelined,
                                                          include_exit_checks):
        config = EnergyCalibrator().calibrate(mapping)
        chip = IMCChip(mapping=mapping, config=config, pipelined=pipelined,
                       include_exit_checks=include_exit_checks)
        for _ in range(2):  # the first pass fills the memo, the second reads it
            for t in range(1, 17):
                energy, latency = _uncached_energy(chip, t), _uncached_latency(chip, t)
                assert chip.energy(t) == energy
                assert chip.latency(t) == latency
                assert chip.edp(t) == energy * latency

    def test_price_request_is_the_benchmarks_own_product(self, chip):
        # perf/worker.py forms edp_by_exit exactly like this.
        for t in range(1, 9):
            energy, edp = price_request(chip, t)
            assert energy == float(chip.energy(t))
            assert edp == float(chip.energy(t)) * float(chip.latency(t))
        assert price_request(None, 3) == (None, None)

    def test_the_constants_the_memo_read_are_frozen(self, chip):
        config = chip.config
        for frozen, name in ((config, "crossbar_size"), (config, "energy"),
                             (config.energy, "adc_conversion_pj"),
                             (config.latency, "crossbar_read_ns"),
                             (chip.energy_model.per_timestep_breakdown(), "noc")):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(frozen, name, getattr(frozen, name))
        # A different operating point is a new object, priced afresh.
        doubled = config.with_energy(config.energy.scaled({"noc": 2.0}))
        assert doubled.energy.noc_transfer_pj == 2.0 * config.energy.noc_transfer_pj
        assert EnergyModel(chip.mapping, doubled).energy(2) > chip.energy_model.energy(2)

    def test_latency_memo_follows_the_pipelined_flag(self, mapping):
        model = LatencyModel(mapping, pipelined=False)
        sequential = model.latency(3)
        model.pipelined = True
        assert model.latency(3) == LatencyModel(mapping, pipelined=True).latency(3)
        model.pipelined = False
        assert model.latency(3) == sequential

    def test_events_are_totalled_once_per_model(self, mapping, monkeypatch):
        calls = []
        original = ChipMapping.event_totals

        def counting(self):
            calls.append(self)
            return original(self)

        monkeypatch.setattr(ChipMapping, "event_totals", counting)
        model = EnergyModel(mapping)
        for t in range(1, 17):
            model.energy(t)
        model.per_timestep_breakdown().shares()
        model.static_fraction()
        model.normalized_energy_curve(8)
        assert len(calls) == 1
        EnergyModel(mapping).energy(1)  # ... per instance: nothing is shared
        assert len(calls) == 2


class TestAreaModel:
    def test_breakdown_positive_and_consistent(self, mapping):
        breakdown = AreaModel(mapping).breakdown()
        parts = [v for k, v in breakdown.items() if k != "total"]
        assert all(v > 0 for v in parts)
        assert breakdown["total"] == pytest.approx(sum(parts))

    def test_sigma_e_area_is_small(self, mapping):
        assert AreaModel(mapping).sigma_e_fraction() < 0.1
