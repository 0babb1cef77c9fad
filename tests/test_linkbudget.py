"""Link-budget tests: Eq-style gain/loss/noise math and the dB power balance."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vsatlink import (
    AntennaSpec,
    BudgetLeg,
    LinkGeometry,
    ParameterError,
    antenna_gain_db,
    combined_cn_db,
    compute_budget,
    free_space_path_loss_db,
    noise_power_dbw,
)
from vsatlink.linkbudget import BOLTZMANN_J_PER_K, SPEED_OF_LIGHT_M_S, format_report

UPLINK_HZ = 6946e6
DOWNLINK_HZ = 4721e6
RANGE_M = 37_000e3


def independent_fspl_db(range_m: float, freq_hz: float) -> float:
    # separate composition: 20log10(4 pi R f / c)
    return 20.0 * math.log10(4.0 * math.pi * range_m * freq_hz / SPEED_OF_LIGHT_M_S)


class TestAntennaGain:
    def test_uplink_dish_matches_published_figure(self):
        g = antenna_gain_db(AntennaSpec(7.2, 0.64, 0.5), UPLINK_HZ)
        assert g == pytest.approx(52.444, abs=5e-3)  # direct evaluation
        assert abs(g - 52.48) <= 0.2  # published figure

    def test_downlink_dish_matches_published_figure(self):
        g = antenna_gain_db(AntennaSpec(1.8, 0.63, 0.5), DOWNLINK_HZ)
        assert g == pytest.approx(36.980, abs=5e-3)
        assert abs(g - 36.85) <= 0.2

    def test_unity_gain_construction(self):
        f = 1e9
        lam = SPEED_OF_LIGHT_M_S / f
        g = antenna_gain_db(AntennaSpec(lam / math.pi, 1.0), f)
        assert g == pytest.approx(0.0, abs=1e-12)

    @given(st.floats(0.5, 20.0), st.floats(1e8, 5e10), st.floats(0.1, 1.0))
    @settings(max_examples=40, deadline=None)
    def test_doubling_diameter_adds_6dB(self, d, f, eta):
        g1 = antenna_gain_db(AntennaSpec(d, eta), f)
        g2 = antenna_gain_db(AntennaSpec(2 * d, eta), f)
        assert g2 - g1 == pytest.approx(20 * math.log10(2), abs=1e-9)

    def test_invalid_inputs(self):
        with pytest.raises(ParameterError):
            AntennaSpec(0.0, 0.5)
        with pytest.raises(ParameterError):
            AntennaSpec(1.0, 1.5)
        with pytest.raises(ParameterError):
            antenna_gain_db(AntennaSpec(1.0, 0.5), -1.0)


class TestPathLoss:
    def test_uplink_value(self):
        loss = free_space_path_loss_db(LinkGeometry(RANGE_M, UPLINK_HZ))
        assert loss == pytest.approx(independent_fspl_db(RANGE_M, UPLINK_HZ), abs=1e-9)
        assert loss == pytest.approx(200.64, abs=0.01)

    def test_downlink_value(self):
        loss = free_space_path_loss_db(LinkGeometry(RANGE_M, DOWNLINK_HZ))
        assert loss == pytest.approx(197.29, abs=0.01)

    def test_zero_at_quarter_wavelength_over_pi(self):
        f = 1e9
        lam = SPEED_OF_LIGHT_M_S / f
        loss = free_space_path_loss_db(LinkGeometry(lam / (4 * math.pi), f))
        assert loss == pytest.approx(0.0, abs=1e-12)

    @given(
        r=st.floats(1e3, 1e8),
        f=st.floats(1e8, 5e10),
        factor=st.floats(1.01, 10.0),
    )
    @settings(max_examples=40, deadline=None)
    def test_strictly_increasing_in_range_and_frequency(self, r, f, factor):
        base = free_space_path_loss_db(LinkGeometry(r, f))
        assert free_space_path_loss_db(LinkGeometry(r * factor, f)) > base
        assert free_space_path_loss_db(LinkGeometry(r, f * factor)) > base


class TestNoisePower:
    def test_unity_argument(self):
        assert noise_power_dbw(1.0 / BOLTZMANN_J_PER_K, 1.0) == pytest.approx(0.0, abs=1e-9)

    def test_published_operating_point(self):
        n = noise_power_dbw(45.0, 36e6)
        assert n == pytest.approx(-136.504, abs=0.01)

    def test_doubling_bandwidth_adds_3dB(self):
        a = noise_power_dbw(45.0, 36e6)
        b = noise_power_dbw(45.0, 72e6)
        assert b - a == pytest.approx(10 * math.log10(2), abs=1e-12)

    def test_invalid(self):
        with pytest.raises(ParameterError):
            noise_power_dbw(0.0, 1.0)
        with pytest.raises(ParameterError):
            noise_power_dbw(45.0, -1.0)


def uplink_leg(**overrides):
    kwargs = dict(
        name="uplink",
        tx_power_w=2.0,
        tx_antenna_gain_db=52.48,
        rx_antenna_gain_db=38.2,
        geometry=LinkGeometry(RANGE_M, UPLINK_HZ),
        bandwidth_hz=36e6,
        system_noise_temperature_k=45.0,
    )
    kwargs.update(overrides)
    return BudgetLeg(**kwargs)


class TestComputeBudget:
    def test_reference_uplink_numbers(self):
        report = compute_budget(uplink_leg())
        assert report.eirp_dbw == pytest.approx(10 * math.log10(2) + 52.48, abs=1e-9)
        assert report.rx_power_dbw == pytest.approx(-106.95, abs=0.01)
        assert report.cn_db == pytest.approx(29.55, abs=0.01)

    def test_one_watt_contributes_zero_dbw(self):
        report = compute_budget(uplink_leg(tx_power_w=1.0))
        assert report.tx_power_dbw == pytest.approx(0.0, abs=1e-12)

    def test_exact_power_balance_identity(self):
        report = compute_budget(uplink_leg())
        assert report.rx_power_dbw == pytest.approx(
            report.eirp_dbw - report.path_loss_db + report.rx_gain_db, abs=1e-12
        )

    def test_override_used_and_computed_both_reported(self):
        report = compute_budget(uplink_leg(loss_override_db=221.0))
        assert report.path_loss_db == 221.0
        assert report.path_loss_computed_db == pytest.approx(200.64, abs=0.01)
        assert report.path_loss_override_db == 221.0
        text = format_report(report)
        assert "200.64" in text and "221.00" in text

    def test_pointing_loss_is_separate_line(self):
        spec = AntennaSpec(7.2, 0.64, pointing_loss_db=0.5)
        report = compute_budget(uplink_leg(tx_antenna_gain_db=None, tx_antenna=spec))
        gt = antenna_gain_db(spec, UPLINK_HZ)
        assert report.tx_antenna_gain_db == pytest.approx(gt)  # gain excludes pointing
        assert report.pointing_loss_db == 0.5
        assert report.eirp_dbw == pytest.approx(10 * math.log10(2) + gt - 0.5, abs=1e-12)

    def test_rx_pointing_loss_lowers_rx_power_and_cn(self):
        def report(loss_db):
            spec = AntennaSpec(1.8, 0.63, pointing_loss_db=loss_db)
            return compute_budget(uplink_leg(rx_antenna_gain_db=None, rx_antenna=spec))

        aligned, off = report(0.0), report(0.5)
        assert (aligned.rx_pointing_loss_db, off.rx_pointing_loss_db) == (0.0, 0.5)
        assert off.rx_gain_db == aligned.rx_gain_db  # gain excludes pointing
        assert off.eirp_dbw == aligned.eirp_dbw
        assert aligned.rx_power_dbw - off.rx_power_dbw == pytest.approx(0.5, abs=1e-12)
        assert aligned.cn_db - off.cn_db == pytest.approx(0.5, abs=1e-12)
        assert "Rx pointing loss" in format_report(off) and "0.50 dB" in format_report(off)
        assert compute_budget(uplink_leg()).rx_pointing_loss_db == 0.0  # explicit gain

    @given(
        pt=st.floats(0.1, 1000.0),
        gt=st.floats(0.0, 70.0),
        gr=st.floats(0.0, 70.0),
        r=st.floats(1e5, 1e8),
        f=st.floats(1e9, 3e10),
    )
    @settings(max_examples=50, deadline=None)
    def test_db_linear_duality(self, pt, gt, gr, r, f):
        """The dB balance equals the linear product form within 1e-9 dB."""
        leg = uplink_leg(
            tx_power_w=pt,
            tx_antenna_gain_db=gt,
            rx_antenna_gain_db=gr,
            geometry=LinkGeometry(r, f),
        )
        report = compute_budget(leg)
        lam = SPEED_OF_LIGHT_M_S / f
        pr_linear = (
            pt * 10 ** (gt / 10) * 10 ** (gr / 10) * lam**2 / (4 * math.pi * r) ** 2
        )
        assert report.rx_power_dbw == pytest.approx(10 * math.log10(pr_linear), abs=1e-9)

    @pytest.mark.parametrize("side", ["tx", "rx"])
    def test_antenna_choice_is_exclusive(self, side):
        with pytest.raises(ParameterError, match=f"{side}_antenna"):
            uplink_leg(**{f"{side}_antenna": AntennaSpec(1.8, 0.63)})  # both provided
        with pytest.raises(ParameterError, match=f"{side}_antenna"):
            uplink_leg(**{f"{side}_antenna_gain_db": None})  # neither provided


class TestCombinedCn:
    def test_reciprocal_sum(self):
        # equal legs lose 3.01 dB; a dominant-noise leg pins the total
        assert combined_cn_db(20.0, 20.0) == pytest.approx(20 - 10 * math.log10(2), abs=1e-9)
        assert combined_cn_db(50.0, 10.0) == pytest.approx(10.0, abs=0.05)

    def test_channel_chain_matches_budget_terms(self, reference_scenario):
        """The simulation chain's dB terms equal the budget tables' entries."""
        gains = reference_scenario.gains
        legs = {leg.name: leg for leg in reference_scenario.budget_legs}
        assert legs["uplink"].tx_antenna_gain_db == gains.tx_dish_gain_db
        assert legs["uplink"].rx_antenna_gain_db == gains.sat_rx_gain_db
        assert legs["downlink"].tx_antenna_gain_db == gains.sat_tx_gain_db
        assert legs["downlink"].loss_override_db == gains.downlink_loss_db
        assert gains.uplink_loss_db == 221.0 and gains.downlink_loss_db == 217.0
        # downlink rx dish spec reproduces the published receive gain
        gr = antenna_gain_db(legs["downlink"].rx_antenna, DOWNLINK_HZ)
        assert abs(gr - gains.rx_dish_gain_db) <= 0.2
