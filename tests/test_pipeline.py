"""Integration tests across the whole modem->channel->receiver stack."""

import json
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from vsatlink import (
    ModemConfig,
    SalehParams,
    generate_bits,
    qam_modulate,
    theoretical_qam_ber,
    tx_shape,
)
from vsatlink.cli import EXIT_OK, main
from vsatlink.pipeline import run_linkbudget, simulate


class TestEndToEnd:
    def test_qpsk_awgn_tracks_theory(self, awgn_scenario):
        sc = replace(
            awgn_scenario,
            modem=ModemConfig(m_ary=4),
            target_es_n0_db=10.0,
        )
        result = simulate(replace(sc, total_bits=100_000), with_spectra=False)
        theory = theoretical_qam_ber(10.0, 4)
        assert result.ber.bit_errors > 50
        assert 0.5 <= result.ber.ber / theory <= 2.0

    def test_noiseless_linear_link_error_floor(self, reference_scenario):
        # the feed-forward gain follows a smoothed power average, so it cannot overshoot
        sc = replace(
            reference_scenario,
            saleh=SalehParams.linear(),
            impairments=replace(reference_scenario.impairments, noise_temperature_k=0.0),
        )
        result = simulate(replace(sc, total_bits=40_000), with_spectra=False)
        assert result.ber.bit_errors == 0

    def test_noiseless_linear_link_exact_without_agc(self, reference_scenario):
        sc = replace(
            reference_scenario,
            saleh=SalehParams.linear(),
            impairments=replace(reference_scenario.impairments, noise_temperature_k=0.0),
            compensation=replace(reference_scenario.compensation, agc=False),
        )
        result = simulate(replace(sc, total_bits=40_000), with_spectra=False)
        assert result.ber.bit_errors == 0

    def test_pre_and_post_correction_views_differ(self, reference_scenario):
        imp = replace(
            reference_scenario.impairments, freq_offset_hz=0.0, noise_temperature_k=0.0
        )
        comp = replace(reference_scenario.compensation, dc=False, agc=False)
        sc = replace(
            reference_scenario, impairments=imp, saleh=SalehParams.linear(),
            compensation=comp,
        )
        result = simulate(replace(sc, total_bits=40_000), with_spectra=False)
        pre = result.constellation_rx_precorrection
        post = result.constellation_rx_postcorrection
        z_pre = pre[:, 0] + 1j * pre[:, 1]
        z_post = post[:, 0] + 1j * post[:, 1]
        # pre-correction constellation carries the 15-degree tilt, post does not
        grid = np.array([complex(i, q) for i in (-3, -1, 1, 3) for q in (-3, -1, 1, 3)])
        tilted = grid * np.exp(1j * np.deg2rad(15.0))
        assert np.max([np.min(np.abs(p - tilted)) for p in z_pre]) < 0.05
        assert np.min([np.min(np.abs(p - grid)) for p in z_pre[np.abs(z_pre) > 4]]) > 0.5
        assert np.max([np.min(np.abs(p - grid)) for p in z_post]) < 0.05

    def test_uncompensated_pre_and_post_snapshots_agree(self, awgn_scenario):
        # with compensation off both snapshots filter the same waveform; the
        # pre-correction one reads only the snapshot window, so every row
        # (the last ones included) shows whether that window is long enough
        result = simulate(replace(awgn_scenario, total_bits=40_000), snapshot_points=500,
                          with_spectra=False)
        pre = result.constellation_rx_precorrection
        post = result.constellation_rx_postcorrection
        assert pre.shape == post.shape == (500, 2)
        assert np.allclose(pre, post, rtol=1e-12, atol=1e-12)

    def test_different_seeds_differ(self, awgn_scenario):
        a = simulate(replace(awgn_scenario, total_bits=40_000, seed=1), with_spectra=False)
        b = simulate(replace(awgn_scenario, total_bits=40_000, seed=2), with_spectra=False)
        assert a.ber.as_dict() != b.ber.as_dict()

    def test_run_log_reports_channel_state(self, reference_scenario):
        result = simulate(replace(reference_scenario, total_bits=20_000), with_spectra=False)
        chan = result.run_log["effective"]["channel"]
        assert chan["mode"] == "physical"
        assert chan["transponder_amp_gain_db"] == pytest.approx(256.5, abs=2.0)
        assert chan["noise_variance_w"] == pytest.approx(1.380649e-23 * 45 * 50_000, rel=1e-9)


class TestMemory:
    def test_peak_is_under_three_waveforms(self, reference_scenario):
        # the sample chain works block-wise in place and each waveform is
        # dropped after its last reader: two waveforms and a few smaller
        # arrays are alive at the peak
        bits = 200_000
        cfg = reference_scenario.modem
        wave_bytes = tx_shape(qam_modulate(generate_bits(bits, 0), cfg), cfg).samples.nbytes
        tracemalloc.start()
        try:
            simulate(replace(reference_scenario, total_bits=bits))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3 * wave_bytes, peak / wave_bytes


class TestLinkbudgetJson:
    def test_json_sidecar(self, tmp_path):
        out = tmp_path / "budget.json"
        assert main(["linkbudget", "kptcl-cband", "--json", str(out)]) == EXIT_OK
        reports = json.loads(out.read_text())
        assert [r["name"] for r in reports] == ["uplink", "downlink"]
        uplink = reports[0]
        assert uplink["rx_power_dbw"] == pytest.approx(-106.95, abs=0.01)
        assert reports[1]["path_loss_override_db"] == 217.0

    def test_reports_match_cli(self, reference_scenario):
        reports = run_linkbudget(reference_scenario)
        assert reports[0].cn_db == pytest.approx(29.55, abs=0.01)
