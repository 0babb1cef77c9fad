"""Integration tests across the whole modem->channel->receiver stack."""

import json
import sys
import threading
import time
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

import vsatlink.pipeline as pipeline_mod
from vsatlink import (
    ModemConfig,
    SalehParams,
    SatelliteChannel,
    estimate_psd,
    generate_bits,
    load_scenario,
    qam_modulate,
    theoretical_qam_ber,
    tx_shape,
)
from vsatlink.cli import EXIT_OK, EXIT_PIPELINE, main
from vsatlink.errors import PipelineError
from vsatlink.pipeline import SPECTRUM_SEGMENT_LEN, run_linkbudget, simulate


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


def _late(fn):
    """``fn`` starting 0.2 s late, as a worker that lags the chain."""
    def late(*args):
        time.sleep(0.2)
        return fn(*args)

    return late


class TestMemory:
    @pytest.mark.parametrize("name", ["kptcl-cband", "awgn-validation"])
    def test_peak_is_under_the_bound(self, name):
        # the channel output and the transmit waveform are each written in
        # place, and each is dropped after its last reader: two waveforms, a
        # few smaller arrays and the workers' block scratch are alive at the peak
        self._assert_peak_under_bound(load_scenario(name))

    def test_peak_holds_while_the_spectrum_worker_lags(self, reference_scenario, monkeypatch):
        # the transmit PSD is collected before the receiver makes a new
        # waveform, so a late worker cannot keep a third one alive
        monkeypatch.setattr(pipeline_mod, "estimate_psd", _late(estimate_psd))
        self._assert_peak_under_bound(reference_scenario)

    @pytest.mark.parametrize("name", ["kptcl-cband", "awgn-validation"])
    def test_peak_holds_while_the_noise_worker_lags(self, name, monkeypatch):
        # the noise buffer is allocated before the worker starts, so a late
        # draw holds only its block of normals beside the chain
        monkeypatch.setattr(SatelliteChannel, "draw_noise", _late(SatelliteChannel.draw_noise))
        self._assert_peak_under_bound(load_scenario(name))

    @staticmethod
    def _assert_peak_under_bound(scenario):
        bits = 200_000
        cfg = scenario.modem
        wave_bytes = tx_shape(qam_modulate(generate_bits(bits, 0), cfg), cfg).samples.nbytes
        tracemalloc.start()
        try:
            simulate(replace(scenario, total_bits=bits))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        ratio = peak / wave_bytes
        assert ratio <= 2.75, f"peak {ratio:.3f} waveforms"


def _assert_same_decisions(a, b):
    assert a.ber == b.ber
    for field in ("constellation_tx", "constellation_rx_precorrection",
                  "constellation_rx_postcorrection"):
        assert np.array_equal(getattr(a, field), getattr(b, field)), field


class TestSpectrumWorker:
    """The noise draw and the two Welch PSDs run on two worker threads that
    end with the run."""

    @pytest.mark.parametrize("name", ["kptcl-cband", "awgn-validation"])
    def test_tx_spectrum_equals_serial_estimate(self, name, monkeypatch):
        shaped = []

        def keep_tx_shape(*args):
            # a copy: simulate overwrites its waveform with the TWTA output
            wave = tx_shape(*args)
            shaped.append(wave.with_samples(wave.samples.copy()))
            return wave

        monkeypatch.setattr(pipeline_mod, "tx_shape", keep_tx_shape)
        result = simulate(replace(load_scenario(name), total_bits=20_000))
        (wave,) = shaped
        serial = estimate_psd(wave, min(SPECTRUM_SEGMENT_LEN, len(wave)))
        assert np.array_equal(result.spectrum_tx[0], serial.frequencies_hz)
        assert np.array_equal(result.spectrum_tx[1], serial.psd_w_per_hz)

    @pytest.mark.parametrize("name", ["kptcl-cband", "awgn-validation"])
    def test_two_runs_give_identical_spectra(self, name):
        # the second run switches threads every microsecond, so the noise and
        # spectrum workers interleave with every stage they overlap
        sc = replace(load_scenario(name), total_bits=20_000)
        a = simulate(sc)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            b = simulate(sc)
        finally:
            sys.setswitchinterval(interval)
        for x, y in ((a.spectrum_tx, b.spectrum_tx), (a.spectrum_rx, b.spectrum_rx)):
            assert np.array_equal(x[0], y[0])
            assert np.array_equal(x[1], y[1])
        _assert_same_decisions(a, b)

    @pytest.mark.parametrize("lagging", ["noise", "spectra"])
    @pytest.mark.parametrize("name", ["kptcl-cband", "awgn-validation"])
    def test_a_lagging_worker_changes_nothing(self, name, lagging, monkeypatch):
        # each worker is collected before any stage writes what it uses, so a
        # late one only makes the chain wait
        sc = replace(load_scenario(name), total_bits=20_000)
        reference = simulate(sc)
        if lagging == "noise":
            monkeypatch.setattr(SatelliteChannel, "draw_noise", _late(SatelliteChannel.draw_noise))
        else:
            monkeypatch.setattr(pipeline_mod, "estimate_psd", _late(estimate_psd))
        late = simulate(sc)
        _assert_same_decisions(late, reference)
        for x, y in ((late.spectrum_tx, reference.spectrum_tx),
                     (late.spectrum_rx, reference.spectrum_rx)):
            assert np.array_equal(x[1], y[1])

    @pytest.mark.parametrize("name", ["kptcl-cband", "awgn-validation"])
    def test_inline_noise_equals_the_noise_worker(self, name):
        # without spectra no thread starts and the noise is drawn inline
        sc = replace(load_scenario(name), total_bits=20_000)
        _assert_same_decisions(simulate(sc), simulate(sc, with_spectra=False))

    def test_only_a_run_with_spectra_starts_a_thread(self, awgn_scenario, monkeypatch):
        started = []
        start = threading.Thread.start

        def record_start(thread):
            started.append(thread)
            start(thread)

        monkeypatch.setattr(threading.Thread, "start", record_start)
        sc = replace(awgn_scenario, total_bits=20_000)
        result = simulate(sc, with_spectra=False)
        assert started == []
        assert result.spectrum_tx[1].size == result.spectrum_rx[1].size == 0
        before = threading.active_count()
        simulate(sc)
        # the noise draw and the spectra share two workers; whether the
        # second one starts depends on whether the first is still busy
        assert 1 <= len(started) <= 2
        assert threading.active_count() == before

    def test_thread_ends_with_a_run(self, reference_scenario):
        before = threading.active_count()
        simulate(replace(reference_scenario, total_bits=20_000))
        assert threading.active_count() == before

    def test_failing_stage_is_named_and_thread_ends(self, reference_scenario, monkeypatch):
        def boom(*args):
            raise RuntimeError("synthetic")

        monkeypatch.setattr(pipeline_mod, "rx_match", boom)
        before = threading.active_count()
        with pytest.raises(PipelineError) as info:
            simulate(replace(reference_scenario, total_bits=20_000))
        assert info.value.stage == "modem.rx_match"
        assert threading.active_count() == before

    def test_failing_spectrum_is_named_and_thread_ends(
        self, reference_scenario, monkeypatch, tmp_path
    ):
        def boom(*args):
            raise ValueError("synthetic")

        monkeypatch.setattr(pipeline_mod, "estimate_psd", boom)
        before = threading.active_count()
        with pytest.raises(PipelineError) as info:
            simulate(replace(reference_scenario, total_bits=20_000))
        assert info.value.stage == "analysis.spectra"
        assert threading.active_count() == before
        argv = ["simulate", "kptcl-cband", "--bits", "20000", "--out", str(tmp_path / "o")]
        assert main(argv) == EXIT_PIPELINE
        assert threading.active_count() == before


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
