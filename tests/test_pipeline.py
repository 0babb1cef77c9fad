"""Integration tests across the whole modem->channel->receiver stack."""

import json
import sys
import threading
import time
import tracemalloc
from dataclasses import asdict, replace

import numpy as np
import pytest

import vsatlink.pipeline as pipeline_mod
from vsatlink import (
    AutomaticGainControl,
    DcOffsetCompensator,
    ModemConfig,
    SalehParams,
    SatelliteChannel,
    constellation_snapshot,
    estimate_psd,
    generate_bits,
    load_scenario,
    measure_ber,
    phase_freq_correct,
    qam_demodulate,
    qam_modulate,
    rx_match,
    theoretical_qam_ber,
    tx_shape,
)
from vsatlink import frames
from vsatlink.analysis import WelchSum
from vsatlink.channel import _NoiseAhead
from vsatlink.cli import EXIT_OK, EXIT_PIPELINE, main
from vsatlink.errors import PipelineError
from vsatlink.frames import PowerSum
from vsatlink.modem import tx_samples
from vsatlink.pipeline import (
    SNAPSHOT_POINTS_DEFAULT,
    SPECTRUM_SEGMENT_LEN,
    derive_seed,
    run_linkbudget,
    simulate,
)
from vsatlink.scenario import run_bits


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


def _late_once(fn):
    """``fn`` whose first call on each object starts 0.2 s late, as a worker
    that lags the chain."""
    def late(self, *args, **kwargs):
        if not getattr(self, "_lagged", False):
            self._lagged = True
            time.sleep(0.2)
        return fn(self, *args, **kwargs)

    return late


def _lag(monkeypatch, worker):
    """Make ``worker`` start 0.2 s late: the noise worker, the two Welch sums
    (both taps), or the transmit tap, which sums the input power first."""
    if worker == "noise":
        monkeypatch.setattr(_NoiseAhead, "_produce", _late_once(_NoiseAhead._produce))
    elif worker == "spectra":
        monkeypatch.setattr(WelchSum, "add", _late_once(WelchSum.add))
    else:
        monkeypatch.setattr(PowerSum, "add", _late_once(PowerSum.add))


def _waveform_bytes(scenario, bits):
    cfg = scenario.modem
    return tx_samples(run_bits(bits, cfg.bits_per_symbol) // cfg.bits_per_symbol, cfg) * 16


def _peak(scenario, bits):
    """The tracemalloc peak of one ``simulate`` of ``bits`` bits."""
    tracemalloc.start()
    try:
        simulate(replace(scenario, total_bits=bits))
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestMemory:
    """``awgn-validation`` streams: no waveform-sized array exists, so its
    peak does not grow with the run.  ``kptcl-cband`` holds its TWTA output
    (the plan and the AGC need the run's powers first): one waveform plus
    the chain's block scratch."""

    def test_streamed_peak_does_not_grow_with_the_run(self, awgn_scenario):
        small, large = _peak(awgn_scenario, 1_000_000), _peak(awgn_scenario, 4_000_000)
        assert large <= 1.1 * small, f"{small / 1e6:.2f} MB -> {large / 1e6:.2f} MB"
        assert small <= 0.75 * _waveform_bytes(awgn_scenario, 1_000_000)

    # a short run is where the chain's block scratch weighs most
    @pytest.mark.parametrize("bits, bound", [(200_000, 2.25), (1_000_000, 1.3)])
    def test_held_peak_is_one_waveform_and_block_scratch(self, reference_scenario, bits, bound):
        ratio = _peak(reference_scenario, bits) / _waveform_bytes(reference_scenario, bits)
        assert ratio <= bound, f"peak {ratio:.3f} waveforms"

    @pytest.mark.parametrize("worker", ["noise", "spectra", "tx-tap"])
    @pytest.mark.parametrize("name", ["kptcl-cband", "awgn-validation"])
    def test_peak_holds_while_a_worker_lags(self, name, worker, monkeypatch):
        # a late worker holds up the chain at its full queue, not memory
        scenario = load_scenario(name)
        _lag(monkeypatch, worker)
        ratio = _peak(scenario, 1_000_000) / _waveform_bytes(scenario, 1_000_000)
        assert ratio <= (1.3 if name == "kptcl-cband" else 0.75), f"peak {ratio:.3f} waveforms"


def _assert_same_decisions(a, b):
    assert a.ber == b.ber
    for field in ("constellation_tx", "constellation_rx_precorrection",
                  "constellation_rx_postcorrection"):
        assert np.array_equal(getattr(a, field), getattr(b, field)), field


def _composed(scenario, points):
    """What ``simulate`` computes, from the public whole-frame stages."""
    cfg = scenario.modem
    bits = generate_bits(run_bits(scenario.total_bits, cfg.bits_per_symbol),
                         derive_seed(scenario.seed, 1))
    symbols = qam_modulate(bits, cfg)
    wave = tx_shape(symbols, cfg)
    imp = replace(scenario.impairments, seed=derive_seed(scenario.seed, 2))
    channel = SatelliteChannel(scenario.gains, scenario.saleh, imp, mode=scenario.mode,
                               target_es_n0_db=scenario.target_es_n0_db,
                               reference_symbol_power=cfg.mean_symbol_power)
    rx, plan = channel.run(wave)
    comp = scenario.compensation
    if comp.dc:
        rx = DcOffsetCompensator().process(rx)
    if comp.agc:
        rx = AutomaticGainControl(plan.input_power_w + plan.noise_variance_w).process(rx)
    skip = 2 * cfg.filter_span_symbols
    pre = rx_match(rx.with_samples(rx.samples[: (skip + points) * cfg.samples_per_symbol]), cfg)
    corrected = rx
    if comp.phase_freq:
        corrected = phase_freq_correct(rx, imp.phase_offset_deg, imp.freq_offset_hz)
    post = rx_match(corrected, cfg)
    shown = slice(skip, skip + points)
    seg = min(SPECTRUM_SEGMENT_LEN, len(wave))
    return {
        "ber": measure_ber(bits, qam_demodulate(post, cfg), cfg.filter_span_symbols * 4),
        "plan": asdict(plan),
        "constellation_tx": constellation_snapshot(symbols, points),
        "constellation_rx_precorrection": constellation_snapshot(
            pre.with_samples(pre.samples[shown]), points),
        "constellation_rx_postcorrection": constellation_snapshot(
            post.with_samples(post.samples[shown]), points),
        "spectrum_tx": estimate_psd(wave, seg),
        "spectrum_rx": estimate_psd(rx, seg),
    }


# Symbol counts whose waveform ((n + 30) * 8 samples) ends just before, on
# and just after a block of 65536 or 4099 samples (eight blocks make a
# multiple of 8), and whose transmit filter output (n + 30 rows) or receive
# filter output (n + 60 symbols) ends at the edge of a 2018-row overlap-save
# segment; with the default 1024 snapshot points and with more than the run.
STREAM_EDGES = [
    (65536, n) for n in (8161, 8162, 8163, 2 * 2018 - 31, 2 * 2018 - 30, 3 * 2018 - 59)
] + [
    (4099, n) for n in (4098, 4099, 4100, 3 * 2018 - 61, 3 * 2018 - 60, 2 * 2018 - 29)
]


class TestStreaming:
    """``simulate`` runs one chain of blocks; it must equal the public
    whole-frame stages composed, bit for bit, whatever the block size and
    wherever the run ends against the blocks and filter segments."""

    @pytest.mark.parametrize("block, symbols", STREAM_EDGES)
    @pytest.mark.parametrize("name", ["kptcl-cband", "awgn-validation"])
    def test_simulate_equals_the_composed_stages(self, name, block, symbols, monkeypatch):
        monkeypatch.setattr(frames, "BLOCK_SAMPLES", block)
        points = 10**6 if symbols % 2 else SNAPSHOT_POINTS_DEFAULT
        scenario = replace(load_scenario(name), total_bits=4 * symbols)
        result = simulate(scenario, snapshot_points=points)
        expected = _composed(scenario, points)
        assert result.ber == expected["ber"]
        effective = result.run_log["effective"]
        assert effective["channel"] == expected["plan"]
        assert effective["tx_waveform_power_w"] == expected["plan"]["input_power_w"]
        assert effective["agc_reference_power"] == (expected["plan"]["input_power_w"]
                                                    + expected["plan"]["noise_variance_w"])
        for field in ("constellation_tx", "constellation_rx_precorrection",
                      "constellation_rx_postcorrection"):
            assert np.array_equal(getattr(result, field), expected[field]), field
        for field in ("spectrum_tx", "spectrum_rx"):
            freqs, psd = getattr(result, field)
            assert np.array_equal(freqs, expected[field].frequencies_hz), field
            assert np.array_equal(psd, expected[field].psd_w_per_hz), field

    @pytest.mark.parametrize("name", ["kptcl-cband", "awgn-validation"])
    def test_block_size_changes_nothing(self, name, monkeypatch):
        scenario = replace(load_scenario(name), total_bits=40_000)
        default = simulate(scenario)
        monkeypatch.setattr(frames, "BLOCK_SAMPLES", 1000)
        small = simulate(scenario)
        _assert_same_decisions(small, default)
        assert small.run_log == default.run_log
        for x, y in ((small.spectrum_tx, default.spectrum_tx),
                     (small.spectrum_rx, default.spectrum_rx)):
            assert np.array_equal(x[1], y[1])


class TestSpectrumWorker:
    """The noise draw and the two Welch sums run on two worker threads that
    end with the run."""

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

    @pytest.mark.parametrize("lagging", ["noise", "spectra", "tx-tap"])
    @pytest.mark.parametrize("name", ["kptcl-cband", "awgn-validation"])
    def test_a_lagging_worker_changes_nothing(self, name, lagging, monkeypatch):
        # a tap reuses a block only once its consumers are done with it, and
        # the channel takes the noise blocks in order, so a late worker only
        # makes the chain wait
        sc = replace(load_scenario(name), total_bits=20_000)
        reference = simulate(sc)
        _lag(monkeypatch, lagging)
        late = simulate(sc)
        _assert_same_decisions(late, reference)
        assert late.run_log == reference.run_log
        for x, y in ((late.spectrum_tx, reference.spectrum_tx),
                     (late.spectrum_rx, reference.spectrum_rx)):
            assert np.array_equal(x[1], y[1])

    @pytest.mark.parametrize("name", ["kptcl-cband", "awgn-validation"])
    def test_inline_noise_equals_the_noise_worker(self, name):
        # without spectra no thread starts and the channel draws the noise
        # inline, over the held waveform; with them awgn-validation streams
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
        # the noise worker and the taps share two workers; whether the
        # second one starts depends on whether the first is still busy
        assert 1 <= len(started) <= 2
        assert threading.active_count() == before

    def test_thread_ends_with_a_run(self, reference_scenario):
        before = threading.active_count()
        simulate(replace(reference_scenario, total_bits=20_000))
        assert threading.active_count() == before

    @pytest.mark.parametrize("stage, attr", [
        ("modem.rx_match", "RxMatcher"),
        # fails while the noise worker is still advancing or filling its queue
        ("modem.tx_shape", "TxShaper"),
    ])
    @pytest.mark.parametrize("name", ["kptcl-cband", "awgn-validation"])
    def test_failing_stage_is_named_and_thread_ends(self, name, monkeypatch, stage, attr):
        def boom(*args, **kwargs):
            raise RuntimeError("synthetic")

        monkeypatch.setattr(pipeline_mod, attr, boom)
        before = threading.active_count()
        with pytest.raises(PipelineError) as info:
            simulate(replace(load_scenario(name), total_bits=20_000))
        assert info.value.stage == stage
        assert threading.active_count() == before

    @pytest.mark.parametrize("name", ["kptcl-cband", "awgn-validation"])
    def test_failing_spectrum_is_named_and_thread_ends(self, name, monkeypatch, tmp_path):
        # the chain feeding a failed tap stops at its next block
        def boom(*args, **kwargs):
            raise ValueError("synthetic")

        monkeypatch.setattr(WelchSum, "add", boom)
        before = threading.active_count()
        with pytest.raises(PipelineError) as info:
            simulate(replace(load_scenario(name), total_bits=200_000))
        assert info.value.stage == "analysis.spectra"
        assert threading.active_count() == before
        argv = ["simulate", name, "--bits", "20000", "--out", str(tmp_path / "o")]
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
