"""Channel tests: TWTA model, gains, rotation, noise, I/Q skew, full chain."""

import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import asdict, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import vsatlink.frames
from vsatlink import (
    BOLTZMANN_J_PER_K,
    ComplexFrame,
    ImpairmentConfig,
    LinkGains,
    ModemConfig,
    ParameterError,
    PipelineError,
    SalehParams,
    SatelliteChannel,
    generate_bits,
    load_scenario,
    phase_freq_correct,
    phase_freq_offset,
    qam_modulate,
    saleh_amplify,
    tx_shape,
)
from vsatlink.channel import ROTATION_ROW_SAMPLES, _NoiseAhead
from vsatlink.pipeline import simulate
from vsatlink.scenario import MAX_WAVEFORM_SAMPLES

FS = 50_000.0
PAPER_SALEH = SalehParams()
NO_SCALE = replace(PAPER_SALEH, input_scale_db=0.0, output_scale_db=0.0)


def frame(samples, fs=FS):
    return ComplexFrame(np.asarray(samples, dtype=complex), fs)


def rand_frame(n, seed, scale=1.0):
    rng = np.random.default_rng(seed)
    return frame(scale * (rng.standard_normal(n) + 1j * rng.standard_normal(n)))


class TestSaleh:
    def test_zero_in_zero_out(self):
        out = saleh_amplify(frame([0.0]), PAPER_SALEH)
        assert out.samples[0] == 0

    def test_amam_maximum_location_and_value(self):
        # calculus: A(r) = a*r/(1+b*r^2) peaks at r = 1/sqrt(b), A = a/(2 sqrt(b))
        r = np.linspace(1e-4, 5.0, 400_000)
        out = saleh_amplify(frame(r), NO_SCALE)
        amp = np.abs(out.samples)
        k = int(np.argmax(amp))
        assert amp[k] == pytest.approx(1.00576, abs=1e-5)
        assert r[k] == pytest.approx(0.93177, abs=1e-4)  # grid-step limited
        assert NO_SCALE.amam_peak_output == pytest.approx(
            NO_SCALE.amam_alpha / (2 * np.sqrt(NO_SCALE.amam_beta)), abs=1e-12
        )

    def test_amam_monotone_rise_then_fall(self):
        r = np.linspace(1e-3, 5.0, 20_000)
        amp = np.abs(saleh_amplify(frame(r), NO_SCALE).samples)
        peak = int(np.argmax(amp))
        assert (np.diff(amp[: peak + 1]) > 0).all()
        assert (np.diff(amp[peak:]) < 0).all()

    def test_ampm_limit(self):
        # phi(r) -> alpha/beta as r -> inf; 0.43973 rad = 25.19 deg
        big = saleh_amplify(frame([1e6]), NO_SCALE)
        phase = float(np.angle(big.samples[0]))
        assert phase == pytest.approx(0.43973, abs=1e-5)
        assert np.degrees(phase) == pytest.approx(25.19, abs=1e-2)

    def test_phase_preserved_when_ampm_off(self):
        p = replace(NO_SCALE, ampm_alpha=0.0)
        x = rand_frame(1000, 3)
        out = saleh_amplify(x, p)
        assert np.allclose(np.angle(out.samples), np.angle(x.samples), atol=1e-12)

    def test_linear_params_are_identity(self):
        x = rand_frame(1000, 4)
        out = saleh_amplify(x, SalehParams.linear())
        assert np.array_equal(out.samples, x.samples)

    def test_negative_beta_rejected(self):
        with pytest.raises(ParameterError):
            SalehParams(amam_beta=-1.0)

    def test_full_formula_with_scalings(self):
        # per-sample reference evaluation of the rational model with dB scalings
        x = rand_frame(200, 13)
        out = saleh_amplify(x, PAPER_SALEH)
        k_in = 10 ** (PAPER_SALEH.input_scale_db / 20)
        k_out = 10 ** (PAPER_SALEH.output_scale_db / 20)
        r = np.abs(x.samples) * k_in
        amp = PAPER_SALEH.amam_alpha * r / (1 + PAPER_SALEH.amam_beta * r**2)
        phi = PAPER_SALEH.ampm_alpha * r**2 / (1 + PAPER_SALEH.ampm_beta * r**2)
        expected = amp * np.exp(1j * (np.angle(x.samples) + phi)) * k_out
        assert np.allclose(out.samples, expected, rtol=1e-12)


ZERO_GAINS = LinkGains(
    tx_dish_gain_db=0.0, sat_rx_gain_db=0.0, transponder_amp_gain_db=0.0,
    sat_tx_gain_db=0.0, rx_dish_gain_db=0.0, uplink_loss_db=0.0, downlink_loss_db=0.0,
)


def gain_chain(x, **gains):
    """The physical chain with only the given dB terms non-zero (linear TWTA,
    no impairments), so its output is ``x`` scaled by their net dB sum."""
    chan = SatelliteChannel(
        replace(ZERO_GAINS, **gains), SalehParams.linear(), ImpairmentConfig(), mode="physical"
    )
    return chan.run(x)[0]


class TestGains:
    def test_zero_db_identity(self):
        x = rand_frame(100, 0)
        assert np.array_equal(gain_chain(x).samples, x.samples)

    def test_20db_is_times_ten(self):
        out = gain_chain(frame([1.0]), transponder_amp_gain_db=20.0)
        assert out.samples[0] == pytest.approx(10.0, rel=1e-12)

    def test_inverse_composition(self):
        x = rand_frame(500, 1)
        out = gain_chain(x, uplink_loss_db=221.0, transponder_amp_gain_db=221.0)
        assert np.allclose(out.samples, x.samples, rtol=1e-12)

    @given(
        g1=st.floats(-100, 100),
        g2=st.floats(-100, 100),
    )
    @settings(max_examples=40, deadline=None)
    def test_gain_blocks_commute_and_add(self, g1, g2):
        x = rand_frame(64, 2)
        a = gain_chain(x, tx_dish_gain_db=g1, sat_tx_gain_db=g2)
        b = gain_chain(x, sat_tx_gain_db=g1, tx_dish_gain_db=g2)
        c = gain_chain(x, transponder_amp_gain_db=g1 + g2)
        assert np.allclose(a.samples, b.samples, rtol=1e-12)
        assert np.allclose(a.samples, c.samples, rtol=1e-12)

    def test_fspl_values(self):
        x = frame([1.0])
        assert gain_chain(x).samples[0] == 1.0
        up = gain_chain(x, uplink_loss_db=221.0).samples[0]
        down = gain_chain(x, downlink_loss_db=217.0).samples[0]
        assert up == pytest.approx(10 ** (-221 / 20), rel=1e-12)
        assert down == pytest.approx(10 ** (-217 / 20), rel=1e-12)

    def test_fspl_negative_rejected(self):
        with pytest.raises(ParameterError):
            LinkGains(downlink_loss_db=-1.0)

    def test_losses_must_be_nonnegative(self):
        with pytest.raises(ParameterError):
            LinkGains(uplink_loss_db=-5.0)


class TestPhaseFreqOffset:
    def test_half_turn_negates(self):
        x = rand_frame(100, 5)
        out = phase_freq_offset(x, 180.0, 0.0)
        assert np.allclose(out.samples, -x.samples, rtol=1e-12, atol=1e-15)

    def test_full_rotation_per_sample_is_identity(self):
        x = rand_frame(100, 6)
        out = phase_freq_offset(x, 0.0, FS)
        assert np.allclose(out.samples, x.samples, rtol=1e-9, atol=1e-12)

    def test_paper_values_sample0_and_increment(self):
        x = frame(np.ones(3, dtype=complex))
        out = phase_freq_offset(x, 15.0, 2.0)
        assert np.angle(out.samples[0]) == pytest.approx(np.deg2rad(15.0), abs=1e-15)
        inc = np.angle(out.samples[1] / out.samples[0])
        assert np.degrees(inc) == pytest.approx(2 * 360 / 50_000, rel=1e-9)  # 0.0144 deg

    def test_counter_persists_across_frames(self):
        # the second frame continues the clock through its start_sample
        x = rand_frame(1000, 7)
        a = phase_freq_offset(frame(x.samples[:400]), 10.0, 3.0)
        b = phase_freq_offset(ComplexFrame(x.samples[400:], FS, start_sample=400), 10.0, 3.0)
        whole = phase_freq_offset(x, 10.0, 3.0)
        assert np.array_equal(np.concatenate([a.samples, b.samples]), whole.samples)


def _per_sample_rotation(x, phase_deg, freq_hz):
    """``exp(1j*theta) * x`` with theta evaluated for every sample."""
    n = np.arange(x.start_sample, x.start_sample + len(x))
    theta = 2.0 * np.pi * freq_hz * n / x.sample_rate_hz + np.deg2rad(phase_deg)
    return theta, np.exp(1j * theta) * x.samples


class TestRotationTable:
    """The rotation phasor comes from a row-anchored table, not from cos/sin
    per sample; these pin it to the per-sample formula."""

    def test_row_anchor_samples_equal_the_per_sample_formula(self):
        x = rand_frame(3 * ROTATION_ROW_SAMPLES + 500, 14)
        x = ComplexFrame(x.samples, FS, start_sample=123_457)
        out = phase_freq_offset(x, 15.0, 2.0).samples
        _, expected = _per_sample_rotation(x, 15.0, 2.0)
        anchors = (np.arange(len(x)) + x.start_sample) % ROTATION_ROW_SAMPLES == 0
        assert anchors.sum() == 3
        assert np.array_equal(out[anchors], expected[anchors])

    def test_within_a_few_ulp_of_theta_at_the_waveform_cap(self):
        n = 2 * ROTATION_ROW_SAMPLES + 300
        x = rand_frame(n, 15)
        x = ComplexFrame(x.samples, FS, start_sample=MAX_WAVEFORM_SAMPLES - n)
        out = phase_freq_offset(x, 15.0, 2.0).samples
        theta, expected = _per_sample_rotation(x, 15.0, 2.0)
        err = np.abs(out - expected) / np.abs(x.samples)
        assert err.max() <= 4 * np.spacing(theta.max())  # ~7.3e-12 at 5e4 rad

    def test_inverse_is_the_exact_conjugate(self):
        x = ComplexFrame(np.ones(2 * ROTATION_ROW_SAMPLES + 9, dtype=complex), FS,
                         start_sample=77_777)
        forward = phase_freq_offset(x, 15.0, 2.0).samples
        assert np.array_equal(phase_freq_offset(x, -15.0, -2.0).samples, np.conj(forward))

    def test_phase_only_rotation_is_the_per_sample_formula(self):
        x = rand_frame(ROTATION_ROW_SAMPLES + 300, 16)
        x = ComplexFrame(x.samples, FS, start_sample=5_000)
        _, expected = _per_sample_rotation(x, 15.0, 0.0)
        assert np.array_equal(phase_freq_offset(x, 15.0, 0.0).samples, expected)


def _noise_channel(temperature_k, seed, gains=LinkGains(transponder_amp_gain_db=0.0)):
    """Physical channel with a transparent TWTA and an explicit transponder
    gain, so an all-zero input comes out as exactly the kTB noise."""
    return SatelliteChannel(
        gains,
        SalehParams.linear(),
        ImpairmentConfig(noise_temperature_k=temperature_k, seed=seed),
    )


class TestThermalNoise:
    def test_zero_kelvin_identity(self):
        x = rand_frame(100, 8)
        unity = LinkGains(0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
        assert np.array_equal(_noise_channel(0.0, 1, unity).run(x)[0].samples, x.samples)

    def test_variance_formula(self):
        # kTB at 45 K, 50 kHz: 1.380649e-23 * 45 * 5e4 = 3.1065e-17 W
        sigma2 = BOLTZMANN_J_PER_K * 45.0 * FS
        assert sigma2 == pytest.approx(3.1065e-17, rel=1e-4)

    def test_empirical_variance_within_2_percent(self):
        n = 10**6
        x = frame(np.zeros(n))
        out = _noise_channel(45.0, 99).run(x)[0]
        sigma2 = BOLTZMANN_J_PER_K * 45.0 * FS
        measured = np.mean(np.abs(out.samples) ** 2)
        assert measured == pytest.approx(sigma2, rel=0.02)

    def test_reproducible_per_seed(self):
        x = rand_frame(1000, 9)
        a = _noise_channel(45.0, 1234).run(x)[0]
        b = _noise_channel(45.0, 1234).run(x)[0]
        assert np.array_equal(a.samples, b.samples)

    def test_negative_temperature_rejected(self):
        with pytest.raises(ParameterError):
            ImpairmentConfig(noise_temperature_k=-1.0)

    def test_stream_is_real_draws_then_imaginary_draws(self):
        n = 1000
        x = frame(np.zeros(n))
        std = np.sqrt(BOLTZMANN_J_PER_K * 45.0 * FS / 2.0)
        g = np.random.default_rng(5)
        expected = std * (g.standard_normal(n) + 1j * g.standard_normal(n))
        assert np.array_equal(_noise_channel(45.0, 5).run(x)[0].samples, expected)


def iq_chain(x, **impairments):
    """Normalized channel with a transparent TWTA and no noise, so only the
    I/Q imbalance and DC offsets act."""
    return SatelliteChannel(
        LinkGains(), SalehParams.linear(), ImpairmentConfig(**impairments), mode="normalized"
    ).run(x)[0]


class TestIqImbalance:
    def test_all_zero_is_identity(self):
        x = rand_frame(200, 10)
        out = iq_chain(x)
        assert np.allclose(out.samples, x.samples, atol=1e-15)

    def test_pure_dc_offsets(self):
        x = rand_frame(200, 11)
        out = iq_chain(x, dc_offset_i=0.5, dc_offset_q=-0.25)
        assert np.allclose(out.samples, x.samples + (0.5 - 0.25j), atol=1e-15)

    def test_zero_input_gives_constant_offset_frame(self):
        out = iq_chain(frame(np.zeros(5000)), dc_offset_i=0.3, dc_offset_q=0.7)
        assert np.allclose(out.samples, 0.3 + 0.7j, atol=1e-15)
        assert np.mean(out.samples) == pytest.approx(0.3 + 0.7j, abs=1e-6)

    def test_split_phase_formula(self):
        x = rand_frame(500, 12)
        out = iq_chain(
            x,
            iq_amplitude_imbalance_db=1.0,
            iq_phase_imbalance_deg=4.0,
            dc_offset_i=0.1,
            dc_offset_q=-0.2,
        )
        g = 10 ** (1.0 / 20)
        t = np.deg2rad(4.0)
        re, im = x.samples.real, x.samples.imag
        expected = (
            re * np.cos(t / 2) + im * g * np.sin(t / 2) + 0.1
            + 1j * (re * np.sin(t / 2) + im * g * np.cos(t / 2) - 0.2)
        )
        assert np.allclose(out.samples, expected, atol=1e-14)


def _tx_waveform(n_bits=20_000, seed=3):
    cfg = ModemConfig()
    bits = generate_bits(n_bits, seed)
    return cfg, tx_shape(qam_modulate(bits, cfg), cfg)


class TestFullChain:
    def test_normalized_neutral_chain_is_identity(self):
        cfg, x = _tx_waveform()
        out = SatelliteChannel(
            LinkGains(),
            SalehParams.linear(),
            ImpairmentConfig(),
            mode="normalized",
            reference_symbol_power=cfg.mean_symbol_power,
        ).run(x)[0]
        err = np.max(np.abs(out.samples - x.samples))
        assert err <= 1e-9 * np.max(np.abs(x.samples))

    def test_identity_stages_equal_the_full_computation(self):
        # run() skips a linear TWTA, a zero rotation and a neutral I/Q stage;
        # running all of them on the same noisy frame gives the same array
        x = rand_frame(5000, 21)
        imp = ImpairmentConfig(seed=31)
        out = SatelliteChannel(LinkGains(), SalehParams.linear(), imp, mode="normalized",
                               target_es_n0_db=10.0).run(x)[0]
        y = saleh_amplify(x, SalehParams.linear())
        full = phase_freq_offset(y.with_samples(y.samples * np.sqrt(x.mean_power / y.mean_power)),
                                 0.0, 0.0).samples
        # the documented noise stream, all real parts first: variance Es / (Es/N0)
        rng, std = np.random.default_rng(31), np.sqrt(10.0 / 10.0 / 2.0)
        full.real += std * rng.standard_normal(full.size)
        full.imag += std * rng.standard_normal(full.size)
        # the I/Q step's arithmetic at g = 1, theta = 0 and no DC offset
        re, im = full.real.copy(), full.imag.copy()
        full.real = re * np.cos(0.0) + im * 1.0 * np.sin(0.0) + 0.0
        full.imag = re * np.sin(0.0) + im * 1.0 * np.cos(0.0) + 0.0
        assert np.array_equal(out.samples, full)

    def test_physical_net_gain_is_db_sum(self):
        cfg, x = _tx_waveform(8000, 4)
        gains = LinkGains(transponder_amp_gain_db=100.0)
        out = SatelliteChannel(
            gains, SalehParams.linear(), ImpairmentConfig(), mode="physical"
        ).run(x)[0]
        net_db = (
            gains.tx_dish_gain_db
            - gains.uplink_loss_db
            + gains.sat_rx_gain_db
            + 100.0
            + gains.sat_tx_gain_db
            - gains.downlink_loss_db
            + gains.rx_dish_gain_db
        )
        ratio = out.mean_power / x.mean_power
        assert 10 * np.log10(ratio) == pytest.approx(net_db, abs=1e-9)

    def test_auto_closure_restores_input_power(self):
        cfg, x = _tx_waveform(8000, 5)
        chan = SatelliteChannel(
            LinkGains(), SalehParams(), ImpairmentConfig(), mode="physical"
        )
        out, plan = chan.run(x)
        # noise at 0 K and neutral I/Q: pre-noise power == output power
        assert out.mean_power == pytest.approx(x.mean_power, rel=1e-9)
        assert plan.transponder_amp_gain_db == pytest.approx(256.5, abs=2.0)

    def test_auto_closure_cancels_the_db_terms(self):
        # Under auto-closure the seven dB terms collapse to sqrt(p_in/p_sig),
        # so the published figures, the budget's computed ones and the
        # normalized mode without noise give the same waveform.
        cfg, x = _tx_waveform(8000, 11)
        imp = ImpairmentConfig(phase_offset_deg=15.0, noise_temperature_k=0.0)
        published = SatelliteChannel(LinkGains(), PAPER_SALEH, imp, mode="physical").run(x)[0]
        computed = SatelliteChannel(
            LinkGains(uplink_loss_db=200.64, rx_dish_gain_db=36.98), PAPER_SALEH, imp,
            mode="physical",
        ).run(x)[0]
        normalized = SatelliteChannel(LinkGains(), PAPER_SALEH, imp, mode="normalized").run(x)[0]
        np.testing.assert_allclose(computed.samples, published.samples, rtol=1e-12)
        np.testing.assert_allclose(normalized.samples, published.samples, rtol=1e-12)

    def test_input_power_is_kept(self):
        # simulate reads the transmit power from the returned plan instead of
        # computing the same mean |x|^2 again
        _, x = _tx_waveform(4000, 9)
        chan = SatelliteChannel(LinkGains(), SalehParams(), ImpairmentConfig())
        _, plan = chan.run(x)
        assert plan.input_power_w == x.mean_power
        assert plan.twta_output_power_w == saleh_amplify(x, SalehParams()).mean_power

    def test_phase_only_chain_is_exact_rotation(self):
        cfg, x = _tx_waveform(8000, 6)
        imp = ImpairmentConfig(phase_offset_deg=15.0)
        out = SatelliteChannel(
            LinkGains(), SalehParams.linear(), imp,
            mode="normalized", reference_symbol_power=cfg.mean_symbol_power,
        ).run(x)[0]
        expected = x.samples * np.exp(1j * np.deg2rad(15.0))
        assert np.allclose(out.samples, expected, rtol=1e-12, atol=1e-12)

    def test_correction_inverts_the_channel_on_any_frame_clock(self):
        # the channel and the receiver's correction count the rotation from
        # the same clock, the frame's start_sample
        _, x = _tx_waveform(16_000, 8)
        x = ComplexFrame(x.samples, x.sample_rate_hz, start_sample=123_457)
        imp = ImpairmentConfig(phase_offset_deg=15.0, freq_offset_hz=2.0)
        out = SatelliteChannel(LinkGains(), SalehParams.linear(), imp, mode="normalized").run(x)[0]
        back = phase_freq_correct(out, imp.phase_offset_deg, imp.freq_offset_hz)
        peak = np.max(np.abs(x.samples))
        assert np.max(np.abs(back.samples - x.samples)) <= 1e-12 * peak

    def test_noise_seed_reproducibility(self):
        cfg, x = _tx_waveform(4000, 7)
        imp = ImpairmentConfig(noise_temperature_k=45.0, seed=77)
        gains = LinkGains(transponder_amp_gain_db=0.0)
        a = SatelliteChannel(gains, SalehParams.linear(), imp).run(x)[0]
        b = SatelliteChannel(gains, SalehParams.linear(), imp).run(x)[0]
        assert np.array_equal(a.samples, b.samples)

    def test_invalid_mode_rejected(self):
        with pytest.raises(ParameterError):
            SatelliteChannel(LinkGains(), SalehParams(), ImpairmentConfig(), mode="other")


def _scenario_channel(scenario):
    """The channel ``simulate`` builds for ``scenario``."""
    return SatelliteChannel(
        scenario.gains, scenario.saleh, scenario.impairments, mode=scenario.mode,
        target_es_n0_db=scenario.target_es_n0_db,
        reference_symbol_power=scenario.modem.mean_symbol_power,
    )


class _ThreadPerTask:
    """A pool that runs each task on a daemon thread of its own, which a test
    can join with a timeout."""

    def __init__(self):
        self.threads = []

    def submit(self, fn):
        future = Future()

        def run():
            try:
                future.set_result(fn())
            except BaseException as exc:
                future.set_exception(exc)

        self.threads.append(threading.Thread(target=run, daemon=True))
        self.threads[-1].start()
        return future


def _propagated(chan, y, ahead):
    """``chan``'s two steps over ``y``, the noise drawn ahead on a worker
    thread when ``ahead``."""
    with ThreadPoolExecutor(1) as pool:
        noise = chan.noise_ahead(pool, len(y), y.sample_rate_hz) if ahead else None
        try:
            return chan.propagate(y, chan.amplify(y), noise=noise)
        finally:
            if noise is not None:
                noise.close()


class TestInPlaceSteps:
    """``run`` takes amplify and propagate on a copy of its input;
    ``simulate`` takes the same two steps over the waveform it owns, with
    the noise drawn ahead on a worker thread."""

    @staticmethod
    def _frame_and_scenario(name, **impairments):
        scenario = load_scenario(name)
        scenario = replace(scenario, impairments=replace(scenario.impairments, **impairments))
        _, x = _tx_waveform(5000, 13)
        return ComplexFrame(x.samples, x.sample_rate_hz, start_sample=123_457), scenario

    @pytest.mark.parametrize("impairments", [
        {},
        {"noise_temperature_k": 1e6, "iq_amplitude_imbalance_db": 0.8, "dc_offset_i": 0.05},
        {"noise_temperature_k": 0.0, "phase_offset_deg": 0.0, "freq_offset_hz": 0.0},
    ], ids=["as-shipped", "noise-iq-dc", "no-ktb-no-rotation"])
    @pytest.mark.parametrize("name", ["kptcl-cband", "awgn-validation"])
    def test_run_equals_the_steps_in_place(self, name, impairments):
        x, scenario = self._frame_and_scenario(name, **impairments)
        kept = x.samples.copy()
        reference = _scenario_channel(scenario)
        out = reference.run(x)[0]
        assert np.array_equal(x.samples, kept)  # run leaves its input alone
        again = reference.run(x)[0].samples

        for ahead in (False, True):
            chan = _scenario_channel(scenario)
            y = ComplexFrame(kept.copy(), x.sample_rate_hz, x.start_sample)
            stepped = _propagated(chan, y, ahead)
            assert stepped.samples is y.samples
            assert np.array_equal(stepped.samples, out.samples), ahead
            # the noise stream carries on from where the worker left it
            assert np.array_equal(chan.run(x)[0].samples, again), ahead

    @pytest.mark.parametrize("ahead", [False, True], ids=["inline", "worker"])
    @pytest.mark.parametrize("block", [1, 7, None], ids=["block-1", "block-7", "default"])
    def test_output_is_the_signal_plus_the_documented_noise(self, monkeypatch, block, ahead):
        # every real part of the stream is drawn before every imaginary part
        _, x = _tx_waveform(1000, 13)
        x = ComplexFrame(x.samples, x.sample_rate_hz, start_sample=123_457)
        imp = ImpairmentConfig(phase_offset_deg=15.0, freq_offset_hz=2.0,
                               noise_temperature_k=1e6, seed=12)
        quiet = replace(imp, noise_temperature_k=0.0)
        signal = SatelliteChannel(LinkGains(), PAPER_SALEH, quiet).run(x)[0].samples
        rng = np.random.default_rng(12)
        std = np.sqrt(BOLTZMANN_J_PER_K * 1e6 * FS / 2.0)
        n = len(x)
        expected = signal + std * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
        if block is not None:
            monkeypatch.setattr(vsatlink.frames, "BLOCK_SAMPLES", block)
        chan = SatelliteChannel(LinkGains(), PAPER_SALEH, imp)
        y = ComplexFrame(x.samples.copy(), x.sample_rate_hz, x.start_sample)
        assert np.array_equal(_propagated(chan, y, ahead).samples, expected)

    def test_a_failing_noise_worker_raises_its_error(self):
        class FailingGenerator:
            def standard_normal(self, *args, **kwargs):
                raise MemoryError("synthetic")

        with ThreadPoolExecutor(1) as pool:
            noise = _NoiseAhead(FailingGenerator(), 1000, 1.0, pool)
            with pytest.raises(MemoryError, match="synthetic"):
                noise.add_next(np.zeros(1000))
            noise.close()

    @pytest.mark.parametrize("taken", [0, 1, 99])
    def test_close_ends_the_worker_whatever_was_taken(self, monkeypatch, taken):
        # a run that fails before or while the channel takes the noise closes
        # it; a worker left waiting on a full queue would hang the pool's shutdown
        monkeypatch.setattr(vsatlink.frames, "BLOCK_SAMPLES", 64)
        pool = _ThreadPerTask()
        noise = _NoiseAhead(np.random.default_rng(1), 64 * 100, 1.0, pool)
        for _ in range(taken):
            noise.add_next(np.zeros(64))
        time.sleep(0.05)  # the worker fills the queue and waits
        noise.close()
        (worker,) = pool.threads
        worker.join(timeout=10)
        assert not worker.is_alive()

    @pytest.mark.parametrize("ahead", [False, True], ids=["inline", "worker"])
    @pytest.mark.parametrize("block", [7, None], ids=["block-7", "default"])
    @pytest.mark.parametrize("name", ["kptcl-cband", "awgn-validation"])
    def test_propagation_by_blocks_equals_propagate(self, monkeypatch, name, block, ahead):
        # a streaming caller writes each block into an array of its own and
        # adds the inline noise to the whole stream at the end
        x, scenario = self._frame_and_scenario(name, noise_temperature_k=1e6,
                                               iq_amplitude_imbalance_db=0.8)
        if block is not None:
            monkeypatch.setattr(vsatlink.frames, "BLOCK_SAMPLES", block)
        def copy():
            return ComplexFrame(x.samples.copy(), x.sample_rate_hz, x.start_sample)

        reference = _scenario_channel(scenario)
        expected = _propagated(reference, copy(), ahead).samples
        chan = _scenario_channel(scenario)
        plan = chan.amplify(copy())
        twta = np.empty_like(x.samples)
        for sl in vsatlink.frames.block_slices(len(x)):
            chan.amplify_block(x.samples[sl], twta[sl])
        out = np.empty_like(twta)
        with ThreadPoolExecutor(1) as pool:
            noise = chan.noise_ahead(pool, len(x), x.sample_rate_hz) if ahead else None
            step = chan.propagation(plan, len(x), x.sample_rate_hz, noise, x.start_sample)
            for sl in vsatlink.frames.block_slices(len(x)):
                step(sl.start, twta[sl], out[sl])
            if step.inline:
                step.add_inline_noise(out)
        assert step.inline is not ahead
        assert np.array_equal(out, expected)
        # the noise stream carries on from where the blocks left it
        assert np.array_equal(chan.run(x)[0].samples, reference.run(x)[0].samples)

    def test_saleh_amplify_equals_the_twta_in_place(self, reference_scenario):
        x, _ = self._frame_and_scenario("kptcl-cband")
        kept = x.samples.copy()
        out = saleh_amplify(x, reference_scenario.saleh)
        assert np.array_equal(x.samples, kept)
        chan = _scenario_channel(reference_scenario)
        into = np.empty_like(kept)
        chan.amplify_block(x.samples, into)
        assert np.array_equal(x.samples, kept)
        assert np.array_equal(into, out.samples)
        chan.amplify(x)
        assert np.array_equal(x.samples, out.samples)


class TestPlan:
    @given(p=st.floats(1e-30, 1e30), p_sig=st.floats(1e-30, 1e30),
           mode=st.sampled_from(["physical", "normalized"]),
           transponder_db=st.sampled_from([None, 60.0]),
           saleh=st.sampled_from([SalehParams.linear(), PAPER_SALEH]))
    @settings(max_examples=100, deadline=None)
    def test_a_plan_that_reads_no_power_is_known_up_front(self, p, p_sig, mode,
                                                          transponder_db, saleh):
        # a streamed run makes its plan before it has any power: the gain and
        # noise of plan(1, 1) must be those of the run's own powers, which are
        # equal when the TWTA is skipped
        chan = SatelliteChannel(LinkGains(transponder_amp_gain_db=transponder_db), saleh,
                                ImpairmentConfig(noise_temperature_k=290.0), mode=mode,
                                target_es_n0_db=10.0)
        if chan.linear_twta:
            p_sig = p
        up_front, run = chan.plan(1.0, 1.0, FS), chan.plan(p, p_sig, FS)
        same = (up_front.gain, up_front.noise_variance_w) == (run.gain, run.noise_variance_w)
        assert chan.plan_reads_powers == (
            not chan.linear_twta and (mode == "normalized" or transponder_db is None))
        if not chan.plan_reads_powers:
            assert same
            assert replace(up_front, input_power_w=p, twta_output_power_w=p_sig) == run

    @pytest.mark.parametrize("name", ["kptcl-cband", "awgn-validation"])
    def test_plan_of_the_logged_powers_is_the_logged_plan(self, name):
        scenario = replace(load_scenario(name), total_bits=20_000)
        effective = simulate(scenario, with_spectra=False).run_log["effective"]
        logged = effective["channel"]
        plan = _scenario_channel(scenario).plan(
            logged["input_power_w"], logged["twta_output_power_w"], effective["sample_rate_hz"]
        )
        assert asdict(plan) == logged
        assert effective["tx_waveform_power_w"] == logged["input_power_w"]

    @given(p_in=st.floats(1e-30, 1e30), p_sig=st.floats(1e-30, 1e30))
    @settings(max_examples=200, deadline=None)
    def test_auto_closure_and_normalized_plans_agree_in_gain(self, reference_scenario,
                                                             p_in, p_sig):
        # the dB round trip of auto-closure against sqrt(p_in/p_sig) directly
        normalized_scenario = replace(reference_scenario, mode="normalized", target_es_n0_db=10.0)
        physical = _scenario_channel(reference_scenario).plan(p_in, p_sig, FS)
        normalized = _scenario_channel(normalized_scenario).plan(p_in, p_sig, FS)
        assert reference_scenario.gains.transponder_amp_gain_db is None
        assert physical.gain == pytest.approx(normalized.gain, rel=1e-13, abs=0.0)

    def test_plan_reads_no_state_of_a_run(self, reference_scenario):
        chan = _scenario_channel(reference_scenario)
        _, x = _tx_waveform(4000, 9)
        before = chan.plan(2.0, 3.0, FS)
        _, applied = chan.run(x)
        assert chan.plan(2.0, 3.0, FS) == before
        fs = x.sample_rate_hz
        assert chan.plan(applied.input_power_w, applied.twta_output_power_w, fs) == applied

    @pytest.mark.parametrize("p_in, p_sig", [(0.0, 1.0), (1.0, 0.0), (0.0, 0.0)])
    def test_auto_closure_on_zero_power_is_a_pipeline_error(self, p_in, p_sig):
        chan = SatelliteChannel(LinkGains(), SalehParams(), ImpairmentConfig())
        with pytest.raises(PipelineError, match="zero-power") as err:
            chan.plan(p_in, p_sig, FS)
        assert err.value.stage == "channel"
        with pytest.raises(PipelineError, match="zero-power"):
            chan.run(frame(np.zeros(16)))


class TestBlockSize:
    """The sample chain walks frames in BLOCK_SAMPLES blocks; the block size
    must not change a bit of the output."""

    @staticmethod
    def _outputs(scenario, x):
        imp = replace(
            scenario.impairments, noise_temperature_k=1e6, iq_amplitude_imbalance_db=0.8,
            iq_phase_imbalance_deg=3.0, dc_offset_i=0.05, dc_offset_q=-0.03, seed=12,
        )
        chan = SatelliteChannel(scenario.gains, scenario.saleh, imp, mode="physical")
        return {
            "channel": chan.run(x)[0].samples,
            "saleh": saleh_amplify(x, scenario.saleh).samples,
            "correct": phase_freq_correct(x, imp.phase_offset_deg, imp.freq_offset_hz).samples,
        }

    @pytest.mark.parametrize("block", [1, 7, 4096])
    def test_block_size_does_not_change_output(self, reference_scenario, monkeypatch, block):
        _, x = _tx_waveform(5000, 13)  # 10240 samples
        x = ComplexFrame(x.samples, x.sample_rate_hz, start_sample=123_457)
        default = self._outputs(reference_scenario, x)
        assert len(x) < vsatlink.frames.BLOCK_SAMPLES
        monkeypatch.setattr(vsatlink.frames, "BLOCK_SAMPLES", block)
        blocked = self._outputs(reference_scenario, x)
        for name, samples in default.items():
            assert np.array_equal(blocked[name], samples), name
