"""Receiver tests: DC estimator, AGC loop, data-aided de-rotation."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import signal

import oracles
from vsatlink import (
    AutomaticGainControl,
    ComplexFrame,
    DcOffsetCompensator,
    ModemConfig,
    ParameterError,
    generate_bits,
    phase_freq_correct,
    phase_freq_offset,
    qam_demodulate,
    qam_modulate,
)
from vsatlink.frames import BLOCK_SAMPLES
from vsatlink.pipeline import simulate
from vsatlink.receiver import (
    AGC_MAX_GAIN_DB,
    AGC_STEP_SIZE,
    DC_FORGETTING_FACTOR,
    ONE_POLE_ROW_SAMPLES,
    _OnePole,
)

FS = 50_000.0
P_REF = 10.0  # the mean symbol power of the M=16, d=2 grid


def frame(samples, fs=FS):
    return ComplexFrame(np.asarray(samples, dtype=complex), fs)


def rand_frame(n, seed, scale=1.0):
    rng = np.random.default_rng(seed)
    return frame(scale * (rng.standard_normal(n) + 1j * rng.standard_normal(n)))


class TestDcOffsetRemoval:
    def test_zero_mean_input_nearly_unchanged(self):
        x = rand_frame(20_000, 1)
        y = DcOffsetCompensator().process(x)
        rms_in = np.sqrt(x.mean_power)
        rms_diff = np.sqrt(np.mean(np.abs(y.samples - x.samples) ** 2))
        assert rms_diff <= 0.05 * rms_in

    def test_constant_input_decays_geometrically(self):
        c = 1.0 - 2.0j
        n = 10_000
        y = DcOffsetCompensator().process(frame(np.full(n, c)))
        w = DC_FORGETTING_FACTOR
        assert abs(y.samples[-1]) <= abs(c) * 1e-4
        # exact geometric-decay oracle: residual after n samples is c * w^n
        expected = c * w**n
        assert y.samples[-1] == pytest.approx(expected, rel=1e-9)

    def test_offset_recovery_leaves_signal_mean(self):
        # zero-mean carrier plus a DC offset: the long-run output mean returns
        # to the signal mean (0) once the estimator has locked onto the offset
        n = np.arange(64_000)
        x = np.exp(2j * np.pi * n / 16)
        y = DcOffsetCompensator().process(frame(x + (0.5 - 0.25j)))
        tail = slice(16_000, 64_000)  # whole carrier periods
        assert abs(np.mean(y.samples[tail]) - np.mean(x[tail])) <= 1e-3

    def test_estimator_recovers_pure_offsets(self):
        # dc offsets injected by the I/Q block land in the estimator state
        comp = DcOffsetCompensator()
        comp.process(frame(np.full(20_000, 0.5 - 0.25j)))
        assert comp.estimate == pytest.approx(0.5 - 0.25j, abs=1e-6)

    def test_empty_frame_rejected(self):
        with pytest.raises(ParameterError):
            DcOffsetCompensator().process(frame(np.empty(0)))

    def test_streaming_matches_one_shot(self):
        x = rand_frame(4000, 3)
        comp = DcOffsetCompensator()
        a = comp.process(frame(x.samples[:1500]))
        b = comp.process(frame(x.samples[1500:]))
        whole = DcOffsetCompensator().process(x)
        assert np.array_equal(np.concatenate([a.samples, b.samples]), whole.samples)


class TestOnePole:
    """The row-wise one-pole recursion against scipy.signal.lfilter."""

    @pytest.mark.parametrize("a", [0.999, 0.99, 0.5, 0.0])
    @pytest.mark.parametrize("dtype", [np.float64, np.complex128])
    def test_matches_lfilter_with_carried_state(self, a, dtype):
        rng = np.random.default_rng(11)
        n = 3 * ONE_POLE_ROW_SAMPLES + 77
        x = rng.standard_normal(n) + (1j * rng.standard_normal(n) if dtype is np.complex128 else 0)
        x = x.astype(dtype) + 0.3
        y0 = dtype(2.5)
        pole = _OnePole(a, 1.0 - a, y0)
        y = np.concatenate([pole(x[:1000]), pole(x[1000:])])
        # y[n] = a*y[n-1] + b*x[n]; lfilter's state is a * y[-1]
        ref, _ = signal.lfilter([1.0 - a], [1.0, -a], x, zi=np.array([a * y0], dtype=dtype))
        assert y.dtype == dtype
        assert np.max(np.abs(y - ref)) <= 1e-13 * np.max(np.abs(ref))
        assert pole.last == pytest.approx(ref[-1], rel=1e-13)


def _new(block):
    return block(P_REF) if block is AutomaticGainControl else block()


def _streamed(block, x, cuts):
    pieces = np.split(x.samples, cuts)
    return np.concatenate([block.process(frame(p)).samples for p in pieces if p.size])


class TestStreamingIsExact:
    """Any split of the input gives the one-shot output bits."""

    N = 3 * ONE_POLE_ROW_SAMPLES + 123

    @pytest.mark.parametrize("make", [DcOffsetCompensator, AutomaticGainControl])
    @pytest.mark.parametrize("cuts", [
        [ONE_POLE_ROW_SAMPLES, 2 * ONE_POLE_ROW_SAMPLES],  # at row boundaries
        [ONE_POLE_ROW_SAMPLES // 3, ONE_POLE_ROW_SAMPLES + 5],  # inside rows
        list(range(1, N)),  # one-sample frames
    ], ids=["row-boundary", "inside-row", "one-sample"])
    def test_split(self, make, cuts):
        x = rand_frame(self.N, 13, scale=0.4)
        whole = _new(make).process(x).samples
        assert np.array_equal(_streamed(_new(make), x, cuts), whole)

    @given(
        n=st.integers(1, 3 * ONE_POLE_ROW_SAMPLES),
        cuts=st.lists(st.integers(1, 3 * ONE_POLE_ROW_SAMPLES), max_size=6),
        agc_block=st.booleans(),
    )
    @settings(max_examples=40, deadline=None)
    def test_random_splits(self, n, cuts, agc_block):
        make = AutomaticGainControl if agc_block else DcOffsetCompensator
        x = rand_frame(n, n, scale=0.4)
        one = _new(make)
        whole = one.process(x).samples
        split = _new(make)
        assert np.array_equal(_streamed(split, x, sorted(c for c in cuts if c < n)), whole)
        state = (one.gain, split.gain) if agc_block else (one.estimate, split.estimate)
        assert state[0] == state[1]


class TestInPlace:
    """``process`` is ``process_in_place`` on a copy, state included."""

    @pytest.mark.parametrize("make", [DcOffsetCompensator, AutomaticGainControl])
    def test_process_equals_process_in_place(self, make):
        x = rand_frame(2 * BLOCK_SAMPLES + 17, 5, scale=0.4)
        kept = x.samples.copy()
        public, in_place = _new(make), _new(make)
        for _ in range(2):  # the second frame continues the loop state
            out = public.process(x)
            assert np.array_equal(x.samples, kept)
            y = frame(kept.copy())
            in_place.process_in_place(y)
            assert np.array_equal(y.samples, out.samples)
        state = "gain" if make is AutomaticGainControl else "estimate"
        assert getattr(public, state) == getattr(in_place, state)


class TestAgc:
    def test_matches_a_per_sample_loop(self):
        # sample n is scaled by sqrt(P_ref / p[n-1]), then p[n] takes |x[n]|^2
        x = rand_frame(5000, 12)
        loop = AutomaticGainControl(4.0)
        y = loop.process(x)
        g_max2 = 10 ** (AGC_MAX_GAIN_DB / 10)
        p, expected = 4.0, []
        for v in x.samples:
            expected.append(v * np.sqrt(4.0 / min(max(p, 4.0 / g_max2), 4.0 * g_max2)))
            p = (1 - AGC_STEP_SIZE) * p + AGC_STEP_SIZE * abs(v) ** 2
        assert np.allclose(y.samples, expected, rtol=1e-12, atol=0)
        assert loop.gain == pytest.approx(np.sqrt(4.0 / p), rel=1e-12)

    def test_input_at_reference_keeps_unity_gain(self):
        x = frame(np.full(2000, np.sqrt(2.0) + 0j))
        y = AutomaticGainControl(2.0).process(x)
        assert np.allclose(y.samples, x.samples, rtol=1e-12)

    def test_converges_from_low_input(self):
        x = frame(np.full(8000, np.sqrt(0.1) + 0j))  # 0.01x reference power
        y = AutomaticGainControl(P_REF).process(x)
        steady = np.mean(np.abs(y.samples[5000:]) ** 2)
        assert steady == pytest.approx(10.0, rel=0.05)

    @pytest.mark.parametrize("alpha2", [1e-4, 1e-2, 1e2, 1e4])
    def test_scale_invariant_steady_state(self, alpha2):
        x = frame(np.full(60_000, np.sqrt(10.0 * alpha2) + 0j))
        y = AutomaticGainControl(P_REF).process(x)
        steady = np.mean(np.abs(y.samples[-5000:]) ** 2)
        assert steady == pytest.approx(10.0, rel=0.05)

    def test_all_zero_input(self):
        loop = AutomaticGainControl(P_REF)
        y = loop.process(frame(np.zeros(2000)))
        assert not y.samples.any()
        assert loop.gain == pytest.approx(10 ** (60 / 20))

    @pytest.mark.parametrize("bad", [0.0, -1.0])
    def test_non_positive_reference_rejected(self, bad):
        with pytest.raises(ParameterError):
            AutomaticGainControl(bad)

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_non_finite_reference_rejected(self, bad):
        # the AGC output is not re-checked, so its reference must be finite
        with pytest.raises(ParameterError):
            AutomaticGainControl(bad)

    def test_streaming_matches_one_shot(self):
        x = rand_frame(3000, 4, scale=0.3)
        loop = AutomaticGainControl(P_REF)
        a = loop.process(frame(x.samples[:1000]))
        b = loop.process(frame(x.samples[1000:]))
        whole = AutomaticGainControl(P_REF).process(x)
        assert np.array_equal(np.concatenate([a.samples, b.samples]), whole.samples)

    def test_streaming_across_block_boundaries_is_exact(self):
        # longer than BLOCK_SAMPLES and split off a block boundary
        assert 200_000 > BLOCK_SAMPLES and 70_001 % BLOCK_SAMPLES != 0
        x = rand_frame(200_000, 5, scale=0.3)
        loop = AutomaticGainControl(P_REF)
        a = loop.process(frame(x.samples[:70_001]))
        b = loop.process(frame(x.samples[70_001:]))
        whole = AutomaticGainControl(P_REF)
        y = whole.process(x)
        assert np.array_equal(np.concatenate([a.samples, b.samples]), y.samples)
        assert loop.gain == whole.gain

    @pytest.mark.parametrize("q", [0.1, 1e3, 1e-8])
    def test_step_response_oracle(self, q):
        # constant input power q: p[n-1] = q + (P_ref - q)*(1-mu)**n, and the
        # gain on sample n is sqrt(P_ref / p[n-1]) within the clamp; 1e-8
        # drives the gain into the 60 dB clamp
        n = np.arange(3000)
        loop = AutomaticGainControl(P_REF)
        y = loop.process(frame(np.full(n.size, np.sqrt(q) + 0j)))
        p_prev = q + (P_REF - q) * (1 - AGC_STEP_SIZE) ** np.append(n, n.size)
        g_max = 10 ** (AGC_MAX_GAIN_DB / 20)
        expected = np.minimum(np.sqrt(P_REF / p_prev), g_max)
        assert np.allclose(y.samples.real / np.sqrt(q), expected[:-1], rtol=1e-9, atol=0)
        assert not y.samples.imag.any()
        assert loop.gain == pytest.approx(expected[-1], rel=1e-9)


class TestPhaseFreqCorrection:
    def test_correct_after_offset_is_identity(self):
        x = rand_frame(5000, 5)
        warped = phase_freq_offset(x, 15.0, 2.0)
        restored = phase_freq_correct(warped, 15.0, 2.0)
        assert np.allclose(restored.samples, x.samples, rtol=1e-12, atol=1e-14)

    def test_zero_params_identity(self):
        x = rand_frame(100, 6)
        y = phase_freq_correct(x, 0.0, 0.0)
        assert np.allclose(y.samples, x.samples, rtol=1e-15)

    def test_partial_correction_leaves_winding(self):
        """Correcting only the 15 deg tilt with 2 Hz still spinning leaves the
        uniform-rotation error floor (0.414 by enumeration)."""
        cfg = ModemConfig()
        bits = generate_bits(200_000, 7)
        s = qam_modulate(bits, cfg)
        spun = phase_freq_offset(s, 15.0, 2.0)  # 2 Hz at symbol rate: slow spin
        corrected = phase_freq_correct(spun, 15.0, 0.0)
        ber = np.mean(qam_demodulate(corrected, cfg).bits != bits.bits)
        expected = oracles.uniform_rotation_average_ber(1440)
        assert ber == pytest.approx(expected, abs=0.02)


class TestReceiverChain:
    def test_full_receiver_deterministic(self, reference_scenario):
        a = simulate(replace(reference_scenario, total_bits=20_000), with_spectra=False)
        b = simulate(replace(reference_scenario, total_bits=20_000), with_spectra=False)
        assert a.ber.as_dict() == b.ber.as_dict()
        assert np.array_equal(
            a.constellation_rx_postcorrection, b.constellation_rx_postcorrection
        )

    @pytest.mark.xfail(
        strict=True,
        reason="at the published TWTA operating point the AM/PM conversion "
        "displaces the corner clusters by ~0.5 (> 0.15*d); the amplifier "
        "backoff needed to meet 0.15*d is not published. The linearized-"
        "amplifier variant re-centers exactly (see acceptance figure tests).",
    )
    def test_compensated_clusters_within_015d(self, reference_scenario):
        result = simulate(replace(reference_scenario, total_bits=60_000), with_spectra=False)
        pts = result.constellation_rx_postcorrection
        received = pts[:, 0] + 1j * pts[:, 1]
        lattice = [complex(i, q) for i in (-3, -1, 1, 3) for q in (-3, -1, 1, 3)]
        for target in lattice:
            cluster = received[np.abs(received - target) < 1.0]
            assert cluster.size > 0
            assert abs(cluster.mean() - target) <= 0.15 * 2.0

    def test_chain_order_dc_agc_correct_then_match(self, reference_scenario):
        # the pipeline applies DC -> AGC -> phase/freq -> matched filter;
        # with everything enabled the compensated BER sits near zero while
        # the uncompensated one is dominated by the spinning constellation
        on = simulate(replace(reference_scenario, total_bits=20_000), with_spectra=False)
        comp_off = replace(
            reference_scenario,
            compensation=replace(reference_scenario.compensation, phase_freq=False),
        )
        off = simulate(replace(comp_off, total_bits=20_000), with_spectra=False)
        assert on.ber.ber < 0.01
        assert off.ber.ber > 0.3
