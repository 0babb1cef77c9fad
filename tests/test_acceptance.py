"""Acceptance suite: one test per acceptance criterion, each printing a
PASS/FAIL line (run with ``pytest -s`` or ``-rA`` to see them all).

Two criteria compare a measurement with an exact first-principles oracle
from ``oracles.py``, each on the chain that the oracle describes; the
published figure is printed beside it as a documented deviation:

* criterion 3b: ``oracles.rotation_ber`` is the BER of a noiseless, purely
  geometric rotation of the d=2 16-QAM grid.  It is compared with the
  uncompensated, noiseless chain with the amplifier linearized, at the
  15 degree tilt (oracle 0: the first boundary crossing is at 16.87
  degrees) and at tilts past that crossing.  The published 0.1236 comes
  from a chain with the TWTA on, whose AM/PM adds to the tilt; that figure
  is bracketed by criterion 3a.
* criterion 4: ``oracles.uniform_rotation_average_ber`` is the BER of a
  Gray-coded 16-QAM grid spinning through whole turns (0.41406).  It is
  compared with the uncompensated reference link under its 2 Hz Doppler.
  The published 0.5001 was measured at a noise level that is not
  published, so the simulator cannot be asked to produce it.

See README "Known validation gaps".
"""

import json
import math
from dataclasses import replace

import numpy as np
import pytest

import oracles
from vsatlink import (
    AntennaSpec,
    BudgetLeg,
    ComplexFrame,
    ImpairmentConfig,
    LinkGains,
    LinkGeometry,
    ModemConfig,
    SalehParams,
    SatelliteChannel,
    antenna_gain_db,
    compute_budget,
    free_space_path_loss_db,
    generate_bits,
    phase_freq_correct,
    phase_freq_offset,
    qam_demodulate,
    qam_modulate,
    rrc_taps,
    rx_match,
    theoretical_qam_ber,
    tx_shape,
)
from vsatlink.cli import EXIT_OK, main
from vsatlink.linkbudget import format_report
from vsatlink.pipeline import simulate

D = 2.0  # constellation minimum distance


def check(tag: str, ok: bool, detail: str) -> bool:
    print(f"acceptance {tag}: {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


@pytest.fixture(scope="module")
def reference_run_dirs(tmp_path_factory, reference_scenario):
    """Two identical CLI runs of the shipped scenario (criteria 5, 10, figures)."""
    base = tmp_path_factory.mktemp("reference-runs")
    dirs = []
    for name in ("run-a", "run-b"):
        out = base / name
        code = main(["simulate", "kptcl-cband", "--out", str(out)])
        assert code == EXIT_OK
        dirs.append(out)
    return dirs


def test_criterion_1_antenna_gains():
    gu = antenna_gain_db(AntennaSpec(7.2, 0.64), 6946e6)
    gd = antenna_gain_db(AntennaSpec(1.8, 0.63), 4721e6)
    ok = abs(gu - 52.48) <= 0.2 and abs(gd - 36.85) <= 0.2
    check("1", ok, f"aperture gains {gu:.3f} dB (ref 52.48 +-0.2), {gd:.3f} dB (ref 36.85 +-0.2)")
    assert ok


def test_criterion_2_path_loss(reference_scenario):
    up = free_space_path_loss_db(LinkGeometry(3.7e7, 6946e6))
    down = free_space_path_loss_db(LinkGeometry(3.7e7, 4721e6))
    # independent evaluation, different composition of the same definition
    up_ref = 20 * math.log10(4 * math.pi * 3.7e7 * 6946e6 / 3e8)
    down_ref = 20 * math.log10(4 * math.pi * 3.7e7 * 4721e6 / 3e8)
    values_ok = abs(up - up_ref) <= 0.01 and abs(down - down_ref) <= 0.01
    values_ok &= abs(up - 200.64) <= 0.01 and abs(down - 197.29) <= 0.01

    # the reports display the published 221/217 dB overrides beside Eq-form values
    gains = reference_scenario.gains
    uplink_leg = BudgetLeg(
        name="uplink", tx_power_w=2.0, tx_antenna_gain_db=gains.tx_dish_gain_db,
        rx_antenna_gain_db=gains.sat_rx_gain_db,
        geometry=LinkGeometry(3.7e7, 6946e6),
        loss_override_db=gains.uplink_loss_db,
        bandwidth_hz=36e6, system_noise_temperature_k=45.0,
    )
    up_text = format_report(compute_budget(uplink_leg))
    downlink = next(leg for leg in reference_scenario.budget_legs if leg.name == "downlink")
    down_text = format_report(compute_budget(downlink))
    display_ok = (
        "200.64" in up_text and "221.00" in up_text
        and "197.29" in down_text and "217.00" in down_text
    )
    ok = values_ok and display_ok
    check("2", ok, f"path loss {up:.2f}/{down:.2f} dB vs Eq-form refs; overrides 221/217 displayed")
    assert ok


def _phase_only_scenario(reference_scenario, tilt_deg=None):
    """Uncompensated, noiseless, Doppler-free run of ``reference_scenario``,
    optionally with its phase tilt replaced by ``tilt_deg``."""
    imp = replace(
        reference_scenario.impairments, freq_offset_hz=0.0, noise_temperature_k=0.0
    )
    if tilt_deg is not None:
        imp = replace(imp, phase_offset_deg=tilt_deg)
    comp = replace(reference_scenario.compensation, dc=False, agc=False, phase_freq=False)
    return replace(reference_scenario, impairments=imp, compensation=comp)


@pytest.fixture(scope="module")
def phase_only_ber(reference_scenario):
    sc = _phase_only_scenario(reference_scenario)
    return simulate(replace(sc, total_bits=100_000), with_spectra=False).ber.ber


def test_criterion_3a_phase_impairment_bracket(phase_only_ber):
    ok = 0.06 <= phase_only_ber <= 0.19
    check("3a", ok, f"15-degree tilt, uncompensated: BER {phase_only_ber:.4f} in [0.06, 0.19] "
          "(reference result 0.1236)")
    assert ok


def test_criterion_3b_phase_impairment_rotation_oracle(neutral_reference_scenario):
    rows = []
    ok = True
    # 15 degrees is the published tilt, where the oracle is 0; 20 and 30
    # degrees lie past the first boundary crossing (16.87 degrees), so a
    # missing or wrong rotation shows.  Tilts that put a grid point exactly on
    # a decision boundary (45 degrees) are avoided: there the oracle's tie
    # rule decides its value.
    for tilt in (15.0, 20.0, 30.0):
        sc = _phase_only_scenario(neutral_reference_scenario, tilt)
        measured = simulate(replace(sc, total_bits=100_000), with_spectra=False).ber.ber
        oracle = oracles.rotation_ber(tilt)
        ok &= abs(measured - oracle) <= 0.02
        rows.append(f"{tilt:g} deg: {measured:.4f} vs {oracle:.4f}")
    check(
        "3b", ok,
        "linearized amplifier, noiseless, uncompensated tilt vs exact rotation "
        "oracle within 0.02: " + "; ".join(rows)
        + " (published 0.1236 at 15 deg includes TWTA AM/PM; bracketed by 3a)",
    )
    assert ok


def test_criterion_4_frequency_impairment(reference_scenario):
    comp = replace(reference_scenario.compensation, dc=False, agc=False, phase_freq=False)
    sc = replace(reference_scenario, compensation=comp)
    ber = simulate(replace(sc, total_bits=100_000), with_spectra=False).ber.ber
    uniform = oracles.uniform_rotation_average_ber(1440)
    ok = abs(ber - uniform) <= 0.01
    check(
        "4", ok,
        f"2 Hz offset, uncompensated: BER {ber:.4f} vs exact uniform-rotation "
        f"average {uniform:.5f} +-0.01 (published 0.5001 was measured at an "
        "unpublished noise level; documented deviation)",
    )
    assert ok


def test_criterion_5_compensated_link(reference_run_dirs):
    ber = json.loads((reference_run_dirs[0] / "ber.json").read_text())
    ok = ber["bits_compared"] >= 10**6 - 4 and ber["ber"] <= 5e-3
    check("5", ok, f"all impairments + full compensation at 1e6 bits: "
          f"BER {ber['ber']:.6f} <= 5e-3 (reference result 0.00052)")
    assert ok


def test_criterion_6_awgn_validation(awgn_scenario):
    rows = []
    ok = True
    for db in (10.0, 12.0, 14.0, 16.0):
        sc = replace(awgn_scenario, target_es_n0_db=db)
        result = simulate(replace(sc, total_bits=200_000), with_spectra=False)
        theory = theoretical_qam_ber(db, 16)
        measured = result.ber.ber
        if result.ber.bit_errors >= 50:
            ratio = measured / theory
            ok &= 1 / 3 <= ratio <= 3
            rows.append(f"{db:g} dB: {measured:.2e}/{theory:.2e} (x{ratio:.2f})")
        else:
            rows.append(f"{db:g} dB: only {result.ber.bit_errors} errors, skipped")
    check("6", ok, "Es/N0 sweep vs closed form within x3: " + "; ".join(rows))
    assert ok


def test_criterion_7_nyquist_cascade():
    cfg = ModemConfig()
    isi = oracles.cascade_isi_profile(rrc_taps(cfg), cfg.samples_per_symbol)
    ok = isi.max() <= 1e-3
    check("7", ok, f"Tx+Rx cascade worst symbol-lag ISI {isi.max():.2e} <= 1e-3")
    assert ok


def test_criterion_8_saleh_analytics():
    p = SalehParams(input_scale_db=0.0, output_scale_db=0.0)

    def amam(r):
        return p.amam_alpha * r / (1 + p.amam_beta * r * r)

    # staged grid search refines the AM/AM peak to 1e-7
    grid = np.linspace(0.5, 1.5, 100_001)
    r0 = grid[np.argmax(amam(grid))]
    fine = np.linspace(r0 - 2e-5, r0 + 2e-5, 400_001)
    r_peak = fine[np.argmax(amam(fine))]
    a_peak = amam(r_peak)

    analytic_r = 1 / math.sqrt(p.amam_beta)
    analytic_a = p.amam_alpha / (2 * math.sqrt(p.amam_beta))
    big = 1e9
    ampm_limit = p.ampm_alpha * big**2 / (1 + p.ampm_beta * big**2)

    ok = (
        # analytic expressions agree with the staged grid search to 1e-6
        abs(r_peak - analytic_r) <= 1e-6
        and abs(a_peak - analytic_a) <= 1e-6
        # quoted reference decimals (rounded prints, one mis-rounded digit:
        # 1/sqrt(1.1517) = 0.931816 and 4.0033/9.1040 = 0.439719)
        and abs(analytic_r - 0.93177) <= 1e-4
        and abs(analytic_a - 1.00576) <= 1e-4
        and abs(ampm_limit - 0.43973) <= 1e-4
    )
    check("8", ok, f"AM/AM peak {a_peak:.6f} at r={r_peak:.6f} (refs 1.00576 at 0.93177), "
          f"AM/PM limit {ampm_limit:.5f} rad (ref 0.43973); grid-search agreement <= 1e-6")
    assert ok


def test_criterion_9_inverse_composition_identities():
    cfg = ModemConfig()
    bits = generate_bits(40_000, 21)
    s = qam_modulate(bits, cfg)
    x = tx_shape(s, cfg)

    # offset then correct is the identity
    warped = phase_freq_offset(x, 15.0, 2.0)
    restored = phase_freq_correct(warped, 15.0, 2.0)
    rot_err = np.max(np.abs(restored.samples - x.samples)) / np.max(np.abs(x.samples))

    # neutral chain in normalized mode is the identity
    out = SatelliteChannel(
        LinkGains(), SalehParams.linear(), ImpairmentConfig(),
        mode="normalized", reference_symbol_power=cfg.mean_symbol_power,
    ).run(x)[0]
    chain_err = np.max(np.abs(out.samples - x.samples)) / np.max(np.abs(x.samples))

    # and the demodulated bits reproduce the source exactly
    span = cfg.filter_span_symbols
    symbols = rx_match(out, cfg)
    trimmed = ComplexFrame(symbols.samples[span : span + len(s)], cfg.symbol_rate_hz)
    bits_ok = np.array_equal(qam_demodulate(trimmed, cfg).bits, bits.bits)

    ok = rot_err <= 1e-12 and chain_err <= 1e-9 and bits_ok
    check("9", ok, f"offset-correct residual {rot_err:.1e} <= 1e-12; neutral-chain "
          f"residual {chain_err:.1e} <= 1e-9; bit round trip exact: {bits_ok}")
    assert ok


def test_criterion_10_reproducibility(reference_run_dirs):
    a, b = reference_run_dirs
    files = [
        "ber.json",
        "constellation_tx.csv",
        "constellation_rx_precorrection.csv",
        "constellation_rx_postcorrection.csv",
        "spectrum_tx.csv",
        "spectrum_rx.csv",
    ]
    same = {f: (a / f).read_bytes() == (b / f).read_bytes() for f in files}
    ok = all(same.values())
    check("10", ok, "same seed, byte-identical artifacts: "
          + ", ".join(f"{f}:{'yes' if v else 'NO'}" for f, v in same.items()))
    assert ok


class TestFigureReproduction:
    """Geometric properties of the emitted figure point sets."""

    def test_tx_constellation_grid(self, reference_run_dirs):
        rows = np.loadtxt(reference_run_dirs[0] / "constellation_tx.csv",
                          delimiter=",", skiprows=1)
        pts = {(re, im) for re, im in rows}
        grid = {(float(i), float(q)) for i in (-3, -1, 1, 3) for q in (-3, -1, 1, 3)}
        ok = pts == grid
        check("fig-7", ok, f"transmit constellation is the 16-point +-1/+-3 grid ({len(pts)} points)")
        assert ok

    def test_exact_phase_rotation(self, neutral_reference_scenario):
        sc = _phase_only_scenario(neutral_reference_scenario)
        result = simulate(replace(sc, total_bits=40_000), with_spectra=False)
        pts = result.constellation_rx_precorrection
        z = pts[:, 0] + 1j * pts[:, 1]
        grid = np.array([complex(i, q) for i in (-3, -1, 1, 3) for q in (-3, -1, 1, 3)])
        rotated = grid * np.exp(1j * np.deg2rad(15.0))
        dev = np.max([np.min(np.abs(p - rotated)) for p in z])
        ok = dev <= 0.02  # truncated-filter ISI is the only residual
        check("fig-8", ok, f"linearized chain, 15-degree tilt: max deviation from the "
              f"rotated grid {dev:.2e} <= 0.02")
        assert ok

    def test_frequency_offset_rings(self, neutral_reference_scenario):
        imp = replace(neutral_reference_scenario.impairments,
                      phase_offset_deg=0.0, noise_temperature_k=0.0)
        comp = replace(neutral_reference_scenario.compensation,
                       dc=False, agc=False, phase_freq=False)
        sc = replace(neutral_reference_scenario, impairments=imp, compensation=comp)
        result = simulate(replace(sc, total_bits=100_000), snapshot_points=8000,
                          with_spectra=False)
        pts = result.constellation_rx_precorrection
        z = pts[:, 0] + 1j * pts[:, 1]
        radii = np.array([np.sqrt(2), np.sqrt(10), np.sqrt(18)])
        ring_dev = np.max(np.min(np.abs(np.abs(z)[:, None] - radii), axis=1))
        outer = z[np.abs(np.abs(z) - np.sqrt(18)) < 0.1]
        spread = np.ptp(np.angle(outer))
        ok = ring_dev <= 0.05 and spread > 0.9 * 2 * np.pi
        check("fig-9", ok, f"2 Hz offset: cloud collapses onto the 3 symbol rings "
              f"(max radial dev {ring_dev:.3f}), outer ring swept {np.degrees(spread):.0f} deg")
        assert ok

    def test_compensated_clusters_recenter(self, neutral_reference_scenario):
        sc = replace(
            neutral_reference_scenario,
            mode="normalized",
            target_es_n0_db=18.0,
        )
        result = simulate(replace(sc, total_bits=80_000), snapshot_points=4096, with_spectra=False)
        pts = result.constellation_rx_postcorrection
        z = pts[:, 0] + 1j * pts[:, 1]
        lattice = [complex(i, q) for i in (-3, -1, 1, 3) for q in (-3, -1, 1, 3)]
        worst = 0.0
        for target in lattice:
            cluster = z[np.abs(z - target) < 1.0]
            assert cluster.size > 50
            worst = max(worst, abs(cluster.mean() - target))
        ok = worst <= 0.15 * D
        check("fig-10", ok, f"compensated clusters re-center on the lattice "
              f"(worst offset {worst:.3f} <= {0.15 * D})")
        assert ok

    def test_noise_floor_only_in_rx_spectrum(self, awgn_scenario):
        result = simulate(replace(awgn_scenario, total_bits=200_000))
        cfg = awgn_scenario.modem
        rs = cfg.symbol_rate_hz
        f_tx, p_tx = result.spectrum_tx
        f_rx, p_rx = result.spectrum_rx
        oob_tx = p_tx[np.abs(f_tx) > 0.8 * rs]
        oob_rx = p_rx[np.abs(f_rx) > 0.8 * rs]
        ratio = oob_rx.mean() / oob_tx.mean()
        flatness = oob_rx.std() / oob_rx.mean()
        ok = ratio > 100.0 and flatness < 0.5
        check("fig-11", ok, f"received spectrum carries a flat noise floor absent at the "
              f"transmitter (floor ratio x{ratio:.0f}, flatness {flatness:.2f})")
        assert ok
