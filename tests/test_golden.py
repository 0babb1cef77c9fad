"""Golden regression: fixed small runs of both builtins, pinned.

A change that claims to keep the behaviour (a faster filter, a leaner PSD)
must leave these values alone: the bit-error counts exactly, and the
artifact values within rtol=1e-9 (room for a different summation order,
none for a different result).  The figures were recorded at 1e5 bits with
each scenario's default seed.
"""

from dataclasses import replace

import numpy as np
import pytest

from vsatlink import load_scenario
from vsatlink.pipeline import simulate

GOLDEN = {
    "kptcl-cband": {
        "bit_errors": 40,
        "pre_first": [-2.6928352429530866, -2.274595812030931],
        "post_first": [-3.3122885146313363, -1.2059196502748923],
        "tx_psd_integral": 1.2498039889581867,
        "rx_psd_integral": 1.2515894739850653,
    },
    "awgn-validation": {
        "bit_errors": 2759,
        "pre_first": [3.222687247996264, -1.8838730109310065],
        "post_first": [3.222687247996264, -1.8838730109310065],
        "tx_psd_integral": 1.2410638757566164,
        "rx_psd_integral": 1.8697862990047527,
    },
}


def _psd_integral(spectrum) -> float:
    freqs, psd = spectrum
    return float(np.sum(psd) * (freqs[1] - freqs[0]))


@pytest.fixture(scope="module", params=sorted(GOLDEN))
def golden_run(request):
    result = simulate(replace(load_scenario(request.param), total_bits=100_000))
    return GOLDEN[request.param], result


def test_bit_errors_exact(golden_run):
    golden, result = golden_run
    assert result.ber.bit_errors == golden["bit_errors"]
    assert result.ber.bits_compared == 100_000


def test_first_constellation_rows(golden_run):
    golden, result = golden_run
    assert np.allclose(result.constellation_rx_precorrection[0], golden["pre_first"],
                       rtol=1e-9, atol=0)
    assert np.allclose(result.constellation_rx_postcorrection[0], golden["post_first"],
                       rtol=1e-9, atol=0)


def test_psd_integrals(golden_run):
    golden, result = golden_run
    assert _psd_integral(result.spectrum_tx) == pytest.approx(golden["tx_psd_integral"], rel=1e-9)
    assert _psd_integral(result.spectrum_rx) == pytest.approx(golden["rx_psd_integral"], rel=1e-9)
