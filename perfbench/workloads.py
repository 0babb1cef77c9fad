"""The benchmark's workloads: the CLI command each runs and how its output is checked.

Every workload is one ``vsatlink`` CLI invocation.  The benchmark seed
reaches the program through the CLI only: ``simulate --seed`` for the
simulate workloads, and the ``seed`` key of a written copy of the scenario
for ``sweep``.  A seed of ``None`` runs the scenario's own default seed,
which is the run the accuracy metric ``ber_log_err`` is taken from.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path

# Published BER of the compensated KPTCL link, quoted by acceptance criterion 5.
KPTCL_REFERENCE_BER = 0.00052
# Criterion 5 gate on the compensated link.
KPTCL_MAX_BER = 5e-3
# Criterion 6: a measured AWGN BER must lie within this factor of theory,
# judged only on points with enough errors to estimate it.
AWGN_BAND = 3.0
AWGN_MIN_ERRORS = 50
AWGN_ES_N0_DB = 12.0
QAM_ORDER = 16
# bits_compared may fall short of the requested count by the alignment trim.
BIT_SLACK = 4

SWEEP_PARAM = "target_es_n0_db"
SWEEP_VALUES = "6:16:2"
SWEEP_POINTS = [6.0, 8.0, 10.0, 12.0, 14.0, 16.0]
SWEEP_BITS = 200_000  # awgn-validation's own total_bits


@dataclass(frozen=True)
class Workload:
    name: str
    command: str  # "simulate" or "sweep"
    scenario: str  # builtin scenario name
    bits: int  # bits per run (per point for sweep)
    jobs: int = 1  # processes running the simulation


WORKLOADS = {
    w.name: w
    for w in (
        Workload("sim-kptcl", "simulate", "kptcl-cband", 1_000_000),
        Workload("sim-awgn", "simulate", "awgn-validation", 1_000_000),
        Workload("sweep-awgn", "sweep", "awgn-validation", SWEEP_BITS, jobs=2),
    )
}


@dataclass(frozen=True)
class Outcome:
    """What one invocation left behind, read back from its output files."""

    rows: tuple  # (swept_value or None, ber, errors, bits) per BER row
    digest: str  # sha256 over every output file, in name order

    @property
    def bits(self) -> int:
        return sum(r[3] for r in self.rows)


def cli_args(w: Workload, seed: int | None, out: Path, bits: int | None = None) -> list[str]:
    """The CLI argv for one run; writes the seeded scenario copy for sweep."""
    bits = w.bits if bits is None else bits
    if w.command == "simulate":
        args = ["simulate", w.scenario, "--bits", str(bits), "--out", str(out / "artifacts")]
        return args if seed is None else args + ["--seed", str(seed)]
    from vsatlink.scenario import builtin_scenario_path

    config = w.scenario
    if seed is not None:
        doc = json.loads(builtin_scenario_path(w.scenario).read_text())
        doc["seed"] = seed
        config = str(out / "scenario.json")
        Path(config).write_text(json.dumps(doc))
    args = ["sweep", config, "--param", SWEEP_PARAM, "--values", SWEEP_VALUES,
            "--jobs", str(w.jobs), "--out", str(out / "sweep.csv")]
    return args if bits == SWEEP_BITS else args + ["--bits", str(bits)]


def read_outcome(w: Workload, out: Path) -> Outcome:
    """Parse the BER rows and fingerprint every output file of one run."""
    if w.command == "simulate":
        files = sorted((out / "artifacts").iterdir())
        ber = json.loads((out / "artifacts" / "ber.json").read_text())
        rows = ((None, ber["ber"], ber["bit_errors"], ber["bits_compared"]),)
    else:
        files = [out / "sweep.csv"]
        with open(files[0], newline="") as fh:
            rows = tuple(
                (float(r["swept_value"]), float(r["ber"]), int(float(r["errors"])),
                 int(float(r["bits"])))
                for r in csv.DictReader(fh)
            )
    h = hashlib.sha256()
    for f in files:
        h.update(f.name.encode() + b"\0" + f.read_bytes())
    return Outcome(rows=rows, digest=h.hexdigest())


def _theory(es_n0_db: float) -> float:
    from vsatlink.analysis import theoretical_qam_ber

    return theoretical_qam_ber(es_n0_db, QAM_ORDER)


def _reference_rows(w: Workload, o: Outcome) -> list[tuple[float, float]]:
    """(measured BER, reference BER) for every row the accuracy metric uses."""
    if w.name == "sim-kptcl":
        return [(o.rows[0][1], KPTCL_REFERENCE_BER)]
    if w.name == "sim-awgn":
        return [(o.rows[0][1], _theory(AWGN_ES_N0_DB))]
    return [(ber, _theory(v)) for v, ber, errors, _ in o.rows if errors >= AWGN_MIN_ERRORS]


def check(w: Workload, o: Outcome, bits: int | None = None) -> list[str]:
    """Problems with one run's output; an empty list means it passed."""
    bits = w.bits if bits is None else bits
    problems = [f"{b} bits compared, expected >= {bits - BIT_SLACK}"
                for _, _, _, b in o.rows if b < bits - BIT_SLACK]
    if w.name == "sim-kptcl":
        if not o.rows[0][1] <= KPTCL_MAX_BER:
            problems.append(f"BER {o.rows[0][1]:.6g} above the criterion-5 gate {KPTCL_MAX_BER}")
        return problems
    if w.command == "sweep":
        values = [r[0] for r in o.rows]
        if values != SWEEP_POINTS:
            problems.append(f"sweep rows {values}, expected {SWEEP_POINTS}")
    for ber, ref in _reference_rows(w, o):
        if not ref / AWGN_BAND <= ber <= ref * AWGN_BAND:
            problems.append(f"BER {ber:.6g} outside x{AWGN_BAND:g} of theory {ref:.6g}")
    return problems


def ber_log_err(w: Workload, o: Outcome) -> float:
    """|log10(BER / reference)| in decades, averaged over the rows it uses."""
    pairs = _reference_rows(w, o)
    if not pairs or any(ber <= 0 for ber, _ in pairs):
        return math.inf
    return sum(abs(math.log10(ber / ref)) for ber, ref in pairs) / len(pairs)
