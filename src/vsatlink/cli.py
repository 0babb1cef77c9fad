"""Command-line front end.

    vsatlink linkbudget <config> [--json PATH]
    vsatlink simulate <config> --out DIR [--bits N] [--seed S] [--points N]
    vsatlink sweep <config> --param KEY --values a:b:step --out CSV [--bits N] [--jobs N]

``<config>`` is a scenario file path or a builtin scenario name
(``kptcl-cband``, ``awgn-validation``).  Exit codes: 0 success, 2 config error,
3 pipeline error.  All files are written atomically (write then rename).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np

from .errors import ConfigError, ParameterError, VsatLinkError
from .linkbudget import combined_cn_db, format_report
from .pipeline import (
    MAX_SWEEP_POINTS,
    SNAPSHOT_POINTS_DEFAULT,
    parse_sweep_values,
    run_linkbudget,
    run_sweep,
    simulate,
)
from .scenario import ScenarioConfig, load_scenario

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_PIPELINE = 3

_FLOAT_FMT = "{:.12e}"


def _atomic_write(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _output_path(text: str, option: str, directory: bool = False) -> Path:
    """``text`` as a path ``option`` can write: a directory with ``directory``,
    else a file.  Checked before the run, so a bad path costs no simulation."""
    path = Path(text)
    base = next(p for p in (path, *path.parents) if p.exists())
    want_dir = directory or base != path
    if base.is_dir() != want_dir:
        raise ConfigError(f"{option}: {base} is {'not ' if want_dir else ''}a directory")
    return path


def _csv_text(header: str, rows: np.ndarray) -> str:
    """``header``, then one line per row of the 2-D ``rows``, each value
    formatted by ``_FLOAT_FMT``: one format string per row, over Python floats."""
    line = ",".join([_FLOAT_FMT] * rows.shape[1])
    return "\n".join([header, *(line.format(*row) for row in rows.tolist())]) + "\n"


def _json_text(data) -> str:
    return json.dumps(data, indent=2, sort_keys=True) + "\n"


def _scenario(config: str, **overrides) -> ScenarioConfig:
    """The scenario ``config`` with each override that was given set in it."""
    given = {key: value for key, value in overrides.items() if value is not None}
    return replace(load_scenario(config), **given)


def _cmd_linkbudget(args: argparse.Namespace) -> int:
    json_path = args.json and _output_path(args.json, "--json")
    scenario = load_scenario(args.config)
    reports = run_linkbudget(scenario)
    for report in reports:
        print(format_report(report))
        print()
    if len(reports) == 2:
        total = combined_cn_db(reports[0].cn_db, reports[1].cn_db)
        print(f"Combined C/N (both legs): {total:10.2f} dB")
    if json_path:
        payload = [report.__dict__ for report in reports]
        _atomic_write(json_path, _json_text(payload))
    return EXIT_OK


def _cmd_simulate(args: argparse.Namespace) -> int:
    out = _output_path(args.out, "--out", directory=True)
    scenario = _scenario(args.config, total_bits=args.bits, seed=args.seed)
    result = simulate(scenario, snapshot_points=args.points)
    _atomic_write(out / "ber.json", _json_text(result.ber.as_dict()))
    _atomic_write(out / "run_log.json", _json_text(result.run_log))
    for name, header, rows in (
        ("constellation_tx.csv", "re,im", result.constellation_tx),
        ("constellation_rx_precorrection.csv", "re,im", result.constellation_rx_precorrection),
        ("constellation_rx_postcorrection.csv", "re,im", result.constellation_rx_postcorrection),
        ("spectrum_tx.csv", "freq_hz,psd_w_per_hz", np.column_stack(result.spectrum_tx)),
        ("spectrum_rx.csv", "freq_hz,psd_w_per_hz", np.column_stack(result.spectrum_rx)),
    ):
        _atomic_write(out / name, _csv_text(header, rows))
    r = result.ber
    print(
        f"BER = {r.ber:.6g} ({r.bit_errors} errors / {r.bits_compared} bits, "
        f"delay {r.alignment_delay_bits} bits)"
    )
    print(f"artifacts written to {out}")
    return EXIT_OK


def _cmd_sweep(args: argparse.Namespace) -> int:
    if args.param == "total_bits" and args.bits is not None:
        raise ConfigError("total_bits: swept, so --bits cannot also set it")
    out = _output_path(args.out, "--out")
    scenario = _scenario(args.config, total_bits=args.bits)
    values = parse_sweep_values(args.values)
    rows = run_sweep(scenario, args.param, values, jobs=args.jobs)
    text_rows = np.array([(r["swept_value"], r["ber"], r["errors"], r["bits"]) for r in rows],
                         dtype=float)
    _atomic_write(out, _csv_text("swept_value,ber,errors,bits", text_rows))
    for r in rows:
        print(f"{args.param} = {r['swept_value']:g}: BER = {r['ber']:.6g} "
              f"({r['errors']}/{r['bits']})")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vsatlink",
        description="VSAT satellite link simulator and link-budget calculator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_budget = sub.add_parser("linkbudget", help="print the dB power balance per leg")
    p_budget.add_argument("config", help="scenario file or builtin name")
    p_budget.add_argument("--json", help="also write the reports as JSON")
    p_budget.set_defaults(func=_cmd_linkbudget)

    p_sim = sub.add_parser("simulate", help="run the full link and write artifacts")
    p_sim.add_argument("config", help="scenario file or builtin name")
    p_sim.add_argument("--out", required=True, help="output directory")
    p_sim.add_argument("--bits", type=int, default=None, help="override total_bits")
    p_sim.add_argument("--seed", type=int, default=None, help="override master seed")
    p_sim.add_argument("--points", type=int, default=SNAPSHOT_POINTS_DEFAULT,
                       help=f"constellation snapshot size (default {SNAPSHOT_POINTS_DEFAULT})")
    p_sim.set_defaults(func=_cmd_simulate)

    p_sweep = sub.add_parser("sweep", help="sweep one scalar key, one BER row per value")
    p_sweep.add_argument("config", help="scenario file or builtin name")
    p_sweep.add_argument("--param", required=True,
                         help="dotted numeric key, e.g. target_es_n0_db or modem.m_ary")
    p_sweep.add_argument("--values", required=True,
                         help=f"start:stop:step (at most {MAX_SWEEP_POINTS} points) or v1,v2,...; "
                              "a value list that starts with '-' takes '=', as in --values=-2:2:2")
    p_sweep.add_argument("--out", required=True, help="output CSV path")
    p_sweep.add_argument("--bits", type=int, default=None, help="override total_bits per point")
    p_sweep.add_argument("--jobs", type=int, default=1,
                         help="threads that run the points, at most one per point")
    p_sweep.set_defaults(func=_cmd_sweep)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, ParameterError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except VsatLinkError as exc:
        print(f"pipeline error: {exc}", file=sys.stderr)
        return EXIT_PIPELINE


if __name__ == "__main__":
    sys.exit(main())
