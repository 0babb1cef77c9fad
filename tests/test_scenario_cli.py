"""Scenario validation and CLI surface tests (exit codes, files, formats)."""

import json
import math
import os
import subprocess
import sys
import threading
import time
from dataclasses import fields, is_dataclass, replace
from pathlib import Path
from typing import Optional, Union, get_args, get_origin, get_type_hints

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import vsatlink
from vsatlink import ConfigError, SalehParams, load_scenario, scenario_from_dict
from vsatlink.cli import _FLOAT_FMT, EXIT_CONFIG, EXIT_OK, EXIT_PIPELINE, _csv_text, main
from vsatlink.errors import ParameterError, PipelineError
from vsatlink.linkbudget import combined_cn_db
from vsatlink.modem import generate_bits
from vsatlink.pipeline import (
    MAX_SWEEP_POINTS,
    derive_seed,
    parse_sweep_values,
    run_linkbudget,
    run_sweep,
    simulate,
)
from vsatlink.scenario import (
    MAX_TOTAL_BITS,
    MAX_WAVEFORM_SAMPLES,
    MIN_BER_RUN_BITS,
    CompensationFlags,
    ScenarioConfig,
    builtin_scenario_names,
    builtin_scenario_path,
    replace_key,
    scenario_to_dict,
)


def minimal_doc(**overrides):
    doc = {
        "mode": "normalized",
        "target_es_n0_db": 14.0,
        "total_bits": 40_000,
        "seed": 3,
        "saleh": {
            "input_scale_db": 0.0, "amam_alpha": 1.0, "amam_beta": 0.0,
            "ampm_alpha": 0.0, "ampm_beta": 1.0, "output_scale_db": 0.0,
        },
        "compensation": {"dc": False, "agc": False, "phase_freq": False},
    }
    doc.update(overrides)
    return doc


def awgn_copy(tmp_path, key, value) -> Path:
    """A copy of the builtin ``awgn-validation`` file with the dotted ``key`` set."""
    doc = json.loads(builtin_scenario_path("awgn-validation").read_text())
    *sections, leaf = key.split(".")
    node = doc
    for section in sections:
        node = node[section]
    node[leaf] = value
    path = tmp_path / f"{key}={value!r}.scenario.json"
    path.write_text(json.dumps(doc))
    return path


@pytest.fixture
def no_point_runs(monkeypatch):
    """Make generating bits or starting a thread pool fail the test."""
    import concurrent.futures

    import vsatlink.pipeline as pipeline_mod

    def boom(*args, **kwargs):
        raise AssertionError("a point ran or a pool started")

    monkeypatch.setattr(pipeline_mod, "generate_bits", boom)
    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", boom)


def _leaf_paths(node, path=()):
    """Key paths of the scalar leaves of a scenario document."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return [path]
    return [leaf for key, value in items for leaf in _leaf_paths(value, path + (key,))]


_BUILTIN_DOCS = {name: json.loads(json.dumps(scenario_to_dict(load_scenario(name))))
                 for name in builtin_scenario_names()}
_BUILTIN_LEAVES = [(name, path) for name, doc in _BUILTIN_DOCS.items()
                   for path in _leaf_paths(doc)]


def _leaf_type(path):
    """The type of the scenario leaf at ``path``, with ``Optional[X]`` read as ``X``;
    None inside the free-form metadata."""
    hint = ScenarioConfig
    for key in path:
        if isinstance(key, int):  # an item of a tuple[X, ...] field
            hint = get_args(hint)[0]
        elif is_dataclass(hint):
            hint = get_type_hints(hint)[key]
        else:  # inside the free-form metadata
            return None
        args = [arg for arg in get_args(hint) if arg is not type(None)]
        if get_origin(hint) is Union and len(args) == 1:
            hint = args[0]
    return hint


_FLOAT_FIELDS = sorted({".".join(path) for _, path in _BUILTIN_LEAVES
                        if "budget_legs" not in path and _leaf_type(path) is float})
_BUDGET_FLOAT_PATHS = [path for name, path in _BUILTIN_LEAVES
                       if name == "kptcl-cband" and "budget_legs" in path
                       and _leaf_type(path) is float]
# the keys replace_key (and so a sweep) takes, and every other key of the builtins:
# flags, strings, sections, the budget_legs tuple and what is in it, metadata
_NUMBER_LEAVES = [(name, path) for name, path in _BUILTIN_LEAVES
                  if "budget_legs" not in path and _leaf_type(path) in (int, float)]
_REFUSED_KEYS = sorted({(name, path[:i]) for name, path in _BUILTIN_LEAVES
                        for i in range(1, len(path) + 1)} - set(_NUMBER_LEAVES), key=str)
# the last is an integer past the float range, which a JSON file can hold
_EXTREME_FLOATS = [1e300, -1e300, 1e30, -1e30, 10**400]


def _node(doc, path):
    """What ``doc`` holds at the key ``path``."""
    for key in path:
        doc = doc[key]
    return doc


def _leaf_id(param):
    return param if isinstance(param, str) else ".".join(map(str, param))


def _outcome(build):
    """The scenario ``build`` returns, as its run-log JSON, or the ConfigError it raises."""
    try:
        return json.dumps(scenario_to_dict(build()), sort_keys=True)
    except ConfigError as exc:
        return f"ConfigError: {exc}"


def _replace_leaf(node, path, value):
    """``node`` with the leaf at the key ``path`` set by ``dataclasses.replace``
    on its section, and each enclosing section rebuilt the same way."""
    head, *rest = path
    return replace(node, **{head: _replace_leaf(getattr(node, head), rest, value)
                            if rest else value})


def _config_fields(cls, prefix=""):
    """(dotted key, field, type hint) of each field of the dataclass ``cls`` and
    of the dataclasses its fields hold, items of a tuple and optional ones too."""
    hints = get_type_hints(cls)
    for f in fields(cls):
        key, hint = prefix + f.name, hints[f.name]
        yield key, f, hint
        for inner in (hint, *get_args(hint)):
            if is_dataclass(inner):
                yield from _config_fields(inner, f"{key}.")


# the number fields whose rule is not one range, so they declare none
_OWN_RULE_FIELDS = {"modem.rolloff", "impairments.seed", "total_bits", "seed", "target_es_n0_db"}

# an edit of the wrong type in a section, each refused when the config is made
_MISTYPED_EDITS = {
    "nested-integer": lambda sc: replace(sc, modem=replace(sc.modem, samples_per_symbol=8.5)),
    "string-coefficient": lambda sc: replace(sc, saleh=SalehParams(amam_alpha="2")),
    "integer-flag": lambda sc: replace(sc, compensation=CompensationFlags(dc=1)),
    "dict-section": lambda sc: replace(sc, modem={"m_ary": 4}),
}


def _with_leaf(doc, path, value):
    """A copy of ``doc`` with the leaf at ``path`` set, and the key text an
    error names it by: ("budget_legs", 0, "geometry", "range_m") ->
    "budget_legs[0].geometry: range_m"."""
    doc = json.loads(json.dumps(doc))
    *sections, leaf = path
    _node(doc, sections)[leaf] = value
    where = "".join(f"[{s}]" if isinstance(s, int) else f".{s}" for s in sections)
    return doc, f"{where.lstrip('.')}: {leaf}"


# (dotted key, (low, high), type hint) of each number field that declares a range,
# outside the budget legs, which no simulation reads
_RANGED_FIELDS = [(key, f.metadata["range"], hint)
                  for key, f, hint in _config_fields(ScenarioConfig)
                  if "range" in f.metadata and not key.startswith("budget_legs")]


def _in_range(low, high, hint):
    """A number in ``[low, high]``: an endpoint, a log-uniform magnitude (of
    either sign where the range has both) or a uniform draw."""
    if hint in (int, Optional[int]):
        return st.one_of(st.sampled_from([low, high]), st.integers(low, high))
    top = math.log10(max(abs(low), abs(high)))
    magnitude = st.floats(top - 12, top).map(lambda e: 10.0 ** e)
    signed = st.tuples(st.sampled_from([1.0, -1.0] if low < 0 else [1.0]), magnitude)
    return st.one_of(
        st.sampled_from([low, high]),
        signed.map(lambda sm: min(max(sm[0] * sm[1], low), high)),
        st.floats(low, high),
    )


@st.composite
def builtin_with_ranged_edits(draw):
    """A builtin scenario name and one to four (dotted key, value) edits, each
    value drawn from the range its field declares."""
    name = draw(st.sampled_from(sorted(_BUILTIN_DOCS)))
    keys = draw(st.lists(st.sampled_from(_RANGED_FIELDS), min_size=1, max_size=4,
                         unique_by=lambda leaf: leaf[0]))
    return name, [(key, draw(_in_range(*bounds, hint))) for key, bounds, hint in keys]


@st.composite
def builtin_with_one_bad_leaf(draw):
    """A builtin scenario document with one leaf replaced by a value of the wrong
    kind: non-finite, null, another JSON type, (in an integer field) a float, or
    (in a float field) a finite number of absurd size."""
    name, path = draw(st.sampled_from(_BUILTIN_LEAVES))
    doc = json.loads(json.dumps(_BUILTIN_DOCS[name]))
    *parents, leaf = path
    node = _node(doc, parents)
    old = node[leaf]
    kinds = [
        st.sampled_from([math.nan, math.inf, -math.inf, None]),
        st.booleans(),
        st.text(max_size=4),
        st.lists(st.integers(-3, 3), max_size=2),
        st.dictionaries(st.text(max_size=3), st.integers(-3, 3), max_size=2),
    ]
    if type(old) is int:
        kinds += [st.just(float(old)), st.floats(0.01, 0.99).map(lambda f: old + f)]
    if _leaf_type(path) is float:
        kinds.append(st.sampled_from(_EXTREME_FLOATS))
    node[leaf] = draw(st.one_of(kinds))
    return doc


class TestScenarioValidation:
    def test_builtin_names(self):
        assert set(builtin_scenario_names()) == {"awgn-validation", "kptcl-cband"}

    def test_load_builtin_by_name(self):
        sc = load_scenario("kptcl-cband")
        assert sc.mode == "physical"
        assert sc.impairments.phase_offset_deg == 15.0
        assert sc.gains.transponder_amp_gain_db is None

    def test_missing_file_diagnostic(self):
        with pytest.raises(ConfigError, match="no file"):
            load_scenario("does-not-exist.json")

    def test_unknown_key_is_named(self):
        doc = minimal_doc()
        doc["modem"] = {"rolloff": 0.2, "rollof_factor": 0.3}
        with pytest.raises(ConfigError, match="rollof_factor"):
            scenario_from_dict(doc)

    def test_unknown_top_level_key(self):
        with pytest.raises(ConfigError, match="extra_section"):
            scenario_from_dict(minimal_doc(extra_section={}))

    def test_comment_keys_ignored_everywhere(self):
        doc = minimal_doc()
        doc["comment"] = "top"
        doc["modem"] = {"comment": "x", "comments": {"rolloff": "y"}, "rolloff": 0.25}
        sc = scenario_from_dict(doc)
        assert sc.modem.rolloff == 0.25

    def test_normalized_requires_target(self):
        doc = minimal_doc()
        doc.pop("target_es_n0_db")
        with pytest.raises(ConfigError, match="target_es_n0_db"):
            scenario_from_dict(doc)

    def test_minimum_bits_for_ber_runs(self):
        with pytest.raises(ConfigError, match="total_bits"):
            scenario_from_dict(minimal_doc(total_bits=5000))

    def test_maximum_bits(self):
        assert scenario_from_dict(minimal_doc(total_bits=MAX_TOTAL_BITS)).total_bits \
            == MAX_TOTAL_BITS
        with pytest.raises(ConfigError, match=f"total_bits: must be <= {MAX_TOTAL_BITS}"):
            scenario_from_dict(minimal_doc(total_bits=MAX_TOTAL_BITS + 1))

    def test_minimum_bits_enforced_on_override_too(self, awgn_scenario):
        from vsatlink.pipeline import simulate

        with pytest.raises(Exception, match="10000"):
            simulate(replace(awgn_scenario, total_bits=500), with_spectra=False)

    @pytest.mark.parametrize("key, value", [
        ("total_bits", 12_000.9), ("seed", 2.7), ("seed", True),
    ])
    def test_non_integral_override_names_key(self, awgn_scenario, key, value):
        with pytest.raises(ConfigError, match=f"{key}: must be an integer, got {value}"):
            replace(awgn_scenario, **{key: value})

    def test_numpy_integer_override_runs_as_that_integer(self, awgn_scenario):
        logs = []
        for bits, seed in ((np.int64(12_000), np.int64(3)), (12_000, 3)):
            result = simulate(replace(awgn_scenario, total_bits=bits, seed=seed),
                              with_spectra=False)
            assert result.ber.bits_compared == 12_000
            logs.append(json.dumps(result.run_log))
        assert logs[0] == logs[1]

    def test_constraint_violation_names_section(self):
        doc = minimal_doc()
        doc["modem"] = {"rolloff": 1.5}
        with pytest.raises(ConfigError, match="modem"):
            scenario_from_dict(doc)

    def test_budget_leg_antenna_exclusivity(self):
        doc = minimal_doc(budget_legs=[{
            "name": "x", "tx_power_w": 1.0,
            "tx_antenna_gain_db": 30.0,
            "geometry": {"range_m": 3.7e7, "frequency_hz": 6e9},
            "bandwidth_hz": 36e6, "system_noise_temperature_k": 45.0,
        }])
        with pytest.raises(ConfigError, match="rx_antenna"):
            scenario_from_dict(doc)

    @pytest.mark.parametrize("name", builtin_scenario_names())
    def test_round_trip_through_dict(self, name):
        sc = load_scenario(name)
        again = scenario_from_dict(scenario_to_dict(sc))
        assert scenario_to_dict(again) == scenario_to_dict(sc)

    @given(doc=builtin_with_one_bad_leaf())
    @settings(max_examples=50, deadline=None)
    def test_bad_leaf_is_config_error_or_runs(self, doc):
        try:
            sc = scenario_from_dict(doc)
        except ConfigError:
            return
        simulate(replace(sc, total_bits=10_000), with_spectra=False)
        if sc.budget_legs:  # what `vsatlink linkbudget` computes
            reports = run_linkbudget(sc)
            if len(reports) == 2:
                combined_cn_db(reports[0].cn_db, reports[1].cn_db)

    @pytest.mark.parametrize("key", _FLOAT_FIELDS)
    def test_absurd_float_is_config_error_naming_key(self, key):
        *sections, leaf = key.split(".")
        named = f"{sections[0]}: {leaf} must be" if sections else f"{leaf}: must be"
        for value in _EXTREME_FLOATS:
            doc = json.loads(json.dumps(_BUILTIN_DOCS["awgn-validation"]))
            node = doc
            for section in sections:
                node = node[section]
            node[leaf] = value
            with pytest.raises(ConfigError) as err:
                scenario_from_dict(doc)
            assert str(err.value).startswith(named)

    @pytest.mark.parametrize("path", _BUDGET_FLOAT_PATHS,
                             ids=lambda path: ".".join(map(str, path)))
    def test_absurd_budget_number_is_config_error_naming_key(self, path):
        for value in _EXTREME_FLOATS:
            doc, key = _with_leaf(_BUILTIN_DOCS["kptcl-cband"], path, value)
            with pytest.raises(ConfigError) as err:
                scenario_from_dict(doc)
            assert str(err.value).startswith(f"{key} must be")

    @pytest.mark.parametrize("name, path", _NUMBER_LEAVES, ids=_leaf_id)
    def test_replace_key_builds_what_the_loader_builds(self, name, path):
        doc = _BUILTIN_DOCS[name]
        sc, key, old = scenario_from_dict(doc), ".".join(path), _node(doc, path)
        edits = [20.0, 7, None, True, math.nan, 1e300]
        if old is not None:  # gains.transponder_amp_gain_db is null in kptcl-cband
            edits += [old, float(old), old + 1, -old, 2.5 * old]
        for value in edits:
            loaded = _outcome(lambda: scenario_from_dict(_with_leaf(doc, path, value)[0]))
            assert _outcome(lambda: replace_key(sc, key, value)) == loaded, value
            try:  # this path names no dotted key, so only refusal is compared, not messages
                replaced = json.dumps(scenario_to_dict(_replace_leaf(sc, path, value)),
                                      sort_keys=True)
            except (ConfigError, ParameterError):
                replaced = "refused"
            assert replaced == ("refused" if loaded.startswith("ConfigError") else loaded), value
        if _leaf_type(path) is int:  # an integral float is stored as the integer
            assert type(_node(scenario_to_dict(replace_key(sc, key, float(old))), path)) is int

    @pytest.mark.parametrize("edit", _MISTYPED_EDITS.values(), ids=list(_MISTYPED_EDITS))
    def test_mistyped_edit_is_refused_before_any_stage(self, awgn_scenario, no_point_runs,
                                                       edit):
        with pytest.raises((ConfigError, ParameterError)):
            simulate(edit(awgn_scenario), with_spectra=False)

    def test_numbers_are_stored_as_python_numbers(self, awgn_scenario):
        for m_ary in (np.int64(16), 16.0):
            stored = replace(awgn_scenario.modem, m_ary=m_ary).m_ary
            assert (type(stored), stored) == (int, 16)
        scenario = replace(awgn_scenario, target_es_n0_db=np.float32(12.0))
        assert type(scenario.target_es_n0_db) is float
        json.dumps(scenario_to_dict(scenario))  # what the run log holds

    @given(case=builtin_with_ranged_edits())
    # the explicit transponder gains beside the builtin's auto-closed one
    @example(case=("kptcl-cband", [("gains.transponder_amp_gain_db", 400.0)]))
    @example(case=("kptcl-cband", [("gains.transponder_amp_gain_db", -400.0)]))
    @settings(max_examples=120, deadline=None, derandomize=True)
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_accepted_scenario_runs_and_replays(self, case):
        # what the config classes accept, anywhere in the declared ranges and
        # in either power mode, must run: a refusal belongs at the boundary
        name, edits = case
        scenario = replace(load_scenario(name), total_bits=MIN_BER_RUN_BITS)
        try:
            for key, value in edits:
                scenario = replace_key(scenario, key, value)
        except ConfigError:
            return  # a rule that is not one range, such as a power-of-4 m_ary
        result = simulate(scenario)
        # the run log's scenario, through JSON, replays the run
        assert scenario_from_dict(json.loads(json.dumps(result.run_log["scenario"]))) == scenario

    @pytest.mark.parametrize("name", builtin_scenario_names())
    def test_builtins_are_accepted_at_the_bit_cap(self, name):
        scenario = replace(load_scenario(name), total_bits=MAX_TOTAL_BITS)
        symbols = MAX_TOTAL_BITS // scenario.modem.bits_per_symbol
        assert symbols * scenario.modem.samples_per_symbol == MAX_WAVEFORM_SAMPLES

    def test_waveform_past_the_sample_cap_is_refused(self, awgn_scenario):
        modem = replace(awgn_scenario.modem, m_ary=4, samples_per_symbol=64)
        with pytest.raises(ConfigError) as err:
            replace(awgn_scenario, modem=modem, total_bits=MAX_TOTAL_BITS)
        message = str(err.value)
        assert message.startswith("total_bits: ")
        assert "modem.samples_per_symbol" in message
        # the same bits at the samples per symbol that fit are taken
        replace(awgn_scenario, modem=replace(modem, samples_per_symbol=4),
                total_bits=MAX_TOTAL_BITS)

    def test_every_number_field_declares_a_range(self):
        numbers = (int, float, Optional[int], Optional[float])
        unranged = {key for key, f, hint in _config_fields(ScenarioConfig)
                    if hint in numbers and "range" not in f.metadata}
        assert unranged == _OWN_RULE_FIELDS

    @pytest.mark.parametrize("name, path", _REFUSED_KEYS, ids=_leaf_id)
    def test_replace_key_refuses_all_but_number_fields(self, name, path):
        doc = _BUILTIN_DOCS[name]
        key = ".".join(map(str, path))
        for value in (1.0, _node(doc, path)):
            with pytest.raises(ConfigError) as err:
                replace_key(scenario_from_dict(doc), key, value)
            assert str(err.value) in (f"{key}: not a scalar numeric key", f"{key}: no such key")


class TestSweepHelpers:
    def test_parse_range(self):
        assert parse_sweep_values("6:16:2") == [6.0, 8.0, 10.0, 12.0, 14.0, 16.0]

    def test_parse_list(self):
        assert parse_sweep_values("1.5,2.5") == [1.5, 2.5]

    def test_bad_step(self):
        with pytest.raises(Exception):
            parse_sweep_values("0:10:0")

    def test_grid_at_the_point_cap_is_built(self):
        values = parse_sweep_values(f"0:{MAX_SWEEP_POINTS - 1}:1")
        assert len(values) == MAX_SWEEP_POINTS
        with pytest.raises(ParameterError, match="more than"):
            parse_sweep_values(f"0:{MAX_SWEEP_POINTS}:1")

    def test_non_scalar_key_rejected(self, awgn_scenario):
        with pytest.raises(ConfigError, match="not a scalar"):
            run_sweep(replace(awgn_scenario, total_bits=10_000), "compensation.dc", [1.0])

    @pytest.mark.parametrize("param, values, bits, error", [
        ("target_es_n0_db", [6.0, 8.0], 500, ParameterError),
        # only 64-QAM trims below 10 000, so building that point fails
        ("modem.m_ary", [4.0, 16.0, 64.0], 10_001, ConfigError),
    ], ids=["every-point", "one-point"])
    def test_too_few_bits_fail_before_any_worker(self, awgn_scenario, no_point_runs,
                                                 param, values, bits, error):
        with pytest.raises(error, match="total_bits"):
            run_sweep(replace(awgn_scenario, total_bits=bits), param, values, jobs=2)

    def test_unknown_key_rejected(self, awgn_scenario):
        with pytest.raises(ConfigError, match="no such key"):
            run_sweep(replace(awgn_scenario, total_bits=10_000), "impairments.nope", [1.0])

    def test_metadata_key_rejected_before_any_point_runs(self, awgn_scenario, no_point_runs):
        # metadata changes nothing in a run, so its points would differ only by seed
        sc = replace(awgn_scenario, total_bits=10_000, metadata={"rate": 64})
        with pytest.raises(ConfigError, match="metadata.rate: no such key"):
            run_sweep(sc, "metadata.rate", [1.0, 2.0, 3.0], jobs=2)

    def test_seed_mix_is_stable(self):
        # frozen values guard the documented splitmix64 derivation
        assert derive_seed(1, 1) == derive_seed(1, 1)
        assert derive_seed(1, 1) != derive_seed(1, 2)
        assert derive_seed(1, 1) != derive_seed(2, 1)

    def test_seed_sweep_seeds_each_point_from_its_value(self, awgn_scenario):
        def errors(param, values):
            sc = replace(awgn_scenario, total_bits=12_000)
            return [row["errors"] for row in run_sweep(sc, param, values)]

        assert errors("seed", [1.0, 2.0]) != errors("seed", [50.0, 99.0])
        # a point whose seed is the scenario's runs as in any other sweep
        assert errors("seed", [awgn_scenario.seed]) == errors(
            "target_es_n0_db", [awgn_scenario.target_es_n0_db])

    def test_parallel_sweep_matches_sequential(self, awgn_scenario):
        sc = replace(awgn_scenario, total_bits=20_000)
        seq = run_sweep(sc, "target_es_n0_db", [10.0, 14.0], jobs=1)
        par = run_sweep(sc, "target_es_n0_db", [10.0, 14.0], jobs=2)
        assert seq == par
        # the two points' threads switch every microsecond, so they
        # interleave in every stage
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            switched = run_sweep(sc, "target_es_n0_db", [10.0, 14.0], jobs=2)
        finally:
            sys.setswitchinterval(interval)
        assert switched == seq

    def test_pool_never_exceeds_point_count(self, awgn_scenario, monkeypatch):
        import concurrent.futures

        workers = []

        class RecordingPool(concurrent.futures.ThreadPoolExecutor):
            def __init__(self, max_workers):
                workers.append(max_workers)
                super().__init__(max_workers)

        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", RecordingPool)
        values = [10.0, 12.0, 14.0]
        sc = replace(awgn_scenario, total_bits=10_000)
        rows = run_sweep(sc, "target_es_n0_db", values, jobs=64)
        assert workers == [3]
        assert [row["swept_value"] for row in rows] == values
        run_sweep(sc, "target_es_n0_db", [10.0], jobs=64)
        assert workers == [3, 1]

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_failing_point_raises_its_stage(self, awgn_scenario, tmp_path, monkeypatch, capsys,
                                            jobs):
        import vsatlink.pipeline as pipeline_mod

        def boom(*args, **kwargs):
            raise RuntimeError("synthetic")

        monkeypatch.setattr(pipeline_mod, "RxMatcher", boom)
        sc = replace(awgn_scenario, total_bits=10_000)
        with pytest.raises(PipelineError) as info:
            run_sweep(sc, "target_es_n0_db", [10.0, 12.0], jobs=jobs)
        assert info.value.stage == "modem.rx_match"
        out = tmp_path / "s.csv"
        code = main(["sweep", "awgn-validation", "--param", "target_es_n0_db", "--values",
                     "10,12", "--bits", "10000", "--jobs", str(jobs), "--out", str(out)])
        assert code == EXIT_PIPELINE
        err = capsys.readouterr().err
        assert "[modem.rx_match]" in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_failing_point_stops_the_sweep_and_leaves_no_thread(self, awgn_scenario,
                                                                monkeypatch):
        import vsatlink.pipeline as pipeline_mod

        started = []

        def slow_bits(n, rng):
            # point i draws its 20 000 + 4i bits from its generator in one
            # call (they fit one chain block); point 0 fails, the others are slow
            started.append(n)
            if n == 20_000:
                raise RuntimeError("synthetic")
            time.sleep(0.2)
            return generate_bits(n, rng)

        sc = replace(awgn_scenario, total_bits=10_000)
        before = threading.active_count()
        run_sweep(sc, "target_es_n0_db", [10.0, 12.0], jobs=2)
        assert threading.active_count() == before
        monkeypatch.setattr(pipeline_mod, "generate_bits", slow_bits)
        values = [20_000.0 + 4 * i for i in range(6)]
        with pytest.raises(PipelineError) as info:
            run_sweep(sc, "total_bits", values, jobs=2)
        assert info.value.stage == "modem.generate_bits"
        assert 20_000 in started
        assert len(started) < len(values), started
        assert threading.active_count() == before


class TestCli:
    def test_csv_rows_format_each_value_as_the_per_value_format(self):
        # one format string per row over rows.tolist() must write what
        # formatting every numpy value by itself wrote
        rng = np.random.default_rng(3)
        freqs = np.fft.fftshift(np.fft.fftfreq(1024, 1 / 50_000.0))
        tables = [
            rng.standard_normal((64, 2)) * 10.0 ** rng.integers(-300, 300, (64, 2)),
            np.column_stack([freqs, rng.random(1024) * 1e-20]),
            np.array([[0.0, -0.0], [1e-310, -1e-310], [5e-324, -5e-324], [1e308, np.pi]]),
            np.array([(6.0, 0.14085, 28170, 200_000), (1e-300, 0.0, 0, 100_000_000)], dtype=float),
        ]
        for rows in tables:
            per_value = "\n".join(["h", *(",".join(_FLOAT_FMT.format(v) for v in row)
                                         for row in rows)]) + "\n"
            assert _csv_text("h", rows) == per_value

    def test_linkbudget_output(self, capsys):
        assert main(["linkbudget", "kptcl-cband"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "== uplink ==" in out and "== downlink ==" in out
        assert "Path loss (computed)" in out
        assert "Path loss (override; used)" in out
        assert "Combined C/N" in out

    @pytest.mark.parametrize("path, value", [
        (("budget_legs", 0, "bandwidth_hz"), 1e-300),
        (("budget_legs", 0, "tx_antenna_gain_db"), 1e300),
        (("budget_legs", 0, "tx_antenna_gain_db"), -1e300),
        (("budget_legs", 0, "geometry", "range_m"), 1e300),
        (("budget_legs", 0, "geometry", "frequency_hz"), 1e-300),
    ])
    def test_linkbudget_extreme_leg_number_is_config_error(self, tmp_path, capsys, path, value):
        doc, key = _with_leaf(json.loads(builtin_scenario_path("kptcl-cband").read_text()),
                              path, value)
        cfg = tmp_path / "leg.scenario.json"
        cfg.write_text(json.dumps(doc))
        assert main(["linkbudget", str(cfg)]) == EXIT_CONFIG
        assert f"{key} must be in" in capsys.readouterr().err

    def test_cli_import_loads_no_scipy(self):
        code = "import sys, vsatlink.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
        src = str(Path(vsatlink.__file__).resolve().parents[1])
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             check=True, env={**os.environ, "PYTHONPATH": src},
                             timeout=60).stdout
        assert out.strip() == "[]"

    def test_linkbudget_empty_legs_is_config_error(self, tmp_path, capsys):
        cfg = tmp_path / "empty.json"
        cfg.write_text(json.dumps(minimal_doc()))
        assert main(["linkbudget", str(cfg)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "no legs configured" in err
        assert "budget_legs" in err

    def test_bad_config_exit_code(self, tmp_path, capsys):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps(minimal_doc(typo_key=1)))
        assert main(["simulate", str(cfg), "--out", str(tmp_path / "o")]) == EXIT_CONFIG
        assert "typo_key" in capsys.readouterr().err

    def test_simulate_artifacts(self, tmp_path, capsys):
        cfg = tmp_path / "sc.json"
        cfg.write_text(json.dumps(minimal_doc()))
        out = tmp_path / "run"
        assert main(["simulate", str(cfg), "--out", str(out), "--bits", "40000"]) == EXIT_OK
        expected = {
            "ber.json",
            "run_log.json",
            "constellation_tx.csv",
            "constellation_rx_precorrection.csv",
            "constellation_rx_postcorrection.csv",
            "spectrum_tx.csv",
            "spectrum_rx.csv",
        }
        assert {p.name for p in out.iterdir()} == expected
        assert Path(out / "constellation_tx.csv").read_text().splitlines()[0] == "re,im"
        assert (
            Path(out / "spectrum_rx.csv").read_text().splitlines()[0]
            == "freq_hz,psd_w_per_hz"
        )
        ber = json.loads((out / "ber.json").read_text())
        assert set(ber) == {"ber", "bit_errors", "bits_compared", "alignment_delay_bits"}

    def test_run_log_reconstructs_scenario(self, tmp_path):
        cfg = tmp_path / "sc.json"
        cfg.write_text(json.dumps(minimal_doc(total_bits=200_000)))
        out = tmp_path / "run"
        main(["simulate", str(cfg), "--out", str(out), "--bits", "40000", "--seed", "5"])
        log = json.loads((out / "run_log.json").read_text())
        rebuilt = scenario_from_dict(log["scenario"])
        assert rebuilt.mode == "normalized"
        assert rebuilt.target_es_n0_db == 14.0
        assert (rebuilt.total_bits, rebuilt.seed) == (40_000, 5)  # the overrides ran
        replay = tmp_path / "replay.json"
        replay.write_text(json.dumps(log["scenario"]))
        assert main(["simulate", str(replay), "--out", str(tmp_path / "again")]) == EXIT_OK
        assert (tmp_path / "again" / "ber.json").read_bytes() == (out / "ber.json").read_bytes()
        eff = log["effective"]
        for key in (
            "total_bits", "master_seed", "bits_seed", "noise_seed",
            "symbol_rate_hz", "sample_rate_hz", "agc_reference_power",
            "alignment_delay_bits", "channel",
        ):
            assert key in eff

    def test_repeat_runs_byte_identical(self, tmp_path):
        cfg = tmp_path / "sc.json"
        cfg.write_text(json.dumps(minimal_doc()))
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert main(["simulate", str(cfg), "--out", str(out), "--bits", "40000"]) == EXIT_OK
            outs.append(out)
        for filename in ("ber.json", "constellation_rx_postcorrection.csv", "spectrum_rx.csv"):
            assert (outs[0] / filename).read_bytes() == (outs[1] / filename).read_bytes()

    def test_sweep_csv_and_monotonicity(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        code = main([
            "sweep", "awgn-validation",
            "--param", "target_es_n0_db",
            "--values", "6:16:2",
            "--out", str(out),
            "--bits", "50000",
        ])
        assert code == EXIT_OK
        lines = out.read_text().splitlines()
        assert lines[0] == "swept_value,ber,errors,bits"
        bers = [float(line.split(",")[1]) for line in lines[1:]]
        assert len(bers) == 6
        assert all(a >= b for a, b in zip(bers, bers[1:]))

    def test_sweep_jobs_below_one_is_config_error(self, tmp_path, capsys):
        code = main(["sweep", "awgn-validation", "--param", "target_es_n0_db",
                     "--values", "10", "--jobs", "0", "--out", str(tmp_path / "s.csv")])
        assert code == EXIT_CONFIG
        assert "jobs must be >= 1, got 0" in capsys.readouterr().err

    def test_sweep_empty_values_is_error(self, tmp_path, capsys):
        code = main([
            "sweep", "awgn-validation",
            "--param", "target_es_n0_db",
            "--values", "10:6:2",
            "--out", str(tmp_path / "s.csv"),
        ])
        assert code == EXIT_CONFIG

    @pytest.mark.parametrize("values", ["0:1e300:1e-300", "0:1e9:1e-3"])
    def test_oversized_sweep_grid_is_config_error(self, tmp_path, capsys, values):
        code = main(["sweep", "awgn-validation", "--param", "target_es_n0_db",
                     "--values", values, "--out", str(tmp_path / "s.csv")])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert f"sweep grid {values!r} has more than {MAX_SWEEP_POINTS} points" in err
        assert "Traceback" not in err

    def test_sweep_over_modem_order(self, tmp_path):
        out = tmp_path / "s.csv"
        code = main(["sweep", "awgn-validation", "--param", "modem.m_ary",
                     "--values", "4,16,64", "--out", str(out), "--bits", "12000"])
        assert code == EXIT_OK
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        bers = [float(row[1]) for row in rows]
        assert [float(row[0]) for row in rows] == [4.0, 16.0, 64.0]
        assert bers[0] <= bers[1] <= bers[2]

    def test_sweep_integer_key_takes_integral_values(self, tmp_path, capsys):
        out = tmp_path / "s.csv"
        code = main(["sweep", "awgn-validation", "--param", "modem.samples_per_symbol",
                     "--values", "4,8", "--out", str(out), "--bits", "10000"])
        assert code == EXIT_OK
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        assert [float(row[0]) for row in rows] == [4.0, 8.0]

    @pytest.mark.parametrize("param, values, message", [
        ("modem.samples_per_symbol", "4,4.5",
         "modem.samples_per_symbol: must be an integer, got 4.5"),
        ("target_es_n0_db", "10,nan", "sweep values must be finite, got 'nan'"),
        ("modem.rolloff", "0.2,1.5", "rolloff must be in (0, 1]"),
        ("compensation.dc", "1,0", "config error: compensation.dc: not a scalar numeric key"),
    ])
    def test_bad_sweep_value_fails_before_simulating(self, tmp_path, monkeypatch, capsys,
                                                     param, values, message):
        import vsatlink.pipeline as pipeline_mod

        def boom(*args, **kwargs):
            raise AssertionError("a sweep point ran before every value was checked")

        monkeypatch.setattr(pipeline_mod, "simulate", boom)
        code = main(["sweep", "awgn-validation", "--param", param, "--values", values,
                     "--out", str(tmp_path / "s.csv")])
        assert code == EXIT_CONFIG
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("key, value", [("seed", 1.5), ("total_bits", 40_000.5)])
    def test_non_integral_integer_key_is_config_error(self, tmp_path, capsys, key, value):
        cfg = tmp_path / "sc.json"
        cfg.write_text(json.dumps(minimal_doc(**{key: value})))
        assert main(["simulate", str(cfg), "--out", str(tmp_path / "o")]) == EXIT_CONFIG
        assert f"{key}: must be an integer, got {value}" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value", [
        ("target_es_n0_db", math.nan),
        ("impairments.phase_offset_deg", math.nan),
        ("impairments.seed", 1.5),
        ("modem.samples_per_symbol", 4.5),
        ("compensation.dc", "no"),
    ])
    def test_mistyped_value_is_config_error_naming_key(self, tmp_path, capsys, key, value):
        cfg = awgn_copy(tmp_path, key, value)
        code = main(["simulate", str(cfg), "--out", str(tmp_path / "o"), "--bits", "20000"])
        assert code == EXIT_CONFIG
        assert f"config error: {key}: must be " in capsys.readouterr().err

    @pytest.mark.parametrize("key, value, bounds", [
        ("modem.m_ary", 16384, "[4, 4096]"),  # the next power of 4
        ("modem.samples_per_symbol", 65, "[2, 64]"),
        ("modem.filter_span_symbols", 258, "[2, 256]"),  # the next even span
    ])
    def test_modem_integer_past_its_bound_is_config_error(self, tmp_path, monkeypatch,
                                                          capsys, key, value, bounds):
        import vsatlink.cli as cli_mod

        def boom(*args, **kwargs):
            raise AssertionError("simulate ran on an out-of-range modem config")

        monkeypatch.setattr(cli_mod, "simulate", boom)
        cfg = awgn_copy(tmp_path, key, value)
        code = main(["simulate", str(cfg), "--out", str(tmp_path / "o"), "--bits", "20000"])
        assert code == EXIT_CONFIG
        leaf = key.split(".")[1]
        assert f"modem: {leaf} must be in {bounds}, got {value}" in capsys.readouterr().err

    def test_integral_float_in_integer_field_runs_as_that_integer(self, tmp_path):
        ber = []
        for value in (8, 8.0):
            cfg = awgn_copy(tmp_path, "modem.samples_per_symbol", value)
            out = tmp_path / repr(value)
            assert main(["simulate", str(cfg), "--out", str(out), "--bits", "20000"]) == EXIT_OK
            ber.append((out / "ber.json").read_bytes())
        assert ber[0] == ber[1]

    def test_negative_impairment_seed_is_config_error(self, tmp_path, capsys):
        cfg = awgn_copy(tmp_path, "impairments.seed", -1)
        code = main(["simulate", str(cfg), "--out", str(tmp_path / "o"), "--bits", "20000"])
        assert code == EXIT_CONFIG
        assert "impairments: seed must be >= 0" in capsys.readouterr().err

    def test_zero_snapshot_points_fails_before_simulating(self, tmp_path, monkeypatch, capsys):
        import vsatlink.pipeline as pipeline_mod

        def boom(*args, **kwargs):
            raise AssertionError("bits generated before --points was checked")

        monkeypatch.setattr(pipeline_mod, "generate_bits", boom)
        code = main(["simulate", "awgn-validation", "--out", str(tmp_path / "o"),
                     "--points", "0"])
        assert code == EXIT_CONFIG
        assert "snapshot_points must be > 0, got 0" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [
        ["simulate", "awgn-validation", "--out", "o"],
        ["sweep", "awgn-validation", "--param", "target_es_n0_db", "--values", "10,12",
         "--jobs", "2", "--out", "s.csv"],
    ], ids=["simulate", "sweep"])
    def test_bits_past_the_bound_fail_before_any_array(self, tmp_path, monkeypatch, capsys,
                                                       no_point_runs, command):
        monkeypatch.chdir(tmp_path)
        code = main(command + ["--bits", "1000000000000"])
        assert code == EXIT_CONFIG
        assert f"total_bits: must be <= {MAX_TOTAL_BITS}, got 1000000000000" \
            in capsys.readouterr().err

    def test_waveform_past_the_sample_cap_fails_at_load(self, tmp_path, capsys, no_point_runs):
        # 1e8 QPSK bits at 64 samples per symbol: 3.2e9 samples, 51 GB a waveform
        doc = json.loads(builtin_scenario_path("awgn-validation").read_text())
        doc["modem"].update(m_ary=4, samples_per_symbol=64)
        doc["total_bits"] = MAX_TOTAL_BITS
        cfg = tmp_path / "big.json"
        cfg.write_text(json.dumps(doc))
        assert main(["simulate", str(cfg), "--out", str(tmp_path / "o")]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "config error: total_bits: " in err
        assert "modem.samples_per_symbol 64" in err and "3200000000" in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command, option, path", [
        (["simulate", "awgn-validation", "--bits", "20000", "--out", "file"], "--out", "file"),
        (["sweep", "awgn-validation", "--param", "target_es_n0_db", "--values", "10,12",
          "--jobs", "2", "--out", "dir"], "--out", "dir"),
        (["sweep", "awgn-validation", "--param", "target_es_n0_db", "--values", "10,12",
          "--jobs", "2", "--out", "file/s.csv"], "--out", "file"),
        (["linkbudget", "kptcl-cband", "--json", "dir"], "--json", "dir"),
    ], ids=["simulate-out-file", "sweep-out-dir", "sweep-out-under-file", "linkbudget-json-dir"])
    def test_unwritable_output_path_fails_before_any_run(self, tmp_path, monkeypatch, capsys,
                                                          no_point_runs, command, option, path):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "file").write_text("kept\n")
        (tmp_path / "dir").mkdir()
        assert main(command) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert f"config error: {option}: {path} is " in captured.err
        assert "Traceback" not in captured.err
        assert captured.out == ""  # refused before linkbudget prints its reports
        assert (tmp_path / "file").read_text() == "kept\n"
        assert not any((tmp_path / "dir").iterdir())

    def test_bits_sweep_with_bits_override_is_config_error(self, tmp_path, capsys,
                                                           no_point_runs):
        out = tmp_path / "t.csv"
        code = main(["sweep", "awgn-validation", "--param", "total_bits",
                     "--values", "20000,40000", "--bits", "12000", "--out", str(out)])
        assert code == EXIT_CONFIG
        assert "total_bits" in capsys.readouterr().err
        assert not out.exists()

    def test_es_n0_target_in_physical_mode_is_config_error(self, tmp_path, capsys,
                                                           no_point_runs):
        doc = json.loads(builtin_scenario_path("kptcl-cband").read_text())
        doc["target_es_n0_db"] = 10.0  # physical noise is kTB, so this would be ignored
        cfg = tmp_path / "sc.json"
        cfg.write_text(json.dumps(doc))
        assert main(["simulate", str(cfg), "--out", str(tmp_path / "o")]) == EXIT_CONFIG
        assert "config error: target_es_n0_db: " in capsys.readouterr().err

    def test_es_n0_sweep_of_physical_scenario_fails_while_points_are_built(
            self, tmp_path, capsys, no_point_runs):
        out = tmp_path / "s.csv"
        code = main(["sweep", "kptcl-cband", "--param", "target_es_n0_db", "--values", "0,40",
                     "--bits", "20000", "--jobs", "2", "--out", str(out)])
        assert code == EXIT_CONFIG
        assert "config error: target_es_n0_db: " in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("make", [
        lambda path: path.mkdir(),
        lambda path: path.write_bytes(b"\xff\xfe{}"),
    ], ids=["directory", "not-utf8"])
    def test_unreadable_scenario_is_config_error(self, tmp_path, capsys, make):
        cfg = tmp_path / "x.json"
        make(cfg)
        assert main(["simulate", str(cfg), "--out", str(tmp_path / "o")]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert f"config error: scenario: cannot read {cfg}: " in err
        assert "Traceback" not in err

    def test_negative_bits_reports_requested_count(self, tmp_path, capsys):
        code = main(["simulate", "awgn-validation", "--out", str(tmp_path / "o"),
                     "--bits", "-5"])
        assert code == EXIT_CONFIG
        assert "got -5 (-8 in whole symbols)" in capsys.readouterr().err

    def test_pipeline_error_exit_code(self, tmp_path, monkeypatch, capsys):
        import vsatlink.cli as cli_mod

        def boom(*args, **kwargs):
            raise PipelineError("channel.run", "synthetic failure")

        monkeypatch.setattr(cli_mod, "simulate", boom)
        cfg = tmp_path / "sc.json"
        cfg.write_text(json.dumps(minimal_doc()))
        assert main(["simulate", str(cfg), "--out", str(tmp_path / "o")]) == EXIT_PIPELINE
        assert "channel.run" in capsys.readouterr().err


class TestPipelineErrorWrapping:
    def test_stage_name_in_message(self, awgn_scenario, monkeypatch):
        import vsatlink.pipeline as pipeline_mod

        def boom(*args, **kwargs):
            raise ValueError("synthetic")

        monkeypatch.setattr(pipeline_mod, "qam_modulate", boom)
        with pytest.raises(PipelineError, match=r"\[modem\.qam_modulate\]"):
            pipeline_mod.simulate(replace(awgn_scenario, total_bits=12_000), with_spectra=False)

    @pytest.mark.parametrize("exc", [KeyboardInterrupt, SystemExit])
    def test_interrupt_and_exit_are_not_wrapped(self, awgn_scenario, monkeypatch, exc):
        import vsatlink.pipeline as pipeline_mod

        def interrupt(*args, **kwargs):
            raise exc

        monkeypatch.setattr(pipeline_mod, "TxShaper", interrupt)
        with pytest.raises(exc):
            pipeline_mod.simulate(replace(awgn_scenario, total_bits=12_000), with_spectra=False)
