import csv
import io
import json
import math
import os
import re
from dataclasses import FrozenInstanceError, fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gossipfresh.analytic import (
    closed_clustered,
    closed_flat,
    closed_sizes,
    clustered_freshness,
    divisors,
    optimal_cluster_size,
    oracle_flat,
    oracle_sizes,
)
from gossipfresh.core import DC_POLICIES, GossipPolicy, NetworkSpec, Rates, cycles_problem
from gossipfresh.core import int_problem, name_problem, size_problem
from gossipfresh import experiments
from gossipfresh.experiments import (
    CSV_HEADER,
    ConfigError,
    DEFAULT_RATE_CASES,
    ExperimentConfig,
    RateCase,
    ResultRow,
    SimSettings,
    emit_plot_data,
    read_csv,
    report_optimal_k,
    run_experiment,
    write_csv,
)

FLAT_SMALL = {
    "name": "flat_small",
    "mode": "flat_sweep_n",
    "policies": ["DC_noRC", "DC_RC", "FC_noRC", "FC_sRC", "FC_allRC"],
    "rates": {"lambda_s": 1.0, "lambda_g": 1.0, "alpha": [0.1, 1.0]},
    "n_range": [1, 10],
}

CLUSTERED_SMALL = {
    "name": "clustered_small",
    "mode": "clustered_sweep_k",
    "policies": [["DC_noRC", "DC_noRC"], ["DC_RC", "FC_allRC"]],
    "rates": {"lambda_e": 1.0, "lambda_s": 1.0, "lambda_c": 1.0, "lambda_g": 1.0},
    "n": 12,
}

CLUSTERED_POINT = dict(CLUSTERED_SMALL, name="clustered_point", mode="single_point", k=3)


# --- config parsing ----------------------------------------------------------


def test_flat_config_expands_alpha_cases():
    config = ExperimentConfig.from_dict(FLAT_SMALL)
    assert [c.label for c in config.cases] == ["alpha0.1", "alpha1"]
    assert config.cases[0].rates.lambda_e == pytest.approx(0.1)
    assert len(config.policies) == 5


def test_unknown_keys_rejected_everywhere():
    with pytest.raises(ConfigError, match="typo_key"):
        ExperimentConfig.from_dict(dict(FLAT_SMALL, typo_key=1))
    with pytest.raises(ConfigError, match="lambda_x"):
        ExperimentConfig.from_dict(
            dict(FLAT_SMALL, rates={"lambda_s": 1.0, "lambda_x": 2.0, "alpha": [1.0]})
        )
    bad_sim = dict(FLAT_SMALL, sim={"cycles": 10, "seed": 0, "warmup": 5})
    with pytest.raises(ConfigError, match="warmup"):
        ExperimentConfig.from_dict(bad_sim)


def test_alpha_and_lambda_e_are_exclusive():
    with pytest.raises(ConfigError, match="mutually exclusive"):
        ExperimentConfig.from_dict(
            dict(FLAT_SMALL, rates={"lambda_s": 1.0, "lambda_e": 1.0, "alpha": [1.0]})
        )


def test_alpha_rejected_for_clustered_sweeps():
    with pytest.raises(ConfigError, match="alpha"):
        ExperimentConfig.from_dict(
            dict(CLUSTERED_SMALL, rates={"lambda_s": 1.0, "alpha": [1.0]})
        )


def test_config_reports_every_problem_at_once():
    raw = dict(FLAT_SMALL, typo_key=1, policies=["DC_noRC", "NOT_A_POLICY"], n_range=[5, 2])
    with pytest.raises(ConfigError) as err:
        ExperimentConfig.from_dict(raw)
    text = str(err.value)
    assert "typo_key" in text
    assert "NOT_A_POLICY" in text
    assert "n_range" in text


def test_clustered_single_point_needs_divisible_k():
    raw = {
        "name": "pt",
        "mode": "single_point",
        "policies": [["DC_RC", "FC_allRC"]],
        "rates": {"lambda_e": 1.0, "lambda_s": 1.0, "lambda_c": 1.0},
        "n": 10,
        "k": 4,
    }
    with pytest.raises(ConfigError, match="divide"):
        ExperimentConfig.from_dict(raw)


@pytest.mark.parametrize(
    "policies,problem",
    [
        (["DC_RC", "FC_sRC", "DC_RC"], "policies[2] repeats policies[0]"),
        ([["DC_RC", "DC_RC"], ["DC_RC", "DC_RC"]], "policies[1] repeats policies[0]"),
    ],
)
def test_a_repeated_policy_is_a_config_error(policies, problem):
    raw = dict(CLUSTERED_SMALL if isinstance(policies[0], list) else FLAT_SMALL, policies=policies)
    with pytest.raises(ConfigError) as err:
        ExperimentConfig.from_dict(raw)
    assert err.value.problems == [problem]


def test_config_problems_keep_each_case_at_its_position():
    # a case with bad rates reports only them, and the cases after it keep
    # their index; policy problems follow the rates problems
    cases = [
        {"label": "", "lambda_e": -1},
        {"label": "", "lambda_e": 1},
        {"label": "ok", "lambda_e": 1},
        2,
    ]
    raw = dict(CLUSTERED_NO_RATES, policies=[["DC_RC", "XX"]], cases=cases)
    with pytest.raises(ConfigError) as err:
        ExperimentConfig.from_dict(raw)
    assert err.value.problems == [
        "cases[0].lambda_e must be finite and > 0, got -1",
        f"policies[0]: unknown policy 'XX' (expected one of {FLAT_NAMES})",
        "cases[1].label must be a nonempty string, got ''",
        "cases[3] must be an object, got 2",
    ]


@pytest.mark.parametrize("alpha,lambda_e", [(1e300, "inf"), (1e-300, "0.0")])
def test_an_alpha_whose_lambda_e_overflows_or_underflows_is_a_config_error(alpha, lambda_e):
    rates = {"lambda_s": alpha, "alpha": [1.0, alpha]}
    with pytest.raises(ConfigError) as err:
        ExperimentConfig.from_dict(dict(FLAT_SMALL, rates=rates))
    problem = f"rates.alpha * rates.lambda_s must be finite and > 0, got {lambda_e}"
    assert err.value.problems == [problem]


@pytest.mark.parametrize(
    "raw,largest", [(FLAT_SMALL, 10), (CLUSTERED_SMALL, 12), (CLUSTERED_POINT, 12)]
)
def test_sim_cycles_times_the_largest_n_is_at_most_int64_max(raw, largest):
    fits = (2**63 - 1) // largest
    config = ExperimentConfig.from_dict(dict(raw, sim={"cycles": fits, "seed": 0}))
    assert (config.largest_n, config.sim.cycles) == (largest, fits)
    with pytest.raises(ConfigError) as err:
        ExperimentConfig.from_dict(dict(raw, sim={"cycles": fits + 1, "seed": 0}))
    assert err.value.problems == [cycles_problem("sim.cycles", fits + 1, largest)]


@pytest.mark.parametrize(
    "raw,key,minimum",
    [
        (CLUSTERED_SMALL, "n", 1),
        (CLUSTERED_POINT, "k", 1),
        (dict(FLAT_SMALL, sim={"cycles": 10, "seed": 0}), "sim.cycles", 1),
        (dict(FLAT_SMALL, sim={"cycles": 10, "seed": 0}), "sim.seed", 0),
    ],
)
@pytest.mark.parametrize("bad", ["below", "negative", 1.5, True, "1", None])
def test_config_integers_follow_the_one_integer_rule(raw, key, minimum, bad):
    value = {"below": minimum - 1, "negative": -7}.get(bad, bad)
    raw = dict(raw)
    if key.startswith("sim."):
        raw["sim"] = dict(raw["sim"], **{key[4:]: value})
    else:
        raw[key] = value
    with pytest.raises(ConfigError) as err:
        ExperimentConfig.from_dict(raw)
    # the only problem: a point with a bad k stays clustered, so its pairs
    # are not also reported as unknown flat policies
    assert err.value.problems == [int_problem(key, value, minimum)]


@pytest.mark.parametrize(
    "raw,key",
    [
        (CLUSTERED_SMALL, "n"),
        (CLUSTERED_POINT, "n"),
        (CLUSTERED_POINT, "k"),
        (FLAT_SMALL, "n_range[0]"),
        (FLAT_SMALL, "n_range[1]"),
    ],
)
@pytest.mark.parametrize("bad", [2**53 + 1, 2**63 - 1, 2**64, 3.0])
def test_config_sizes_follow_the_one_size_rule(raw, key, bad):
    raw = dict(raw)
    if key.startswith("n_range"):
        raw["n_range"] = [bad, 10] if key == "n_range[0]" else [1, bad]
    else:
        raw[key] = bad
    # n = 2**63 spent minutes in divisors and n_range [1, 10**19] overflowed
    with pytest.raises(ConfigError) as err:
        ExperimentConfig.from_dict(raw)
    assert err.value.problems == [size_problem(key, bad)]


@pytest.mark.parametrize("name", ["../../escape", "a/b", "a\\b"])
def test_a_config_name_with_a_path_separator_is_a_config_error(name):
    with pytest.raises(ConfigError) as err:
        ExperimentConfig.from_dict(dict(FLAT_SMALL, name=name))
    assert err.value.problems == [name_problem("name", name)]


FLAT_NO_RATES = {key: v for key, v in FLAT_SMALL.items() if key != "rates"}
CLUSTERED_NO_RATES = {key: v for key, v in CLUSTERED_SMALL.items() if key != "rates"}

#: One config error per row and its whole message; ``<path>`` stands for
#: the file.  The last row is the accepted scalar ``alpha``.
CONFIG_ERRORS = [
    (dict(FLAT_SMALL, name=""), "name must be a nonempty string, got ''"),
    (
        dict(FLAT_SMALL, mode="grid"),
        "mode must be one of ('flat_sweep_n', 'clustered_sweep_k', 'single_point'), got 'grid'",
    ),
    (dict(FLAT_SMALL, k=2), "k is only valid for single_point configs"),
    (dict(FLAT_SMALL, policies=[]), "policies must be a nonempty list, got []"),
    (
        dict(CLUSTERED_SMALL, policies=["DC_RC"]),
        "policies[0] must be a [source, cluster] pair, got 'DC_RC'",
    ),
    (dict(FLAT_SMALL, cases=[{"lambda_e": 1}]), "rates and cases are mutually exclusive"),
    (dict(FLAT_SMALL, rates=[1]), "rates must be an object, got [1]"),
    (dict(CLUSTERED_NO_RATES, cases=[]), "cases must be a nonempty list, got []"),
    (dict(CLUSTERED_NO_RATES, cases=[1]), "cases[0] must be an object, got 1"),
    (
        dict(CLUSTERED_NO_RATES, cases=[{"lambda_e": 1, "mu": 2}]),
        "cases[0]: unknown keys ['mu']",
    ),
    (FLAT_NO_RATES, "flat configs need a rates (or cases) section"),
    (dict(FLAT_SMALL, n_range=[1]), "n_range must be [lo, hi] integers, got [1]"),
    (dict(FLAT_SMALL, n=5), "n is not valid for flat_sweep_n (use n_range)"),
    (
        dict(CLUSTERED_SMALL, n_range=[1, 2]),
        "n_range is only valid for flat_sweep_n, not clustered_sweep_k",
    ),
    (dict(FLAT_SMALL, sim=5), "sim must be an object, got 5"),
    (dict(FLAT_SMALL, output=3), "output must be a string path, got 3"),
    (
        dict(FLAT_SMALL, output="rows\0.csv"),
        "output must not contain a NUL character, got 'rows\\x00.csv'",
    ),
    (dict(FLAT_SMALL, rates={"lambda_s": 1, "alpha": []}), "rates.alpha must not be empty"),
    (
        dict(FLAT_SMALL, rates={"lambda_s": 0, "alpha": [1]}),
        "rates.lambda_s must be finite and > 0, got 0.0",
    ),
    (
        dict(FLAT_SMALL, rates={"lambda_s": 1, "alpha": [0]}),
        "rates.alpha must be finite and > 0, got 0",
    ),
    (
        dict(CLUSTERED_SMALL, rates={"lambda_e": "x", "lambda_s": 1}),
        "rates.lambda_e must be a real number, got 'x'",
    ),
    # a label follows the rule of name; str(label) once named a case "None"
    *(
        (
            dict(CLUSTERED_NO_RATES, cases=[{"label": label, "lambda_e": 1}]),
            f"cases[0].label must be a nonempty string, got {label!r}",
        )
        for label in (None, [1, 2], "")
    ),
    ([FLAT_SMALL], "<path>: top level must be an object"),
    (dict(FLAT_SMALL, rates={"lambda_s": 1, "alpha": 0.5}), None),
]


@pytest.mark.parametrize("raw,problem", CONFIG_ERRORS)
def test_each_config_error_has_its_exact_message(raw, problem, tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(raw))
    if problem is None:  # a scalar alpha is a one-element list
        config = ExperimentConfig.from_json(path)
        assert config.cases == (RateCase("alpha0.5", Rates(0.5, 1.0, 0.0, 0.0)),)
        return
    with pytest.raises(ConfigError) as err:
        ExperimentConfig.from_json(path)
    assert err.value.problems == [problem.replace("<path>", str(path))]


def test_clustered_defaults_ship_four_rate_cases():
    config = ExperimentConfig.from_dict(
        {k: v for k, v in CLUSTERED_SMALL.items() if k != "rates"}
    )
    assert config.cases == DEFAULT_RATE_CASES
    assert len(config.cases) == 4


def test_named_cases_parse():
    raw = dict(
        CLUSTERED_SMALL,
        cases=[
            {"label": "even", "lambda_e": 1.0, "lambda_s": 2.0, "lambda_c": 2.0},
            {"lambda_e": 2.0, "lambda_s": 1.0, "lambda_c": 4.0},
        ],
    )
    del raw["rates"]
    config = ExperimentConfig.from_dict(raw)
    assert [c.label for c in config.cases] == ["even", "case2"]


# --- running sweeps ----------------------------------------------------------


def test_single_point_trivial_race(tmp_path):
    raw = {
        "name": "pt",
        "mode": "single_point",
        "policies": ["DC_noRC"],
        "rates": {"lambda_e": 1.0, "lambda_s": 1.0},
        "n": 1,
        "output": str(tmp_path / "pt.csv"),
    }
    rows = run_experiment(ExperimentConfig.from_dict(raw))
    assert len(rows) == 1
    assert rows[0].p_analytic == rows[0].p_oracle == 0.5
    assert (tmp_path / "pt.csv").exists()


def test_flat_sweep_grid_and_orderings():
    rows = run_experiment(ExperimentConfig.from_dict(FLAT_SMALL))
    assert len(rows) == 100  # 2 cases x 5 policies x 10 sizes
    by_point = {}
    for row in rows:
        by_point.setdefault((row.lambda_e, row.n), {})[row.policy_source] = row.p_oracle
    for values in by_point.values():
        assert values["FC_allRC"] >= values["FC_sRC"] >= values["FC_noRC"]
        assert values["DC_RC"] >= values["DC_noRC"]
    for row in rows:
        assert 0.0 <= row.p_oracle <= 1.0
        if row.p_analytic is not None:
            assert abs(row.p_analytic - row.p_oracle) <= 1e-12
        if row.policy_source == "FC_sRC":
            assert row.p_analytic is None
        if row.policy_source.startswith("DC"):
            assert row.lambda_g is None
        assert row.k is None and row.m is None and row.lambda_c is None


def test_clustered_sweep_grid():
    rows = run_experiment(ExperimentConfig.from_dict(CLUSTERED_SMALL))
    assert len(rows) == 2 * 6  # pairs x divisors(12)
    for row in rows:
        assert row.k * row.m == row.n == 12
        if row.policy_cluster.startswith("DC"):
            assert row.lambda_g is None
        else:
            assert row.lambda_g == 1.0
        if row.p_analytic is not None:
            assert abs(row.p_analytic - row.p_oracle) <= 1e-12


def test_sim_columns_are_consistent(tmp_path):
    raw = dict(FLAT_SMALL, n_range=[1, 3], policies=["DC_RC"], sim={"cycles": 20000, "seed": 5})
    rows = run_experiment(ExperimentConfig.from_dict(raw))
    for row in rows:
        assert row.cycles == 20000
        assert row.sim_ci_lo <= row.p_sim <= row.sim_ci_hi
        assert abs(row.p_sim - row.p_oracle) <= 0.05
        assert row.seed is not None


# --- CSV ---------------------------------------------------------------------


def test_write_csv_refuses_an_int_path_before_it_writes(tmp_path):
    rows = run_experiment(ExperimentConfig.from_dict(FLAT_SMALL))
    with open(tmp_path / "taken.txt", "w") as f:
        for path in (f.fileno(), True, False):  # True and False are fds 1 and 0
            with pytest.raises(ValueError) as err:
                write_csv(rows, path)
            assert str(err.value) == f"write_csv needs a file path or a text stream, got {path!r}"
        os.fstat(f.fileno())  # still open
    assert (tmp_path / "taken.txt").read_text() == ""


def test_csv_round_trip_exact(tmp_path):
    raw = dict(
        CLUSTERED_SMALL,
        sim={"cycles": 2000, "seed": 3},
        output=str(tmp_path / "rows.csv"),
    )
    rows = run_experiment(ExperimentConfig.from_dict(raw))
    parsed = read_csv(tmp_path / "rows.csv")
    assert parsed == rows
    header = (tmp_path / "rows.csv").read_text().splitlines()[0]
    assert header == ",".join(CSV_HEADER)
    # the rate case is no CSV column, so rows read back cannot be plotted
    assert {row.case for row in parsed} == {None}
    with pytest.raises(ValueError, match="carry no case"):
        emit_plot_data(parsed, out_dir=tmp_path / "plots")
    assert not (tmp_path / "plots").exists()


def test_csv_bytes_deterministic(tmp_path):
    raw = dict(FLAT_SMALL, n_range=[1, 4], sim={"cycles": 1000, "seed": 2})
    blobs = []
    for name in ("a.csv", "b.csv"):
        cfg = ExperimentConfig.from_dict(dict(raw, output=str(tmp_path / name)))
        run_experiment(cfg)
        blobs.append((tmp_path / name).read_bytes())
    assert blobs[0] == blobs[1]
    assert b"\r" not in blobs[0]  # LF line endings


def test_read_csv_rejects_foreign_header(tmp_path):
    path = tmp_path / "alien.csv"
    path.write_text("a,b,c\n1,2,3\n")
    with pytest.raises(ValueError, match="header"):
        read_csv(path)


def test_read_csv_names_the_file_and_line_of_a_malformed_row(tmp_path):
    good = tmp_path / "rows.csv"
    run_experiment(ExperimentConfig.from_dict(dict(FLAT_SMALL, n_range=[1, 2], output=str(good))))
    header, first, *rest = good.read_text().splitlines()
    width = len(CSV_HEADER)
    for name, lines, line, problem in (
        ("empty.csv", [], 1, "empty file, expected the CSV header"),
        ("short.csv", [header, first, first.rsplit(",", 5)[0]], 3, f"{width - 5} fields"),
        ("long.csv", [header, first + ",extra", first], 2, f"{width + 1} fields"),
        ("text.csv", [header, first.replace(",1,", ",one,", 1)], 2, "n is no int: 'one'"),
    ):
        path = tmp_path / name
        path.write_text("".join(f"{text}\n" for text in lines))
        with pytest.raises(ValueError) as err:
            read_csv(path)
        assert str(err.value).startswith(f"{path}, line {line}: {problem}")


# --- plot series -------------------------------------------------------------


def test_plot_series_per_policy_and_alpha(tmp_path):
    rows = run_experiment(ExperimentConfig.from_dict(FLAT_SMALL))
    paths = emit_plot_data(rows, out_dir=tmp_path)
    assert len(paths) == 10  # 5 policies x 2 alphas
    names = sorted(p.name for p in paths)
    assert "flat_small__FC_allRC__alpha0.1.dat" in names
    text = (tmp_path / "flat_small__DC_noRC__alpha1.dat").read_text().splitlines()
    assert text[0].startswith("#")
    x, y = text[2].split()  # first data line after two comment lines
    assert int(x) == 1
    assert float(y) == pytest.approx(0.5)


def test_plot_series_clustered_pairs(tmp_path):
    rows = run_experiment(ExperimentConfig.from_dict(CLUSTERED_SMALL))
    paths = emit_plot_data(rows, out_dir=tmp_path)
    assert len(paths) == 2
    assert {p.name for p in paths} == {
        "clustered_small__DC_noRC+DC_noRC__case1.dat",
        "clustered_small__DC_RC+FC_allRC__case1.dat",
    }
    # x column is the cluster size
    lines = paths[0].read_text().splitlines()
    xs = [int(line.split()[0]) for line in lines[2:]]
    assert xs == [1, 2, 3, 4, 6, 12]


@pytest.mark.parametrize("name", ["../../escape", "a/b", "a\\b"])
def test_plot_series_of_a_name_with_a_path_separator_write_nothing(name, tmp_path):
    # no config carries such a name, but rows built by hand can
    rows = run_experiment(ExperimentConfig.from_dict(FLAT_SMALL))
    rows = [replace(row, experiment=name) for row in rows]
    out = tmp_path / "out" / "p"
    with pytest.raises(ValueError) as err:
        emit_plot_data(rows, out_dir=out)
    series = f"{name}__DC_noRC__alpha0.1.dat"
    assert str(err.value) == name_problem("plot series file name", series)
    assert list(tmp_path.iterdir()) == []


def test_plot_series_needs_rows():
    with pytest.raises(ValueError):
        emit_plot_data([])


# --- optimal-k report --------------------------------------------------------


def test_report_optimal_k_square_grid():
    raw = {
        "name": "opt",
        "mode": "clustered_sweep_k",
        "policies": [["DC_noRC", "DC_noRC"]],
        "rates": {"lambda_e": 1.0, "lambda_s": 1.0, "lambda_c": 1.0},
        "n": 16,
    }
    report = report_optimal_k(ExperimentConfig.from_dict(raw))
    entry = report.entries[0]
    assert (entry.k_star, entry.m_star) == (4, 4)
    assert entry.p_star == pytest.approx(0.04, abs=1e-15)


def test_report_optimal_k_placement_notes():
    raw = {
        "name": "opt",
        "mode": "clustered_sweep_k",
        "policies": [["DC_RC", "DC_noRC"], ["DC_noRC", "DC_RC"]],
        "cases": [
            {"label": "even", "lambda_e": 1.0, "lambda_s": 1.0, "lambda_c": 1.0},
            {"label": "src_hi", "lambda_e": 1.0, "lambda_s": 2.0, "lambda_c": 1.0},
            {"label": "cl_hi", "lambda_e": 1.0, "lambda_s": 1.0, "lambda_c": 2.0},
        ],
        "n": 120,
    }
    report = report_optimal_k(ExperimentConfig.from_dict(raw))
    notes = "\n".join(report.notes)
    assert "even: lambda_s == lambda_c" in notes
    assert "src_hi: lambda_s > lambda_c, source-side placement wins" in notes
    assert "cl_hi: lambda_s < lambda_c, cluster-side placement wins" in notes
    assert "UNEXPECTEDLY" not in notes
    even = [e for e in report.entries if e.case == "even"]
    assert even[0].p_star == pytest.approx(even[1].p_star, abs=1e-12)
    assert even[0].k_star != even[1].k_star


def test_report_optimal_k_requires_clustered_mode():
    with pytest.raises(ConfigError):
        report_optimal_k(ExperimentConfig.from_dict(FLAT_SMALL))


@pytest.mark.parametrize(
    "run,raw",
    [
        (run_experiment, FLAT_SMALL),
        (run_experiment, CLUSTERED_SMALL),
        (report_optimal_k, CLUSTERED_SMALL),
    ],
)
@pytest.mark.parametrize(
    "change,problem",
    [
        ({"mode": "clustered"}, "clustered_sweep_k"),
        ({"policies": ()}, "policies must be a nonempty list, got ()"),
        ({"cases": ()}, "cases must be a nonempty list, got ()"),
    ],
)
def test_a_config_built_in_code_without_mode_policies_or_cases_is_a_config_error(
    run, raw, change, problem
):
    with pytest.raises(ConfigError) as err:
        run(replace(ExperimentConfig.from_dict(raw), **change))
    assert problem in err.value.problems[0]


NO_N = "n must be an integer and n >= 1, got None"
NO_N_RANGE = "n_range must be [lo, hi] integers, got None"


@pytest.mark.parametrize(
    "run,raw,change,problem",
    [
        (run_experiment, FLAT_SMALL, {"n_range": None}, NO_N_RANGE),
        (run_experiment, CLUSTERED_SMALL, {"n": None}, NO_N),
        (report_optimal_k, CLUSTERED_SMALL, {"n": None}, NO_N),
        (run_experiment, CLUSTERED_POINT, {"n": None}, NO_N),
    ],
)
def test_a_config_built_in_code_without_its_grid_is_a_config_error(
    monkeypatch, run, raw, change, problem
):
    def no_route(*args):
        raise AssertionError("a route ran on a config without a grid")

    monkeypatch.setattr(experiments, "oracle_sizes", no_route)
    monkeypatch.setattr(experiments, "clustered_profiles", no_route)
    with pytest.raises(ConfigError) as err:
        run(replace(ExperimentConfig.from_dict(raw), **change))
    assert err.value.problems == [problem]


DC_RC = GossipPolicy.DC_RC
FLAT_NAMES = "DC_noRC, DC_RC, FC_noRC, FC_sRC, FC_allRC"

#: One rule per row: a config built in code by ``replace`` that breaks it,
#: and its problems, which are the parser's messages for the same values.
#: The mode, empty sections and a missing n_range are in the tests above.
CODE_BUILT_ERRORS = [
    (FLAT_SMALL, {"name": "../x"}, ["name must not contain / or \\, got '../x'"]),
    (FLAT_SMALL, {"n_range": (1, 10**19)}, [f"n_range[1] must be at most 2**53, got {10**19}"]),
    (
        FLAT_SMALL,
        {"n_range": (1.0, 3.0)},
        [
            "n_range[0] must be an integer and n_range[0] >= 1, got 1.0",
            "n_range[1] must be an integer and n_range[1] >= 1, got 3.0",
        ],
    ),
    (FLAT_SMALL, {"n_range": (5, 2)}, ["n_range needs 1 <= lo <= hi, got [5, 2]"]),
    (FLAT_SMALL, {"n": 5}, ["n is not valid for flat_sweep_n (use n_range)"]),
    (FLAT_SMALL, {"k": 2}, ["k is only valid for single_point configs"]),
    (CLUSTERED_SMALL, {"n": None}, [NO_N]),
    (
        CLUSTERED_SMALL,
        {"n_range": (1, 2)},
        ["n_range is only valid for flat_sweep_n, not clustered_sweep_k"],
    ),
    (CLUSTERED_POINT, {"k": 5}, ["k must divide n, got n=12 k=5"]),
    (
        FLAT_SMALL,
        {"sim": SimSettings(10, -1)},
        ["sim.seed must be an integer and sim.seed >= 0, got -1"],
    ),
    (
        FLAT_SMALL,
        {"sim": SimSettings(0, 1)},
        ["sim.cycles must be an integer and sim.cycles >= 1, got 0"],
    ),
    (
        FLAT_SMALL,
        {"sim": SimSettings(2**62, 1)},
        [f"sim.cycles * n must be at most 2**63 - 1, got {2**62} * 10"],
    ),
    (FLAT_SMALL, {"output": 3}, ["output must be a string path, got 3"]),
    (
        CLUSTERED_SMALL,
        {"policies": (DC_RC,)},
        [f"policies[0] must be a [source, cluster] pair, got {DC_RC!r}"],
    ),
    (
        FLAT_SMALL,
        {"policies": ((DC_RC, DC_RC),)},
        [f"policies[0]: unknown policy {(DC_RC, DC_RC)!r} (expected one of {FLAT_NAMES})"],
    ),
    (
        FLAT_SMALL,
        {"policies": (DC_RC, GossipPolicy.FC_sRC, DC_RC)},
        ["policies[2] repeats policies[0]"],
    ),
    (
        CLUSTERED_SMALL,
        {"policies": ((DC_RC, DC_RC), (DC_RC, DC_RC))},
        ["policies[1] repeats policies[0]"],
    ),
    (FLAT_SMALL, {"sim": 5}, ["sim must be an object, got 5"]),
    (
        FLAT_SMALL,
        {"cases": (Rates(1.0, 1.0),)},
        [f"cases[0] must be an object, got {Rates(1.0, 1.0)!r}"],
    ),
    (
        FLAT_SMALL,
        {"cases": (RateCase("a", 1.0),)},
        [f"cases[0] must be an object, got {RateCase('a', 1.0)!r}"],
    ),
    *(
        (
            CLUSTERED_SMALL,
            {"cases": (RateCase(label, Rates(1.0, 1.0)),)},
            [f"cases[0].label must be a nonempty string, got {label!r}"],
        )
        for label in (None, "")
    ),
    # a section is judged as a whole before its entries
    (FLAT_SMALL, {"policies": 5}, ["policies must be a nonempty list, got 5"]),
    (FLAT_SMALL, {"policies": "DC_RC"}, ["policies must be a nonempty list, got 'DC_RC'"]),
    (FLAT_SMALL, {"policies": None}, ["policies must be a nonempty list, got None"]),
    (CLUSTERED_SMALL, {"cases": 5}, ["cases must be a nonempty list, got 5"]),
]


@pytest.mark.parametrize("raw,change,problems", CODE_BUILT_ERRORS)
def test_a_config_built_in_code_keeps_every_rule_of_the_parser(monkeypatch, raw, change, problems):
    def no_route(*args):
        raise AssertionError("a route ran on an invalid config")

    for route in ("oracle_sizes", "closed_sizes", "clustered_profiles"):
        monkeypatch.setattr(experiments, route, no_route)
    with pytest.raises(ConfigError) as err:
        run_experiment(replace(ExperimentConfig.from_dict(raw), **change))
    assert err.value.problems == problems


@pytest.mark.parametrize("raw", [[1], [FLAT_SMALL], None, "flat_small", 5])
def test_a_config_whose_top_level_is_no_object_is_a_config_error(raw):
    with pytest.raises(ConfigError) as err:
        ExperimentConfig.from_dict(raw)
    assert err.value.problems == ["top level must be an object"]


@pytest.mark.parametrize(
    "raw,problem",
    [
        ({**FLAT_SMALL, "zz": 0, 1: 0}, "unknown keys [1, 'zz']"),
        (
            dict(FLAT_SMALL, rates={"lambda_s": 1, "alpha": 1, 1: 0, "zz": 0}),
            "rates: unknown keys [1, 'zz']",
        ),
        (
            dict(CLUSTERED_NO_RATES, cases=[{"lambda_e": 1, 1: 0, "zz": 0}]),
            "cases[0]: unknown keys [1, 'zz']",
        ),
        (dict(FLAT_SMALL, sim={"cycles": 10, 1: 0, "zz": 0}), "sim: unknown keys [1, 'zz']"),
    ],
)
def test_a_config_from_code_may_hold_keys_that_are_no_strings(raw, problem):
    # sorted() of int and str keys together raised TypeError
    with pytest.raises(ConfigError) as err:
        ExperimentConfig.from_dict(raw)
    assert err.value.problems == [problem]


#: Any JSON value, with leaves and keys that a config's rules read.
WORDS = [p.value for p in GossipPolicy] + list(experiments.MODES) + ["", "x", "../x"]
KEYS = sorted(experiments._TOP_KEYS | experiments._RATE_KEYS | experiments._CASE_KEYS)


def _nested(inner):
    keys = st.sampled_from(KEYS)
    return inner | st.lists(inner, max_size=3) | st.dictionaries(keys, inner, max_size=3)


# three levels reach a case's rates; st.recursive draws twice as slowly here
json_values = _nested(_nested(_nested(
    st.none() | st.booleans() | st.integers() | st.floats() | st.sampled_from(WORDS)
)))
VALID_CONFIGS = [FLAT_SMALL, CLUSTERED_SMALL, CLUSTERED_POINT]


def _config_or_config_error(build):
    """Run ``build``: a config or a ``ConfigError`` passes, any other raise fails."""
    try:
        assert isinstance(build(), ExperimentConfig)
    except ConfigError:
        pass


@settings(max_examples=300)
@given(raw=st.sampled_from(VALID_CONFIGS), key=st.sampled_from(KEYS), value=json_values)
def test_a_config_with_any_json_value_at_one_key_is_a_config_or_a_config_error(raw, key, value):
    _config_or_config_error(lambda: ExperimentConfig.from_dict(dict(raw, **{key: value})))


@settings(max_examples=300)
@given(raw=json_values)
def test_any_json_value_as_a_whole_config_is_a_config_or_a_config_error(raw):
    _config_or_config_error(lambda: ExperimentConfig.from_dict(raw))


@settings(max_examples=300)
@given(
    raw=st.sampled_from(VALID_CONFIGS),
    field=st.sampled_from([f.name for f in fields(ExperimentConfig)]),
    value=json_values,
)
def test_a_config_replaced_with_any_json_value_is_a_config_or_a_config_error(raw, field, value):
    config = ExperimentConfig.from_dict(raw)
    _config_or_config_error(lambda: replace(config, **{field: value}))


def test_a_config_cannot_name_a_file_descriptor_as_its_output(tmp_path):
    # open(fd, "wb") would write the whole sweep there and close fd
    with open(tmp_path / "taken.txt", "w") as f:
        fd = f.fileno()
        with pytest.raises(ConfigError) as err:
            run_experiment(replace(ExperimentConfig.from_dict(FLAT_SMALL), output=fd))
        assert err.value.problems == [f"output must be a string path, got {fd}"]
        os.fstat(fd)  # still open
    assert (tmp_path / "taken.txt").read_text() == ""


def test_full_stale_targeting_peak_wins_in_sweep_rows():
    raw = {
        "name": "dc120",
        "mode": "clustered_sweep_k",
        "policies": [
            ["DC_noRC", "DC_noRC"],
            ["DC_noRC", "DC_RC"],
            ["DC_RC", "DC_noRC"],
            ["DC_RC", "DC_RC"],
        ],
        "rates": {"lambda_e": 1.0, "lambda_s": 1.0, "lambda_c": 1.0},
        "n": 120,
    }
    rows = run_experiment(ExperimentConfig.from_dict(raw))
    peaks = {}
    for row in rows:
        key = (row.policy_source, row.policy_cluster)
        peaks[key] = max(peaks.get(key, 0.0), row.p_oracle)
    best = peaks.pop(("DC_RC", "DC_RC"))
    assert all(best > p for p in peaks.values())


# --- shipped configs ---------------------------------------------------------

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


@pytest.mark.parametrize(
    "name,rows_expected",
    [
        ("flat_policies.json", 2 * 5 * 50),
        ("clustered_dc.json", 4 * 4 * 16),
        ("clustered_fc.json", 4 * 3 * 16),
    ],
)
def test_shipped_configs_parse_and_size_their_grids(name, rows_expected, tmp_path):
    config = ExperimentConfig.from_json(CONFIG_DIR / name)
    config = replace(config, output=None)
    rows = run_experiment(config)
    assert len(rows) == rows_expected


@pytest.mark.parametrize(
    "source",
    ["flat_policies.json", "clustered_dc.json", "clustered_fc.json", "clustered_small_sim"],
)
def test_rows_are_values(source, tmp_path):
    # rows are built from a per-stretch template without the generated
    # __init__; each must still be the ResultRow its own fields make
    if source == "clustered_small_sim":
        config = ExperimentConfig.from_dict(dict(CLUSTERED_SMALL, sim={"cycles": 50, "seed": 4}))
    else:
        config = ExperimentConfig.from_json(CONFIG_DIR / source)
    rows = run_experiment(replace(config, output=str(tmp_path / "rows.csv")))
    parsed = read_csv(tmp_path / "rows.csv")
    assert parsed == rows
    if config.sim is not None:
        assert all(row.p_sim is not None and row.cycles == 50 for row in rows)
    names = [f.name for f in fields(ResultRow)]
    for row in rows + parsed:
        made = ResultRow(**{name: getattr(row, name) for name in names})
        assert type(row) is ResultRow
        assert row == made and hash(row) == hash(made) and repr(row) == repr(made)
        assert list(vars(row).items()) == list(vars(made).items())  # every field, in order
        assert replace(row) == row and replace(row, n=row.n + 1) != row
        assert replace(row, p_oracle=0.25) == replace(made, p_oracle=0.25)
        assert replace(row, case=7) == row  # equality ignores the case
        with pytest.raises(FrozenInstanceError):
            row.p_oracle = 0.25
        with pytest.raises(FrozenInstanceError):
            row.case = 7


def test_a_parsed_config_is_judged_once_and_is_a_value(monkeypatch):
    calls = []
    judge = experiments._config_problems
    monkeypatch.setattr(experiments, "_config_problems", lambda g: calls.append(g) or judge(g))
    for name in ("flat_policies.json", "clustered_dc.json"):
        calls.clear()
        config = ExperimentConfig.from_json(CONFIG_DIR / name)
        assert len(calls) == 1
        made = ExperimentConfig(**{f.name: getattr(config, f.name) for f in fields(config)})
        assert config == made and hash(config) == hash(made) and repr(config) == repr(made)
        assert list(vars(config)) == [f.name for f in fields(config)]
        with pytest.raises(FrozenInstanceError):
            config.name = "x"
        with pytest.raises(ConfigError, match="name must"):
            replace(config, name="")  # a config built in code is still judged
    flat = ExperimentConfig.from_dict(FLAT_SMALL)
    assert flat.n_range == (1, 10) and flat.k is None and flat.sim is None


def test_fc_sweep_emits_three_series_per_rate_case(tmp_path):
    config = ExperimentConfig.from_json(CONFIG_DIR / "clustered_fc.json")
    rows = run_experiment(replace(config, output=None))
    paths = emit_plot_data(rows, out_dir=tmp_path)
    per_case = {}
    for p in paths:
        case = p.stem.split("__")[-1]
        per_case[case] = per_case.get(case, 0) + 1
    assert per_case == {"case1": 3, "case2": 3, "case3": 3, "case4": 3}


# --- batched sweeps equal a call per point ----------------------------------

# Each rate ratio spans 24 decades, and a zero delivery or gossip rate may
# occur: the batched route must match the per-case one at the extremes too.
positive_rate = st.floats(min_value=1e-12, max_value=1e12)
any_rate = st.one_of(st.just(0.0), positive_rate)
rate_cases = st.lists(
    st.builds(
        Rates, lambda_e=positive_rate, lambda_s=any_rate, lambda_c=any_rate, lambda_g=any_rate
    ),
    min_size=1,
    max_size=4,
)
ALL_PAIRS = tuple((src, cl) for src in DC_POLICIES for cl in GossipPolicy)


def _config(mode, policies, rates, **grid):
    cases = tuple(RateCase(f"case{i}", r) for i, r in enumerate(rates, 1))
    return ExperimentConfig(name="batched", mode=mode, policies=policies, cases=cases, **grid)


@settings(max_examples=20)
@given(rates=rate_cases, n=st.sampled_from([12, 60, 120, 360]))
def test_clustered_sweep_and_report_equal_a_call_per_case_and_pair(rates, n):
    config = _config("clustered_sweep_k", ALL_PAIRS, rates, n=n)
    rows = iter(run_experiment(config))
    entries = iter(report_optimal_k(config).entries)
    for c, r in enumerate(rates):
        for src, cl in ALL_PAIRS:
            k_star, m_star, p_star, profile = optimal_cluster_size(n, r, src, cl)
            for k, p in profile:
                row = next(rows)
                assert (row.k, row.m, row.case) == (k, n // k, c)
                assert row.p_oracle == p
                assert row.p_analytic == closed_clustered(src, cl, n // k, k, r)
            entry = next(entries)
            assert (entry.k_star, entry.m_star, entry.p_star) == (k_star, m_star, p_star)
    assert next(rows, None) is None and next(entries, None) is None


@settings(max_examples=20)
@given(rates=rate_cases, lo=st.integers(1, 150), span=st.integers(0, 150))
def test_flat_sweep_equals_a_call_per_case(rates, lo, span):
    policies = tuple(GossipPolicy)
    ns = list(range(lo, lo + span + 1))
    rows = iter(run_experiment(_config("flat_sweep_n", policies, rates, n_range=(lo, ns[-1]))))
    for case, r in enumerate(rates):
        for policy in policies:
            exact = oracle_sizes(policy, r.lambda_s, r.lambda_g, r.lambda_e, ns).tolist()
            closed = closed_sizes(policy, r.lambda_s, r.lambda_g, r.lambda_e, ns)
            closed = [None] * len(ns) if closed is None else closed.tolist()
            for n, p, c in zip(ns, exact, closed):
                row = next(rows)
                assert (row.n, row.p_oracle, row.p_analytic) == (n, p, c)
                assert row.case == case
    assert next(rows, None) is None


@settings(max_examples=40)
@given(rates=rate_cases, n=st.integers(1, 240), data=st.data())
def test_single_points_equal_a_call_per_point(rates, n, data):
    k = data.draw(st.sampled_from([None, *divisors(n)]))
    policies = tuple(GossipPolicy) if k is None else ALL_PAIRS
    rows = iter(run_experiment(_config("single_point", policies, rates, n=n, k=k)))
    for case, r in enumerate(rates):
        for pol in policies:
            if k is None:
                exact = oracle_flat(pol, r.lambda_s, r.lambda_g, r.lambda_e, n)
                closed = closed_flat(pol, r.lambda_s, r.lambda_g, r.lambda_e, n)
            else:
                exact = clustered_freshness(NetworkSpec.clustered(n, k, *pol, r))[0]
                closed = closed_clustered(*pol, n // k, k, r)
            row = next(rows)
            assert (row.n, row.k, row.p_oracle, row.p_analytic) == (n, k, exact, closed)
            assert row.case == case
    assert next(rows, None) is None


def test_a_clustered_point_checks_its_source_tier_at_its_own_m():
    # 1e306 overflows the source tier at m = n = 120 but not at m = 15
    r = Rates(lambda_e=1.0, lambda_s=1e306, lambda_c=1.0)
    pairs = ((GossipPolicy.DC_RC, GossipPolicy.DC_RC), (GossipPolicy.DC_noRC, GossipPolicy.DC_RC))
    cases = [r, Rates(lambda_e=0.5, lambda_s=5e305, lambda_c=0.5)]
    rows = iter(run_experiment(_config("single_point", pairs, cases, n=120, k=8)))
    for rates in cases:
        for pair in pairs:
            spec = NetworkSpec.clustered(120, 8, *pair, rates)
            assert next(rows).p_oracle == clustered_freshness(spec)[0]
    assert next(rows, None) is None


CASE = {"lambda_e": 1, "lambda_s": 1, "lambda_c": 1}
OVERFLOWING_SECOND_CASE = [
    # (policies, cases, the first message, as a call per case and pair gives it)
    (
        [["DC_RC", "FC_allRC"]],
        [CASE, dict(CASE, lambda_s=1e307)],
        "invalid network spec: rates too large: 12 * (lambda_e + lambda_s) = 1.2e+308 "
        "exceeds 4.49e+307; only rate ratios matter, so scale all rates down",
    ),
    (
        [["DC_RC", "FC_allRC"], ["DC_noRC", "DC_RC"]],
        [CASE, dict(CASE, lambda_c=1e307)],
        "invalid network spec: rates too large: 12 * (lambda_e + lambda_c + lambda_g) = 1.2e+308 "
        "exceeds 4.49e+307; only rate ratios matter, so scale all rates down",
    ),
    (
        # the bad pair of the first case comes before the second case's overflow
        [["DC_RC", "FC_allRC"], ["FC_noRC", "DC_RC"]],
        [CASE, dict(CASE, lambda_s=4e307)],
        "invalid network spec: clusterheads form a disconnected tier: source_policy must be "
        "DC_noRC or DC_RC, got FC_noRC",
    ),
    (
        # a case's source tier at m = n comes before its next pair
        [["DC_RC", "FC_allRC"], ["FC_noRC", "DC_RC"]],
        [dict(CASE, lambda_s=1e307)],
        "invalid network spec: rates too large: 12 * (lambda_e + lambda_s) = 1.2e+308 "
        "exceeds 4.49e+307; only rate ratios matter, so scale all rates down",
    ),
]


@pytest.mark.parametrize("policies,cases,message", OVERFLOWING_SECOND_CASE)
def test_invalid_rate_case_fails_with_the_first_message_of_a_scan_per_case(
    policies, cases, message
):
    raw = {"name": "x", "mode": "clustered_sweep_k", "policies": policies, "n": 12, "cases": cases}
    config = ExperimentConfig.from_dict(raw)
    for run in (run_experiment, report_optimal_k):
        with pytest.raises(ValueError) as err:
            run(config)
        assert str(err.value) == message


def test_flat_sweep_with_an_overflowing_second_case_names_it():
    raw = {
        "name": "x",
        "mode": "flat_sweep_n",
        "policies": ["DC_RC", "FC_allRC"],
        "n_range": [1, 5],
        "cases": [
            {"lambda_e": 1, "lambda_s": 1},
            {"lambda_e": 1, "lambda_s": 1e307, "lambda_g": 1e307},
        ],
    }
    with pytest.raises(ValueError) as err:
        run_experiment(ExperimentConfig.from_dict(raw))
    assert str(err.value) == (
        "rates too large: 5 * (lambda_e + lambda_s + lambda_g) = 1e+308 exceeds 4.49e+307; "
        "only rate ratios matter, so scale all rates down"
    )


# --- CSV and plot files ------------------------------------------------------


def _fmt(value) -> str:
    # a plain per-cell formatter: the reference write_csv's bytes must equal
    if value is None:
        return ""
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def _reference_csv(rows) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    for row in rows:
        writer.writerow([_fmt(getattr(row, col)) for col in CSV_HEADER])
    return out.getvalue()


def test_csv_bytes_equal_the_per_cell_writer(tmp_path):
    base = dict(zip(CSV_HEADER, [None] * len(CSV_HEADER)))
    rows = [
        dict(experiment="plain", policy_source="DC_RC", n=3, lambda_e=1.0, lambda_s=-0.0),
        dict(experiment='a,b "c"', n=10**17, lambda_e=1e17, lambda_s=10**17, p_oracle=1 / 3),
        dict(
            experiment="line\nbreak", policy_cluster="DC_RC", n=12, k=3, m=4, lambda_e=2,
            lambda_s=5e-324, lambda_c=1.7976931348623157e308, lambda_g=0.0, p_analytic=-0.0,
            p_sim=True, sim_ci_lo=float("inf"), sim_ci_hi=float("nan"), cycles=0, seed=2**64 - 1,
        ),
    ]
    rows = [ResultRow(**dict(base, policy_source="FC_sRC", p_oracle=0.5) | row) for row in rows]
    target = tmp_path / "rows.csv"
    write_csv(rows, target)
    assert target.read_bytes() == _reference_csv(rows).encode("utf-8")
    stream = io.StringIO()
    write_csv(rows, stream)
    assert stream.getvalue() == _reference_csv(rows)


#: Text fields holding what csv must quote, spaces and non-ASCII characters,
#: and unhashable values, which the writer writes field by field.
csv_texts = st.none() | st.text(
    st.sampled_from([",", '"', "\n", "\r", " ", "a", "Z", "é", "中", "😀"]), max_size=6
)
csv_texts |= st.sampled_from([["x"], {"a": 1}])
#: Number fields by type; np.float64, and a number among the text fields,
#: are no types the writer formats in one ``%``.
csv_numbers = {
    "none": st.none(),
    "bool": st.booleans(),
    "int": st.integers(-(2**64), 2**64),
    "float": st.floats() | st.sampled_from([-0.0, math.inf, -math.inf, math.nan, 5e-324]),
    "np": st.floats().map(np.float64),
}
csv_triples = st.tuples(csv_texts, csv_texts, csv_texts) | st.tuples(
    st.integers() | st.floats(), csv_texts, csv_texts
)
csv_patterns = st.lists(st.sampled_from(["none", "bool", "int", "float"]), min_size=14, max_size=14)
csv_patterns |= st.builds(
    lambda pattern, i: pattern[:i] + ["np"] + pattern[i + 1 :], csv_patterns, st.integers(0, 13)
)


@given(data=st.data())
def test_csv_bytes_equal_the_per_cell_writer_on_any_rows(tmp_path_factory, data):
    # a few text triples and number type patterns, each row one of each
    triples = data.draw(st.lists(csv_triples, min_size=1, max_size=3))
    patterns = data.draw(st.lists(csv_patterns, min_size=1, max_size=3))
    rows = []
    for _ in range(data.draw(st.integers(0, 8))):
        pattern = data.draw(st.sampled_from(patterns))
        numbers = data.draw(st.tuples(*(csv_numbers[kind] for kind in pattern)))
        values = data.draw(st.sampled_from(triples)) + numbers
        rows.append(ResultRow(**dict(zip(CSV_HEADER, values))))
    target = tmp_path_factory.mktemp("csv") / "rows.csv"
    write_csv(rows, target)
    assert target.read_bytes() == _reference_csv(rows).encode("utf-8")
    stream = io.StringIO()
    write_csv((row for row in rows), stream)
    assert stream.getvalue() == _reference_csv(rows)


def test_files_written_again_are_cut_to_their_new_length(tmp_path):
    long_rows = run_experiment(ExperimentConfig.from_dict(FLAT_SMALL))
    short_rows = run_experiment(ExperimentConfig.from_dict(dict(FLAT_SMALL, n_range=[1, 2])))
    target = tmp_path / "rows.csv"
    write_csv(long_rows, target)
    write_csv(short_rows, target)
    assert target.read_text() == _reference_csv(short_rows)
    fresh, again = tmp_path / "fresh", tmp_path / "again"
    emit_plot_data(long_rows, out_dir=again)
    paths = emit_plot_data(short_rows, out_dir=again)
    emit_plot_data(short_rows, out_dir=fresh)
    for path in paths:
        assert path.read_bytes() == (fresh / path.name).read_bytes()


SHARED_ALPHA = {
    "name": "g",
    "mode": "flat_sweep_n",
    "policies": ["FC_allRC"],
    "n_range": [1, 3],
    "cases": [
        {"lambda_e": 1, "lambda_s": 1, "lambda_g": 0},
        {"lambda_e": 1, "lambda_s": 1, "lambda_g": 5},
    ],
}


def test_flat_rate_cases_sharing_an_alpha_get_their_own_series(tmp_path):
    rows = run_experiment(ExperimentConfig.from_dict(SHARED_ALPHA))
    paths = emit_plot_data(rows, out_dir=tmp_path)
    names = ["g__FC_allRC__alpha1_case1.dat", "g__FC_allRC__alpha1_case2.dat"]
    assert [p.name for p in paths] == names
    for path, case in zip(paths, (rows[:3], rows[3:])):
        lines = path.read_text().splitlines()[2:]
        assert lines == [f"{row.n} {row.p_oracle:.17g}" for row in case]
    # a label that is unique for its policy stays as it was
    rows += run_experiment(ExperimentConfig.from_dict(FLAT_SMALL))
    paths = emit_plot_data(rows, out_dir=tmp_path)
    assert "flat_small__FC_allRC__alpha0.1.dat" in {p.name for p in paths}
    # DC_RC does not gossip, so to it both cases are one series, each n once
    rows = run_experiment(ExperimentConfig.from_dict(dict(SHARED_ALPHA, policies=["DC_RC", "FC_allRC"])))
    paths = emit_plot_data(rows, out_dir=tmp_path / "dc")
    assert [p.name for p in paths] == ["g__DC_RC__alpha1.dat", *names]
    lines = paths[0].read_text().splitlines()[2:]
    assert lines == [f"{row.n} {row.p_oracle:.17g}" for row in rows[:3]]
    assert [row.p_oracle for row in rows[6:9]] == [row.p_oracle for row in rows[:3]]


def test_clustered_series_are_numbered_by_config_case_for_every_pair(tmp_path):
    # (DC_RC, DC_RC) does not gossip, so to it the first two cases are one
    # series; its numbers still follow the config's cases, as the other
    # pair's do, also with that pair alone in the config
    one = {"lambda_e": 1, "lambda_s": 1, "lambda_c": 1, "lambda_g": 0}
    raw = {
        "name": "r",
        "mode": "clustered_sweep_k",
        "n": 6,
        "policies": [["DC_RC", "DC_RC"], ["DC_RC", "FC_allRC"]],
        "cases": [one, dict(one, lambda_g=5), dict(one, lambda_s=2)],
    }
    rows = run_experiment(ExperimentConfig.from_dict(raw))
    paths = emit_plot_data(rows, out_dir=tmp_path / "both")
    assert [p.name for p in paths] == [
        "r__DC_RC+DC_RC__case1.dat",
        "r__DC_RC+FC_allRC__case1.dat",
        "r__DC_RC+FC_allRC__case2.dat",
        "r__DC_RC+DC_RC__case3.dat",
        "r__DC_RC+FC_allRC__case3.dat",
    ]
    third = [f"{row.k} {row.p_oracle:.17g}" for row in rows[16:20]]
    assert paths[3].read_text().splitlines()[2:] == third
    alone = run_experiment(ExperimentConfig.from_dict(dict(raw, policies=[["DC_RC", "DC_RC"]])))
    paths = emit_plot_data(alone, out_dir=tmp_path / "alone")
    assert [p.name for p in paths] == ["r__DC_RC+DC_RC__case1.dat", "r__DC_RC+DC_RC__case3.dat"]
    assert paths[1].read_text().splitlines()[2:] == third


PAIR_N4 = {
    "name": "a",
    "mode": "clustered_sweep_k",
    "n": 4,
    "policies": [["DC_RC", "DC_RC"]],
    "rates": {"lambda_e": 1, "lambda_s": 1, "lambda_c": 1},
}
PAIR_N4_FASTER = dict(PAIR_N4, rates=dict(PAIR_N4["rates"], lambda_s=2))


@pytest.mark.parametrize(
    "first,second,names",
    [
        (
            PAIR_N4,
            dict(PAIR_N4_FASTER, name="b"),
            ["a__DC_RC+DC_RC__case1.dat", "b__DC_RC+DC_RC__case1.dat"],
        ),
        (
            SHARED_ALPHA,
            FLAT_SMALL,
            [
                "g__FC_allRC__alpha1_case1.dat",
                "g__FC_allRC__alpha1_case2.dat",
                "flat_small__FC_allRC__alpha1.dat",
            ],
        ),
    ],
)
def test_runs_emitted_together_keep_their_own_case_numbers(first, second, names, tmp_path):
    runs = [run_experiment(ExperimentConfig.from_dict(raw)) for raw in (first, second)]
    together = {p.name: p for p in emit_plot_data(runs[0] + runs[1], out_dir=tmp_path)}
    assert set(names) <= set(together)
    # each run's files are the ones it writes alone
    for i, rows in enumerate(runs):
        for path in emit_plot_data(rows, out_dir=tmp_path / f"alone{i}"):
            assert path.read_bytes() == together[path.name].read_bytes()


def test_series_of_two_runs_that_meet_in_one_file_are_an_error(tmp_path):
    rows = [run_experiment(ExperimentConfig.from_dict(raw)) for raw in (PAIR_N4, PAIR_N4_FASTER)]
    with pytest.raises(ValueError, match=re.escape("would write a__DC_RC+DC_RC__case1.dat")):
        emit_plot_data(rows[0] + rows[1], out_dir=tmp_path / "plots")
    assert not (tmp_path / "plots").exists()
