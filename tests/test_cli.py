import json
from pathlib import Path

import pytest

from gossipfresh import acceptance, cli
from gossipfresh.cli import main
from gossipfresh.experiments import read_csv

FLAT_CONFIG = {
    "name": "cli_flat",
    "mode": "flat_sweep_n",
    "policies": ["DC_noRC", "DC_RC"],
    "rates": {"lambda_s": 1.0, "alpha": [1.0]},
    "n_range": [1, 5],
}


def write_config(tmp_path, raw, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(raw))
    return path


def test_analytic_flat_point(capsys):
    code = main(
        ["analytic", "--n", "1", "--policy", "DC_noRC", "--lambda-e", "1", "--lambda-s", "1"]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "p_oracle = 0.5" in out
    assert "p_analytic = 0.5" in out


def test_analytic_clustered_point(capsys):
    code = main(
        [
            "analytic", "--n", "4", "--k", "2",
            "--source-policy", "DC_RC", "--cluster-policy", "FC_allRC",
            "--lambda-e", "1", "--lambda-s", "1", "--lambda-c", "1", "--lambda-g", "1",
        ]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "p_oracle = 0.15625" in out
    assert "p_ch = 0.375" in out


#: Whole stdout of ``analytic`` at four points, recorded before the CLI
#: took its values from ``NetworkSpec.tiers``: a flat policy with and one
#: without a closed form, and a clustered pair with and one without.
ANALYTIC_POINTS = [
    (
        "--n 7 --policy DC_RC --lambda-e 0.5 --lambda-s 2",
        "p_oracle = 0.45159131428571431\np_analytic = 0.45159131428571425\n",
    ),
    (
        "--n 7 --policy FC_sRC --lambda-e 0.5 --lambda-s 2 --lambda-g 1.5",
        "p_oracle = 0.58600059031877205\n",
    ),
    (
        "--n 12 --k 4 --source-policy DC_RC --cluster-policy FC_allRC "
        "--lambda-e 0.5 --lambda-s 2 --lambda-c 3 --lambda-g 1.5",
        "p_oracle = 0.4893406593406594\np_analytic = 0.4893406593406594\n"
        "p_ch = 0.65066666666666673\np_node_given_ch = 0.75206043956043955\n",
    ),
    (
        "--n 12 --k 3 --source-policy DC_noRC --cluster-policy FC_sRC "
        "--lambda-e 0.5 --lambda-s 2 --lambda-c 3 --lambda-g 1.5",
        "p_oracle = 0.38714285714285707\n"
        "p_ch = 0.49999999999999994\np_node_given_ch = 0.77428571428571424\n",
    ),
]


@pytest.mark.parametrize("argv,stdout", ANALYTIC_POINTS)
def test_analytic_prints_the_recorded_stdout(argv, stdout, capsys):
    assert main(["analytic", *argv.split()]) == 0
    assert capsys.readouterr() == (stdout, "")


def test_analytic_alpha_flag(capsys):
    code = main(
        ["analytic", "--n", "3", "--policy", "DC_RC", "--alpha", "1", "--lambda-s", "1"]
    )
    assert code == 0
    assert "0.2916666666666" in capsys.readouterr().out


@pytest.mark.parametrize(
    "flags,message",
    [
        ("--alpha -1 --lambda-s 1", "--alpha must be finite and > 0, got -1.0"),
        ("--alpha nan --lambda-s 1", "--alpha must be finite and > 0, got nan"),
        ("--alpha 1e300 --lambda-s 1e300", "--alpha * --lambda-s must be finite and > 0, got inf"),
        ("--alpha 1 --lambda-s nan", "--lambda-s must be finite and > 0, got nan"),
        ("--alpha 0 --lambda-s 1", "--alpha must be finite and > 0, got 0.0"),
        ("--alpha 1e-320 --lambda-s 1e-10", "--alpha * --lambda-s must be finite and > 0, got 0.0"),
    ],
)
def test_analytic_alpha_errors_name_the_flags(flags, message, capsys):
    assert main(["analytic", "--n", "3", "--policy", "DC_RC", *flags.split()]) == 1
    assert capsys.readouterr() == ("", f"error: {message}\n")


def test_analytic_missing_rate_is_validation_error(capsys):
    code = main(["analytic", "--n", "3", "--policy", "DC_RC", "--lambda-s", "1"])
    assert code == 1
    assert "lambda-e" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv,message",
    [
        (
            "--n 3 --policy DC_RC --alpha 1 --lambda-e 1 --lambda-s 1",
            "--alpha and --lambda-e are mutually exclusive",
        ),
        (
            "--n 4 --k 2 --lambda-e 1 --lambda-s 1",
            "clustered point needs --source-policy --cluster-policy",
        ),
        ("--n 4 --lambda-e 1 --lambda-s 1", "flat point needs --policy (or pass clustered flags)"),
        (
            "--n 5 --k 2 --source-policy DC_RC --cluster-policy DC_RC "
            "--lambda-e 1 --lambda-s 1 --lambda-c 1",
            "k must divide n, got n=5 k=2",
        ),
    ],
)
def test_analytic_point_errors_exit_1_with_their_message(argv, message, capsys):
    assert main(["analytic", *argv.split()]) == 1
    assert capsys.readouterr() == ("", f"error: {message}\n")


#: Each case's flags, past --n, and the one error line it gets.
_BAD_FLAGS = [
    ("0 --policy DC_RC --lambda-e 1 --lambda-s 1", "--n must be an integer and --n >= 1, got 0"),
    (
        "4 --k 0 --source-policy DC_RC --cluster-policy DC_RC --lambda-e 1 --lambda-s 1",
        "--k must be an integer and --k >= 1, got 0",
    ),
    # np.arange(n, dtype=float) came out empty at 2**63 - 1: an IndexError traceback
    (
        f"{2**63 - 1} --policy DC_RC --lambda-e 1 --lambda-s 1",
        f"--n must be at most 2**53, got {2**63 - 1}",
    ),
    (f"{2**53 + 1} --policy DC_noRC --lambda-e 1", f"--n must be at most 2**53, got {2**53 + 1}"),
    (f"{2**64} --policy FC_sRC --lambda-e 1", f"--n must be at most 2**53, got {2**64}"),
    (
        f"4 --k {2**63 - 1} --source-policy DC_RC --cluster-policy DC_RC --lambda-e 1",
        f"--k must be at most 2**53, got {2**63 - 1}",
    ),
    ("3 --policy DC_RC --lambda-e 0 --lambda-s 1", "--lambda-e must be finite and > 0, got 0.0"),
    ("3 --policy DC_RC --lambda-e inf --lambda-s 1", "--lambda-e must be finite and > 0, got inf"),
    ("3 --policy DC_RC --lambda-e 1 --lambda-s -1", "--lambda-s must be finite and >= 0, got -1.0"),
    (
        "4 --k 2 --source-policy DC_RC --cluster-policy DC_RC --lambda-e 1 --lambda-s 1"
        " --lambda-c nan",
        "--lambda-c must be finite and >= 0, got nan",
    ),
    (
        "3 --policy FC_allRC --lambda-e 1 --lambda-s 1 --lambda-g -2",
        "--lambda-g must be finite and >= 0, got -2.0",
    ),
]


@pytest.mark.parametrize("argv,message", _BAD_FLAGS)
def test_analytic_flag_errors_name_the_flag(argv, message, capsys):
    # each flag is checked under its own name before Rates or the spec is built
    assert main(["analytic", "--n", *argv.split()]) == 1
    assert capsys.readouterr() == ("", f"error: {message}\n")


def test_analytic_rejects_a_flat_policy_beside_the_clustered_flags(capsys):
    argv = "--n 4 --policy FC_allRC --k 2 --source-policy DC_RC --cluster-policy DC_RC"
    argv += " --lambda-e 1 --lambda-s 1 --lambda-c 1"
    assert main(["analytic", *argv.split()]) == 1
    message = (
        "--policy and the clustered flags (--k, --source-policy, --cluster-policy)"
        " are mutually exclusive"
    )
    assert capsys.readouterr() == ("", f"error: {message}\n")


def test_sweep_writes_csv(tmp_path, capsys):
    config = write_config(
        tmp_path, dict(FLAT_CONFIG, output=str(tmp_path / "rows.csv"))
    )
    assert main(["sweep", "--config", str(config)]) == 0
    rows = read_csv(tmp_path / "rows.csv")
    assert len(rows) == 10
    assert all(row.p_sim is None for row in rows)


def test_sweep_without_output_writes_csv_to_stdout(tmp_path, capsys):
    config = write_config(tmp_path, FLAT_CONFIG)
    assert main(["sweep", "--config", str(config)]) == 0
    out = capsys.readouterr().out
    target = tmp_path / "rows.csv"
    assert main(["sweep", "--config", str(config), "--output", str(target)]) == 0
    assert out == target.read_text()


def test_sweep_output_flag_overrides_config(tmp_path):
    config = write_config(
        tmp_path, dict(FLAT_CONFIG, output=str(tmp_path / "ignored.csv"))
    )
    target = tmp_path / "actual.csv"
    assert main(["sweep", "--config", str(config), "--output", str(target)]) == 0
    assert target.exists()
    assert not (tmp_path / "ignored.csv").exists()


def test_simulate_adds_monte_carlo_columns(tmp_path):
    config = write_config(tmp_path, dict(FLAT_CONFIG, output=str(tmp_path / "mc.csv")))
    code = main(
        ["simulate", "--config", str(config), "--cycles", "500", "--seed", "4"]
    )
    assert code == 0
    rows = read_csv(tmp_path / "mc.csv")
    assert all(row.cycles == 500 for row in rows)
    assert all(row.p_sim is not None for row in rows)


def test_simulate_takes_cycles_and_seed_from_the_config_sim(tmp_path, capsys):
    # without --cycles and --seed, simulate runs the config's sim as sweep does
    config = write_config(tmp_path, dict(FLAT_CONFIG, sim={"cycles": 700, "seed": 9}))
    for verb in ("sweep", "simulate"):
        assert main([verb, "--config", str(config), "--output", str(tmp_path / verb)]) == 0
    rows = read_csv(tmp_path / "simulate")
    assert {row.cycles for row in rows} == {700}
    assert all(row.p_sim is not None for row in rows)
    assert (tmp_path / "simulate").read_bytes() == (tmp_path / "sweep").read_bytes()


def test_invalid_config_exits_1(tmp_path, capsys):
    config = write_config(tmp_path, dict(FLAT_CONFIG, bogus_key=True))
    assert main(["sweep", "--config", str(config)]) == 1
    assert "bogus_key" in capsys.readouterr().err


def test_an_integer_too_large_for_a_float_is_a_config_error(tmp_path, capsys):
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(FLAT_CONFIG).replace('"lambda_s": 1.0', '"lambda_s": 1' + "0" * 400))
    assert main(["sweep", "--config", str(path)]) == 1
    problem = "rates.lambda_s must be finite and >= 0, got 1" + "0" * 400
    assert capsys.readouterr() == ("", f"error: {problem}\n")


def test_an_integer_beyond_the_json_digit_limit_is_a_config_error(tmp_path, capsys):
    path = tmp_path / "huge.json"
    huge = '"lambda_s": 1' + "0" * 5000
    path.write_text(json.dumps(FLAT_CONFIG).replace('"lambda_s": 1.0', huge))
    assert main(["sweep", "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: not valid JSON") and "Traceback" not in err


def test_a_too_deeply_nested_config_is_a_config_error(tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text('{"name": ' + "[" * 100_000 + "]" * 100_000 + "}")
    assert main(["sweep", "--config", str(path)]) == 1
    assert capsys.readouterr().err.startswith(f"error: {path}: not valid JSON (maximum recursion")


def test_a_repeated_policy_exits_1(tmp_path, capsys):
    raw = {
        "name": "twice",
        "mode": "clustered_sweep_k",
        "policies": [["DC_RC", "DC_RC"], ["DC_RC", "DC_RC"]],
        "cases": [{"lambda_e": 1, "lambda_s": 1}, {"lambda_e": 1, "lambda_s": 2}],
        "n": 6,
    }
    path = write_config(tmp_path, raw)
    assert main(["sweep", "--config", str(path), "--plot-dir", str(tmp_path / "plots")]) == 1
    assert capsys.readouterr().err == "error: policies[1] repeats policies[0]\n"
    assert not (tmp_path / "plots").exists()


def test_a_config_size_past_the_size_rule_exits_1(tmp_path, capsys):
    # n_range [1, 10**19] overflowed in a traceback
    path = write_config(tmp_path, dict(FLAT_CONFIG, n_range=[1, 10**19]))
    assert main(["sweep", "--config", str(path)]) == 1
    assert capsys.readouterr() == ("", f"error: n_range[1] must be at most 2**53, got {10**19}\n")


@pytest.mark.parametrize("name", ["../../escape", "a/b"])
def test_a_config_name_with_a_path_separator_exits_1_before_any_work(
    name, tmp_path, monkeypatch, capsys
):
    def no_work(config):
        raise AssertionError("run_experiment ran on a bad name")

    monkeypatch.setattr(cli, "run_experiment", no_work)
    monkeypatch.chdir(tmp_path)
    path = write_config(tmp_path, dict(FLAT_CONFIG, name=name))
    assert main(["sweep", "--config", str(path), "--plot-dir", "out/p"]) == 1
    assert capsys.readouterr() == ("", f"error: name must not contain / or \\, got {name!r}\n")
    assert [p.name for p in tmp_path.iterdir()] == [path.name]


def test_a_config_name_with_a_nul_exits_1_before_any_file_is_written(tmp_path, capsys):
    # the CSV was written, then the plot files ended in "embedded null byte"
    path = write_config(tmp_path, dict(FLAT_CONFIG, name="a\0b"))
    argv = ["sweep", "--config", str(path), "--output", str(tmp_path / "rows.csv")]
    assert main(argv + ["--plot-dir", str(tmp_path / "p")]) == 1
    message = "error: name must not contain a NUL character, got 'a\\x00b'\n"
    assert capsys.readouterr() == ("", message)
    assert [p.name for p in tmp_path.iterdir()] == [path.name]  # no CSV, no plot directory


def _no_work(*args):
    raise AssertionError("work ran before the destinations were judged")


def test_a_config_output_with_a_nul_exits_1_before_any_work(tmp_path, monkeypatch, capsys):
    # the whole grid ran, then the CSV ended in "embedded null byte"
    monkeypatch.setattr(cli, "run_experiment", _no_work)
    output = str(tmp_path / "rows\0.csv")
    path = write_config(tmp_path, dict(FLAT_CONFIG, output=output))
    assert main(["sweep", "--config", str(path), "--plot-dir", str(tmp_path / "p")]) == 1
    message = f"error: output must not contain a NUL character, got {output!r}\n"
    assert capsys.readouterr() == ("", message)
    assert [p.name for p in tmp_path.iterdir()] == [path.name]


@pytest.mark.parametrize("flag", ["--output", "--plot-dir"])
@pytest.mark.parametrize("verb", ["sweep", "simulate"])
def test_a_destination_flag_with_a_nul_exits_1_before_any_work(
    verb, flag, tmp_path, monkeypatch, capsys
):
    monkeypatch.setattr(cli, "run_experiment", _no_work)
    path = write_config(tmp_path, FLAT_CONFIG)
    value = str(tmp_path / "out\0put")
    assert main([verb, "--config", str(path), flag, value]) == 1
    message = f"error: {flag} must not contain a NUL character, got {value!r}\n"
    assert capsys.readouterr() == ("", message)
    assert [p.name for p in tmp_path.iterdir()] == [path.name]


def test_a_selftest_report_with_a_nul_exits_1_before_any_criterion(
    tmp_path, monkeypatch, capsys
):
    # every criterion ran, then the report ended in "embedded null byte"
    monkeypatch.setattr(acceptance, "run_criteria", _no_work)
    report = str(tmp_path / "report\0.csv")
    assert main(["selftest", "--report", report]) == 1
    message = f"error: --report must not contain a NUL character, got {report!r}\n"
    assert capsys.readouterr() == ("", message)
    assert list(tmp_path.iterdir()) == []


def test_unparseable_config_exits_1(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert main(["sweep", "--config", str(path)]) == 1
    assert "JSON" in capsys.readouterr().err


def test_missing_config_file_exits_2(tmp_path, capsys):
    assert main(["sweep", "--config", str(tmp_path / "absent.json")]) == 2


def test_unwritable_output_exits_2(tmp_path, capsys):
    (tmp_path / "a_file").write_text("")
    config = write_config(
        tmp_path, dict(FLAT_CONFIG, output=str(tmp_path / "a_file" / "rows.csv"))
    )
    assert main(["sweep", "--config", str(config)]) == 2
    assert "i/o error" in capsys.readouterr().err


def test_optimal_k_prints_table(tmp_path, capsys):
    raw = {
        "name": "opt",
        "mode": "clustered_sweep_k",
        "policies": [["DC_noRC", "DC_noRC"], ["DC_RC", "DC_RC"]],
        "rates": {"lambda_e": 1.0, "lambda_s": 1.0, "lambda_c": 1.0},
        "n": 16,
    }
    config = write_config(tmp_path, raw)
    assert main(["optimal-k", "--config", str(config)]) == 0
    out = capsys.readouterr().out
    assert "k*" in out
    assert "best pair (DC_RC,DC_RC)" in out


def test_selftest_subset_passes(tmp_path, capsys):
    report = tmp_path / "report.csv"
    code = main(["selftest", "--only", "2", "--report", str(report)])
    out = capsys.readouterr().out
    assert code == 0
    assert "PASS criterion 2" in out
    assert report.read_text().startswith("criterion,title,passed,detail")


def test_selftest_makes_the_report_directory(tmp_path, capsys):
    report = tmp_path / "no_dir" / "report.csv"
    assert main(["selftest", "--only", "2", "--report", str(report)]) == 0
    assert report.read_text().startswith("criterion,title,passed,detail")


@pytest.mark.parametrize("report", ["a_file/report.csv", "a_dir"])
def test_selftest_checks_its_report_path_before_any_criterion(
    report, tmp_path, monkeypatch, capsys
):
    def no_work(names=None):
        raise AssertionError("a criterion ran before the report path was checked")

    monkeypatch.setattr(acceptance, "run_criteria", no_work)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "a_file").write_text("kept")
    (tmp_path / "a_dir").mkdir()
    assert main(["selftest", "--only", "2", "--report", report]) == 2
    assert capsys.readouterr() == ("", f"i/o error: {_write_error(report, None)}\n")


def test_selftest_unknown_criterion_exits_1(capsys):
    assert main(["selftest", "--only", "9"]) == 1


@pytest.mark.parametrize("only", ["", ",", " "])
def test_selftest_only_that_names_no_criterion_exits_1(only, monkeypatch, capsys):
    def unexpected(names=None):
        raise AssertionError(f"a criterion ran for --only {only!r}")

    monkeypatch.setattr(acceptance, "run_criteria", unexpected)
    assert main(["selftest", "--only", only]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: --only")


def stub_criterion_2(monkeypatch) -> list:
    """Replace criterion 2 by a passing stub; returns the list of its calls."""
    calls = []

    def stub():
        calls.append("2")
        return acceptance.CriterionResult("2", "stub", True, 0.0, "stub")

    monkeypatch.setitem(acceptance.CRITERIA, "2", stub)
    return calls


def test_selftest_only_checks_every_name_before_any_criterion_runs(monkeypatch, capsys):
    calls = stub_criterion_2(monkeypatch)
    assert main(["selftest", "--only", "2,9"]) == 1
    assert calls == []
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: unknown criterion '9'")


def test_selftest_only_runs_a_repeated_criterion_once(monkeypatch, capsys):
    calls = stub_criterion_2(monkeypatch)
    assert main(["selftest", "--only", "2,2"]) == 0
    assert calls == ["2"]
    assert capsys.readouterr().out.count("criterion 2") == 1


def test_selftest_failure_exits_3(monkeypatch, capsys):
    def broken():
        return acceptance.CriterionResult("2", "stub", False, 0.0, "forced failure")

    monkeypatch.setitem(acceptance.CRITERIA, "2", broken)
    assert main(["selftest", "--only", "2"]) == 3
    assert "FAIL criterion 2" in capsys.readouterr().out


@pytest.mark.parametrize("verb", ["sweep", "simulate"])
@pytest.mark.parametrize(
    "flags,message",
    [
        (["--seed", "-1"], "--seed must be an integer and --seed >= 0, got -1"),
        (["--cycles", "0"], "--cycles must be an integer and --cycles >= 1, got 0"),
    ],
)
def test_seed_and_cycles_overrides_follow_the_config_integer_rule(
    tmp_path, capsys, verb, flags, message
):
    # sim.seed and sim.cycles in a config get the same rule (core.int_problem)
    target = tmp_path / "rows.csv"
    config = write_config(tmp_path, dict(FLAT_CONFIG, output=str(target)))
    assert main([verb, "--config", str(config), *flags]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not target.exists()  # rejected before any work


def test_sim_cycles_in_a_config_and_the_cycles_flag_share_one_message(tmp_path, capsys):
    config = write_config(tmp_path, dict(FLAT_CONFIG, sim={"cycles": 0}))
    assert main(["sweep", "--config", str(config)]) == 1
    from_config = capsys.readouterr().err
    assert from_config == "error: sim.cycles must be an integer and sim.cycles >= 1, got 0\n"
    assert main(["sweep", "--config", str(config), "--cycles", "0"]) == 1
    assert capsys.readouterr().err == from_config.replace("sim.cycles", "--cycles")


TOO_MANY = 2**63 // 5 + 1  # cycles that pass 2**63 - 1 captures at n = 5
PAST_INT64 = "must be at most 2**63 - 1, got"


@pytest.mark.parametrize(
    "sim,flags,message",
    [
        # 2**63 cycles overflowed NumPy's multinomial in a traceback
        (None, ["--cycles", str(2**63)], f"--cycles * n {PAST_INT64} {2**63} * 5"),
        # the largest n of the grid, 5, sets the bound
        (None, ["--cycles", str(TOO_MANY)], f"--cycles * n {PAST_INT64} {TOO_MANY} * 5"),
        ({"cycles": TOO_MANY}, [], f"sim.cycles * n {PAST_INT64} {TOO_MANY} * 5"),
    ],
)
@pytest.mark.parametrize("verb", ["sweep", "simulate"])
def test_cycles_times_the_largest_n_past_int64_is_an_error_line(
    tmp_path, capsys, verb, sim, flags, message
):
    target = tmp_path / "rows.csv"
    raw = dict(FLAT_CONFIG, output=str(target), **({"sim": sim} if sim else {}))
    assert main([verb, "--config", str(write_config(tmp_path, raw)), *flags]) == 1
    assert capsys.readouterr() == ("", f"error: {message}\n")
    assert not target.exists()  # rejected before any work


@pytest.mark.parametrize("argv", [["simulate"], ["sweep", "--seed", "3"]])
def test_the_default_cycle_count_past_int64_names_the_cycles_flag(tmp_path, capsys, argv):
    # a config without sim has no sim.cycles; the lever is --cycles
    target = tmp_path / "rows.csv"
    raw = dict(FLAT_CONFIG, n_range=[10**14, 10**14], output=str(target))
    assert main([*argv, "--config", str(write_config(tmp_path, raw))]) == 1
    message = f"--cycles * n {PAST_INT64} 100000 * {10**14}"
    assert capsys.readouterr() == ("", f"error: {message}\n")
    assert not target.exists()


@pytest.mark.parametrize(
    "error,stderr",
    [
        (MemoryError(), "error: out of memory\n"),
        (MemoryError("Unable to allocate 7.28 TiB"), "error: Unable to allocate 7.28 TiB\n"),
    ],
)
def test_running_out_of_memory_is_an_error_line_and_exit_1(monkeypatch, capsys, error, stderr):
    def exhausted(*args):
        raise error

    monkeypatch.setattr(cli, "oracle_flat", exhausted)
    argv = ["analytic", "--n", "4", "--policy", "DC_RC", "--lambda-e", "1", "--lambda-s", "1"]
    assert main(argv) == 1
    assert capsys.readouterr() == ("", stderr)


def test_bad_overrides_are_all_reported_even_with_a_bad_config(tmp_path, capsys):
    config = tmp_path / "absent.json"
    assert main(["simulate", "--config", str(config), "--cycles", "-5", "--seed", "-1"]) == 1
    err = capsys.readouterr().err.splitlines()
    assert err == [
        "error: --cycles must be an integer and --cycles >= 1, got -5",
        "error: --seed must be an integer and --seed >= 0, got -1",
    ]


def _write_error(output, plot_dir):
    """The OSError that making ``plot_dir``, or else making the directory of
    ``output`` and writing it, raises."""
    with pytest.raises(OSError) as err:
        if plot_dir:
            Path(plot_dir).mkdir(parents=True, exist_ok=True)
        else:
            Path(output).parent.mkdir(parents=True, exist_ok=True)
            open(output, "wb").close()
    return err.value


@pytest.mark.parametrize("verb", ["sweep", "simulate"])
@pytest.mark.parametrize(
    "output,plot_dir",
    [
        ("a_file/rows.csv", None),
        ("a_dir", None),
        ("rows.csv", "a_file"),
        ("rows.csv", "a_file/plots"),
    ],
)
def test_sweep_checks_its_destinations_before_any_work(
    verb, output, plot_dir, tmp_path, monkeypatch, capsys
):
    def no_work(config):
        raise AssertionError("run_experiment ran before the destination check")

    monkeypatch.setattr(cli, "run_experiment", no_work)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "a_file").write_text("kept")
    (tmp_path / "a_dir").mkdir()
    argv = [verb, "--config", str(write_config(tmp_path, FLAT_CONFIG)), "--output", output]
    argv += ["--plot-dir", plot_dir] if plot_dir else []
    assert main(argv) == 2
    assert capsys.readouterr() == ("", f"i/o error: {_write_error(output, plot_dir)}\n")
    assert not (tmp_path / "rows.csv").exists()
    assert (tmp_path / "a_file").read_text() == "kept"


@pytest.mark.parametrize("verb", ["sweep", "simulate"])
def test_sweep_makes_the_directories_it_writes_to(verb, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    argv = [verb, "--config", str(write_config(tmp_path, FLAT_CONFIG)), "--cycles", "10"]
    assert main(argv + ["--output", "no_dir/rows.csv", "--plot-dir", "plots/flat"]) == 0
    assert len(read_csv(tmp_path / "no_dir" / "rows.csv")) == 10
    assert sorted(p.name for p in (tmp_path / "plots" / "flat").iterdir()) == [
        "cli_flat__DC_RC__alpha1.dat",
        "cli_flat__DC_noRC__alpha1.dat",
    ]


def test_selftest_with_an_unknown_criterion_makes_no_report_directory(
    tmp_path, monkeypatch, capsys
):
    monkeypatch.chdir(tmp_path)
    assert main(["selftest", "--only", "9", "--report", "no_dir/report.csv"]) == 1
    assert capsys.readouterr().err.startswith("error: unknown criterion '9'")
    assert list(tmp_path.iterdir()) == []


#: A flat point whose rates pass one by one but whose sum overflows, so
#: ``run_experiment`` rejects it after the destinations are made.
OVERFLOWING_POINT = {
    "name": "overflow",
    "mode": "single_point",
    "policies": ["DC_RC"],
    "rates": {"lambda_e": 1, "lambda_s": 1e308},
    "n": 4,
}


@pytest.mark.parametrize("verb", ["sweep", "simulate"])
def test_a_failed_sweep_removes_the_directories_it_made(verb, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    config = write_config(tmp_path, dict(OVERFLOWING_POINT, output="out_dir/sub/rows.csv"))
    (tmp_path / "kept" / "empty").mkdir(parents=True)
    for plot_dir in ("plots", "kept/plots", "kept/empty"):
        argv = [verb, "--config", str(config), "--plot-dir", plot_dir, "--cycles", "10"]
        assert main(argv) == 1
        assert capsys.readouterr().err.startswith("error: rates too large")
        assert sorted(p.relative_to(tmp_path).as_posix() for p in tmp_path.rglob("*")) == [
            "config.json",
            "kept",
            "kept/empty",
        ]


def test_a_failed_make_removes_the_directories_made_before_it(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "a_file").write_text("kept")
    argv = ["sweep", "--config", str(write_config(tmp_path, FLAT_CONFIG))]
    assert main(argv + ["--output", "out_dir/rows.csv", "--plot-dir", "a_file/plots"]) == 2
    assert capsys.readouterr().err.startswith("i/o error: ")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["a_file", "config.json"]


def test_a_sweep_that_fails_after_writing_keeps_what_it_wrote(tmp_path, monkeypatch, capsys):
    def disk_full(rows, out_dir):
        raise OSError("disk full")

    monkeypatch.setattr(cli, "emit_plot_data", disk_full)
    monkeypatch.chdir(tmp_path)
    argv = ["sweep", "--config", str(write_config(tmp_path, FLAT_CONFIG))]
    assert main(argv + ["--output", "out_dir/rows.csv", "--plot-dir", "plots"]) == 2
    assert capsys.readouterr().err == "i/o error: disk full\n"
    assert len(read_csv(tmp_path / "out_dir" / "rows.csv")) == 10
    assert not (tmp_path / "plots").exists()
