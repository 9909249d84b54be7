"""Byte-identity of the shipped configs' outputs and the exact selftest report.

The CLI runs every shipped config as ``sweep --plot-dir`` and both
clustered ones as ``optimal-k``, and the SHA-256 of every file written and
of each command's stdout must equal the digests below; so must the files
the three ``scripts/*_sweep.py`` write, and the deterministic report of
the exact selftest criteria (1, 2, 3 and 6), which holds no wall-clock
data.  Two single-point configs, flat and
clustered, and two multi-cell Monte Carlo grids, flat and clustered, are
pinned the same way, and three invalid ones by their exit code and stderr.  They pin every value, label and byte of those outputs,
however the values are computed: a change that means to alter an output
updates its digest and says why.
"""

import contextlib
import hashlib
import importlib.util
import io
import json
import os
import sys
from pathlib import Path

import pytest

from gossipfresh.cli import main

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
SCRIPTS = CONFIGS.parent / "scripts"

COMMANDS = (
    ("sweep", "flat_policies"),
    ("sweep", "clustered_dc"),
    ("sweep", "clustered_fc"),
    ("optimal-k", "clustered_dc"),
    ("optimal-k", "clustered_fc"),
)

DIGESTS = {
    'stdout sweep flat_policies': '8b301b59ec1ab9e04dab2ac950e91eb8ecdcd7a9027ac978be4081f3b6ad74fc',
    'stdout sweep clustered_dc': 'a2c645c19f095afc6b7f4192433482eba201456ee2f75bec0829cd0201a6314f',
    'stdout sweep clustered_fc': '3bd9c14a8d9a56cf39cf7126cf3e7070cc819f97b7b5a9ed2e901d34123ccd41',
    'stdout optimal-k clustered_dc': '16d37497b64c8a95ec4700a0ef18a7490736ed78f01e8abbe98944bfb79ab9ea',
    'stdout optimal-k clustered_fc': 'a6777199663783ee77c2f70233f57d8801b1b13ff15b4564b6155332e04ff725',
    'out/clustered_dc.csv': 'a4ecec9407d27d17dc3a7731ab6883bc140c3c6c20ea2ebe498f6361e93472a1',
    'out/clustered_fc.csv': 'b067166d235dcb3a494b96d8e7ddcccb09dd659c3ad8ae4f8167bb585178f527',
    'out/flat_policies.csv': 'ce61c274bbbea2829e7e9b78b58b0531500db929082ee7d38d94e80bf6dc322e',
    'plots/clustered_dc__DC_RC+DC_RC__case1.dat': '0132cafa455d9fb18b33f5027b4afc00a77343167d800fe1e80b976549aec23a',
    'plots/clustered_dc__DC_RC+DC_RC__case2.dat': 'd49794bb76e02851194e801f3e94c7ccbe4ba41849305c34b30e2f7634a7827b',
    'plots/clustered_dc__DC_RC+DC_RC__case3.dat': '1be15cd09c755975113145657c2a325523d25ebdc90a25b2b8c251e11a7a1c40',
    'plots/clustered_dc__DC_RC+DC_RC__case4.dat': 'fdb33f545438dec261c3e0b9a3b03450c3931463a12b89e20cdb65ba3d71086e',
    'plots/clustered_dc__DC_RC+DC_noRC__case1.dat': '204db33249293f1df285e534a3179f7cee4161a8e622ef47c39ba87ee95c0661',
    'plots/clustered_dc__DC_RC+DC_noRC__case2.dat': 'baf82d1b801e4c655c737be26164c75cdb43aaf96b0c76737f42eab88cf04176',
    'plots/clustered_dc__DC_RC+DC_noRC__case3.dat': '0b89748e1e98cc1bb1b01df29c8ef3f77016c29e51e0ae44700b686ff5acbffc',
    'plots/clustered_dc__DC_RC+DC_noRC__case4.dat': '62b6b6bc9c8c8b1dbab25efafcf3cccce1da34f0bef23a8185400ab2cbef96c2',
    'plots/clustered_dc__DC_noRC+DC_RC__case1.dat': 'f46f563056f5a231d072b0c9ba84c5122e60cde549663c9d815bc91de0305e95',
    'plots/clustered_dc__DC_noRC+DC_RC__case2.dat': '5246a617effe432ec40eacf140540dd2852182c1ae227aa073229ed6799529dd',
    'plots/clustered_dc__DC_noRC+DC_RC__case3.dat': 'b2af13940c6a7dd1997ee17218388aaeece83856672b45dd1c9cbaf8bbd0fe46',
    'plots/clustered_dc__DC_noRC+DC_RC__case4.dat': 'a96e65f49f5c8383511da551e01912fe558f3974230e495380cafc1337b0f69e',
    'plots/clustered_dc__DC_noRC+DC_noRC__case1.dat': '57746121a8a91b22e5e2184f7e366f678a1d26df3255dffecced242b4201e5f9',
    'plots/clustered_dc__DC_noRC+DC_noRC__case2.dat': '081157207303855df4f53fc6a2628cb5df6ad70dc46f19034f695461c415a7d3',
    'plots/clustered_dc__DC_noRC+DC_noRC__case3.dat': '907221d257a708559f7c9229dfc128d0600897677685fea33eec0f78953e0c22',
    'plots/clustered_dc__DC_noRC+DC_noRC__case4.dat': '815ff06bdf2a050d637dc60a13b736a630318c3afb3eeae38123fff345530e0a',
    'plots/clustered_fc__DC_RC+FC_allRC__case1.dat': '56cf382be2134fb9df5c5d382483328e7e4cdfd0238bf83dafd079e2a1b28081',
    'plots/clustered_fc__DC_RC+FC_allRC__case2.dat': 'b59e5e0f1f65f8b30085b7f2c4c498aaa99c560a8e6f18e51936fb060897db15',
    'plots/clustered_fc__DC_RC+FC_allRC__case3.dat': '71ecd39a75d00556d359be074586170fec2565ebe86c1b3f69e8a928aafb0192',
    'plots/clustered_fc__DC_RC+FC_allRC__case4.dat': '643ec22806c9901f17ed4fadeadb189f88f1133f5f8bf337e5d551fe8195e19c',
    'plots/clustered_fc__DC_RC+FC_noRC__case1.dat': 'a36ae9c5806402453fa6b7877b989a74bdff9b20aacbeaa8a4458167a704b08b',
    'plots/clustered_fc__DC_RC+FC_noRC__case2.dat': 'a0212d9e355d2429b98b3cc6022bad6ecf4ceefdba8c5697369a00488d537c45',
    'plots/clustered_fc__DC_RC+FC_noRC__case3.dat': 'c2b4eab7a77c9af82062ada0c99fe991abb3449882d6c3703f7be34d6e6a0aa2',
    'plots/clustered_fc__DC_RC+FC_noRC__case4.dat': '54799bb63994473ffc5a9537ff6767a1ece1a2a145d67d6703f71bc5f2e359c3',
    'plots/clustered_fc__DC_noRC+FC_noRC__case1.dat': '0a5a725ad99a4ca23feee79f30abec6459fb00c5198f200e54922d9b2ba7e987',
    'plots/clustered_fc__DC_noRC+FC_noRC__case2.dat': '204827357c65969aa939660e06b0af16d52bc49373632199fe608205f0a9e786',
    'plots/clustered_fc__DC_noRC+FC_noRC__case3.dat': 'df433176588f659f8c758d3d695a1568eded079320c1534bc57dd4f82cbcc2ab',
    'plots/clustered_fc__DC_noRC+FC_noRC__case4.dat': 'ffe9143b708c5a44323f1509ecd0df35845213b5041bfd05ef08ad4a7a7f1f34',
    'plots/flat_policies__DC_RC__alpha0.1.dat': '0fb0555e01924210349f9af5c0b8bf6c309f0b429d80cd8c230a0c0fe7e54416',
    'plots/flat_policies__DC_RC__alpha1.dat': '70853ffe056b59d1949cdbf809cde0d9eca7a37cc37d275c8ec19bc7d5d4e71a',
    'plots/flat_policies__DC_noRC__alpha0.1.dat': 'fbeb455a0c4c766bbe1f1d91d4fa0f29983e956b187ffed7f7fb70075dae9b83',
    'plots/flat_policies__DC_noRC__alpha1.dat': '9b9f6c44e51e30326eb45896b6c20272dac8dd4fa7d90eaa373331d639e05238',
    'plots/flat_policies__FC_allRC__alpha0.1.dat': '992cf73ff93dc3f717bdfcc5ce81d98343b6effdd2c1de0df2d8ddd75ecf665c',
    'plots/flat_policies__FC_allRC__alpha1.dat': 'aba75623416ef97fdef306c4f94e330e02abc27bc5a184194909f3accb88d9a7',
    'plots/flat_policies__FC_noRC__alpha0.1.dat': '8b1bef66e178636a6c624471e77797f1d6961c8e93898243b08f431d0127d22f',
    'plots/flat_policies__FC_noRC__alpha1.dat': 'e130b3d2d1d9ed97848811edb11b8613223f8e7117abece7486a2f8097f13a61',
    'plots/flat_policies__FC_sRC__alpha0.1.dat': 'be856216c6509bb7d48d8fe52ca122702b15a61cc257c41e64919e28a4d9e67b',
    'plots/flat_policies__FC_sRC__alpha1.dat': '45ccd4df0bca6c3d7db68ca3578c14114382a4dcdf4a98ea6f271e8675c6a434',
}


def output_digests(workdir: Path) -> dict[str, str]:
    """Run :data:`COMMANDS` in ``workdir`` (the configs write their CSVs to
    ``out/``, plots go to ``plots/``); SHA-256 of each stdout and file."""
    digests = {}
    (workdir / "out").mkdir()
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        for verb, name in COMMANDS:
            argv = [verb, "--config", str(CONFIGS / f"{name}.json")]
            if verb == "sweep":
                argv += ["--plot-dir", "plots"]
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                assert main(argv) == 0
            digests[f"stdout {verb} {name}"] = hashlib.sha256(out.getvalue().encode()).hexdigest()
    finally:
        os.chdir(cwd)
    for path in sorted(p for p in workdir.rglob("*") if p.is_file()):
        name = path.relative_to(workdir).as_posix()
        digests[name] = hashlib.sha256(path.read_bytes()).hexdigest()
    return digests


def test_shipped_config_outputs_are_byte_identical(tmp_path):
    assert output_digests(tmp_path) == DIGESTS


def load_script(script):
    spec = importlib.util.spec_from_file_location(script, SCRIPTS / f"{script}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize(
    "script,name",
    [
        ("flat_policy_sweep", "flat_policies"),
        ("clustered_dc_sweep", "clustered_dc"),
        ("clustered_fc_sweep", "clustered_fc"),
    ],
)
def test_sweep_scripts_write_the_shipped_outputs(script, name, tmp_path, monkeypatch, capsys):
    # each script runs configs/<name>.json; its CSV and plot files land in
    # --out-dir and must equal the CLI's out/<name>.csv and plots/<name>__*
    monkeypatch.setattr(sys, "argv", [script, "--out-dir", str(tmp_path)])
    load_script(script).main()
    written = {
        ("out/" if path.suffix == ".csv" else "plots/") + path.name: hashlib.sha256(
            path.read_bytes()
        ).hexdigest()
        for path in tmp_path.iterdir()
    }
    expected = {
        key: digest
        for key, digest in DIGESTS.items()
        if key == f"out/{name}.csv" or key.startswith(f"plots/{name}__")
    }
    assert written == expected


@pytest.mark.parametrize(
    "flags", [["--cycles", "-5"], ["--cycles", "0"], ["--cycles", "10", "--seed", "-1"]]
)
def test_flat_script_rejects_bad_monte_carlo_flags(flags, tmp_path, monkeypatch, capsys):
    # the CLI's integer rule of sim.cycles and sim.seed, before any work,
    # with its exit code for a validation error
    monkeypatch.setattr(sys, "argv", ["flat_policy_sweep", "--out-dir", str(tmp_path), *flags])
    with pytest.raises(SystemExit) as exit_info:
        load_script("flat_policy_sweep").main()
    assert exit_info.value.code == 1
    assert f"error: {flags[-2]} must be an integer" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "script", ["flat_policy_sweep", "clustered_dc_sweep", "clustered_fc_sweep"]
)
def test_scripts_report_an_out_dir_that_is_a_file_as_an_io_error(
    script, tmp_path, monkeypatch, capsys
):
    # the CLI's exit code and message for an I/O error, before any sweep work
    taken = tmp_path / "taken"
    taken.write_text("")
    module = load_script(script)
    monkeypatch.setattr(module.cli, "run_experiment", lambda config: pytest.fail("sweep ran"))
    monkeypatch.setattr(sys, "argv", [script, "--out-dir", str(taken)])
    with pytest.raises(SystemExit) as exit_info:
        module.main()
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("i/o error: ") and str(taken) in err


def test_flat_script_passes_its_monte_carlo_flags_to_the_cli(tmp_path, monkeypatch, capsys):
    # --cycles and --seed reach `sweep` as they are, so the Monte Carlo
    # columns equal the CLI's for the same flags
    flags = ["--cycles", "50", "--seed", "3"]
    script_dir = tmp_path / "script"
    monkeypatch.setattr(sys, "argv", ["flat_policy_sweep", "--out-dir", str(script_dir), *flags])
    load_script("flat_policy_sweep").main()
    cli_csv = tmp_path / "cli.csv"
    config = str(CONFIGS / "flat_policies.json")
    assert main(["sweep", "--config", config, "--output", str(cli_csv), *flags]) == 0
    script_csv = (script_dir / "flat_policies.csv").read_bytes()
    assert b"p_sim" in script_csv.partition(b"\n")[0]
    assert script_csv == cli_csv.read_bytes()


#: SHA-256 of ``selftest --only 1,2,3,6 --report <path>``'s report file.
EXACT_REPORT_DIGEST = "2eb5f10f77108d55577f6bdb97d153e1c4cf40c8fd8495ce006043edb1b8be39"


def test_exact_selftest_report_is_byte_identical(tmp_path):
    report = tmp_path / "report.csv"
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["selftest", "--only", "1,2,3,6", "--report", str(report)]) == 0
    assert hashlib.sha256(report.read_bytes()).hexdigest() == EXACT_REPORT_DIGEST


#: Single-point configs, one flat and one clustered, each with Monte Carlo
#: columns; each runs as ``sweep --plot-dir`` and writes its CSV to
#: ``point.csv``.
POINTS = {
    "flat_point": {
        "name": "flat_point",
        "mode": "single_point",
        "policies": ["DC_noRC", "DC_RC", "FC_noRC", "FC_sRC", "FC_allRC"],
        "cases": [
            {"lambda_e": 1.0, "lambda_s": 2.0, "lambda_g": 0.5},
            {"label": "fast", "lambda_e": 0.25, "lambda_s": 3.0, "lambda_g": 4.0},
        ],
        "n": 17,
        "sim": {"cycles": 2000, "seed": 7},
        "output": "point.csv",
    },
    "clustered_point": {
        "name": "clustered_point",
        "mode": "single_point",
        "policies": [["DC_noRC", "DC_noRC"], ["DC_RC", "FC_allRC"], ["DC_noRC", "FC_sRC"]],
        "n": 120,
        "k": 8,
        "sim": {"cycles": 2000, "seed": 11},
        "output": "point.csv",
    },
}

POINT_DIGESTS = {
    'flat_point stdout': '8bd93d1aa0af88cbdf81761c5514e8f96468795bd15fcda5b150644078e7ef21',
    'flat_point plots/flat_point__DC_RC__alpha0.0833333.dat': '84394a7df52a5e00fcdf02fec50432e07d4f1da3d5f8ac3436cdda7445d875ee',
    'flat_point plots/flat_point__DC_RC__alpha0.5.dat': '692bfa6a4418ab70c4cb5288a70930b291217b4ab1d90a5d454a2bf4c8430811',
    'flat_point plots/flat_point__DC_noRC__alpha0.0833333.dat': '338952674bc101491c4aba42e8a8fce904cce77dc94d23a983dcbb81338bb246',
    'flat_point plots/flat_point__DC_noRC__alpha0.5.dat': '52e4ce491563252e8755076437ae3f449ae070b4d6d672e707148a17fa4b8e36',
    'flat_point plots/flat_point__FC_allRC__alpha0.0833333.dat': '012030d892a72b10c99ca2aa9e572c44a755f3e0c5cc5923e3c77f7076183ddb',
    'flat_point plots/flat_point__FC_allRC__alpha0.5.dat': 'f6aeb057c42cf62fc51f89e933fdb43e364f0439164f4dc702d86eb234b6fb5c',
    'flat_point plots/flat_point__FC_noRC__alpha0.0833333.dat': '014abd2a30ef222ea28ca74a1fe80b2000339e806eae3d2014f427fddba649a2',
    'flat_point plots/flat_point__FC_noRC__alpha0.5.dat': '15f3056d5697f43e6951983e585e3ea8672de4327d2b90b4966c5af0e34901ba',
    'flat_point plots/flat_point__FC_sRC__alpha0.0833333.dat': '7eac58c010844e5c9a587b73c8880edcbd0ae0b01efdcf238f78e63eefe417b3',
    'flat_point plots/flat_point__FC_sRC__alpha0.5.dat': 'dead93500cc9dd95b257bd4af49a59a8380b5d532cf9c0906523ea11f083ceed',
    'flat_point point.csv': '0edadfeca6f5f179c94a62579594f613d6e98f0d6824fd3855f4a7b8849478cd',
    'clustered_point stdout': '38ae6ec27acbf232153db2532d5b03d05ab1cfa06b9f0de8834aceaa20544ae2',
    'clustered_point plots/clustered_point__DC_RC+FC_allRC__case1.dat': '0baa3b21124ef2ee12a3c67458f8a8974a71181e4111b459d63f48a9597187d6',
    'clustered_point plots/clustered_point__DC_RC+FC_allRC__case2.dat': 'd4a8b9c48727ab3b75c9066576331a3ed78282536d4c6d63eb38467a3639a3ea',
    'clustered_point plots/clustered_point__DC_RC+FC_allRC__case3.dat': '4659a278feeb115f9a1536a207423b04a8c55903973d74f19a77ae21c6e2cc11',
    'clustered_point plots/clustered_point__DC_RC+FC_allRC__case4.dat': '1650dc28d759d5cf6aa085fd0aef765f611b714f5874156a787ea8147db8f730',
    'clustered_point plots/clustered_point__DC_noRC+DC_noRC__case1.dat': '0348361f1a29e2ecdaf57674e5c40b3d9f19cb6accc63b52d9b716283c9b41b5',
    'clustered_point plots/clustered_point__DC_noRC+DC_noRC__case2.dat': 'ae02feb1fc4269236342cf85557abb800dffd7b2d1957653546061114edff31a',
    'clustered_point plots/clustered_point__DC_noRC+DC_noRC__case3.dat': '421d8dd539a06872307b7d73d02d80531354a52a47ca23aabf85e74f4fb868b6',
    'clustered_point plots/clustered_point__DC_noRC+DC_noRC__case4.dat': 'a4c1060c1d7342b978bb179f2fae5faaf560bda8abc18e9c94061499aa0e2cba',
    'clustered_point plots/clustered_point__DC_noRC+FC_sRC__case1.dat': '1a6dc0594b7cf9929d34750f55fb13552cce7caecb0f5cc141f6bc06334089b5',
    'clustered_point plots/clustered_point__DC_noRC+FC_sRC__case2.dat': '03e1353da2e90c673f5c4934984ac7f6afbc630078c6b8594807f3b1d2e015f4',
    'clustered_point plots/clustered_point__DC_noRC+FC_sRC__case3.dat': 'b54abe95e77a25730a0cbe4d8e7e6e7f60f4bc1a1e67c12fedec4f77e2b9b960',
    'clustered_point plots/clustered_point__DC_noRC+FC_sRC__case4.dat': '5b696cc76d64502b3c3f1b2a4f3ecb0a40797680ced565d8cd0a92681b40c7a0',
    'clustered_point point.csv': '31b7a76b55eb99a2cb8faa044afddb04165aa8a8baf70ea7859253bfe2923a87',
}

CASE = {"lambda_e": 1, "lambda_s": 1, "lambda_c": 1}

#: Invalid single points and the exit code and stderr of ``sweep`` on them.
INVALID_POINTS = {
    "flat second case overflows": (
        {
            "mode": "single_point",
            "policies": ["DC_RC", "FC_allRC"],
            "cases": [{"lambda_e": 1, "lambda_s": 1}, {"lambda_e": 1, "lambda_s": 1e307}],
            "n": 17,
        },
        1,
        "error: rates too large: 17 * (lambda_e + lambda_s + lambda_g) = 1.7e+308 exceeds "
        "4.49e+307; only rate ratios matter, so scale all rates down\n",
    ),
    "FC_allRC source tier": (
        {
            "mode": "single_point",
            "policies": [["DC_RC", "DC_RC"], ["FC_allRC", "DC_RC"]],
            "rates": CASE,
            "n": 120,
            "k": 8,
        },
        1,
        "error: invalid network spec: clusterheads form a disconnected tier: source_policy "
        "must be DC_noRC or DC_RC, got FC_allRC\n",
    ),
    "clustered second case overflows": (
        {
            "mode": "single_point",
            "policies": [["DC_RC", "FC_allRC"], ["DC_noRC", "DC_RC"]],
            "cases": [CASE, dict(CASE, lambda_c=1e306)],
            "n": 120,
            "k": 8,
        },
        1,
        "error: invalid network spec: rates too large: 120 * (lambda_e + lambda_c + lambda_g) "
        "= 1.2e+308 exceeds 4.49e+307; only rate ratios matter, so scale all rates down\n",
    ),
}


def _sweep(workdir: Path, raw: dict, plot_dir=None) -> tuple[int, str, str]:
    """``sweep`` on the config ``raw`` in ``workdir``: exit code, stdout
    and stderr."""
    path = workdir / "config.json"
    path.write_text(json.dumps({"name": "point", **raw}))
    argv = ["sweep", "--config", str(path)]
    if plot_dir:
        argv += ["--plot-dir", plot_dir]
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    finally:
        os.chdir(cwd)
    return code, out.getvalue(), err.getvalue()


def test_single_point_outputs_are_byte_identical(tmp_path):
    digests = {}
    for name, raw in POINTS.items():
        workdir = tmp_path / name
        workdir.mkdir()
        code, out, err = _sweep(workdir, raw, plot_dir="plots")
        assert (code, err) == (0, "")
        digests[f"{name} stdout"] = hashlib.sha256(out.encode()).hexdigest()
        for path in sorted(p for p in workdir.rglob("*") if p.name != "config.json"):
            if path.is_file():
                key = f"{name} {path.relative_to(workdir).as_posix()}"
                digests[key] = hashlib.sha256(path.read_bytes()).hexdigest()
    assert digests == POINT_DIGESTS


@pytest.mark.parametrize("name", INVALID_POINTS)
def test_invalid_single_points_fail_with_the_same_message(name, tmp_path):
    raw, code, stderr = INVALID_POINTS[name]
    assert _sweep(tmp_path, raw) == (code, "", stderr)


#: Multi-cell grids with Monte Carlo columns, flat and clustered, each with
#: two rate cases and two policies; they pin the per-row seed numbering
#: across cases and policies.  Each runs as ``sweep --plot-dir`` and writes
#: its CSV to ``grid.csv``.
GRIDS = {
    "flat_grid": {
        "name": "flat_grid",
        "mode": "flat_sweep_n",
        "policies": ["DC_RC", "FC_allRC"],
        "cases": [
            {"lambda_e": 1.0, "lambda_s": 2.0, "lambda_g": 0.5},
            {"label": "fast", "lambda_e": 0.25, "lambda_s": 3.0, "lambda_g": 4.0},
        ],
        "n_range": [1, 4],
        "sim": {"cycles": 500, "seed": 5},
        "output": "grid.csv",
    },
    "clustered_grid": {
        "name": "clustered_grid",
        "mode": "clustered_sweep_k",
        "policies": [["DC_noRC", "FC_sRC"], ["DC_RC", "DC_RC"]],
        "cases": [
            {"lambda_e": 1.0, "lambda_s": 4.0, "lambda_c": 2.0, "lambda_g": 1.0},
            {"label": "fast", "lambda_e": 0.5, "lambda_s": 1.0, "lambda_c": 6.0, "lambda_g": 3.0},
        ],
        "n": 12,
        "sim": {"cycles": 500, "seed": 13},
        "output": "grid.csv",
    },
}

GRID_DIGESTS = {
    'flat_grid stdout': '24089f8c765c1ec6a8d9758b3e1f481ee1ba17243cda952dea3f9d06ddcc3f6f',
    'flat_grid grid.csv': '4540fd28d38e35b6bc0c7f0b3e3af9edc93e935d6a852169c41998b49cb8a35e',
    'flat_grid plots/flat_grid__DC_RC__alpha0.0833333.dat': '74929dbf8643289a10f4fad9e5dd0318343c6462527708f32a9ab4916dc9eb4c',
    'flat_grid plots/flat_grid__DC_RC__alpha0.5.dat': '17cadc2c6229688389c77894750c3abe089ff39bb20f3b03a33c94d318e83fb2',
    'flat_grid plots/flat_grid__FC_allRC__alpha0.0833333.dat': 'a7d46439c0cf739f86562e241092969e4112687d8d3a53edfb6fc96c814a15cb',
    'flat_grid plots/flat_grid__FC_allRC__alpha0.5.dat': '256428534c64a6634e5c90b55e52adfbfcb4e24e733d0731fb74861c07dfe276',
    'clustered_grid stdout': 'c75894a136663163b56f2d28146df3ebe0b8f4d35497bb5c73b2047f38dbb3d5',
    'clustered_grid grid.csv': '82eb0558a79cd709774261e6a97cd2c51729ef09b4443b99cff9de7113bd8a90',
    'clustered_grid plots/clustered_grid__DC_RC+DC_RC__case1.dat': '98cdcfea5ff0959f1beecffb75a597e4ea9c914d13c45da95891c574679b4e2d',
    'clustered_grid plots/clustered_grid__DC_RC+DC_RC__case2.dat': '08f6393afb0bfe6f5aa04f8dd3c2cca4ad28d71503af5024cb44c8fd3bf003d1',
    'clustered_grid plots/clustered_grid__DC_noRC+FC_sRC__case1.dat': 'a9be3679817b1e0031812762d996daae8ed8f9fb212007ccc39c47283925a337',
    'clustered_grid plots/clustered_grid__DC_noRC+FC_sRC__case2.dat': 'f5f60ac7486255942daf57f7b2a704d84aa092f8b6c52c368e4869f427b8b3bd',
}


def test_multi_cell_monte_carlo_grids_are_byte_identical(tmp_path):
    digests = {}
    for name, raw in GRIDS.items():
        workdir = tmp_path / name
        workdir.mkdir()
        code, out, err = _sweep(workdir, raw, plot_dir="plots")
        assert (code, err) == (0, "")
        digests[f"{name} stdout"] = hashlib.sha256(out.encode()).hexdigest()
        for path in sorted(p for p in workdir.rglob("*") if p.name != "config.json"):
            if path.is_file():
                key = f"{name} {path.relative_to(workdir).as_posix()}"
                digests[key] = hashlib.sha256(path.read_bytes()).hexdigest()
    assert digests == GRID_DIGESTS
