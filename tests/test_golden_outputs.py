"""Byte-identity of the shipped configs' outputs and the exact selftest report.

The CLI runs every shipped config as ``sweep --plot-dir`` and both
clustered ones as ``optimal-k``, and the SHA-256 of every file written and
of each command's stdout must equal the digests below; so must the
deterministic report of the exact selftest criteria (1, 2, 3 and 6),
which holds no wall-clock data.  They pin every value, label and byte of
those outputs, however the values are computed: a change that means to
alter an output updates its digest and says why.
"""

import contextlib
import hashlib
import io
import os
from pathlib import Path

from gossipfresh.cli import main

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

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


#: SHA-256 of ``selftest --only 1,2,3,6 --report <path>``'s report file.
EXACT_REPORT_DIGEST = "e37db3626bdbf748203925c556f8698570d2cb38250712a135d0a3ce7dedc907"


def test_exact_selftest_report_is_byte_identical(tmp_path):
    report = tmp_path / "report.csv"
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["selftest", "--only", "1,2,3,6", "--report", str(report)]) == 0
    assert hashlib.sha256(report.read_bytes()).hexdigest() == EXACT_REPORT_DIGEST
