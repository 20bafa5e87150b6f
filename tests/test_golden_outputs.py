"""Golden pins of the CLI and scatter outputs, before any change to the code
paths behind them: ``verify``, ``sweep`` and ``sample`` stdout, the file that ``sweep``
writes, the CSV that ``scatter_cb`` converts from a sweep file, ``bounds`` JSON and ``jn``
values.  Each digest is a sha256 of the exact bytes, and each pinned output is a row of its
table.  The Haar draws' SVD and the closed forms' dot products round by OpenBLAS kernel, so
every table (``KEYED``) holds its digests keyed by the kernel they were taken under, SkylakeX
and Haswell, and ``tests/golden_digests.py`` takes them; ``assert_pinned`` checks each pin,
and a pin on a kernel with no digests fails, naming it and that command.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
from pathlib import Path

import numpy as np
import pytest

from bellbound import ExperimentConfig, harness, scatter_cb
from bellbound.cli import main

from conftest import blas_kernel


def digest(data: str | bytes) -> str:
    return hashlib.sha256(data.encode() if isinstance(data, str) else data).hexdigest()


def cli_stdout(*argv) -> str:
    """The stdout of ``main(argv)``, which must exit 0 with an empty stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    assert (code, err.getvalue()) == (0, "")
    return out.getvalue()


def assert_pinned(table: str, got, digests: dict) -> None:
    """``got`` equals a row's digests for the OpenBLAS kernel that runs; a kernel without
    digests fails, naming the command that takes them."""
    kernel = blas_kernel()
    if kernel not in digests:
        pytest.fail(f"{table} has no digests for BLAS kernel {kernel}; take them with "
                    f"python3 tests/golden_digests.py {table} --coretype {kernel}")
    assert got == digests[kernel], f"BLAS kernel {kernel}"


def flag(argv, name: str) -> str:
    return argv[argv.index(name) + 1]


def forks(workers: int, dims, samples: int) -> int:
    """The forks of a run of ``samples`` per m in ``dims`` at ``workers`` workers when a fork
    pays for one sample: one worker per chunk up to the requested count, and the caller is one
    of them."""
    config = ExperimentConfig(dims=dims, samples=samples, seed=0)
    return harness._plan(config, 1, workers, workers, True)[0] - 1


# 130 samples split into two chunks at 2 workers; 8x8 stays cheap at 8, and at
# 65 it splits into chunks of 64 and 1, so a worker seeds a one-sample chunk
GOLDEN_VERIFY = [
    pytest.param(("--m", "2", "--n", "2", "--samples", "130", "--measure", "haar"),
                 {"SkylakeX": "4a6a8808e0757b39370d87056c38d4e5740f7d3b7ce5b2fdcd6a888abaf36786",
                  "Haswell": "97d123a370d73d05e9e12ed1b9900e4e2b5baabe3fdca4a61f81f60bfeb43e0e"},
                 id="2x2-haar"),
    pytest.param(("--m", "2", "--n", "2", "--samples", "130", "--measure", "simplex"),
                 {"SkylakeX": "fd7cd80c2829b1a46838952e61c728b3cbc9d87f010f36928d5ec35352b1a5e8",
                  "Haswell": "fd7cd80c2829b1a46838952e61c728b3cbc9d87f010f36928d5ec35352b1a5e8"},
                 id="2x2-simplex"),
    pytest.param(("--m", "3", "--n", "4", "--samples", "130", "--measure", "haar"),
                 {"SkylakeX": "918c425403323abce3b9d6b3cda391e2b66b86090d7df72175bd66aa1496129a",
                  "Haswell": "f1fac53f2b4bf8b429ca36b321258828ac84f5bb696eb10af73b3d1050635e2a"},
                 id="3x4-haar"),
    pytest.param(("--m", "3", "--n", "4", "--samples", "130", "--measure", "simplex"),
                 {"SkylakeX": "08b59d9fd996766a0a44d24614b2e34de2b478e63d8912d33ad79c51325fdf56",
                  "Haswell": "08b59d9fd996766a0a44d24614b2e34de2b478e63d8912d33ad79c51325fdf56"},
                 id="3x4-simplex"),
    pytest.param(("--m", "8", "--n", "8", "--samples", "8", "--measure", "haar"),
                 {"SkylakeX": "32dd9a758652259b531422776b049655de573565ff34eaa6067d99f82b84ae3c",
                  "Haswell": "32dd9a758652259b531422776b049655de573565ff34eaa6067d99f82b84ae3c"},
                 id="8x8-haar"),
    pytest.param(("--m", "8", "--n", "8", "--samples", "65", "--measure", "haar"),
                 {"SkylakeX": "d181f68b6fb6b9b93aabaf8af5566172b379c560b5ec84135e727422fb37cc70",
                  "Haswell": "d181f68b6fb6b9b93aabaf8af5566172b379c560b5ec84135e727422fb37cc70"},
                 id="8x8-haar-chunked"),
    pytest.param(("--m", "8", "--n", "8", "--samples", "8", "--measure", "simplex"),
                 {"SkylakeX": "876b5db191fe005b00b2561f990bfc2e957c0f51994f708fad6847f4b0fb6379",
                  "Haswell": "876b5db191fe005b00b2561f990bfc2e957c0f51994f708fad6847f4b0fb6379"},
                 id="8x8-simplex"),
    # a later --grid overrides the test's 64: grids of 17 and 65 end in a one-angle stack
    pytest.param(("--m", "2", "--n", "2", "--samples", "130", "--measure", "haar", "--grid", "17"),
                 {"SkylakeX": "559244242a294b43e0fa5e62aafc35d731b87b93282717dbf1249a951a7543da",
                  "Haswell": "559244242a294b43e0fa5e62aafc35d731b87b93282717dbf1249a951a7543da"},
                 id="2x2-haar-grid17"),
    pytest.param(("--m", "2", "--n", "2", "--samples", "130", "--measure", "haar", "--grid", "65"),
                 {"SkylakeX": "82ca44cf76f43361c82d3e80ca7e71b8be320a47dc139bc5d79c2d545a3b5a6d",
                  "Haswell": "f8d688d5ac4d5bc09d8819754f02a8666d63210d1ffa3d88584e88664428ba1b"},
                 id="2x2-haar-grid65"),
    pytest.param(("--m", "8", "--n", "8", "--samples", "8", "--measure", "haar", "--grid", "17"),
                 {"SkylakeX": "6913ab13f6bedcac210f7af0a5229bb1159228d5ff0e24d3b05cbaf1518bb7c3",
                  "Haswell": "b3a7b22df2edf2f831dc6f27e888766e252e7ecaaf8c08d1587a425e3a87644c"},
                 id="8x8-haar-grid17"),
    pytest.param(("--m", "8", "--n", "8", "--samples", "8", "--measure", "haar", "--grid", "65"),
                 {"SkylakeX": "71cb223b9da4371f7edaf81b27f60d86604b40276c92ddb892fa265e15a5031d",
                  "Haswell": "71cb223b9da4371f7edaf81b27f60d86604b40276c92ddb892fa265e15a5031d"},
                 id="8x8-haar-grid65"),
    # a later --seed overrides the test's 19 too, and --n defaults to --m
    pytest.param(("--m", "2", "--n", "2", "--samples", "5", "--seed", "2"),
                 {"SkylakeX": "5f651f01892d6d3eeedc7238858d3fc8811fba2d61b034a4bb13acdc87ec352f",
                  "Haswell": "89a561b7c38b65c85e89cb54bb8d1457d0ef73c03138228b7864fcc7c07cab83"},
                 id="2x2-seed-2"),
    pytest.param(("--m", "3", "--samples", "3", "--seed", "2"),
                 {"SkylakeX": "8bd454ba520aaebf15d71e7f1166f7e81b40b39fc95818ca85776785037d2312",
                  "Haswell": "8bd454ba520aaebf15d71e7f1166f7e81b40b39fc95818ca85776785037d2312"},
                 id="3-n-defaults-to-m"),
    pytest.param(("--m", "2", "--samples", "1", "--seed", "1", "--grid", "8"),
                 {"SkylakeX": "2ffd34bf74a7eaa43db7695f7afc22587b2ea146df7221fe5d114e456ba19f2c",
                  "Haswell": "2a09dc3d46ce210e1e391d388f08c5e3208ea8e7e5e929e4fe6d0e5df41dd3ed"},
                 id="2-grid-8"),
]


def verify_out(argv) -> str:
    return cli_stdout("verify", "--grid", "64", "--seed", "19", *argv)


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("argv,expected", GOLDEN_VERIFY)
def test_verify_stdout_is_pinned(set_workers, fork_spy, threads, argv, expected):
    set_workers(threads)
    assert_pinned("GOLDEN_VERIFY", digest(verify_out(argv)), expected)
    # a state pays for a fork
    assert len(fork_spy) == forks(threads, (int(flag(argv, "--m")),), int(flag(argv, "--samples")))


# sha256 of the file that each sweep writes and of its stdout, the same at 1, 2 and 3
# workers; the first two rows are the benchmark's golden shapes, and 3 workers split 250
# samples unevenly
GOLDEN_SWEEPS = [
    pytest.param("--dims 2,4,6,8 --samples 250 --seed 1 --measure haar",
                 {"SkylakeX": ("c5fbfe673f5906bf5c498085d86fb5adc2de6ace0f26e0ad7cf2bccaacafe793",
                               "71804cddb4f501fc9fe8723a82519733b5d9f903f3090d21641cec818d53b632"),
                  "Haswell": ("305da5e89d691240c1bb3cada7ad1375e9827a8d5c53bf325e1be1f7d9cdea43",
                              "357e831b4250c9eb736a993991364ccff1fe907f03d42fed20acc76a25b30d0a")},
                 id="haar-even"),
    pytest.param("--dims 3,9,33 --samples 250 --seed 1 --measure simplex",
                 {"SkylakeX": ("fe1db2e5b4b5ef11b1ef133cd2876295d18d17e0a369caca57341d66397f78eb",
                               "44b53c0b02705addb1c9db11fa2d0925cd6e310d962efd32d24aea88f0daca4c"),
                  "Haswell": ("77fb90a6bec017a64d0a02879d3dfc7ecdd132b141d695c5de3a7cef889f670e",
                              "44b53c0b02705addb1c9db11fa2d0925cd6e310d962efd32d24aea88f0daca4c")},
                 id="simplex-odd"),
    pytest.param("--dims 2,3,5 --samples 120 --seed 7 --measure haar --offset 2",
                 {"SkylakeX": ("14c00763f1bcf1889b94fa5d0a6530162822e922ccd72d6b5bec41e60cddae9b",
                               "81c8dfa13fa6cc11b80b1985f138a7dac6adf6670ebc8bd9d3bf797c1f346f15"),
                  "Haswell": ("6d47a7ea6ad22fb7e19282c43e65285eafe8865f37e2a6b1d4dd5a258d476c04",
                              "9d6a24eace99c77b6ebd6eb2acc9dcf078572dbeb7c6c40e70a99478ff2902ef")},
                 id="haar-offset-2"),
    pytest.param("--dims 1 --samples 60 --seed 3 --measure haar",
                 {"SkylakeX": ("5b00f17f2cd7bc8a9cf13877801535ce3e5e29e6f766b640cf93c2edb90ac844",
                               "110b9f352c99a9eaae28d7a3ce1114ab03af3e7bf9a9976c963fec4189a8d260"),
                  "Haswell": ("5b00f17f2cd7bc8a9cf13877801535ce3e5e29e6f766b640cf93c2edb90ac844",
                              "110b9f352c99a9eaae28d7a3ce1114ab03af3e7bf9a9976c963fec4189a8d260")},
                 id="m-one"),
    pytest.param("--dims 1 --samples 130 --seed 3 --measure haar",
                 {"SkylakeX": ("b9c1d3d5174ec6680a3ddad97729303675a1144a4f8631568324c347d43107bc",
                               "3d366aac4850742921d9a5381d787e216b2722a37b6fc45b3665cdd3023ee53e"),
                  "Haswell": ("b9c1d3d5174ec6680a3ddad97729303675a1144a4f8631568324c347d43107bc",
                              "3d366aac4850742921d9a5381d787e216b2722a37b6fc45b3665cdd3023ee53e")},
                 id="m-one-chunked"),
    # 130 samples split into two chunks per m at 2 workers; the haar shape's m = 2 line
    # pins a negative rounding margin within THEOREM_TOL
    pytest.param("--samples 130 --seed 19 --dims 2,3,4 --measure haar --offset 1",
                 {"SkylakeX": ("d91c51d48ca2c69ff8b60c3546fa5cab7d6eec505917dccc4979fd310b3e9482",
                               "f1afad926e916f4a9f7da56170d16ba5933509d45a8fdc4a4374d21e534edd07"),
                  "Haswell": ("c308003826ec633e79ffea0952903d99c6e43d65b427ea57026f6d29ff402b2e",
                              "29bc913633f721a8580d5c70058b13ab7cbe80ebd9f20808916e6aed4ae757c5")},
                 id="haar-offset-1"),
    pytest.param("--samples 130 --seed 19 --dims 1,2,5 --measure simplex",
                 {"SkylakeX": ("cf5cb09e2414882833d3dc5b0873b433b9f4e094fea9dd601184b05e51e3230c",
                               "63d23bfc153a68b69fd2d3738bb57c4272797d38bf92f017a86c162b1ad0542d"),
                  "Haswell": ("1fd551cb85b9437374fd0af343f38afdc425364d278c6583ea4744cf5ecca26c",
                              "63d23bfc153a68b69fd2d3738bb57c4272797d38bf92f017a86c162b1ad0542d")},
                 id="simplex"),
    # small runs: one sample, one m at a time (odd m has null theorem flags), both measures
    # on one shape, and two or three m at a time
    pytest.param("--dims 2 --samples 1 --seed 42",
                 {"SkylakeX": ("21ab94196054a61c23d580b3858105b2c8ffcdf1cf39c637ca8f03dc033f27c2",
                               "d40001749531966394aadf97e029707a98af079f519d047c4aef9ff5a4799653"),
                  "Haswell": ("355470cffc34bee02a43b669fc6f1ddaf8d2423cb074d2c4f42ace495d32bc40",
                              "712b9fa0befd6fc79e6012019b2bc110fb8ea54a3fd001cdf54e9e4c3f449a9e")},
                 id="one-sample"),
    pytest.param("--dims 3 --samples 5 --seed 1",
                 {"SkylakeX": ("16aef988ef89d395ce7ffd70a3fca010548bbca9de6fe4919c435bf030a3f66b",
                               "f7602ed3a4732b95a8af3a5fda95e1bded85dd2595cd1965e926fb77ff68b499"),
                  "Haswell": ("37fc4b20298352d91f2f83fc99affc5e97753b62b064ca692784f0594afc1b59",
                              "f7602ed3a4732b95a8af3a5fda95e1bded85dd2595cd1965e926fb77ff68b499")},
                 id="m-three"),
    pytest.param("--dims 2 --samples 5 --seed 1 --measure haar",
                 {"SkylakeX": ("1da0f02a38e9cb10eb8f74c979f00ce1fa8f37c4b4afb6f44c8ecefd0d047d74",
                               "98c3ca6c0876a233d682ebbb460263b2defd08ca77db13c3b913e9422f388001"),
                  "Haswell": ("df691205709905ef5defebc15fda47906d7cab615f89a925c5764b64d7e6de41",
                              "a9d5df92153538dad32526c642f9fb070f82b58a1c0f219bfa38738b8c2a2444")},
                 id="m-two-haar"),
    pytest.param("--dims 2 --samples 5 --seed 1 --measure simplex",
                 {"SkylakeX": ("c750862fcbf715e63f9dbc88f3e2497f574e205e10fdf651bb3d6dde5413019e",
                               "e38190eb86b47bf9e0428dfc310113296104d130262107b655bf1702aa52a626"),
                  "Haswell": ("c750862fcbf715e63f9dbc88f3e2497f574e205e10fdf651bb3d6dde5413019e",
                              "e38190eb86b47bf9e0428dfc310113296104d130262107b655bf1702aa52a626")},
                 id="m-two-simplex"),
    pytest.param("--dims 4 --samples 10 --seed 13",
                 {"SkylakeX": ("13f2e434c749da313e0e3f332b6835f1eb19f8c9fd7738e48c6fa396936a2272",
                               "f3150be985cfb851473d055666630a3f65189961c9ca41674a521f9677e1af30"),
                  "Haswell": ("3c74e99c3cc50c18963aea14099dcca38f39d48766581d67efadb79e2e01c760",
                              "05f660c504a3140f81cdb6c25ff92310dccdecda5132112d32fe4e7af9ba71e8")},
                 id="m-four"),
    pytest.param("--dims 5 --samples 3 --seed 2",
                 {"SkylakeX": ("7e1b9b79376f9bd912b2cbdb536d06d76fb651f696fb65bff3ea238436101de9",
                               "de1ef1479b8e3cdaf40f59025a29101d0d4e5a5751c6eb2f3e5827499a017be8"),
                  "Haswell": ("197f9de23a485b86245665f6423bb338d57bbb85d8d355fff7b434bcccf5cf4e",
                              "de1ef1479b8e3cdaf40f59025a29101d0d4e5a5751c6eb2f3e5827499a017be8")},
                 id="m-five"),
    pytest.param("--dims 2,3 --samples 25 --seed 3 --measure simplex",
                 {"SkylakeX": ("e47e8cc47eb64821f658be1730606c341d3e36d8e4f8c49e5feffeac12da10b3",
                               "79f924b4b43ad82085641db072ead3ff213ab3448c0f13f068d3738dfb342bc2"),
                  "Haswell": ("cbd107ad47d83bb46e9b2cbb3f4249f49751cd88b79314a4a9cacf027b0c4c06",
                              "79f924b4b43ad82085641db072ead3ff213ab3448c0f13f068d3738dfb342bc2")},
                 id="simplex-two-dims"),
    pytest.param("--dims 2,3,4 --samples 20 --seed 9 --measure simplex --offset 1",
                 {"SkylakeX": ("d6494227ff804dcfbec14cd3927e67d584da13e082833f298b8ba68c61f4609f",
                               "460c6e8cc1da58e48cc4cd3f21bbf56c9bd1c7ddbf75556e7306171df2a854b9"),
                  "Haswell": ("82df367955253f217a48893de1b5f2ff05ac07357bfea99959425937cd126ad2",
                              "460c6e8cc1da58e48cc4cd3f21bbf56c9bd1c7ddbf75556e7306171df2a854b9")},
                 id="simplex-offset-1"),
    pytest.param("--dims 2,4 --samples 40 --seed 8",
                 {"SkylakeX": ("1bc56a19c3c2f3023e7417d3a5f14e1311d4d399778d4228f2423ca1e1220d86",
                               "df5455b00ee0a7520f910ff732ab2cc053c5ab0deb45727e9a6a58db6a3e5f18"),
                  "Haswell": ("c4d04e1a57e0ebfc9a190f3cf75a0ee8b2e88709f4891c6ce43e2c060a7bd9ad",
                              "c95042d2e3b937e183c0cb15d1aa9d47644a0e347bdf0ddb06a6ca3f87e4f840")},
                 id="even-dims-seed-8"),
    pytest.param("--dims 2,4 --samples 50 --seed 3",
                 {"SkylakeX": ("132abac19f3b9b66c5a98ac5f28f6cd2cbb47475529b62e88820b84ce3f84829",
                               "a617554ad730d9074055dc31ced5015880c70fccb69090746db630fb5ddd505a"),
                  "Haswell": ("8cbb3c8d24313c9bbb40a641b0ad7d0a909954ca0fe4685da7d3dd06da188bbc",
                              "3688dcaa005a667a459d4f3bf05d46c6bc4f4b88ef8afaacd02701d99830d46e")},
                 id="even-dims-seed-3"),
    pytest.param("--dims 2,3,4 --samples 100 --seed 11",
                 {"SkylakeX": ("9e7ee5c971aba39def5a6ea25ef55e351cf1535bfc2919856550699a771ee835",
                               "be0c5724e32f5ecb6694bf578b33cd92f18ae07384bb40d671bb6cd12c0609bb"),
                  "Haswell": ("d1a25014638e6624ef2c91384a85a5f3ce4ab57c76f679fb48d66a174a3e6815",
                              "d6fe2a85af69a72945e3d831937d931cc8c97459a480a3a7cdb0f6a4826faa4d")},
                 id="haar-three-dims"),
    # 150 samples split into three chunks per m at 3 workers
    pytest.param("--dims 2,3 --samples 150 --seed 21",
                 {"SkylakeX": ("5f0878d510afa9d9a6394e0da63231d659173c91daa243f511fb57e41e3682e7",
                               "c4c1b3f24b81fdf8316778e01afa255baeb875609d7f159a57edb798e07e37f9"),
                  "Haswell": ("079eada9baa54b6378335a40ea5312ac6a6983cbcccf22ded3fa354f8116eba1",
                              "129b2c3fa58c74de6972318875d5fd8a4ef33e341fbb0dfce9ca2e6826cbd385")},
                 id="haar-two-dims"),
]


def sweep_out(flags: str) -> tuple[bytes, str]:
    """The file that ``sweep`` with ``flags`` writes to ``out.jsonl`` in the working
    directory, and its stdout; a relative --out keeps the "out = " line fixed."""
    out = cli_stdout("sweep", *flags.split(), "--out", "out.jsonl")
    return Path("out.jsonl").read_bytes(), out


@pytest.mark.parametrize("workers", [1, 2, 3])
@pytest.mark.parametrize("flags,expected", GOLDEN_SWEEPS)
def test_sweep_file_and_stdout_are_pinned(monkeypatch, tmp_path, set_workers, any_work_forks,
                                          fork_spy, workers, flags, expected):
    monkeypatch.chdir(tmp_path)
    set_workers(workers)
    assert_pinned("GOLDEN_SWEEPS", tuple(map(digest, sweep_out(flags))), expected)
    argv = flags.split()
    dims = tuple(map(int, flag(argv, "--dims").split(",")))
    assert len(fork_spy) == forks(workers, dims, int(flag(argv, "--samples")))


# sha256 of the CSV that scatter_cb converts from a sweep file written at 1 and at 2 workers
GOLDEN_SCATTER = [
    pytest.param(dict(dims=(1, 3, 4), samples=300, seed=41, second_dim_offset=1),
                 {"SkylakeX": "0d2b0b9751e62e7d6c71bf18370ab5bf90d980350f547bd9e24732119744b156",
                  "Haswell": "7f1ce99952314f72463a6c1a2369e5023b577a57bf724637bfc04a6eea21936b"},
                 id="three-dims-offset-1"),
    pytest.param(dict(dims=(2,), samples=10, seed=17),
                 {"SkylakeX": "6acb92e85cc37bae6c538241a61b4a5d497b2a039265c374f2dd4ce9351d6480",
                  "Haswell": "93e40e8cd9bb2a53b872cc3c3867e07994c0b195bfebd8d09475e365ac048520"},
                 id="m-two"),
    pytest.param(dict(dims=(3,), samples=50, seed=31),
                 {"SkylakeX": "d4fcb0d7e632dcaf6abeec53e9dba7a4983ac23482692cdb1be6e60712d80192",
                  "Haswell": "cad867d46cb1b2a8b640a266cb5d3d26c483f00dc09f0f97731c32c123d0a7c5"},
                 id="m-three"),
    pytest.param(dict(dims=(4,), samples=5, seed=29),
                 {"SkylakeX": "e9c4b23829de2215d84d0b5d778c204167ca3209244064f330b1710b68fd3e77",
                  "Haswell": "991d0ada4d4894cd8c8b306a9d0dd78b82ea69e76ef9234282d95687c9d3cada"},
                 id="m-four"),
]


def scatter_out(config: dict) -> bytes:
    """The CSV that ``scatter_cb`` converts from the sweep file of ``config``, both files
    written in the working directory."""
    sweep, out = Path("sweep.jsonl"), Path("cloud.csv")
    harness.run_sweep(ExperimentConfig(output_path=str(sweep), **config))
    assert scatter_cb(sweep, out) == out
    return out.read_bytes()


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("config,expected", GOLDEN_SCATTER)
def test_scatter_csv_is_pinned(monkeypatch, tmp_path, set_workers, any_work_forks, fork_spy,
                               workers, config, expected):
    monkeypatch.chdir(tmp_path)
    set_workers(workers)
    assert_pinned("GOLDEN_SCATTER", digest(scatter_out(config)), expected)
    assert len(fork_spy) == forks(workers, config["dims"], config["samples"])


GOLDEN_BOUNDS = [
    pytest.param("1",
                 {"SkylakeX": "ed2f8c1406e52e1c300bdc2af3694de64ee2436ab23bfdeeb1799ecf33bdccdc",
                  "Haswell": "ed2f8c1406e52e1c300bdc2af3694de64ee2436ab23bfdeeb1799ecf33bdccdc"},
                 id="m-one"),
    pytest.param("0.8,0.6",
                 {"SkylakeX": "e6a634e5a22eb41619c6ce9c00f40f6a866c0ae230a3838f55bf4a6caf93ae94",
                  "Haswell": "e6a634e5a22eb41619c6ce9c00f40f6a866c0ae230a3838f55bf4a6caf93ae94"},
                 id="m-two"),
    pytest.param("3,2,1",
                 {"SkylakeX": "3bf3cddedbe4c25f7b1dc21c71f6df8340dfbd4ce2d3a6d9db8cb67090c15763",
                  "Haswell": "3bf3cddedbe4c25f7b1dc21c71f6df8340dfbd4ce2d3a6d9db8cb67090c15763"},
                 id="m-three"),
    pytest.param("0.6,0.5,0.4,0.3,0.2",
                 {"SkylakeX": "b131aadad9d934d8ab2102fa845bfc954b7841698ae1f245993a9f442b0ae96b",
                  "Haswell": "b131aadad9d934d8ab2102fa845bfc954b7841698ae1f245993a9f442b0ae96b"},
                 id="m-five"),
    pytest.param("0.7,0.7,0,0",
                 {"SkylakeX": "24d68f3248f1b496d00cc6d9c41c9c64a23711eccd54948958ef15b145b50d18",
                  "Haswell": "24d68f3248f1b496d00cc6d9c41c9c64a23711eccd54948958ef15b145b50d18"},
                 id="trailing-zeros"),
    pytest.param("0.5,0.4,0.3,0,0",
                 {"SkylakeX": "c2fdfb2bc93ef3d77290fe3baccdca2670ab276dd455bfbe71874aa8a774670b",
                  "Haswell": "c2fdfb2bc93ef3d77290fe3baccdca2670ab276dd455bfbe71874aa8a774670b"},
                 id="odd-trailing-zeros"),
]


def bounds_out(coeffs: str) -> str:
    return cli_stdout("bounds", f"--coeffs={coeffs}")


@pytest.mark.parametrize("coeffs,expected", GOLDEN_BOUNDS)
def test_bounds_json_is_pinned(coeffs, expected):
    assert_pinned("GOLDEN_BOUNDS", digest(bounds_out(coeffs)), expected)


def seeded_matrix(kind: str, n: int) -> str:
    rng = np.random.default_rng(1000 + n)
    if kind == "integer":
        entries = rng.integers(-3, 4, size=(n, n)).astype(float)
    else:
        entries = rng.standard_normal((n, n))
    return ";".join(",".join(map(repr, row)) for row in entries.tolist())


# the jn values of seeded n x n matrices, n = 2 to 20: integer entries sum exactly; float
# entries expose the summation order
GOLDEN_JN = [
    pytest.param("integer",
                 {"SkylakeX": "4e2cc446268eeb1b2913e5db0033c8fb9497c0c9c1b6560981c026f5a3d0f2d3",
                  "Haswell": "4e2cc446268eeb1b2913e5db0033c8fb9497c0c9c1b6560981c026f5a3d0f2d3"},
                 id="integer"),
    pytest.param("float",
                 {"SkylakeX": "e886a5250539a08e0e3c2b565567796079a35bdefd5bd6b58c9802527d64ea35",
                  "Haswell": "e886a5250539a08e0e3c2b565567796079a35bdefd5bd6b58c9802527d64ea35"},
                 id="float"),
]


def jn_out(kind: str) -> str:
    return "".join(cli_stdout("jn", f"--matrix={seeded_matrix(kind, n)}") for n in range(2, 21))


@pytest.mark.parametrize("kind,expected", GOLDEN_JN)
def test_jn_values_are_pinned(kind, expected):
    assert_pinned("GOLDEN_JN", digest(jn_out(kind)), expected)


# without --index, sample draws from default_rng(seed); with it, from the sweep's
# substream, at an index of one uint32 word and at one of two
GOLDEN_SAMPLE = [
    pytest.param("haar", (),
                 {"SkylakeX": "ef73903efcb1837290ebc6fdaee0da0c3e8adbb513450c39f2b6ca5824f1aa92",
                  "Haswell": "728bcdccc892de05eb7825ec14f2804b175b61b9e6aa7f6921a7aae25003d267"},
                 id="haar-default-rng"),
    pytest.param("haar", ("--index", "5"),
                 {"SkylakeX": "a42eb89e2b95986dc67f3c8dcb2db51d2df1f015a592db8e0707a11b2b367a58",
                  "Haswell": "af350577182db203e5c4e469e4a0339ef6441a1bf5173bde31285671e328b77d"},
                 id="haar-index-5"),
    pytest.param("haar", ("--index", "4294967298"),
                 {"SkylakeX": "de982cc1d6ba13a2121608416dbb44ba8dd268e3351c62f698d85c8261e17ea7",
                  "Haswell": "7d9d3ce9b14caf5d009a97dad6a1fcd879ce4bac82c720e4377255be00468dbe"},
                 id="haar-index-2**32+2"),
    pytest.param("simplex", (),
                 {"SkylakeX": "a256d57bc4dbca9f4667f6bbe8c83d47acd7ce4f13ea76df9a8b8009146e3eba",
                  "Haswell": "a256d57bc4dbca9f4667f6bbe8c83d47acd7ce4f13ea76df9a8b8009146e3eba"},
                 id="simplex-default-rng"),
    pytest.param("simplex", ("--index", "5"),
                 {"SkylakeX": "f004b159fc074ee91e073380ae9e8c112f3cf5706dba8d28944026fd3f0b18ba",
                  "Haswell": "f004b159fc074ee91e073380ae9e8c112f3cf5706dba8d28944026fd3f0b18ba"},
                 id="simplex-index-5"),
    pytest.param("simplex", ("--index", "4294967298"),
                 {"SkylakeX": "a2cc49dd44f5f1384303ba48651a1a5bb6ed17f34d5392bb3c086cf8b5a407ef",
                  "Haswell": "a2cc49dd44f5f1384303ba48651a1a5bb6ed17f34d5392bb3c086cf8b5a407ef"},
                 id="simplex-index-2**32+2"),
]


def sample_out(measure: str, index) -> str:
    return "".join(cli_stdout("sample", "--seed", "29", "--measure", measure,
                              "--m", str(m), "--n", str(n), *index)
                   for m in (1, 2, 3, 8) for n in (m, m + 2))


@pytest.mark.parametrize("measure,index,expected", GOLDEN_SAMPLE)
def test_sample_stdout_is_pinned(measure, index, expected):
    assert_pinned("GOLDEN_SAMPLE", digest(sample_out(measure, index)), expected)


# every golden table, each with the function that gives a row's pinned outputs from its
# other values, run in the working directory
KEYED = {"GOLDEN_VERIFY": (GOLDEN_VERIFY, verify_out), "GOLDEN_SWEEPS": (GOLDEN_SWEEPS, sweep_out),
         "GOLDEN_SCATTER": (GOLDEN_SCATTER, scatter_out),
         "GOLDEN_BOUNDS": (GOLDEN_BOUNDS, bounds_out), "GOLDEN_JN": (GOLDEN_JN, jn_out),
         "GOLDEN_SAMPLE": (GOLDEN_SAMPLE, sample_out)}


# OPENBLAS_CORETYPE=Haswell makes OpenBLAS run kernels that need AVX2 and FMA3
CPU = np._core._multiarray_umath.__cpu_features__
AVX2 = pytest.mark.skipif(not (CPU["AVX2"] and CPU["FMA3"]),
                          reason="this CPU cannot run OpenBLAS's Haswell kernel")
NAMED = pytest.mark.skipif(blas_kernel().startswith("unknown"), reason=blas_kernel())


@AVX2
@NAMED
def test_haswell_digests_hold_under_haswell(fresh):
    # the second column of the keyed digests, checked on this host in a fresh interpreter that
    # runs OpenBLAS's Haswell kernel: the benchmark's two sweep rows, and the jn rows, whose
    # float matrices expose OpenBLAS's summation order
    for table, rows in (("GOLDEN_SWEEPS", ("haar-even", "simplex-odd")),
                        ("GOLDEN_JN", ("integer", "float"))):
        run = fresh(str(Path(__file__).with_name("golden_digests.py")), table, *rows,
                    OPENBLAS_CORETYPE="Haswell")
        assert (run.returncode, run.stderr) == (0, "")
        haswell = {row.id: row.values[-1]["Haswell"] for row in KEYED[table][0]}
        assert run.stdout.splitlines() == [
            " ".join((row, "Haswell", *(d if isinstance(d := haswell[row], tuple) else (d,))))
            for row in rows]
