"""Golden pins of the CLI and scatter outputs, before any change to the code
paths behind them: ``verify``, ``sweep`` and ``sample`` stdout, the CSV that ``scatter_cb``
converts from a sweep file, ``bounds`` JSON and ``jn`` values.  Each digest is a sha256 of
the exact bytes.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from bellbound import ExperimentConfig, harness, scatter_cb
from bellbound.cli import main


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def cli_stdout(capsys, *argv) -> str:
    assert main(list(argv)) == 0
    return capsys.readouterr().out


# 130 samples split into two chunks at 2 workers; 8x8 stays cheap at 8, and at
# 65 it splits into chunks of 64 and 1, so a worker seeds a one-sample chunk
GOLDEN_VERIFY = [
    pytest.param(("--m", "2", "--n", "2", "--samples", "130", "--measure", "haar"),
                 "4a6a8808e0757b39370d87056c38d4e5740f7d3b7ce5b2fdcd6a888abaf36786",
                 id="2x2-haar"),
    pytest.param(("--m", "2", "--n", "2", "--samples", "130", "--measure", "simplex"),
                 "fd7cd80c2829b1a46838952e61c728b3cbc9d87f010f36928d5ec35352b1a5e8",
                 id="2x2-simplex"),
    pytest.param(("--m", "3", "--n", "4", "--samples", "130", "--measure", "haar"),
                 "918c425403323abce3b9d6b3cda391e2b66b86090d7df72175bd66aa1496129a",
                 id="3x4-haar"),
    pytest.param(("--m", "3", "--n", "4", "--samples", "130", "--measure", "simplex"),
                 "08b59d9fd996766a0a44d24614b2e34de2b478e63d8912d33ad79c51325fdf56",
                 id="3x4-simplex"),
    pytest.param(("--m", "8", "--n", "8", "--samples", "8", "--measure", "haar"),
                 "32dd9a758652259b531422776b049655de573565ff34eaa6067d99f82b84ae3c",
                 id="8x8-haar"),
    pytest.param(("--m", "8", "--n", "8", "--samples", "65", "--measure", "haar"),
                 "d181f68b6fb6b9b93aabaf8af5566172b379c560b5ec84135e727422fb37cc70",
                 id="8x8-haar-chunked"),
    pytest.param(("--m", "8", "--n", "8", "--samples", "8", "--measure", "simplex"),
                 "876b5db191fe005b00b2561f990bfc2e957c0f51994f708fad6847f4b0fb6379",
                 id="8x8-simplex"),
    # a later --grid overrides the test's 64: grids of 17 and 65 end in a one-angle stack
    pytest.param(("--m", "2", "--n", "2", "--samples", "130", "--measure", "haar", "--grid", "17"),
                 "559244242a294b43e0fa5e62aafc35d731b87b93282717dbf1249a951a7543da",
                 id="2x2-haar-grid17"),
    pytest.param(("--m", "2", "--n", "2", "--samples", "130", "--measure", "haar", "--grid", "65"),
                 "82ca44cf76f43361c82d3e80ca7e71b8be320a47dc139bc5d79c2d545a3b5a6d",
                 id="2x2-haar-grid65"),
    pytest.param(("--m", "8", "--n", "8", "--samples", "8", "--measure", "haar", "--grid", "17"),
                 "6913ab13f6bedcac210f7af0a5229bb1159228d5ff0e24d3b05cbaf1518bb7c3",
                 id="8x8-haar-grid17"),
    pytest.param(("--m", "8", "--n", "8", "--samples", "8", "--measure", "haar", "--grid", "65"),
                 "71cb223b9da4371f7edaf81b27f60d86604b40276c92ddb892fa265e15a5031d",
                 id="8x8-haar-grid65"),
]


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("argv,expected", GOLDEN_VERIFY)
def test_verify_stdout_is_pinned(capsys, set_workers, fork_spy, threads, argv, expected):
    set_workers(threads)
    out = cli_stdout(capsys, "verify", "--grid", "64", "--seed", "19", *argv)
    assert digest(out) == expected
    # one worker per chunk up to the requested count, and the caller is one of them; a
    # state pays for a fork
    cfg = ExperimentConfig(dims=(int(argv[1]),), samples=int(argv[argv.index("--samples") + 1]),
                           seed=19)
    assert len(fork_spy) == harness._plan(cfg, 1, threads, threads, True)[0] - 1


# 130 samples split into two chunks per m at 2 workers; the haar shape's m = 2 line
# pins a negative rounding margin within THEOREM_TOL
GOLDEN_SWEEP = [
    pytest.param(("--dims", "2,3,4", "--measure", "haar", "--offset", "1"),
                 "f1afad926e916f4a9f7da56170d16ba5933509d45a8fdc4a4374d21e534edd07",
                 id="haar-offset-1"),
    pytest.param(("--dims", "1,2,5", "--measure", "simplex"),
                 "63d23bfc153a68b69fd2d3738bb57c4272797d38bf92f017a86c162b1ad0542d",
                 id="simplex"),
]


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("argv,expected", GOLDEN_SWEEP)
def test_sweep_stdout_is_pinned(capsys, monkeypatch, tmp_path, set_workers, any_work_forks,
                                fork_spy, threads, argv, expected):
    monkeypatch.chdir(tmp_path)  # a relative --out keeps the "out = " line fixed
    set_workers(threads)
    out = cli_stdout(capsys, "sweep", "--samples", "130", "--seed", "19", "--out", "out.jsonl",
                     *argv)
    assert digest(out) == expected
    assert len(fork_spy) == threads - 1


@pytest.mark.parametrize("threads", [1, 2])
def test_scatter_csv_is_pinned(tmp_path, set_workers, any_work_forks, fork_spy, threads):
    # the CSV of a sweep written at 1 and at 2 workers
    set_workers(threads)
    sweep, out = tmp_path / "sweep.jsonl", tmp_path / "cloud.csv"
    harness.run_sweep(ExperimentConfig(dims=(1, 3, 4), samples=300, seed=41,
                                       second_dim_offset=1, output_path=str(sweep)))
    assert len(fork_spy) == threads - 1
    scatter_cb(sweep, out)
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "0d2b0b9751e62e7d6c71bf18370ab5bf90d980350f547bd9e24732119744b156")


GOLDEN_BOUNDS = [
    pytest.param("1",
                 "ed2f8c1406e52e1c300bdc2af3694de64ee2436ab23bfdeeb1799ecf33bdccdc",
                 id="m-one"),
    pytest.param("0.8,0.6",
                 "e6a634e5a22eb41619c6ce9c00f40f6a866c0ae230a3838f55bf4a6caf93ae94",
                 id="m-two"),
    pytest.param("3,2,1",
                 "3bf3cddedbe4c25f7b1dc21c71f6df8340dfbd4ce2d3a6d9db8cb67090c15763",
                 id="m-three"),
    pytest.param("0.6,0.5,0.4,0.3,0.2",
                 "b131aadad9d934d8ab2102fa845bfc954b7841698ae1f245993a9f442b0ae96b",
                 id="m-five"),
    pytest.param("0.7,0.7,0,0",
                 "24d68f3248f1b496d00cc6d9c41c9c64a23711eccd54948958ef15b145b50d18",
                 id="trailing-zeros"),
    pytest.param("0.5,0.4,0.3,0,0",
                 "c2fdfb2bc93ef3d77290fe3baccdca2670ab276dd455bfbe71874aa8a774670b",
                 id="odd-trailing-zeros"),
]


@pytest.mark.parametrize("coeffs,expected", GOLDEN_BOUNDS)
def test_bounds_json_is_pinned(capsys, coeffs, expected):
    assert digest(cli_stdout(capsys, "bounds", f"--coeffs={coeffs}")) == expected


def seeded_matrix(kind: str, n: int) -> str:
    rng = np.random.default_rng(1000 + n)
    if kind == "integer":
        entries = rng.integers(-3, 4, size=(n, n)).astype(float)
    else:
        entries = rng.standard_normal((n, n))
    return ";".join(",".join(map(repr, row)) for row in entries.tolist())


# integer entries sum exactly; float entries expose the summation order
@pytest.mark.parametrize("kind,expected", [
    ("integer", "4e2cc446268eeb1b2913e5db0033c8fb9497c0c9c1b6560981c026f5a3d0f2d3"),
    ("float", "e886a5250539a08e0e3c2b565567796079a35bdefd5bd6b58c9802527d64ea35"),
])
def test_jn_values_are_pinned(capsys, kind, expected):
    out = "".join(cli_stdout(capsys, "jn", f"--matrix={seeded_matrix(kind, n)}")
                  for n in range(2, 21))
    assert digest(out) == expected


# without --index, sample draws from default_rng(seed); with it, from the sweep's
# substream, at an index of one uint32 word and at one of two
GOLDEN_SAMPLE = [
    pytest.param("haar", (),
                 "ef73903efcb1837290ebc6fdaee0da0c3e8adbb513450c39f2b6ca5824f1aa92",
                 id="haar-default-rng"),
    pytest.param("haar", ("--index", "5"),
                 "a42eb89e2b95986dc67f3c8dcb2db51d2df1f015a592db8e0707a11b2b367a58",
                 id="haar-index-5"),
    pytest.param("haar", ("--index", "4294967298"),
                 "de982cc1d6ba13a2121608416dbb44ba8dd268e3351c62f698d85c8261e17ea7",
                 id="haar-index-2**32+2"),
    pytest.param("simplex", (),
                 "a256d57bc4dbca9f4667f6bbe8c83d47acd7ce4f13ea76df9a8b8009146e3eba",
                 id="simplex-default-rng"),
    pytest.param("simplex", ("--index", "5"),
                 "f004b159fc074ee91e073380ae9e8c112f3cf5706dba8d28944026fd3f0b18ba",
                 id="simplex-index-5"),
    pytest.param("simplex", ("--index", "4294967298"),
                 "a2cc49dd44f5f1384303ba48651a1a5bb6ed17f34d5392bb3c086cf8b5a407ef",
                 id="simplex-index-2**32+2"),
]


@pytest.mark.parametrize("measure,index,expected", GOLDEN_SAMPLE)
def test_sample_stdout_is_pinned(capsys, measure, index, expected):
    out = "".join(cli_stdout(capsys, "sample", "--seed", "29", "--measure", measure,
                             "--m", str(m), "--n", str(n), *index)
                  for m in (1, 2, 3, 8) for n in (m, m + 2))
    assert digest(out) == expected
