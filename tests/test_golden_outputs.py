"""Golden pins of the CLI and scatter outputs, before any change to the code
paths behind them: ``verify`` stdout, the ``scatter_cb`` CSV, ``bounds``
JSON and ``jn`` values.  Each digest is a sha256 of the exact bytes.
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
]


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("argv,expected", GOLDEN_VERIFY)
def test_verify_stdout_is_pinned(capsys, set_workers, pool_spy, threads, argv, expected):
    set_workers(threads)
    out = cli_stdout(capsys, "verify", "--grid", "64", "--seed", "19", *argv)
    assert digest(out) == expected
    # a shape of one chunk runs serially at any worker count
    chunks = len(harness._chunk_ranges(int(argv[argv.index("--samples") + 1]), threads))
    assert bool(pool_spy.sizes) == (threads > 1 and chunks > 1)


@pytest.mark.parametrize("threads", [1, 2])
def test_scatter_csv_is_pinned(tmp_path, set_workers, threads):
    set_workers(threads)
    out = tmp_path / "cloud.csv"
    scatter_cb(ExperimentConfig(dims=(1, 3, 4), samples=300, seed=41, second_dim_offset=1,
                                output_path=str(out)))
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
