"""Golden corpus: the CLI's outputs, pinned byte for byte.

Each row runs `rfw.cli.main` in process (so the caches are shared across
rows) and maps an argv to its exit code, the sha256 of its stdout and of its
stderr and, for `-o` runs, the sha256 of the file written.  `{tmp}` in an
argv is a fresh directory.  A change that is meant to leave every output as
it was must pass this table unchanged; `-h` is left out, since argparse's
layout differs between Python versions.  The rows marked heavy (F_9, about
18 s and 0.9 GB) run only with RFW_HEAVY=1.
"""

import hashlib

import pytest

from rfw.cli import main

BENCH_VERIFY_8 = ("reversal,prefix-stability,superset,superset-reversed,"
                  "factor-instability-n3,overlap,factor-bound")
HEAVY_CAP = str(1 << 29)
EMPTY = "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"

# id: (argv, exit code, stdout sha256, stderr sha256, {file: sha256})
CORPUS = {
    "table-text": (["table", "--max-n", "8"], 0,
                   "045bc373aa75cab5626d4b853908459612b6c615b2d31a27bc16b16154865993", EMPTY, {}),
    "table-csv": (["table", "--max-n", "8", "--format", "csv"], 0,
                  "4d05d5a7136a189b82481a61f4c154a2b9765d03a50682d3412dcfb6567febb2", EMPTY, {}),
    "table-json": (["table", "--max-n", "8", "--format", "json"], 0,
                   "a1da7cf44f18f61b829b014f8f5e62ecbd41d637e77db07c3424dbdc40bbc42f", EMPTY, {}),
    "table-csv-file": (
        ["table", "--max-n", "8", "--format", "csv", "-o", "{tmp}/table.csv"], 0, EMPTY, EMPTY,
        {"table.csv": "4d05d5a7136a189b82481a61f4c154a2b9765d03a50682d3412dcfb6567febb2"}),
    "table-text-file": (
        ["table", "--max-n", "8", "-o", "{tmp}/table.txt"], 0, EMPTY, EMPTY,
        {"table.txt": "045bc373aa75cab5626d4b853908459612b6c615b2d31a27bc16b16154865993"}),
    "verify": (["verify"], 0,
               "378676bced0626f448e43f859960a1ee0c9e00907b78dea43f04696a13f7f8ac", EMPTY, {}),
    "verify-bench-8": (
        ["verify", "--max-n", "8", "--prop", BENCH_VERIFY_8], 0,
        "dfffbef72ce7dd9fe10f9942e182d67062345c28d1e19b46b4ca8036cdd087e9", EMPTY, {}),
    "verify-bench-7": (
        ["verify", "--max-n", "7", "--prop", "factor-stability,cut-bound"], 0,
        "ba5d690b1913d0f50588b26cf72654ebebb405b84d83b255071cb2ecd1527bb2", EMPTY, {}),
    "verify-n3-instability": (
        ["verify", "--max-n", "3", "--prop", "factor-instability-n3"], 0,
        "551c166d869302080ad1dd14c93e26650f1ad256e01801c25923ee63bc741b09", EMPTY, {}),
    "verify-item-cap": (
        ["--item-cap", "10", "verify", "--max-n", "5"], 2,
        "251b45d4efbc0b075c7af79efdccfb005fbe4b05802b4af3187262444469bda8", EMPTY, {}),
    "entropy": (["entropy"], 0,
                "5d5549c6fbff9514e3e40a2c0cf0c9dd29bd8239e1cbdcb8f20ce98f423541d0", EMPTY, {}),
    "entropy-tol": (["entropy", "--tol", "1e-6"], 0,
                    "5d5549c6fbff9514e3e40a2c0cf0c9dd29bd8239e1cbdcb8f20ce98f423541d0", EMPTY, {}),
    "factors-item-cap": (["--item-cap", "10", "factors", "-n", "6"], 2, EMPTY,
                         "43229f0cdceb04a84275f4fca09a185609f2a6617d7c252464c18033af0f7d90", {}),
    "export-10": (["export", "-n", "10"], 2, EMPTY,
                  "8e7b690f9f4fdf428cdfb78de15e4db5939a1e57f4a37fddbbdbefa95b084a66", {}),
    "factors-11": (["factors", "-n", "11"], 2, EMPTY,
                   "bf16512d8ca9150089c4e18e76092b54d0a5835847fcea42bc56cfa938abf13b", {}),
    "factors-7": (["factors", "-n", "7"], 0,
                  "783689a839b8ca7d8cc703c3230749ba7c7a023371c5f0171b9ab8389900cb2c", EMPTY, {}),
    "factors-8-binary": (
        ["factors", "-n", "8", "--binary", "-o", "{tmp}/F8.bin"], 0, EMPTY, EMPTY,
        {"F8.bin": "6b210cce870eef3d6240439ed85380994e23719e9f348804114ef004780255e1"}),
    "export-8-text": (
        ["export", "-n", "8", "-o", "{tmp}/A8.txt"], 0, EMPTY, EMPTY,
        {"A8.txt": "d9d3f710bba86afcceddf1077ad27b55b7288c02f92991ff48c6a4173ca36907"}),
    "export-9-binary": (
        ["export", "-n", "9", "--binary", "-o", "{tmp}/A9.bin"], 0, EMPTY, EMPTY,
        {"A9.bin": "90b0d0a2ec2561a99fbdd37312fcb3d415d65b5763b82b60eb4bac6e19303339"}),
}

HEAVY_CORPUS = {
    "table-9-csv": (["--item-cap", HEAVY_CAP, "table", "--max-n", "9", "--format", "csv"], 0,
                    "1063b31eee25b943ee62e465b77c5c5f55ebd615778b9d793c4a1ec3a6b3f2fb", EMPTY, {}),
    "factors-9-binary": (
        ["--item-cap", HEAVY_CAP, "factors", "-n", "9", "--binary", "-o", "{tmp}/F9.bin"], 0,
        EMPTY, EMPTY,
        {"F9.bin": "9cf51a1dbf721b1b5ae8dee417dac1dcb618c8fe1a3bbe6f9bf94219d751a686"}),
}


def sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_row(argv, files, tmp_path, capsysbinary):
    """(exit code, stdout digest, stderr digest, {file: digest}) of one row."""
    code = main([a.replace("{tmp}", str(tmp_path)) for a in argv])
    captured = capsysbinary.readouterr()
    written = {name: sha((tmp_path / name).read_bytes()) for name in files}
    return code, sha(captured.out), sha(captured.err), written


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_cli_output_is_pinned(name, tmp_path, capsysbinary):
    argv, code, out, err, files = CORPUS[name]
    assert run_row(argv, files, tmp_path, capsysbinary) == (code, out, err, files)


@pytest.mark.heavy
@pytest.mark.parametrize("name", sorted(HEAVY_CORPUS))
def test_heavy_cli_output_is_pinned(name, tmp_path, capsysbinary):
    argv, code, out, err, files = HEAVY_CORPUS[name]
    assert run_row(argv, files, tmp_path, capsysbinary) == (code, out, err, files)
