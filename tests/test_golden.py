"""Golden output digests: sweep CSV, JSON and stdout; analyze, order-stats,
detect and demo stdout.

Each spec runs `recdiv sweep --limit 3000` at one worker and `recdiv analyze`
in process, and each order-stats, detect and demo case runs its command in
process; the sha256 of every output is compared with a recorded digest.
A change that is meant to keep every output byte passes this test unchanged;
a change that alters an output on purpose re-records the digests with
`PYTHONPATH=src python tests/test_golden.py` and says so in CHANGES.md.
"""

import hashlib
from pathlib import Path

import pytest

from recdiv.cli import cli

LIMIT = 3000

# name: (--poly, --init)
SPECS = {
    "tribonacci": ("1,-1,-1,-1", "1,1,1"),
    "tetranacci": ("1,-1,-1,-1,-1", "1,1,1,1"),
    "pentanacci": ("1,-1,-1,-1,-1,-1", "1,1,1,1,1"),
    "x5-x-1": ("1,0,0,0,-1,-1", "1,2,3,4,5"),
    "x3-2": ("1,0,0,-2", "1,2,3"),
    "x4+1": ("1,0,0,0,1", "1,2,3,4"),  # degenerate: ratio -1 between roots
}

# name: order-stats arguments. The last grid is unsorted with a repeat, and
# the command appends one more C = 1 for the primitive-root fraction.
ORDER_STATS = {
    "base2": ("--base", "2", "--limit", "200000"),
    "base-3": ("--base", "-3", "--limit", "100000"),
    "tribonacci": ("--poly", "1,-1,-1,-1", "--limit", "100000"),
    "base2-grid": ("--base", "2", "--limit", "5000", "--c-grid", "16,1,4,1"),
}

# name: sha256 of the order-stats stdout
ORDER_STATS_DIGESTS = {
    'base2': 'a8360fcd5f313d363ca3c5180b4fc1eab8d211d8b8817e1b7b8e0398bc1c8bd5',
    'base-3': 'b95531aff7133ddfc8bcb6224a44e4696ec2e581625b9648ba3bea63c41a95bc',
    'tribonacci': 'ad6ca1c04f33d92f711cb8f7ce0384ea08450b14f7e4fd6e355b984b8613ff40',
    'base2-grid': '8e95e6cdb797a7060008caef19a015b38b867b4b20912b55bc3cc21fb7fffc6f',
}

TRIBONACCI = ("--poly", "1,-1,-1,-1", "--init", "1,1,1")

# name: argv of a command whose stdout is pinned. One detect case for each
# verdict and each refusal, a structural indeterminate (context line and
# note) and a degenerate divisor at a 2-1 prime (no context line), and the
# demo's check.
COMMANDS = {
    "detect-structural-divisor": ("detect", *TRIBONACCI, "-p", "7"),
    "detect-ramified": ("detect", *TRIBONACCI, "-p", "11"),
    "detect-brute-divisor": ("detect", *TRIBONACCI, "-p", "5"),
    "detect-brute-nondivisor": ("detect", *TRIBONACCI, "-p", "103"),
    "detect-indeterminate": ("detect", *TRIBONACCI, "-p", "5", "--brute-cap", "1"),
    "detect-structural-nondivisor": ("detect", "--poly", "1,0,0,-2", "--init", "1,2,3", "-p", "17"),
    "detect-divides-c0": ("detect", "--poly", "1,-11,37,-35", "--init", "3,11,47", "-p", "5"),
    "detect-gamma1-vanishes": ("detect", "--poly", "1,-1,-1,-1", "--init", "2,5,1", "-p", "7"),
    "detect-degenerate": ("detect", "--poly", "1,0,0,0", "--init", "1,2,3", "-p", "7"),
    "detect-structural-indeterminate": (
        "detect", "--poly", "1,0,0,-2", "--init", "1,2,3", "-p", "17", "--r-cap", "1"),
    "detect-degenerate-at-2-1": ("detect", *TRIBONACCI[:2], "--init", "0,1,1", "-p", "7"),
    "demo-check": ("demo", "--check", "--limit", "1000"),
}

# name: sha256 of the command's stdout
COMMAND_DIGESTS = {
    'detect-structural-divisor': '5d09f5274285728a3b08bd0a6c48b66f97ac642ab0e225c99408ed30d5241680',
    'detect-ramified': 'f4a4ae39818eff5a4ad29497addb3a0811156c28cb3ea1088e61ffb597a2d48a',
    'detect-brute-divisor': '08bc6e33657e1df29d09921f802c414d977ed640b181950476e4e619f84b1728',
    'detect-brute-nondivisor': '95d2032363a65d880d39b3c4de7a8d81388f1aaf1eb90217e04c9afcfbbc2d6f',
    'detect-indeterminate': '1f45e4bfc3ad6461d16996a388fe586c689826669c023598fa28f40f815824e7',
    'detect-structural-nondivisor': 'bc26ba4a769f78496a158dd2b60acac33558839c712f2b6137d1eecf9e5ee177',
    'detect-divides-c0': 'a8208aab548170833f6c6f2e43d4d271b7d8250818a79e0cb272596516effadc',
    'detect-gamma1-vanishes': '7126c3d4a2928dd751c5e6ca173e7f02f36b8ec13aabbf0840de393d284e5749',
    'detect-degenerate': '0f8e05a7d3c8fd55369124490e1b303f23ae47027a70380852071e00df912acc',
    'detect-structural-indeterminate': '8239ad6339eff26ceb5b9c46ffdbeb84c432ebc3a134fdae45ea77c02cae466c',
    'detect-degenerate-at-2-1': '216ec34e2a7fcf1feaeff3bcdde20f38479bc4e20127f7e398cba13cc7fff5d5',
    'demo-check': 'f65c818c285b2d6c8983affc35294746130beca4bbd7ba49db432da3346b6e35',
}

# name: {output: sha256}
DIGESTS = {
    'pentanacci': {
        'csv': '54a8f8401f18c26be360dcb0b8b8ac64634ac28583e357fc6b9ec8dc8a5bdbc3',
        'json': 'e9e1e36b25bf3df6ad22f7aae645e6d4f7bafe5b5dbf8e88a5996c09a0567638',
        'sweep_stdout': 'e08c680abc2272a592580071f619917e2ef3997d2f6a8bd98d32fe99cd5cf165',
        'analyze_stdout': '4a0f78fba2882a081edfed130c450ed7b2754cdfb454378693d3512e1a138efd',
    },
    'tetranacci': {
        'csv': '46f2e06bedbdea03e84e51684c7d0dd148c384735fd625aca585ece96ac0bab2',
        'json': 'ca2d4bbbc0022231ec80ff475d2c379474f3b690f6e1909aedcd388ea5f0053b',
        'sweep_stdout': '37505796ade055f622c09001116a49b41d407c8930fce7f09eddeaa3a97d5aea',
        'analyze_stdout': '1f25728353f20b3e5c68980da56bc0181cf1529d0dfea2982bde8e41c5087c21',
    },
    'tribonacci': {
        'csv': 'e9a11d59f3f174fb175878b8baae9da30074082ec1e605a555c8621b242a2b03',
        'json': '47630a184542eb5d146cea4d090a1f95a7dbbfe463a09c629e1582d97293b06f',
        'sweep_stdout': '7ecfef1c1af480a439a0b9c6ad00115f1decc51efab1bcd22f90304d5c31a8c9',
        'analyze_stdout': 'b2ea1d589160cab37b8361a1c12ea0cff8721b5e7bd96600f6e964812cdf2597',
    },
    'x3-2': {
        'csv': '945bcb9973a47e00c14e6948d589a999875fda78b3c92467db0d166265392c2f',
        'json': '83cab1e565ef29f0fffe7641df894a164a7537091c7c9316d9cb243f79628f44',
        'sweep_stdout': 'b88a27af463479a37973283200054c17c81ec010240866d8a5e2fcf78fa36194',
        'analyze_stdout': 'a5aa735988c889abfb38c711f22416c8e8349cc0e4436f9d00a39109155b6524',
    },
    'x4+1': {
        'csv': '000948a89a0bed240d814393e4c02c968d100dd76ab59efdbcfb7438210287f2',
        'json': 'ad05f420d25578d14b51c9dbbbbff311b1ceaed34d85d0e2278e6ce305c44c27',
        'sweep_stdout': '49bdfd63c2ba8f8d31a9ccbe392d1f9094103365a427c5158082dfad92f4e46d',
        'analyze_stdout': '1744a26d34837c211dcef1baffb900bf5900cff5262f42b149e7eaa92436bcd0',
    },
    'x5-x-1': {
        'csv': '4b861c8bac28d6a55cb5730489c19d8a887b0aa3b53df1adeab1512f4c1564f9',
        'json': 'fad7bd6baaefe9858ffee77bd164f1376f44551286fba3589f69057a2331c606',
        'sweep_stdout': '12751011da2d7c2e1f4e633bb09977796a29c6b4e8686ef58e610f510769ee58',
        'analyze_stdout': '333720e013cab4258f35488ac503010ff2d6f62f059cda495656c1fb02cf06f6',
    },
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _outputs(name, capture) -> dict[str, str]:
    """Digests of one spec's outputs, written to the working directory.

    capture() returns the stdout printed since its last call. Relative
    output paths keep the "written to" lines of stdout the same everywhere.
    """
    poly, init = SPECS[name]
    rc = cli(["sweep", "--poly", poly, "--init", init, "--limit", str(LIMIT),
              "--workers", "1", "--csv", "rows.csv", "--json", "summary.json"])
    assert rc == 0
    sweep_out = capture()
    assert cli(["analyze", "--poly", poly]) == 0
    return {
        "csv": _sha(Path("rows.csv").read_bytes()),
        "json": _sha(Path("summary.json").read_bytes()),
        "sweep_stdout": _sha(sweep_out.encode()),
        "analyze_stdout": _sha(capture().encode()),
    }


@pytest.mark.parametrize("name", sorted(SPECS))
def test_golden_outputs(name, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    got = _outputs(name, lambda: capsys.readouterr().out)
    assert got == DIGESTS[name]


def _stdout_digest(argv, capture) -> str:
    assert cli(list(argv)) == 0
    return _sha(capture().encode())


@pytest.mark.parametrize("name", sorted(ORDER_STATS))
def test_golden_order_stats(name, capsys):
    got = _stdout_digest(["order-stats", *ORDER_STATS[name]], lambda: capsys.readouterr().out)
    assert got == ORDER_STATS_DIGESTS[name]


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_golden_command(name, capsys):
    got = _stdout_digest(COMMANDS[name], lambda: capsys.readouterr().out)
    assert got == COMMAND_DIGESTS[name]


if __name__ == "__main__":
    # print the digests of the current code, for pasting into DIGESTS,
    # ORDER_STATS_DIGESTS and COMMAND_DIGESTS
    import contextlib
    import io
    import os
    import tempfile

    for name in sorted(SPECS):
        with tempfile.TemporaryDirectory() as tmp:
            os.chdir(tmp)
            buf = io.StringIO()

            def capture():
                out = buf.getvalue()
                buf.seek(0)
                buf.truncate()
                return out

            with contextlib.redirect_stdout(buf):
                got = _outputs(name, capture)
        print(f"    {name!r}: {{")
        for key, digest in got.items():
            print(f"        {key!r}: {digest!r},")
        print("    },")
    for cases in ({n: ("order-stats", *a) for n, a in ORDER_STATS.items()}, COMMANDS):
        print()
        for name, argv in cases.items():
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                got = _stdout_digest(argv, buf.getvalue)
            print(f"    {name!r}: {got!r},")
