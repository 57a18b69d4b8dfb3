"""Golden output digests: sweep CSV, JSON and stdout, analyze and order-stats stdout.

Each spec runs `recdiv sweep --limit 3000` at one worker and `recdiv analyze`
in process, and each order-stats case runs `recdiv order-stats` in process;
the sha256 of every output is compared with a recorded digest.
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
    monkeypatch.delenv("RECDIV_SEED", raising=False)
    got = _outputs(name, lambda: capsys.readouterr().out)
    assert got == DIGESTS[name]


def _order_stats_digest(name, capture) -> str:
    assert cli(["order-stats", *ORDER_STATS[name]]) == 0
    return _sha(capture().encode())


@pytest.mark.parametrize("name", sorted(ORDER_STATS))
def test_golden_order_stats(name, capsys):
    got = _order_stats_digest(name, lambda: capsys.readouterr().out)
    assert got == ORDER_STATS_DIGESTS[name]


if __name__ == "__main__":
    # print the digests of the current code, for pasting into DIGESTS and
    # ORDER_STATS_DIGESTS
    import contextlib
    import io
    import os
    import tempfile

    os.environ.pop("RECDIV_SEED", None)
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
    print()
    for name in ORDER_STATS:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            got = _order_stats_digest(name, buf.getvalue)
        print(f"    {name!r}: {got!r},")
