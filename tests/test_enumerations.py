"""The enumerations as the CLI prints them, and as the validating
constructors rebuild them.

``nc enumerate`` and ``typeb enumerate`` build their partitions through
private constructors that skip validation.  The golden file pins the sha256
of each command's stdout; the rebuild tests push every generated partition
back through the public, validating constructor.  Running this file as a
script rewrites the golden file from the current code; run it only on a
commit whose outputs are the reference.
"""

import hashlib
import json
from pathlib import Path

import pytest
from click.testing import CliRunner

from ncprob.cli import main
from ncprob.nc import NcPartition, enumerate_nc, interval_partitions
from ncprob.typeb import Flavor, SignedNcPartition, enumerate_signed

GOLDEN = Path(__file__).parent / "golden" / "enumerations.json"

# Golden key -> argv; the key is the argv joined by spaces.
COMMANDS = (
    [["nc", "enumerate", "--n", str(n)] for n in range(1, 13)]
    + [["nc", "enumerate", "--n", str(n), "--json"] for n in (10, 11, 12)]
    + [
        ["typeb", "enumerate", "--n", str(n), "--flavor", f.value]
        for f in Flavor
        for n in range(1, 9)
    ]
    + [["typeb", "enumerate", "--n", "7", "--flavor", f.value, "--json"] for f in Flavor]
)


def _stdout_digest(argv) -> str:
    res = CliRunner().invoke(main, argv)
    assert res.exit_code == 0, res.output
    return hashlib.sha256(res.stdout_bytes).hexdigest()


@pytest.mark.parametrize("argv", COMMANDS, ids=" ".join)
def test_enumeration_stdout_matches_the_golden_digest(argv):
    golden = json.loads(GOLDEN.read_text())
    assert sorted(golden) == sorted(" ".join(a) for a in COMMANDS)
    assert _stdout_digest(argv) == golden[" ".join(argv)]


@pytest.mark.parametrize("lattice", [enumerate_nc, interval_partitions], ids=["nc", "interval"])
@pytest.mark.parametrize("n", range(1, 11))
def test_enumerated_nc_partitions_pass_the_validating_constructor(n, lattice):
    parts = lattice(n)
    rebuilt = [NcPartition(p.n, p.blocks) for p in parts]
    assert rebuilt == list(parts) == sorted(rebuilt)
    assert [q._owner for q in rebuilt] == [p._owner for p in parts]


@pytest.mark.parametrize("flavor", list(Flavor))
@pytest.mark.parametrize("n", range(1, 9))
def test_enumerated_signed_partitions_pass_the_validating_constructor(n, flavor):
    parts = enumerate_signed(n, flavor)
    rebuilt = [SignedNcPartition(p.n, p.flavor, p.blocks) for p in parts]
    assert rebuilt == list(parts) == sorted(rebuilt)
    assert len(set(rebuilt)) == len(rebuilt)


@pytest.mark.parametrize("flavor", list(Flavor))
@pytest.mark.parametrize("n", range(1, 9))
def test_signed_listing_is_the_text_of_the_validated_lattice(n, flavor):
    # the CLI prints block rows without building partitions; each line must
    # be the text of the partition the validating constructor canonicalises
    res = CliRunner().invoke(main, ["typeb", "enumerate", "--n", str(n), "--flavor", flavor.value])
    assert res.exit_code == 0, res.output
    checked = [SignedNcPartition(p.n, p.flavor, p.blocks) for p in enumerate_signed(n, flavor)]
    assert res.output == "".join(p.to_text() + "\n" for p in checked)


if __name__ == "__main__":
    table = {" ".join(argv): _stdout_digest(argv) for argv in COMMANDS}
    GOLDEN.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
