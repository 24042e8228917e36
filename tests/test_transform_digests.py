"""Digests of every transform's output at k = 2 and N = 8..12.

The lattice oracles in test_cumulants stop at N = 6; these digests pin the
outputs at the degrees the recursions are sized for.  Each entry is the
sha256 of the canonical JSON of the output families, on inputs drawn with
seed 424242 + i for the i-th argument.  Running this file as a script
rewrites the golden file from the current code; run it only on a commit
whose outputs are the reference.
"""

import hashlib
import json
from pathlib import Path

import pytest

import ncprob

GOLDEN = Path(__file__).parent / "golden" / "transforms_k2.json"
SEED = 424242
K = 2
DEGREES = (8, 9, 10, 11, 12)
# Family kinds of each transform's arguments; "delta" is a random tensor.
INPUT_KINDS = {
    "free_cumulants": ("moment",),
    "moments_from_free": ("free-cumulant",),
    "boolean_cumulants": ("moment",),
    "moments_from_boolean": ("boolean-cumulant",),
    "cfree_cumulants": ("moment", "moment"),
    "moments_from_cfree": ("moment", "cfree-cumulant"),
    "cfree_explicit": ("moment", "moment"),
    "cc_cumulants": ("moment", "moment"),
    "moments_from_cc": ("moment", "cc-cumulant"),
    "infinitesimal_cumulants": ("moment", "infinitesimal"),
    "infinitesimal_moments": ("free-cumulant", "infinitesimal-cumulant"),
    "psi_k": ("moment",),
    "delta_star": ("delta", "boolean-cumulant"),
}


def _digest(name: str, N: int) -> str:
    inputs = [
        ncprob.random_delta(K, seed=SEED + i) if kind == "delta"
        else ncprob.random_family(K, N, seed=SEED + i, kind=kind)
        for i, kind in enumerate(INPUT_KINDS[name])
    ]
    docs = [getattr(ncprob, name)(*inputs).to_json_dict()]
    return hashlib.sha256(json.dumps(docs, sort_keys=True).encode()).hexdigest()


@pytest.mark.parametrize("N", DEGREES)
def test_transform_outputs_match_the_golden_digests(N):
    golden = json.loads(GOLDEN.read_text())[str(N)]
    assert sorted(golden) == sorted(INPUT_KINDS)
    for name in INPUT_KINDS:
        assert _digest(name, N) == golden[name], name


if __name__ == "__main__":
    table = {str(N): {name: _digest(name, N) for name in INPUT_KINDS} for N in DEGREES}
    GOLDEN.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
