"""Digests of every transform's output at k = 2, N = 8..12, and off k = 2
at k = 3, N = 5..7 and k = 1, N = 9..16.

The lattice oracles in test_cumulants stop at N = 6; these digests pin the
outputs at the degrees the recursions are sized for.  The off-k = 2 grid
pins the rank arithmetic of the dense word layers where a layer holds one
word (k = 1) and where ranks are not binary (k = 3).  Each entry is the
sha256 of the canonical JSON of the output families, on inputs drawn with
seed 424242 + i for the i-th argument.  Running this file as a script
rewrites both golden files from the current code; run it only on a commit
whose outputs are the reference.
"""

import hashlib
import json
from pathlib import Path

import pytest

import ncprob

GOLDEN = Path(__file__).parent / "golden" / "transforms_k2.json"
GOLDEN_OFF_K2 = Path(__file__).parent / "golden" / "transforms_k1_k3.json"
SEED = 424242
K = 2
DEGREES = (8, 9, 10, 11, 12)
OFF_K2_DEGREES = {3: (5, 6, 7), 1: tuple(range(9, 17))}
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


def _digest(name: str, N: int, k: int = K) -> str:
    inputs = [
        ncprob.random_delta(k, seed=SEED + i) if kind == "delta"
        else ncprob.random_family(k, N, seed=SEED + i, kind=kind)
        for i, kind in enumerate(INPUT_KINDS[name])
    ]
    docs = [getattr(ncprob, name)(*inputs).to_json_dict()]
    return hashlib.sha256(json.dumps(docs, sort_keys=True).encode()).hexdigest()


def _table(k: int, N: int) -> dict:
    return {name: _digest(name, N, k) for name in INPUT_KINDS}


@pytest.mark.parametrize("N", DEGREES)
def test_transform_outputs_match_the_golden_digests(N):
    golden = json.loads(GOLDEN.read_text())[str(N)]
    assert sorted(golden) == sorted(INPUT_KINDS)
    for name in INPUT_KINDS:
        assert _digest(name, N) == golden[name], name


@pytest.mark.parametrize(
    "k,N", [(k, N) for k, degrees in OFF_K2_DEGREES.items() for N in degrees])
def test_transform_outputs_off_k2_match_the_golden_digests(k, N):
    golden = json.loads(GOLDEN_OFF_K2.read_text())[str(k)][str(N)]
    assert sorted(golden) == sorted(INPUT_KINDS)
    for name in INPUT_KINDS:
        assert _digest(name, N, k) == golden[name], (name, k, N)


if __name__ == "__main__":
    table = {str(N): _table(K, N) for N in DEGREES}
    GOLDEN.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    off = {str(k): {str(N): _table(k, N) for N in degrees}
           for k, degrees in OFF_K2_DEGREES.items()}
    GOLDEN_OFF_K2.write_text(json.dumps(off, indent=1, sort_keys=True) + "\n")
