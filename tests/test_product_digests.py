"""Digests of the six products' and convolutions' outputs.

The products run over k + l letters: (k, l) in {(1, 1), (1, 2), (2, 1),
(2, 2)} at N = 3..7, which pins the letter shift of the second group both
when it is the larger and when it is the smaller one.  The convolutions
need one generator set and run at k = l only.  Each entry is the sha256 of
the canonical JSON of the output families, on inputs drawn with seed
424242 + i for the i-th argument, the first half over k letters and the
second over l.  Running this file as a script rewrites the golden file from
the current code; run it only on a commit whose outputs are the reference.
"""

import hashlib
import json
from pathlib import Path

import pytest

import ncprob

GOLDEN = Path(__file__).parent / "golden" / "products.json"
SEED = 424242
SHAPES = ((1, 1), (1, 2), (2, 1), (2, 2))
DEGREES = (3, 4, 5, 6, 7)
# Family kinds of each op's arguments; the first half is over k letters.
INPUT_KINDS = {
    "free_product": ("moment", "moment"),
    "cfree_product": ("moment", "moment", "moment", "moment"),
    "infinitesimal_product": ("moment", "infinitesimal", "moment", "infinitesimal"),
    "boxplus": ("moment", "moment"),
    "boxplus_c": ("moment", "moment", "moment", "moment"),
    "boxplus_b": ("moment", "infinitesimal", "moment", "infinitesimal"),
}
CONVOLUTIONS = ("boxplus", "boxplus_c", "boxplus_b")


def _ops(k: int, l: int) -> list[str]:
    return [op for op in INPUT_KINDS if k == l or op not in CONVOLUTIONS]


def _digest(op: str, k: int, l: int, N: int) -> str:
    kinds = INPUT_KINDS[op]
    half = len(kinds) // 2
    inputs = [ncprob.random_family(k if i < half else l, N, seed=SEED + i, kind=kind)
              for i, kind in enumerate(kinds)]
    out = getattr(ncprob, op)(*inputs)
    docs = [f.to_json_dict() for f in (out if isinstance(out, tuple) else (out,))]
    return hashlib.sha256(json.dumps(docs, sort_keys=True).encode()).hexdigest()


def _key(k: int, l: int) -> str:
    return f"{k},{l}"


@pytest.mark.parametrize("k,l", SHAPES)
@pytest.mark.parametrize("N", DEGREES)
def test_product_outputs_match_the_golden_digests(k, l, N):
    golden = json.loads(GOLDEN.read_text())[_key(k, l)][str(N)]
    assert sorted(golden) == sorted(_ops(k, l))
    for op in _ops(k, l):
        assert _digest(op, k, l, N) == golden[op], (op, k, l, N)


if __name__ == "__main__":
    table = {_key(k, l): {str(N): {op: _digest(op, k, l, N) for op in _ops(k, l)}
                          for N in DEGREES}
             for k, l in SHAPES}
    GOLDEN.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
