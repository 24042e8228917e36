"""The library's exact outputs, checked with the standard library alone.

For an interpreter without pytest, hypothesis or click:

    PYTHONPATH=src python tests/stdlib_check.py

It checks the Fraction slot layout the graded kernels read and write, the
conversion boundary against the public Fraction API, the transform and
product digests at their lowest golden degrees, and `selftest.run(0)`
against `tests/golden/selftest_seed0.txt`.  It prints one line per check
and exits 1 on the first mismatch.
"""

import io
import json
import sys
import types
from fractions import Fraction
from pathlib import Path

from ncprob.cumulants import _graded, _ungraded
from ncprob.selftest import run

# The digest modules use pytest only to parametrize their tests.
sys.modules.setdefault("pytest", types.SimpleNamespace(mark=types.SimpleNamespace(
    parametrize=lambda *args, **kwargs: lambda test: test)))
import test_product_digests as products  # noqa: E402
import test_transform_digests as transforms  # noqa: E402

GOLDEN = Path(__file__).parent / "golden"


def check(what: str, ok: bool) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        sys.exit(1)


def main() -> None:
    print("Python", sys.version.split()[0])
    check("Fraction.__slots__", Fraction.__slots__ == ("_numerator", "_denominator"))
    P = 6 * 35 ** 2
    values = [0, 1, -1, P, -3 * P, 2 ** 200 + 3, -(2 ** 200 + 3), -(3 ** 150), 4 * P + 7]
    fam = _ungraded(35, [[1], values[:3], values], "moment", 6)
    check("_ungraded equals Fraction(v, P)", all(
        type(q) is Fraction
        and (q.numerator, q.denominator, hash(q), str(q)) == (r.numerator, r.denominator, hash(r), str(r))
        for q, r in zip(fam._layers[2], (Fraction(v, P) for v in values))))
    D, (layers,) = _graded(fam)
    check("_graded equals the property recipe", layers[1:] == [
        [v.numerator * (D ** n // v.denominator) for v in fam._layers[n]] for n in (1, 2)])

    k2 = json.loads(transforms.GOLDEN.read_text())
    off_k2 = json.loads(transforms.GOLDEN_OFF_K2.read_text())
    for k, N, golden in ((2, 8, k2["8"]), (3, 5, off_k2["3"]["5"]), (1, 9, off_k2["1"]["9"])):
        check(f"transform digests k={k} N={N}", transforms._table(k, N) == golden)
    golden = json.loads(products.GOLDEN.read_text())
    for k, l in products.SHAPES:
        check(f"product digests k={k} l={l} N=3", all(
            products._digest(op, k, l, 3) == want
            for op, want in golden[products._key(k, l)]["3"].items()))

    out = io.StringIO()
    run(0, out)
    check("selftest --seed 0", out.getvalue() == (GOLDEN / "selftest_seed0.txt").read_text())


if __name__ == "__main__":
    main()
