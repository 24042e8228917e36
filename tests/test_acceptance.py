"""Acceptance gate: every criterion at its stated size, exact equality.

Each test prints its own pass/fail line; run with `pytest -s` to see them.
The selftest CLI runs the same criteria.
"""

import json
from pathlib import Path

import pytest
from click.testing import CliRunner

from ncprob import selftest
from ncprob.cli import main

SEED = 0


@pytest.mark.parametrize(
    "num,name,fn", selftest.CRITERIA, ids=[f"{c[0]:02d}-{c[1]}" for c in selftest.CRITERIA]
)
def test_criterion(num, name, fn):
    ok, detail = fn(SEED)
    print(f"criterion {num:2d} {'PASS' if ok else 'FAIL'}: {name} ({detail})")
    assert ok, f"criterion {num} ({name}): {detail}"


def test_criterion_14_cli_selftest_byte_identical():
    runner = CliRunner()
    first = runner.invoke(main, ["selftest", "--seed", "7"])
    second = runner.invoke(main, ["selftest", "--seed", "7"])
    ok = (
        first.exit_code == 0
        and second.exit_code == 0
        and first.output == second.output
    )
    print(f"criterion 14 {'PASS' if ok else 'FAIL'}: selftest reports byte-identical")
    assert first.exit_code == 0, first.output
    assert second.exit_code == 0
    assert first.output == second.output


# (criterion, TARGETS row, seed offset of the draw made to fail, the
# criterion's report): a failure on the fourth draw where the row runs on
# many draws, on the only one otherwise
TABLE_RUNS = [
    (9, "prop54", 303, "difference identity fails at draw 3, word (9, 9)"),
    (9, "eq5a", 901, "type-B moment reconstruction fails"),
    (9, "eq55a", 901, "opposite-order moment reconstruction fails"),
    (10, "17", 403, "transform identity fails at draw 3, word (9, 9)"),
    (11, "14", 503, "cyclic identity fails at draw 3, word (9, 9)"),
    (11, "14", 553, "univariate cyclic identity fails at draw 3"),
    (12, "lemma67", 600, "block identity fails at word (9, 9)"),
    (13, "12", 703, "convolution intertwine fails at draw 3, word (9, 9)"),
    (13, "13", 803, "product intertwine fails at draw 3, word (9, 9)"),
]


@pytest.mark.parametrize("num,row,offset,text", TABLE_RUNS,
                         ids=[f"{num}-{row}-{offset}" for num, row, offset, _ in TABLE_RUNS])
def test_theorem_criteria_run_the_targets_table(monkeypatch, num, row, offset, text):
    # the criterion must report the failure of the row it runs, at that draw
    def check(s, k, n, l):
        return (9, 9) if s == SEED * 1000 + offset else None

    monkeypatch.setitem(selftest.TARGETS, row, selftest.TARGETS[row]._replace(check=check))
    fn = next(fn for n, _, fn in selftest.CRITERIA if n == num)
    assert fn(SEED) == (False, text)


# ---------------------------------------------------------------------------
# Golden verify reports.  `python tests/test_acceptance.py` rewrites the file;
# run it only on a commit whose reports are the reference.
# ---------------------------------------------------------------------------

GOLDEN_REPORTS = Path(__file__).parent / "golden" / "verify_reports.json"
# (target, l): every target with l = 1, and target 13 with l = 2 as well
GOLDEN_TARGETS = [(t, 1) for t in selftest.TARGETS] + [("13", 2)]


def _report_args(theorem, l):
    """[theorem, seed, k, N, l] at seeds 0 and 3, k = 1, 2 and N = 1..5."""
    return [[theorem, seed, k, n, l] for seed in (0, 3) for k in (1, 2) for n in range(1, 6)]


@pytest.mark.parametrize("theorem,l", GOLDEN_TARGETS, ids=[f"{t}-l{l}" for t, l in GOLDEN_TARGETS])
def test_verify_reports_match_the_golden_file(theorem, l):
    golden = [
        entry for entry in json.loads(GOLDEN_REPORTS.read_text())
        if entry["args"][0] == theorem and entry["args"][-1] == l
    ]
    assert [entry["args"] for entry in golden] == _report_args(theorem, l)
    for entry in golden:
        assert selftest.verify_report(*entry["args"]) == entry["report"], entry["args"]


if __name__ == "__main__":
    lines = ",\n".join(
        json.dumps({"args": args, "report": selftest.verify_report(*args)})
        for target in GOLDEN_TARGETS for args in _report_args(*target)
    )
    GOLDEN_REPORTS.write_text(f"[\n{lines}\n]\n")
