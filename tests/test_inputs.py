"""Counts, indices and values read from outside: each is an int (a number,
for a value), never a bool, and anything else is an NcprobError in Python
and exit 2 on the command line, never a traceback."""

import json
import os
import tempfile
import tracemalloc
from fractions import Fraction

import pytest
from click.testing import CliRunner
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from ncprob.cli import main
from ncprob.deltastar import eval_eta, eval_gamma, gamma_eta_counterexample
from ncprob.errors import (
    DimMismatch,
    InvalidFamily,
    InvalidPartition,
    LimitExceeded,
    NcprobError,
    NotOuter,
    PositionOutOfRange,
    ShapeMismatch,
)
from ncprob.families import (
    DeltaTensor,
    MultilinearFamily,
    diagonal_delta,
    random_delta,
    random_family,
    random_tracial,
    relabel,
    restrict,
    truncate,
)
from ncprob.nc import (
    NcPartition, enumerate_nc, f_nm, f_nm_inverse, interval_partitions, is_noncrossing,
    moebius_oracle, parent_block)
from ncprob.selftest import TARGETS, verify_report
from ncprob.typeb import Flavor, SignedNcPartition, enumerate_signed, from_pair

F = random_family(2, 3, seed=7)
PI = NcPartition(2, [(1,), (2,)])
RHO = NcPartition(3, [(1, 3), (2,)])

def _gamma_eta(m):
    """The gamma-eta check of RHO at slot m, on inputs that pass every other check."""
    return gamma_eta_counterexample(diagonal_delta(2), F, random_tracial(2, 3, seed=7), 2, m, RHO)


CASES = {
    "NcPartition(True)": (lambda: NcPartition(True, [(1,)]), InvalidPartition),
    "NcPartition(2.0)": (lambda: NcPartition(2.0, [(1,), (2,)]), InvalidPartition),
    "NcPartition('2')": (lambda: NcPartition("2", [(1,), (2,)]), InvalidPartition),
    "enumerate_nc(True)": (lambda: enumerate_nc(True), InvalidPartition),
    "enumerate_nc(3.0)": (lambda: enumerate_nc(3.0), InvalidPartition),
    "enumerate_signed(2.0)": (lambda: enumerate_signed(2.0, Flavor.B), InvalidPartition),
    "is_noncrossing(n=2.0)": (lambda: is_noncrossing([(1,), (2,)], 2.0), InvalidPartition),
    "SignedNcPartition(1.0)": (
        lambda: SignedNcPartition(1.0, Flavor.B, [(1, -1)]), InvalidPartition),
    "block_of(1.0)": (lambda: PI.block_of(1.0), InvalidPartition),
    "block_of(True)": (lambda: PI.block_of(True), InvalidPartition),
    "f_nm(True)": (lambda: f_nm(RHO, True), InvalidPartition),
    "f_nm_inverse(1.0)": (lambda: f_nm_inverse(PI, 1.0), InvalidPartition),
    # an index that is an int but outside the blocks, or the letters, is refused too
    "parent_block(True)": (lambda: parent_block(RHO, True), InvalidPartition),
    "parent_block(1.0)": (lambda: parent_block(RHO, 1.0), InvalidPartition),
    "parent_block(5)": (lambda: parent_block(RHO, 5), InvalidPartition),
    "parent_block(-3)": (lambda: parent_block(RHO, -3), InvalidPartition),
    "truncate(True)": (lambda: truncate(F, True), ShapeMismatch),
    "truncate('2')": (lambda: truncate(F, "2"), ShapeMismatch),
    "family k=True": (lambda: MultilinearFamily(True, 1, {(1,): 1}), ShapeMismatch),
    "random_family N=2.0": (lambda: random_family(1, 2.0, 0), ShapeMismatch),
    "relabel(1.0)": (lambda: relabel(F, 1.0), ShapeMismatch),
    "relabel(True)": (lambda: relabel(F, True), ShapeMismatch),
    "restrict([1.0])": (lambda: restrict(F, (1, 2), [1.0]), PositionOutOfRange),
    "restrict(['1', 2])": (lambda: restrict(F, (1, 2), ["1", 2]), PositionOutOfRange),
    "f((True,))": (lambda: F((True,)), PositionOutOfRange),
    "f((1.0,))": (lambda: F((1.0,)), PositionOutOfRange),
    # a value given in Python is a number too: a bool, or anything Fraction
    # cannot read, is refused, where the JSON reader already refused it
    "family value True": (lambda: MultilinearFamily(1, 1, {(1,): True}), InvalidFamily),
    "family value 'x'": (lambda: MultilinearFamily(1, 1, {(1,): "x"}), InvalidFamily),
    "family value None": (lambda: MultilinearFamily(1, 1, {(1,): None}), InvalidFamily),
    "family value nan": (lambda: MultilinearFamily(1, 1, {(1,): float("nan")}), InvalidFamily),
    "family value '1/0'": (lambda: MultilinearFamily(1, 1, {(1,): "1/0"}), InvalidFamily),
    "tensor value True": (lambda: DeltaTensor(1, {(1, 1, 1): True}), InvalidFamily),
    "tensor value False": (lambda: DeltaTensor(1, {(1, 1, 1): False}), InvalidFamily),
    "tensor value 'x'": (lambda: DeltaTensor(1, {(1, 1, 1): "x"}), InvalidFamily),
    "tensor k=2.0": (lambda: DeltaTensor(2.0, {}), DimMismatch),
    "tensor i=True": (lambda: DeltaTensor(2, {(True, 1, 1): 1}), DimMismatch),
    "tensor l=1.0": (lambda: DeltaTensor(2, {(1, 1, 1.0): 1}), DimMismatch),
    "expand(True)": (lambda: diagonal_delta(2).expand(True), DimMismatch),
    "expand(1.0)": (lambda: diagonal_delta(2).expand(1.0), DimMismatch),
    "expand(0)": (lambda: diagonal_delta(2).expand(0), DimMismatch),
    "expand(3)": (lambda: diagonal_delta(2).expand(3), DimMismatch),
    "eval_eta letters": (lambda: eval_eta(F, F, RHO, (True, 1, 1)), PositionOutOfRange),
    "eval_gamma m=1.0": (
        lambda: eval_gamma(diagonal_delta(2), F, F, RHO, 1.0, (1, 1, 1)), ShapeMismatch),
    "gamma_eta_counterexample m=0": (lambda: _gamma_eta(0), InvalidPartition),
    "gamma_eta_counterexample m=n+1": (lambda: _gamma_eta(3), InvalidPartition),
    "gamma_eta_counterexample m=True": (lambda: _gamma_eta(True), InvalidPartition),
    "gamma_eta_counterexample m=1.0": (lambda: _gamma_eta(1.0), InvalidPartition),
    "verify_report k=True": (lambda: verify_report("prop41", 0, True, 3), ShapeMismatch),
    # an enumeration or oracle limit is read from outside too
    "enumerate_nc limit=3.5": (lambda: enumerate_nc(3, limit=3.5), InvalidPartition),
    "enumerate_nc limit=True": (lambda: enumerate_nc(2, limit=True), InvalidPartition),
    "interval_partitions limit='x'": (
        lambda: interval_partitions(3, limit="x"), InvalidPartition),
    "enumerate_signed limit=2.0": (
        lambda: enumerate_signed(2, Flavor.B, limit=2.0), InvalidPartition),
    "moebius_oracle limit=True": (lambda: moebius_oracle(PI, PI, limit=True), InvalidPartition),
    "moebius_oracle limit=None": (lambda: moebius_oracle(PI, PI, limit=None), InvalidPartition),
    "verify_report l=1.0": (lambda: verify_report("13", 0, 2, 3, l=1.0), ShapeMismatch),
    # a container of the wrong shape: values that are not a mapping, a tensor
    # index that is not a triple, a set of blocks that lists a label
    "family values [1]": (lambda: MultilinearFamily(1, 1, [1]), InvalidFamily),
    "family values None": (lambda: MultilinearFamily(1, 1, None), InvalidFamily),
    "tensor index (1, 1)": (lambda: DeltaTensor(1, {(1, 1): 1}), DimMismatch),
    "tensor entries [(1, 1)]": (lambda: DeltaTensor(1, [(1, 1)]), DimMismatch),
    "from_pair blocks [1]": (lambda: from_pair(RHO, [1]), NotOuter),
    "tensor entries None": (lambda: DeltaTensor(1, None), InvalidFamily),
    "tensor entries [1]": (lambda: DeltaTensor(1, [1]), InvalidFamily),
    "NcPartition blocks None": (lambda: NcPartition(3, None), InvalidPartition),
    "NcPartition blocks [1]": (lambda: NcPartition(3, [1]), InvalidPartition),
    "is_noncrossing(None)": (lambda: is_noncrossing(None), InvalidPartition),
    "SignedNcPartition blocks None": (
        lambda: SignedNcPartition(1, "B", None), InvalidPartition),
    "NcPartition.from_text(1)": (lambda: NcPartition.from_text(1), InvalidPartition),
    "SignedNcPartition.from_text(1)": (lambda: SignedNcPartition.from_text(1), InvalidPartition),
    # a name that is not one of a fixed set
    "family kind 'x'": (lambda: MultilinearFamily(1, 1, {(1,): 1}, kind="x"), InvalidFamily),
    "random_family kind 'x'": (lambda: random_family(1, 2, 0, kind="x"), InvalidFamily),
    "truncate kind 'x'": (lambda: truncate(F, 1, kind="x"), InvalidFamily),
    "verify_report 'nope'": (lambda: verify_report("nope", 0, 1, 2), NcprobError),
}


@pytest.mark.parametrize("case", list(CASES))
def test_a_count_or_index_that_is_not_an_int_is_refused(case):
    make, error = CASES[case]
    with pytest.raises(error):
        make()


def test_the_messages_for_ints_are_unchanged():
    with pytest.raises(InvalidPartition, match=r"^ground-set size must be positive, got 0$"):
        NcPartition(0, [])
    with pytest.raises(InvalidPartition, match=r"^element 3 outside 1\.\.2$"):
        PI.block_of(3)
    with pytest.raises(PositionOutOfRange, match=r"^positions \[2, 10\] outside 1\.\.2$"):
        restrict(F, (1, 2), [10, 2])
    with pytest.raises(DimMismatch, match=r"^index \(1,1,3\) outside 1\.\.2$"):
        DeltaTensor(2, {(1, 1, 3): 1})
    # the two later index checks speak in the same style
    with pytest.raises(DimMismatch, match=r"^index 3 outside 1\.\.2$"):
        diagonal_delta(2).expand(3)
    with pytest.raises(InvalidPartition, match=r"^block index 2 outside -2\.\.1$"):
        parent_block(RHO, 2)
    # a negative block index still counts from the end
    assert parent_block(RHO, -1) == parent_block(RHO, 1) == 0
    # and an int limit refuses as before
    with pytest.raises(LimitExceeded, match=r"^n=5 above enumeration limit 4$"):
        enumerate_nc(5, limit=4)
    with pytest.raises(LimitExceeded, match=r"^n=3 above signed enumeration limit 2$"):
        enumerate_signed(3, Flavor.B_OPP, limit=2)
    with pytest.raises(LimitExceeded, match=r"^oracle limited to n <= 1$"):
        moebius_oracle(PI, PI, limit=1)
    assert len(interval_partitions(3, limit=3)) == 4


@pytest.mark.parametrize("make", [
    lambda n: is_noncrossing([(1,)], n),
    lambda n: NcPartition(n, [(1,)]),
    lambda n: SignedNcPartition(n, Flavor.B, [(1, -1)]),
    lambda n: SignedNcPartition.from_json({"n": n, "flavor": "B-opp", "blocks": [[1, -1]]}),
], ids=["is_noncrossing", "NcPartition", "SignedNcPartition", "SignedNcPartition.from_json"])
def test_a_large_n_is_refused_before_its_ground_set_is_built(make):
    # the elements are counted against n before 1..n, or +-1..+-n, is listed
    tracemalloc.start()
    try:
        with pytest.raises(InvalidPartition):
            make(10 ** 6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_a_python_float_keeps_its_exact_binary_value():
    # only the JSON reader reads a float's shortest decimal
    assert MultilinearFamily(1, 1, {(1,): 0.1})((1,)) == Fraction(0.1) != Fraction(1, 10)
    assert DeltaTensor(1, {(1, 1, 1): 0.1}).expand(1) == ((1, 1, Fraction(0.1)),)


def test_json_true_and_false_are_not_values():
    data = random_family(1, 2, seed=0).to_json_dict()
    for flag in (True, False):
        with pytest.raises(InvalidFamily):
            MultilinearFamily.from_json_dict({**data, "values": {"1": flag, "1,1": "1"}})
        tensor = {"k": 1, "entries": [{"i": 1, "j": 1, "l": 1, "value": flag}]}
        with pytest.raises(InvalidFamily):
            DeltaTensor.from_json_dict(tensor)
    # a JSON number still reads as before
    assert MultilinearFamily.from_json_dict({**data, "values": {"1": 1, "1,1": 0.5}})((1, 1)) == 0.5


def test_a_json_float_reads_as_its_shortest_decimal():
    # 0.1 is the double nearest 1/10, and str gives back "0.1"
    data = random_family(1, 2, seed=0).to_json_dict()

    def family(text):
        values = {"1": json.loads(text), "1,1": "1"}
        return MultilinearFamily.from_json_dict({**data, "values": values})

    for text, want in (("0.1", Fraction(1, 10)), ("0.5", Fraction(1, 2)),
                       ("-2.5e-3", Fraction(-1, 400)), ("1e20", 10 ** 20), ("3", 3)):
        assert family(text)((1,)) == want
        tensor = {"k": 1, "entries": [{"i": 1, "j": 1, "l": 1, "value": json.loads(text)}]}
        assert DeltaTensor.from_json_dict(tensor).expand(1) == ((1, 1, want),)
    for text in ("1e400", "-Infinity", "NaN"):
        with pytest.raises(InvalidFamily):
            family(text)


def _run(argv):
    """Invoke the CLI in process, with each ("file", text) argument written
    to a temporary file first."""
    with tempfile.TemporaryDirectory() as tmp:
        args = []
        for i, arg in enumerate(argv):
            if isinstance(arg, tuple):
                path = os.path.join(tmp, f"{i}.json")
                with open(path, "w") as fh:
                    fh.write(arg[1])
                arg = path
            args.append(arg)
        return CliRunner().invoke(main, args)


def _file(obj):
    return ("file", json.dumps(obj))


FAMILY = random_family(2, 3, seed=1).to_json_dict()
TENSOR = random_delta(2, seed=1).to_json_dict()


@pytest.mark.parametrize("argv", [
    ["psi", "--input", _file(FAMILY), "--delta", _file({**TENSOR, "k": 2.0})],
    ["psi", "--input", _file(FAMILY), "--delta",
     _file({"k": 2, "entries": [{"i": True, "j": 1, "l": 1, "value": "1"}]})],
    ["psi", "--input", _file(FAMILY), "--delta",
     _file({"k": 2, "entries": [{"i": 1.0, "j": 1, "l": 1, "value": "1"}]})],
    ["psi", "--input", _file(FAMILY), "--delta",
     _file({"k": 2, "entries": [{"i": 1, "j": 1, "l": 1, "value": True}]})],
    ["transform", "--brand", "free", "--direction", "to-cumulants",
     "--input", _file({**FAMILY, "k": True})],
    ["transform", "--brand", "free", "--direction", "to-cumulants",
     "--input", _file({**FAMILY, "N": True})],
    ["transform", "--brand", "free", "--direction", "to-cumulants",
     "--input", _file({**FAMILY, "values": {**FAMILY["values"], "1": True}})],
])
def test_a_bad_count_index_or_value_in_a_file_exits_2(argv):
    res = _run(argv)
    assert res.exit_code == 2, res.output
    assert isinstance(res.exception, SystemExit)
    error = [line for line in res.output.splitlines() if line.startswith("Error: ")]
    assert len(error) == 1 and res.output.endswith(error[0] + "\n")


# ---------------------------------------------------------------------------
# The command line under malformed input
# ---------------------------------------------------------------------------

def _wrong(v):
    """The count v as a float or a string, a bool, zero, its negative or no
    number at all."""
    return st.sampled_from([float(v), str(v), True, False, 0, -v, None, [v]])


NOT_A_VALUE = st.sampled_from([True, False, None, [1], "x", "1/0", "1e400", "Infinity"])


def _family(k, N, seed):
    return random_family(k, N, seed).to_json_dict()


@st.composite
def family_text(draw, k):
    """The JSON text of a family over k letters of degree up to 3, valid or
    broken in one place."""
    data = _family(k, draw(st.integers(1, 3)), draw(st.integers(0, 3)))
    where = draw(st.one_of(st.just("none"), st.sampled_from(
        ["k", "N", "kind", "unit", "values", "value", "key", "drop", "whole", "text"])))
    if where in ("k", "N"):
        data[where] = draw(_wrong(data[where]))
    elif where in ("kind", "unit", "values"):
        data[where] = draw(NOT_A_VALUE)
    elif where == "value":
        data["values"][draw(st.sampled_from(sorted(data["values"])))] = draw(NOT_A_VALUE)
    elif where == "key":
        key = draw(st.sampled_from(sorted(data["values"])))
        data["values"][draw(st.sampled_from(["0", "3", "1,", ",", "a", "1,1,1,1", "-1"]))] = (
            data["values"].pop(key))
    elif where == "drop":
        del data[draw(st.sampled_from(["k", "N", "values"]))]
    elif where == "whole":
        data = draw(st.sampled_from([[], 3, "x", None, {}]))
    elif where == "text":
        return ("file", draw(st.sampled_from(["", "{", "[1,", "\xff", "nan"])))
    return _file(data)


@st.composite
def tensor_text(draw, k):
    """The JSON text of a tensor over k letters, valid or broken in one place."""
    data = diagonal_delta(k).to_json_dict()
    entry = data["entries"][-1]
    where = draw(st.sampled_from(["k", "i", "j", "l", "value", "entries", "drop", "none"]))
    if where == "k":
        data["k"] = draw(_wrong(k))
    elif where in "ijl":
        entry[where] = draw(_wrong(entry[where]))
    elif where in ("value", "entries"):
        (entry if where == "value" else data)[where] = draw(NOT_A_VALUE)
    elif where == "drop":
        del data[draw(st.sampled_from(["k", "entries"]))]
    return _file(data)


PARTITION_TEXT = st.one_of(
    st.text(alphabet="{},-0123456789a ", max_size=14),
    st.from_regex(r"(\{-?[0-9](,-?[0-9])*\})+", fullmatch=True),
)

COMMANDS = {
    "nc enumerate": st.tuples(
        st.just(["nc", "enumerate", "--n"]), st.sampled_from(["-1", "0", "1", "4", "13", "x", "2.0"]),
        st.sampled_from([[], ["--json"]])).map(lambda t: t[0] + [t[1]] + t[2]),
    "nc kreweras": PARTITION_TEXT.map(lambda p: ["nc", "kreweras", "--partition", p]),
    "nc moebius": PARTITION_TEXT.map(lambda p: ["nc", "moebius", "--partition", p]),
    "typeb enumerate": st.tuples(
        st.sampled_from(["-1", "0", "1", "3", "9", "x"]), st.sampled_from(["B", "B-opp", "C"]),
        st.sampled_from([[], ["--json"]])).map(
            lambda t: ["typeb", "enumerate", "--n", t[0], "--flavor", t[1]] + t[2]),
    "transform": st.tuples(
        st.sampled_from(["free", "boolean", "cfree", "cc", "infinitesimal", "x"]),
        st.sampled_from(["to-cumulants", "to-moments"]),
        st.lists(family_text(2), min_size=1, max_size=3)).map(
            lambda t: ["transform", "--brand", t[0], "--direction", t[1]]
            + [a for f in t[2] for a in ("--input", f)]),
    # the family is valid, so that the tensor and --k are read
    "psi": st.sampled_from([2, 1]).flatmap(lambda k: st.tuples(
        st.sampled_from([[], ["--k", "1"], ["--k", "2"], ["--k", "x"]]),
        st.builds(_family, st.just(k), st.sampled_from([2, 3, 1]), st.integers(0, 3)),
        st.one_of(tensor_text(k).map(lambda d: ["--delta", d]), st.just([])))).map(
            lambda t: ["psi"] + t[0] + ["--input", _file(t[1])] + t[2]),
    "product": st.tuples(
        st.sampled_from(["free", "cfree", "infinitesimal", "x"]),
        st.lists(family_text(1), min_size=1, max_size=4)).map(
            lambda t: ["product", "--kind", t[0]] + [a for f in t[1] for a in ("--input", f)]),
    "convolve": st.tuples(
        st.sampled_from(["free", "cfree", "infinitesimal", "x"]),
        st.lists(family_text(1), min_size=1, max_size=4)).map(
            lambda t: ["convolve", "--kind", t[0]] + [a for f in t[1] for a in ("--input", f)]),
    "verify": st.tuples(
        st.sampled_from([*TARGETS, "99"]),
        st.sampled_from(["-1", "0", "1", "2", "x", "1.5", "True"]),
        st.sampled_from(["-1", "0", "1", "3", "x", "2.0"]),
        st.sampled_from(["-2", "0", "1", "2", "x"]),
        st.sampled_from(["0", "-5", "x"])).map(
            lambda t: ["verify", "--theorem", t[0], "--k", t[1], "--N", t[2], "--l", t[3],
                       "--seed", t[4]]),
    "selftest": st.sampled_from(["x", "", "1.5", "True", "--"]).map(
        lambda s: ["selftest", "--seed", s]),
}


@pytest.mark.parametrize("command", list(COMMANDS))
@settings(max_examples=40, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_malformed_input_never_gives_a_traceback(command, data):
    argv = data.draw(COMMANDS[command], label="argv")
    res = _run(argv)
    assert res.exception is None or isinstance(res.exception, SystemExit), res.exc_info
    assert "Traceback" not in res.output
    if res.exit_code == 1:
        assert argv[0] == "verify" and json.loads(res.output)["ok"] is False
    else:
        assert res.exit_code in (0, 2), res.output
    if res.exit_code == 2:
        assert "Error: " in res.output
