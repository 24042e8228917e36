import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

from ncprob.cli import main
from ncprob.families import MultilinearFamily, random_delta, random_family
from ncprob.cumulants import boolean_cumulants, free_cumulants
from ncprob.deltastar import delta_star, psi_delta, psi_k
from ncprob.selftest import TARGETS


@pytest.fixture
def runner():
    return CliRunner()


def write_family(tmp_path, name, fam):
    path = tmp_path / name
    path.write_text(json.dumps(fam.to_json_dict(), indent=2, sort_keys=True) + "\n")
    return str(path)


def test_nc_enumerate(runner):
    res = runner.invoke(main, ["nc", "enumerate", "--n", "4"])
    assert res.exit_code == 0
    lines = res.output.strip().splitlines()
    assert len(lines) == 14
    assert lines[0] == "{1}{2}{3}{4}"


def test_nc_enumerate_json(runner):
    res = runner.invoke(main, ["nc", "enumerate", "--n", "3", "--json"])
    assert res.exit_code == 0
    assert len(json.loads(res.output)) == 5


def test_nc_enumerate_over_limit(runner):
    res = runner.invoke(main, ["nc", "enumerate", "--n", "99"])
    assert res.exit_code == 2


def test_nc_kreweras(runner):
    res = runner.invoke(
        main, ["nc", "kreweras", "--partition", "{1,5,6}{2,4}{3}{7}{8,10}{9}"]
    )
    assert res.exit_code == 0
    assert res.output.strip() == "{1,4}{2,3}{5}{6,7,10}{8,9}"


def test_nc_moebius(runner):
    res = runner.invoke(main, ["nc", "moebius", "--partition", "{1}{2}{3}{4}"])
    assert res.exit_code == 0
    assert res.output.strip() == "-5"


def test_typeb_enumerate(runner):
    for flavor in ("B", "B-opp"):
        res = runner.invoke(
            main, ["typeb", "enumerate", "--n", "4", "--flavor", flavor]
        )
        assert res.exit_code == 0
        assert len(res.output.strip().splitlines()) == 70


def test_typeb_enumerate_json_round_trip(runner):
    from ncprob.typeb import Flavor, SignedNcPartition, enumerate_signed

    res = runner.invoke(
        main, ["typeb", "enumerate", "--n", "3", "--flavor", "B-opp", "--json"]
    )
    assert res.exit_code == 0
    got = [SignedNcPartition.from_json(d) for d in json.loads(res.output)]
    assert tuple(got) == enumerate_signed(3, Flavor.B_OPP)


def test_typeb_bad_flavor(runner):
    res = runner.invoke(main, ["typeb", "enumerate", "--n", "2", "--flavor", "Z"])
    assert res.exit_code == 2


def test_transform_round_trip_bit_exact(runner, tmp_path):
    fam = random_family(2, 4, seed=5)
    src = write_family(tmp_path, "mom.json", fam)
    res = runner.invoke(
        main,
        ["transform", "--brand", "free", "--direction", "to-cumulants", "--input", src],
    )
    assert res.exit_code == 0
    mid = tmp_path / "kap.json"
    mid.write_text(res.output)
    res2 = runner.invoke(
        main,
        [
            "transform",
            "--brand",
            "free",
            "--direction",
            "to-moments",
            "--input",
            str(mid),
        ],
    )
    assert res2.exit_code == 0
    assert res2.output.strip() == (tmp_path / "mom.json").read_text().strip()


@pytest.mark.parametrize("brand", ["cfree", "cc", "infinitesimal"])
def test_two_family_transform_round_trips(runner, tmp_path, brand):
    base = random_family(2, 4, seed=11)
    second = random_family(
        2, 4, seed=12, kind="infinitesimal" if brand == "infinitesimal" else "moment"
    )
    first_arg = base if brand != "infinitesimal" else free_cumulants(base)
    base_path = write_family(tmp_path, "base.json", first_arg)
    second_path = write_family(tmp_path, "second.json", second)
    fwd = runner.invoke(
        main,
        [
            "transform", "--brand", brand, "--direction", "to-cumulants",
            "--input", write_family(tmp_path, "b2.json", base),
            "--input", second_path,
        ],
    )
    assert fwd.exit_code == 0
    cum_path = tmp_path / "cum.json"
    cum_path.write_text(fwd.output)
    back = runner.invoke(
        main,
        [
            "transform", "--brand", brand, "--direction", "to-moments",
            "--input", base_path,
            "--input", str(cum_path),
        ],
    )
    assert back.exit_code == 0
    got = MultilinearFamily.from_json_dict(json.loads(back.output))
    assert got == second


def test_transform_wrong_arity(runner, tmp_path):
    src = write_family(tmp_path, "m.json", random_family(1, 3, seed=1))
    res = runner.invoke(
        main,
        [
            "transform", "--brand", "cfree", "--direction", "to-cumulants",
            "--input", src,
        ],
    )
    assert res.exit_code == 2


def test_psi_matches_library(runner, tmp_path):
    nu = random_family(2, 4, seed=21)
    src = write_family(tmp_path, "nu.json", nu)
    res = runner.invoke(main, ["psi", "--k", "2", "--input", src])
    assert res.exit_code == 0
    got = MultilinearFamily.from_json_dict(json.loads(res.output))
    assert got == psi_k(nu)


def test_psi_with_a_tensor_matches_library(runner, tmp_path):
    nu = random_family(2, 4, seed=23)
    delta = random_delta(2, seed=24)
    src = write_family(tmp_path, "nu.json", nu)
    delta_path = tmp_path / "delta.json"
    delta_path.write_text(json.dumps(delta.to_json_dict()))
    res = runner.invoke(main, ["psi", "--k", "2", "--input", src, "--delta", str(delta_path)])
    assert res.exit_code == 0, res.output
    got = json.loads(res.output)
    assert got == psi_delta(delta, nu).to_json_dict()
    assert got == delta_star(delta, boolean_cumulants(nu)).to_json_dict()


def test_psi_k_mismatch(runner, tmp_path):
    src = write_family(tmp_path, "nu.json", random_family(2, 3, seed=22))
    res = runner.invoke(main, ["psi", "--k", "3", "--input", src])
    assert res.exit_code == 2


def test_product_and_convolve(runner, tmp_path):
    a = write_family(tmp_path, "a.json", random_family(1, 3, seed=31))
    b = write_family(tmp_path, "b.json", random_family(1, 3, seed=32))
    res = runner.invoke(main, ["product", "--kind", "free", "--input", a, "--input", b])
    assert res.exit_code == 0
    assert json.loads(res.output)["k"] == 2
    res = runner.invoke(
        main,
        ["convolve", "--kind", "cfree"]
        + sum((["--input", p] for p in (a, b, a, b)), []),
    )
    assert res.exit_code == 0
    blob = json.loads(res.output)
    assert set(blob) == {"mu", "nu"}
    res = runner.invoke(
        main,
        ["convolve", "--kind", "infinitesimal"]
        + sum(
            (
                ["--input", p]
                for p in (
                    a,
                    write_family(tmp_path, "p1.json", random_family(1, 3, seed=33, kind="infinitesimal")),
                    b,
                    write_family(tmp_path, "p2.json", random_family(1, 3, seed=34, kind="infinitesimal")),
                )
            ),
            [],
        ),
    )
    assert res.exit_code == 0
    assert set(json.loads(res.output)) == {"mu", "mu_prime"}


def test_mismatched_inputs_exit_2_with_the_readers_messages(runner, tmp_path):
    a = write_family(tmp_path, "a.json", random_family(1, 3, seed=31))
    short = write_family(tmp_path, "short.json", random_family(1, 2, seed=32))
    res = runner.invoke(main, ["convolve", "--kind", "cfree"]
                        + sum((["--input", p] for p in (a, a, a, short)), []))
    assert res.exit_code == 2
    assert "families disagree: (k=1, N=3) vs (k=1, N=2)" in res.output
    delta = tmp_path / "delta.json"
    delta.write_text(json.dumps(random_delta(2, seed=36).to_json_dict()))
    res = runner.invoke(main, ["psi", "--input", a, "--delta", str(delta)])
    assert res.exit_code == 2
    assert "family over k=1 but tensor over k=2" in res.output


def test_product_wrong_arity(runner, tmp_path):
    a = write_family(tmp_path, "a.json", random_family(1, 3, seed=35))
    res = runner.invoke(main, ["product", "--kind", "cfree", "--input", a])
    assert res.exit_code == 2


@pytest.mark.parametrize(
    "args",
    [
        ["--theorem", "14", "--seed", "7", "--k", "2", "--N", "3"],
        ["--theorem", "17", "--seed", "3", "--k", "2", "--N", "3"],
        ["--theorem", "12", "--seed", "1", "--k", "1", "--N", "3"],
        ["--theorem", "13", "--seed", "1", "--k", "2", "--l", "1", "--N", "2"],
        ["--theorem", "lemma210", "--N", "5"],
        ["--theorem", "lemma67", "--seed", "2", "--k", "2", "--N", "2"],
        ["--theorem", "prop41", "--seed", "4", "--k", "2", "--N", "4"],
        ["--theorem", "prop54", "--seed", "4", "--k", "2", "--N", "4"],
        ["--theorem", "eq5a", "--seed", "5", "--k", "2", "--N", "3"],
        ["--theorem", "eq55a", "--seed", "5", "--k", "2", "--N", "3"],
    ],
)
def test_verify_reports_ok(runner, args):
    res = runner.invoke(main, ["verify"] + args)
    assert res.exit_code == 0, res.output
    report = json.loads(res.output)
    assert report["ok"] is True
    assert report["counterexample"] is None


def test_verify_spec_invocation(runner):
    res = runner.invoke(
        main, ["verify", "--theorem", "14", "--seed", "7", "--k", "2", "--N", "4"]
    )
    assert res.exit_code == 0
    assert json.loads(res.output)["ok"] is True


def test_verify_unknown_theorem(runner):
    res = runner.invoke(main, ["verify", "--theorem", "nope"])
    assert res.exit_code == 2


@pytest.mark.parametrize(
    "bound", [["--N", "0"], ["--N", "-3"], ["--k", "0"]], ids=["N=0", "N=-3", "k=0"]
)
@pytest.mark.parametrize("theorem", list(TARGETS))
def test_verify_rejects_k_or_n_below_one(runner, theorem, bound):
    res = runner.invoke(main, ["verify", "--theorem", theorem] + bound)
    assert res.exit_code == 2, res.output
    assert "k and N must be positive" in res.output


@pytest.mark.parametrize("l", ["0", "-2"])
def test_verify_13_rejects_l_below_one(runner, l):
    # every target rejects it, including those that never read l
    for theorem in TARGETS:
        res = runner.invoke(main, ["verify", "--theorem", theorem, "--l", l, "--N", "1"])
        assert res.exit_code == 2, (theorem, res.output)
        assert f"l must be positive, got l={l}" in res.output


def _cap_memory():
    import resource

    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


def _capped_child(*args):
    """Run the interpreter on args, with this checkout's package, in a child
    capped at 1 GiB of address space."""
    paths = [str(Path(__file__).parents[1] / "src"), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env=env, preexec_fn=_cap_memory, timeout=60)


@pytest.mark.parametrize(
    "args",
    [
        ["--theorem", "12", "--k", "50", "--N", "100000"],
        ["--theorem", "17", "--k", "51", "--N", "1"],
        ["--theorem", "prop41", "--k", "2", "--N", "17"],
        ["--theorem", "13", "--k", "2", "--l", "400", "--N", "1"],
    ],
    ids=["words", "delta", "degree", "l"],
)
def test_verify_refuses_oversized_inputs_before_building_them(args):
    # in a child capped at 1 GiB, so a build that is not refused fails there
    res = _capped_child("-m", "ncprob.cli", "verify", *args)
    assert res.returncode == 2, res.stderr[-500:]
    assert "than 131072 entries" in res.stderr


def test_transform_refuses_a_huge_declared_k(tmp_path):
    # the 10^8 words of length 1 are counted, never listed: a child capped at
    # 1 GiB fails if they are
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"k": 100000000, "N": 1, "values": {"1": "1"}}))
    res = _capped_child("-m", "ncprob.cli", "transform", "--brand", "free",
                        "--direction", "to-cumulants", "--input", str(path))
    assert res.returncode == 2, res.stderr[-500:]
    assert "exactly once" in res.stderr


def test_constructor_refuses_a_huge_k_before_listing_words():
    # the same count guards the constructor called from Python: one value for
    # 10^8 words is refused in a child capped at 1 GiB, not listed out
    script = ("from ncprob import MultilinearFamily, ShapeMismatch\n"
              "try:\n    MultilinearFamily(10**8, 1, {(1,): 1})\n"
              "except ShapeMismatch:\n    raise SystemExit(3)\n")
    res = _capped_child("-c", script)
    assert res.returncode == 3, res.stderr[-500:]


def test_verify_failure_exit_code(runner, monkeypatch):
    # no identity in scope actually fails, so fake a counterexample to pin
    # down the exit-code contract
    import ncprob.selftest as st

    def fake(theorem, seed, k, big_n, l=1):
        return {
            "theorem": theorem,
            "seed": seed,
            "k": k,
            "N": big_n,
            "ok": False,
            "counterexample": [1, 2],
        }

    monkeypatch.setattr(st, "verify_report", fake)
    res = runner.invoke(main, ["verify", "--theorem", "14"])
    assert res.exit_code == 1
    assert json.loads(res.output)["counterexample"] == [1, 2]


def test_verify_deterministic_bytes(runner):
    args = ["verify", "--theorem", "prop41", "--seed", "9", "--k", "2", "--N", "4"]
    a = runner.invoke(main, args)
    b = runner.invoke(main, args)
    assert a.output == b.output


@pytest.mark.parametrize("text", ["{1,a}{2}", "{1,3}junk{2}"])
@pytest.mark.parametrize("verb", ["kreweras", "moebius"])
def test_malformed_partition_text_is_a_usage_error(runner, verb, text):
    res = runner.invoke(main, ["nc", verb, "--partition", text])
    assert res.exit_code == 2
    assert "cannot parse partition text" in res.output


@pytest.mark.parametrize(
    "content",
    [
        "{not json",
        "[1, 2]",
        '{"k": 1, "N": 1}',
        '{"k": 1, "N": 1, "values": {"1": "x/2"}}',
        '{"k": 1, "N": 1, "kind": "nope", "values": {"1": "1"}}',
        '{"k": 1, "N": 1, "values": {"1": "1", "7": "5"}}',
    ],
    ids=["syntax", "not-object", "no-values", "bad-rational", "unknown-kind",
         "extra-word"],
)
def test_malformed_family_json_is_a_usage_error(runner, tmp_path, content):
    path = tmp_path / "bad.json"
    path.write_text(content)
    res = runner.invoke(
        main, ["transform", "--brand", "free", "--direction", "to-cumulants",
               "--input", str(path)]
    )
    assert res.exit_code == 2


@pytest.mark.parametrize("value", ["1e400", "-1e400", "Infinity"])
def test_infinite_family_value_is_a_usage_error(runner, tmp_path, value):
    path = tmp_path / "bad.json"
    path.write_text('{"k": 1, "N": 1, "values": {"1": %s}}' % value)
    res = runner.invoke(
        main, ["transform", "--brand", "free", "--direction", "to-cumulants",
               "--input", str(path)]
    )
    assert res.exit_code == 2, res.output
    assert "malformed family data" in res.output
    assert res.exception is None or isinstance(res.exception, SystemExit)
    assert "Traceback" not in res.output


@pytest.mark.parametrize("command", [
    ["transform", "--brand", "free", "--direction", "to-cumulants"],
    ["convolve", "--kind", "free"],
    ["product", "--kind", "free"],
    ["psi"],
], ids=["transform", "convolve", "product", "psi"])
def test_value_too_long_to_write_is_a_usage_error(runner, tmp_path, command):
    # "1e4000" reads within the interpreter's int-to-str limit, but every
    # command squares it at degree 2, and 8,001 digits cannot be written out
    path = tmp_path / "huge.json"
    path.write_text('{"k": 1, "N": 2, "values": {"1": "1e4000", "1,1": "2"}}')
    inputs = ["--input", str(path)] * (2 if command[0] in ("convolve", "product") else 1)
    res = runner.invoke(main, command + inputs)
    assert res.exit_code == 2, res.output
    assert "Error: a value has too many digits to write out" in res.output
    assert res.exception is None or isinstance(res.exception, SystemExit)
    assert "Traceback" not in res.output


def test_malformed_tensor_json_is_a_usage_error(runner, tmp_path):
    nu = write_family(tmp_path, "nu.json", random_family(1, 3, seed=36))
    delta = tmp_path / "delta.json"
    delta.write_text('{"k": 1}')
    res = runner.invoke(main, ["psi", "--input", nu, "--delta", str(delta)])
    assert res.exit_code == 2


# ---------------------------------------------------------------------------
# verification reports
# ---------------------------------------------------------------------------

# (target, k, N asked, N checked): every `TARGETS` row, clipped or not
DEGREES_CHECKED = [
    ("12", 1, 8, 8),
    ("13", 1, 8, 8),
    ("14", 1, 9, 9),
    ("17", 1, 9, 9),
    ("prop54", 1, 9, 8),
    ("eq5a", 1, 9, 8),
    ("eq55a", 1, 9, 8),
    ("lemma210", 2, 12, 11),
    ("lemma67", 1, 1, 2),
    ("prop41", 1, 6, 6),
]


def test_every_target_has_its_degree_checked():
    assert {row[0] for row in DEGREES_CHECKED} == set(TARGETS)


@pytest.mark.parametrize("theorem,k,asked,checked", DEGREES_CHECKED)
def test_verify_report_states_the_degree_checked(theorem, k, asked, checked):
    from ncprob.selftest import verify_report

    report = verify_report(theorem, 3, k, asked)
    assert report["ok"] is True
    assert report["N"] == checked


@pytest.mark.parametrize("theorem", ["prop54", "eq5a", "eq55a"])
def test_verify_sizes_the_input_on_the_clipped_degree(runner, theorem):
    # at k = 2, N = 16 would need more than 2^17 entries, but N = 8 is checked
    res = runner.invoke(main, ["verify", "--theorem", theorem, "--N", "16"])
    assert res.exit_code == 0, res.output
    assert json.loads(res.output)["N"] == 8


def test_verify_clips_lemma210_at_eleven(runner):
    res = runner.invoke(main, ["verify", "--theorem", "lemma210", "--N", "16"])
    assert res.exit_code == 0, res.output
    assert json.loads(res.output)["N"] == 11


# (target, k, l, the largest N admitted, 0 for none and None for every N):
# each row is sized on what it draws, the words its families reach, N + 1
# for the theorem rows and lemma67 and N for prop41, and the k^3 tensor of
# 17 and lemma67; lemma210 draws nothing
SIZE_EDGES = [
    ("12", 2, 1, 15),
    ("12", 51, 1, 1),
    ("13", 2, 1, 9),
    ("13", 2, 359, 1),
    ("14", 2, 1, 15),
    ("14", 20, 1, 2),
    ("17", 2, 1, 15),
    ("17", 51, 1, 0),
    ("lemma67", 2, 1, 15),
    ("lemma67", 3, 1, 9),
    ("lemma67", 51, 1, 0),
    ("prop41", 2, 1, 16),
    ("prop41", 51, 1, 2),
    ("lemma210", 6, 1, None),
]


@pytest.mark.parametrize("theorem,k,l,largest", SIZE_EDGES)
def test_verify_sizes_each_row_on_the_words_its_inputs_reach(theorem, k, l, largest):
    from ncprob.selftest import VERIFY_INPUT_LIMIT, _input_size

    def admitted(n, l=l):
        return _input_size(theorem, k, n, l) <= VERIFY_INPUT_LIMIT

    if largest is None:
        assert admitted(10 ** 6)
    elif theorem == "13" and largest == 1:
        assert admitted(1) and not admitted(1, l + 1)
    else:
        assert (largest == 0 or admitted(largest)) and not admitted(largest + 1)


@pytest.mark.parametrize("theorem,k,N", [("prop41", 51, 1), ("12", 51, 1), ("lemma210", 6, 7)])
def test_verify_admits_what_its_row_does_not_draw(runner, theorem, k, N):
    # no k^3 tensor outside 17 and lemma67, and no words for lemma210; the
    # refusal of 17 at k = 51 is pinned above
    res = runner.invoke(main, ["verify", "--theorem", theorem, "--k", str(k), "--N", str(N)])
    assert res.exit_code == 0, res.output
    assert json.loads(res.output)["ok"] is True


def test_verify_admits_many_letters_at_low_degree(runner):
    # 20 letters at N = 1 build 420 words of length up to 2
    res = runner.invoke(main, ["verify", "--theorem", "14", "--k", "20", "--N", "1"])
    assert res.exit_code == 0, res.output
    assert json.loads(res.output)["ok"] is True


def test_lemma210_reports_the_first_counterexample(monkeypatch):
    import ncprob.selftest as st

    real_cut = st._cut
    broken = {(((1, 4), (2, 3)), 2), (((1, 5), (2, 3, 4)), 3)}

    def cut(blocks, idx, x):
        # an unsplit partition never matches attach: the duality fails here
        return blocks if (blocks, x) in broken else real_cut(blocks, idx, x)

    monkeypatch.setattr(st, "_cut", cut)
    report = st.verify_report("lemma210", 0, 2, 5)
    assert report["ok"] is False
    assert report["counterexample"] == "n=4, partition {1,4}{2,3}, i=2"


def test_lemma210_builds_no_partition_object(monkeypatch):
    import ncprob.nc as nc
    from ncprob.selftest import verify_report

    def fill(*args):
        raise AssertionError("a partition object was built")

    nc._nc_objects.cache_clear()
    monkeypatch.setattr(nc.NcPartition, "_fill", fill)
    assert verify_report("lemma210", 0, 2, 7)["ok"] is True


def test_lemma67_builds_no_partition_object(monkeypatch):
    import ncprob.nc as nc
    from ncprob.selftest import verify_report

    def fill(*args):
        raise AssertionError("a partition object was built")

    nc._nc_objects.cache_clear()
    monkeypatch.setattr(nc.NcPartition, "_fill", fill)
    assert verify_report("lemma67", 0, 2, 7)["ok"] is True


@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("N", [12, 15])
def test_lemma67_refuses_a_degree_above_the_enumeration_limit_before_any_case(monkeypatch, k, N):
    import ncprob.selftest as st
    from ncprob.errors import LimitExceeded

    def rows(*case):
        raise AssertionError("a gamma-eta case was visited")

    monkeypatch.setattr(st, "_gamma_eta_rows", rows)
    with pytest.raises(LimitExceeded, match=rf"^n={N + 1} above enumeration limit 12$"):
        st.verify_report("lemma67", 0, k, N)


def test_lemma67_reports_the_first_counterexample(monkeypatch):
    # cases (1, 1), (2, 1) and (3, 2) are left open, and every open case but
    # (1, 1) sums to nonzero; the report names the first of those
    import ncprob.selftest as st

    def rows(n, m, blocks, verdicts):
        return (n, m) if (n, m) in {(1, 1), (2, 1), (3, 2)} else None

    monkeypatch.setattr(st, "_gamma_eta_rows", rows)
    monkeypatch.setattr(
        st, "_gamma_eta_sum", lambda tables, k, n, sides: None if sides == (1, 1) else sides)
    report = st.verify_report("lemma67", 0, 2, 4)
    assert report["ok"] is False
    assert report["counterexample"] == [2, 1]


def test_selftest_reports_a_failing_criterion_and_exits_1(runner, monkeypatch):
    # fault the oracle of criterion 3 at n=3; every other line stays golden
    import ncprob.selftest as st

    real = st.moebius_oracle
    monkeypatch.setattr(st, "moebius_oracle", lambda p, q: real(p, q) + (p.n == 3))
    res = runner.invoke(main, ["selftest", "--seed", "0"])
    assert res.exit_code == 1
    golden = (Path(__file__).parent / "golden" / "selftest_seed0.txt").read_text().splitlines()
    lines = res.output.splitlines()
    assert lines[2] == ("[ 3] FAIL moebius closed form vs zeta inversion: "
                        "closed form != zeta inversion at n=3, {1}{2}{3}")
    assert lines[-1] == "selftest: FAILURES present"
    assert lines[:2] + lines[3:-1] == golden[:2] + golden[3:-1]
