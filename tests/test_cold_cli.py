"""What a fresh `ncprob` process loads and prints before any work.

The package resolves its public names on first use and each CLI command
imports only the layers it needs.  These checks run each command in a child
process and read its `sys.modules` afterwards, check that every name the
package exports still resolves to its home module's object, and pin the
bytes of the help and usage-error screens, whose choices are read lazily.
The largest enumerations stream their output: they stay within a memory
bound and end with exit code 0 when the reader closes the pipe early.
Running this file as a script rewrites the help golden file from the
current code; run it only on a commit whose outputs are the reference.
"""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import ncprob
from ncprob.families import random_family

GOLDEN = Path(__file__).parent / "golden" / "cli_help.json"
SRC = str(Path(ncprob.__file__).resolve().parents[1])

_MAIN = "from ncprob.cli import main; main(prog_name='ncprob')"
# prints the loaded ncprob modules as the last stderr line, after the exit
_PROBE = (
    "import atexit, sys; atexit.register(lambda: print(*sorted(m for m in "
    "sys.modules if m.startswith('ncprob')), file=sys.stderr)); " + _MAIN
)

HEAVY = {"ncprob.cumulants", "ncprob.families", "ncprob.deltastar", "ncprob.products",
         "ncprob.selftest"}

# Golden key -> argv; the key is the argv joined by spaces.
HELP_COMMANDS = (
    ["--help"],
    ["verify", "--help"],
    ["typeb", "enumerate", "--help"],
    ["verify", "--theorem", "99"],
    ["verify"],
    ["typeb", "enumerate", "--n", "2", "--flavor", "C"],
    ["typeb", "enumerate", "--n", "9"],
    ["nc", "enumerate", "--n", "13"],
    ["nc", "enumerate", "--n", "0"],
)

# Every name `from ncprob import *` bound when the package imported all
# of its layers eagerly.
EXPORTS = """
    BlockRole DegreeMismatch DegreeTooLow DeltaTensor DimMismatch EmptySubset Flavor
    InvalidFamily InvalidPartition IsBlockMax LimitExceeded MultilinearFamily
    NcPartition NcprobError NotComparable NotInner NotLLOne NotOuter NotTracial
    PositionOutOfRange ShapeMismatch SignedNcPartition SizeMismatch abs_partition
    all_words attach block_roles boolean_cumulants boxplus boxplus_b boxplus_c
    build_family catalan cc_cumulants cfree_cumulants cfree_explicit cfree_product
    convolution_intertwine_counterexample cumulant_transform_counterexample cumulants
    cut cyclic_cumulant_counterexample delta_star deltastar diagonal_delta
    enumerate_ll_below enumerate_nc enumerate_signed eq_bopp_counterexample
    eq_typeb_counterexample errors eval_eta eval_gamma f_nm f_nm_inverse families
    free_cumulants free_product from_pair gamma_eta_counterexample
    infinitesimal_cumulants infinitesimal_moments infinitesimal_product
    interval_partitions is_interval is_noncrossing is_tracial kreweras leq ll ll_one
    moebius_oracle moebius_to_one moments_from_boolean moments_from_cc
    moments_from_cfree moments_from_free nc one_partition outer_blocks parent_block
    product_intertwine_counterexample products psi_delta psi_k random_delta
    random_family random_tracial relabel restrict signed_count sqsubseteq to_pair
    truncate typeb words_of_length zero_blocks zero_family zero_partition
""".split()


# runs the command in argv and prints its peak RSS in KiB; the wrapper, not
# pytest, forks the command, whose peak starts from the RSS at the fork
_PEAK = (
    "import resource, subprocess, sys; subprocess.run(sys.argv[1:], check=True, "
    "stdout=subprocess.DEVNULL); print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)"
)

STREAMED = (
    ["nc", "enumerate", "--n", "12"],
    ["nc", "enumerate", "--n", "12", "--json"],
    ["typeb", "enumerate", "--n", "8"],
    ["typeb", "enumerate", "--n", "8", "--flavor", "B-opp", "--json"],
)


def _env() -> dict:
    return dict(os.environ, COLUMNS="80",
                PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))


def _run(code: str, argv) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "-c", code, *argv], capture_output=True,
                          text=True, env=_env(), timeout=120)


def _screen(argv) -> dict:
    res = _run(_MAIN, argv)
    return {"stdout": res.stdout, "stderr": res.stderr, "exit": res.returncode}


@pytest.fixture(scope="module")
def family_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("cold") / "moments.json"
    path.write_text(json.dumps(random_family(2, 3, seed=1).to_json_dict()))
    return str(path)


@pytest.mark.parametrize(
    "argv, needs, absent",
    [
        (["nc", "kreweras", "--partition", "{1,3}{2}"], {"ncprob.nc"}, HEAVY | {"ncprob.typeb"}),
        (["nc", "enumerate", "--n", "4"], {"ncprob.nc"}, HEAVY | {"ncprob.typeb"}),
        (["nc", "enumerate", "--n", "3", "--json"], {"ncprob.nc"}, HEAVY | {"ncprob.typeb"}),
        (["typeb", "enumerate", "--n", "3"], {"ncprob.typeb"}, HEAVY),
        (["typeb", "enumerate", "--n", "3", "--flavor", "B-opp", "--json"],
         {"ncprob.typeb"}, HEAVY),
        (["transform", "--brand", "free", "--direction", "to-cumulants", "--input", None],
         {"ncprob.cumulants", "ncprob.families"},
         {"ncprob.deltastar", "ncprob.products", "ncprob.selftest"}),
        (["verify", "--theorem", "14"], HEAVY, set()),
    ],
    ids=["kreweras", "nc-enumerate", "nc-enumerate-json", "typeb-enumerate",
         "typeb-enumerate-json", "transform", "verify"],
)
def test_a_cold_command_loads_only_its_own_layers(argv, needs, absent, family_file):
    argv = [family_file if a is None else a for a in argv]
    res = _run(_PROBE, argv)
    assert res.returncode == 0, res.stderr
    loaded = set(res.stderr.splitlines()[-1].split())
    assert needs <= loaded
    assert not loaded & absent, sorted(loaded & absent)


@pytest.mark.parametrize("argv", STREAMED, ids=" ".join)
def test_a_reader_that_closes_the_pipe_early_ends_the_command_cleanly(argv):
    # each listing is far larger than a pipe buffers, so writes meet the
    # closed pipe after the reader has taken its first line
    proc = subprocess.Popen([sys.executable, "-c", _MAIN, *argv], stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, env=_env())
    assert proc.stdout.readline()
    proc.stdout.close()
    _, err = proc.communicate(timeout=120)
    assert (proc.returncode, err) == (0, b"")


@pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss is in KiB on Linux")
@pytest.mark.parametrize("argv", STREAMED[:2], ids=" ".join)
def test_the_largest_nc_listing_streams_in_bounded_memory(argv):
    res = _run(_PEAK, [sys.executable, "-c", _MAIN, *argv])
    assert res.returncode == 0, res.stderr
    assert int(res.stdout) < 64 * 1024  # KiB


@pytest.mark.parametrize("value", ["1e9999999", "1e999999999", "-1E+999999999", "1.5e-99999999"])
def test_a_value_with_a_huge_exponent_is_refused_cold_in_bounded_time(tmp_path, value):
    # Fraction would raise 10 to the exponent: seconds for 1e9999999, minutes for 1e999999999
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"k": 1, "N": 1, "values": {"1": value}}))
    argv = ["transform", "--brand", "free", "--direction", "to-cumulants", "--input", str(path)]
    for _ in range(3):  # the least of up to three cold runs, as a shared host can stall one
        start = time.perf_counter()
        res = _run(_MAIN, argv)
        wall = time.perf_counter() - start
        if wall < 0.3:
            break
    assert res.returncode == 2, res.stderr
    assert res.stderr.endswith("Error: a value has too many digits to read in\n")
    assert wall < 0.3


def test_every_exported_name_resolves_to_its_home_object():
    star: dict = {}
    exec("from ncprob import *", star)
    star.pop("__builtins__")
    assert sorted(star) == sorted(EXPORTS) == sorted(ncprob.__all__)
    listed = dir(ncprob)
    for name in EXPORTS:
        obj = getattr(ncprob, name)
        assert star[name] is obj and name in listed
        if isinstance(obj, type(ncprob)):
            assert obj is sys.modules[f"ncprob.{name}"]
        else:
            assert getattr(sys.modules[obj.__module__], name) is obj, name


@pytest.mark.parametrize("name", [
    "nope", "_enumerate_b", "enumerate",
    # the boolean wrappers of the five counterexample checks, removed
    "verify_theorem_delta", "verify_theorem_cyclic", "verify_gamma_eta",
    "verify_product_intertwine", "verify_convolution_intertwine",
])
def test_unknown_names_raise_attribute_error(name):
    assert name not in dir(ncprob)
    with pytest.raises(AttributeError, match=f"no attribute '{name}'"):
        getattr(ncprob, name)


def test_package_names_follow_the_home_binding(monkeypatch):
    # nothing is copied into the package, so a rebinding in the home module,
    # and its undoing, is what the package name returns
    import ncprob.cumulants as cu

    original = cu.free_cumulants
    monkeypatch.setattr(cu, "free_cumulants", len)
    assert ncprob.free_cumulants is len
    monkeypatch.undo()
    assert ncprob.free_cumulants is original
    assert "free_cumulants" not in vars(ncprob)


def test_a_fresh_package_import_loads_no_layer():
    res = subprocess.run(
        [sys.executable, "-c", "import sys, ncprob; print(*sorted(m for m in sys.modules "
         "if m.startswith('ncprob')))"],
        capture_output=True, text=True, timeout=60,
        env=dict(os.environ, PYTHONPATH=SRC),
    )
    assert res.stdout.split() == ["ncprob"], res.stderr


@pytest.mark.parametrize("argv", HELP_COMMANDS, ids=" ".join)
def test_help_and_usage_screens_match_the_golden_bytes(argv):
    golden = json.loads(GOLDEN.read_text())
    assert sorted(golden) == sorted(" ".join(a) for a in HELP_COMMANDS)
    assert _screen(argv) == golden[" ".join(argv)]


if __name__ == "__main__":
    table = {" ".join(argv): _screen(argv) for argv in HELP_COMMANDS}
    GOLDEN.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
