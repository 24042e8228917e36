"""Self-tests of the benchmark harness.

    python3 -m pytest -q perfbench/test_harness.py
"""

import json
import os
import shutil
import sys
from fractions import Fraction

import pytest

import harness
import run
import tracer
import workloads

P = workloads.import_ncprob()


def _benchmark_json():
    with open(os.path.join(harness.ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


@pytest.mark.parametrize("name", ["setup_s", "op_p50_s", "nc._nc_range.hits",
                                  "typeb.enumerate_signed_cold_s.B_OPP",
                                  "selftest.verify_report_s.lemma67", "9-a.b_c"])
def test_metric_names_accepted(name):
    assert harness.valid_metric_name(name)


@pytest.mark.parametrize("name", ["", "_x", ".x", "a b", "a/b", "a:b", "x" * 65,
                                  "é"])
def test_metric_names_refused(name):
    assert not harness.valid_metric_name(name)


def test_benchmark_json_matches_the_metrics_printed():
    doc = _benchmark_json()
    assert [m["name"] for m in doc["end_to_end"]] == list(run.END_TO_END)
    assert {m["name"] for m in doc["per_layer"]} == set(tracer.per_layer({}))
    for m in doc["end_to_end"] + doc["per_layer"]:
        assert harness.valid_metric_name(m["name"]), m["name"]
    assert [w["name"] for w in doc["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("n, rank, percentile", [
    (11, 0, 100 / 11), (20, 9, 50.0), (37, 26, 100 * 27 / 37),
    (40, 29, 75.0), (100, 89, 90.0), (1000, 989, 99.0)])
def test_tail_rule_leaves_ten_samples_beyond(n, rank, percentile):
    samples = [float(i) for i in range(n)]
    value, pct, count = harness.tail_latency(list(reversed(samples)))
    assert harness.tail_rank(n) == rank
    assert value == samples[rank]
    assert sum(1 for x in samples if x > value) == 10
    assert pct == pytest.approx(percentile)
    assert count == n


@pytest.mark.parametrize("n", [0, 5, 10])
def test_tail_rule_needs_more_than_ten_samples(n):
    assert harness.tail_rank(n) is None
    with pytest.raises(ValueError):
        harness.tail_latency([1.0] * n)


def test_one_changed_rational_trips_the_digest_check():
    phi = P.random_family(2, 3, seed=5)
    values = phi.values
    word = (2, 1, 2)
    values[word] += Fraction(1, 10**12)
    changed = P.MultilinearFamily(2, 3, values)
    stored = harness.family_digest(phi)
    assert harness.family_digest(P.random_family(2, 3, seed=5)) == stored
    log = harness.OpLog({"op": stored})
    log.record("op", 0.1, harness.family_digest(phi), None)
    log.record("op", 0.1, harness.family_digest(changed), None)
    assert (log.attempted, log.failed, log.mismatched) == (2, 1, 1)


def test_report_digest_ignores_keys_added_later():
    report = P.selftest.verify_report("14", 3, 2, 2)
    assert harness.report_digest(dict(report, words_checked=6)) == harness.report_digest(report)
    assert harness.report_digest(dict(report, ok=False)) != harness.report_digest(report)


def test_fail_ratio_counts_exceptions_ok_false_and_exit_codes():
    log = harness.OpLog({})

    def boom():
        raise P.NcprobError("bad input")

    for op_run in (
        workloads._call_op(boom),
        workloads._call_op(lambda: {"ok": False}, workloads._verify_check),
        workloads.ChildRuns().op("exit2", ["nc", "enumerate", "--n", "0"]).run,
        workloads._call_op(lambda: {"ok": True}, workloads._verify_check),
    ):
        latency, out, error = op_run(False)
        log.record("unstored", latency, None if error else repr(out), error)
    assert (log.attempted, log.failed, log.unchecked) == (4, 3, 1)
    assert "exit 2" in log.errors[2]


def test_random_nc_text_is_noncrossing_and_seeded():
    import random
    texts = [workloads.random_nc_text(random.Random(s), 12) for s in range(20)]
    for text in texts:
        assert len(P.NcPartition.from_text(text).blocks) >= 1
    assert texts == [workloads.random_nc_text(random.Random(s), 12) for s in range(20)]


def test_tracer_installs_everywhere_and_computes_self_time():
    tr = tracer.Tracer()
    tr.install()
    try:
        assert P.cumulants.free_cumulants is P.free_cumulants
        assert P.products.free_cumulants is P.free_cumulants
        assert hasattr(P.selftest.verify_report, "__wrapped_by_perfbench__")
        tr.phase = "op"
        tr.begin_op()
        phi, chi = P.random_family(2, 3, seed=1), P.random_family(2, 3, seed=2)
        P.cfree_cumulants(phi, chi)
        P.free_cumulants(phi)
    finally:
        tr.uninstall()
    assert not hasattr(P.free_cumulants, "__wrapped_by_perfbench__")
    raw = tr.summary()
    metrics = tracer.per_layer(raw)
    assert metrics["cumulants.free_cumulants_redundant_ratio"][0] == 0.5
    assert metrics["cumulants.words_out"][0] == 3 * 14
    outer = next(s for s in tr.spans if s[0] == "cumulants.cfree_cumulants")
    children = [s for s in tr.spans if s[3] == tr.spans.index(outer)]
    assert "cumulants.free_cumulants" in [s[0] for s in children]
    own = raw["self_op.cumulants.cfree_cumulants"]
    assert own == pytest.approx(
        (outer[2] - outer[1]) - sum(s[2] - s[1] for s in children))


def test_no_ncprob_package_means_no_result():
    """In a directory holding only the benchmark, it exits non-zero and
    prints no result."""
    bare = os.path.join(harness.ROOT, ".perfbench_selftest")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(os.path.join(bare, "perfbench"))
    try:
        shutil.copy(os.path.join(harness.ROOT, "BENCHMARK.json"), bare)
        for name in os.listdir(harness.BENCH_DIR):
            if name.endswith((".py", ".json")):
                shutil.copy(os.path.join(harness.BENCH_DIR, name),
                            os.path.join(bare, "perfbench"))
        code, out, _ = harness.run_child(
            [sys.executable, os.path.join("perfbench", "run.py"), "--workload",
             "cold-cli", "--seed", "1", "--seconds", "1", "--trace", "0"], cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert code != 0
    assert b"correct" not in out


def test_normalize_scales_each_op_by_the_reference_around_it():
    ref = harness.REF_S
    # The host runs at full speed for two ops, then at half speed.
    refs = [ref, ref, ref, 2 * ref, 2 * ref, 2 * ref]
    latencies = [0.1, 0.1, 0.15, 0.2, 0.2]
    out = harness.normalize(latencies, refs)
    assert out[:2] == pytest.approx([0.1, 0.1])
    assert out[3:] == pytest.approx([0.1, 0.1])
    with pytest.raises(ValueError):
        harness.normalize(latencies, refs[:-1])
