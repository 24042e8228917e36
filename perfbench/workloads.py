"""The three workloads: how each builds its inputs from the seed, warms up,
and what one op does.

Every workload is a fixed schedule of whole cycles.  A cycle holds one op per
slot; `--seconds` fixes the number of cycles through the cycle's duration at
the baseline commit, so each run does the same amount of work on every
commit.  Each slot draws its inputs from a pool of POOL seeded inputs whose
outputs at the baseline commit are stored as digests in digests.json.
"""

import json
import os
import random
import sys
import zlib
from dataclasses import dataclass, field
from time import perf_counter

import harness

POOL = 16

TRANSFORMS = (
    "free_cumulants", "moments_from_free", "boolean_cumulants",
    "moments_from_boolean", "cfree_cumulants", "moments_from_cfree",
    "cfree_explicit", "cc_cumulants", "moments_from_cc",
    "infinitesimal_cumulants", "infinitesimal_moments", "psi_k", "delta_star",
)
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
SIGNED = ("cc_cumulants", "moments_from_cc")
CC_MAX_N = 6
SIGNED_MAX_N = 8  # the package's default signed enumeration limit
SHAPES = (("deep", 1, 9), ("core", 2, 6), ("wide", 3, 5))
# The max_degree_k2 probe runs the transforms most expensive first, so that
# it stops at the first one over its limit as early as possible.
PROBE_ORDER = (
    "cc_cumulants", "moments_from_cc", "infinitesimal_moments",
    "infinitesimal_cumulants", "moments_from_cfree", "cfree_cumulants",
    "psi_k", "moments_from_free", "free_cumulants", "cfree_explicit",
    "moments_from_boolean", "boolean_cumulants", "delta_star",
)
PROBE_LIMIT_S = 1.0
PROBE_MAX_N = 12
PROBE_SEED = 424242

TARGETS = ("12", "13", "14", "17", "lemma210", "lemma67", "prop41", "prop54",
           "eq5a", "eq55a")
VERIFY_FRESH = tuple((t, 4) for t in TARGETS) + tuple(
    (t, 5) for t in TARGETS if t != "13")
# About one op in four re-runs an earlier (target, seed, N).  lemma67 is
# among them because its repeat meets deltastar's family-keyed cache.  It
# runs at N=4: at N=5 that repeat takes 5 to 8 s depending on the seed's
# tensor, a quarter of a run, and its spread swamped every other op.  The
# choice puts the median and the tail rank of a three-cycle run inside groups
# of ops of equal cost (prop54 at N=5 and 13 at N=4), not between groups.
VERIFY_REPEATS = (("12", 4), ("13", 4), ("lemma67", 4), ("12", 5), ("14", 5),
                  ("prop54", 5))


def slot_seed(slot: str, idx: int) -> int:
    return zlib.crc32(f"{slot}#{idx}".encode())


def pool_index(seed: int, cycles: int, cycle: int) -> int:
    return (seed * cycles + cycle) % POOL


def import_ncprob():
    """Import the package from the working tree, dropping any earlier copy so
    every lattice cache starts empty."""
    for name in [m for m in sys.modules if m == "ncprob" or m.startswith("ncprob.")]:
        del sys.modules[name]
    if harness.SRC_DIR not in sys.path:
        sys.path.insert(0, harness.SRC_DIR)
    import ncprob
    import ncprob.selftest  # noqa: F401
    return ncprob


def make_inputs(P, name: str, k: int, N: int, seed: int) -> tuple:
    out = []
    for i, kind in enumerate(INPUT_KINDS[name]):
        if kind == "delta":
            out.append(P.random_delta(k, seed=seed + i))
        else:
            out.append(P.random_family(k, N, seed=seed + i, kind=kind))
    return tuple(out)


def inputs_key(name: str, inputs) -> tuple:
    """Content of an op's inputs, to find inputs that repeat."""
    return (name,) + tuple(
        tuple(x.values.items()) if hasattr(x, "values")
        else tuple(x.expand(i) for i in range(1, x.k + 1))
        for x in inputs)


def warm_lattices(P, N: int, signed_n: int) -> None:
    """Build the lattice tables the transforms need for words up to length N,
    through the public API: enumerations first, then one call per table on
    a single-generator family."""
    for n in range(1, N + 1):
        P.enumerate_nc(n)
    for n in range(1, signed_n + 1):
        P.enumerate_signed(n, P.Flavor.B)
        P.enumerate_signed(n, P.Flavor.B_OPP)
    phi = P.random_family(1, N, seed=0)
    P.free_cumulants(phi)
    P.boolean_cumulants(phi)
    P.cfree_cumulants(phi, phi)
    P.cfree_explicit(phi, phi)
    if signed_n:
        P.cc_cumulants(P.truncate(phi, signed_n), P.truncate(phi, signed_n))


@dataclass
class Op:
    """One scheduled op: `key` names its stored digest."""
    key: str
    run: object  # (traced: bool) -> (latency_s, output, error | None)
    digest: object  # output -> digest of its canonical bytes
    repeat_key: tuple = ()


@dataclass
class State:
    P: object
    cycles: list = field(default_factory=list)  # list of lists of Op
    profile: list = field(default_factory=list)  # callables for fractions.share
    children: bool = False  # ops run in child processes


def _call_op(call, check=None):
    def run(traced: bool):
        t0 = perf_counter()
        try:
            out = call()
        except Exception as exc:  # an op that raises is a failed op
            return perf_counter() - t0, None, f"{type(exc).__name__}: {exc}"
        latency = perf_counter() - t0
        return latency, out, check(out) if check else None
    return run


def _digest_out(out):
    return harness.family_digest(*(out if isinstance(out, tuple) else (out,)))


# ---------------------------------------------------------------------------
# transform-sweep
# ---------------------------------------------------------------------------

def transform_slots():
    for shape, k, N in SHAPES:
        for name in TRANSFORMS:
            if name in SIGNED and N > CC_MAX_N:
                continue
            yield f"{shape}.{name}", name, k, N


def setup_transform_sweep(P, seed: int, cycles: int) -> State:
    state = State(P)
    for c in range(cycles):
        idx = pool_index(seed, cycles, c)
        ops = []
        for slot, name, k, N in transform_slots():
            inputs = make_inputs(P, name, k, N, slot_seed(slot, idx))
            call = lambda name=name, a=inputs: getattr(P, name)(*a)  # noqa: E731
            ops.append(Op(f"{slot}#{idx}", _call_op(call), _digest_out,
                          inputs_key(name, inputs)))
        random.Random(f"transform-sweep/{seed}/{c}").shuffle(ops)
        state.cycles.append(ops)
    for shape, k, N in SHAPES:
        warm_lattices(P, N, min(N, CC_MAX_N))
        inputs = make_inputs(P, "cfree_cumulants", k, N, slot_seed(f"profile.{shape}", seed))
        state.profile.append(lambda a=inputs: P.cfree_cumulants(*a))
    return state


# ---------------------------------------------------------------------------
# verify-grid
# ---------------------------------------------------------------------------

def _verify_check(report):
    return None if report.get("ok") is True else f"ok: {report.get('ok')!r}"


def verify_op(P, target: str, vseed: int, N: int) -> Op:
    call = lambda: P.selftest.verify_report(target, vseed, 2, N)  # noqa: E731
    return Op(f"{target}@{N}#{vseed}", _call_op(call, _verify_check),
              harness.report_digest, (target, vseed, N))


def setup_verify_grid(P, seed: int, cycles: int) -> State:
    state = State(P)
    for c in range(cycles):
        idx = pool_index(seed, cycles, c)
        rng = random.Random(f"verify-grid/{seed}/{c}")
        fresh = [verify_op(P, t, idx, N) for t, N in VERIFY_FRESH]
        rng.shuffle(fresh)
        repeats = [verify_op(P, t, idx, N) for t, N in VERIFY_REPEATS]
        rng.shuffle(repeats)
        state.cycles.append(fresh + repeats)
    warm_lattices(P, 7, 5)
    for N in (4, 5):
        state.profile.append(lambda N=N: P.selftest.verify_report("17", seed, 2, N))
    return state


# ---------------------------------------------------------------------------
# cold-cli
# ---------------------------------------------------------------------------

def random_nc_text(rng: random.Random, n: int) -> str:
    """A seeded non-crossing partition of 1..n in text form: the block of the
    smallest element is a random subset, the gaps it leaves recurse."""
    blocks = []

    def fill(lo, hi):
        if lo >= hi:
            return
        block = [lo] + [x for x in range(lo + 1, hi) if rng.random() < 0.3]
        blocks.append(block)
        for a, b in zip(block, block[1:] + [hi]):
            fill(a + 1, b)

    fill(1, n + 1)
    return "".join("{" + ",".join(map(str, b)) + "}" for b in sorted(blocks))


FIXED_CLI = (
    ("enum11", ["nc", "enumerate", "--n", "11"]),
    ("enum10", ["nc", "enumerate", "--n", "10"]),
    ("typeb7.B", ["typeb", "enumerate", "--n", "7", "--flavor", "B"]),
    ("typeb7.B_OPP", ["typeb", "enumerate", "--n", "7", "--flavor", "B-opp"]),
)
TRACE_CHILD = os.path.join(harness.BENCH_DIR, "trace_child.py")


def cli_argv(args, traced: bool, summary_path: str) -> list:
    if traced:
        return [sys.executable, TRACE_CHILD, summary_path] + list(args)
    return [sys.executable, "-m", "ncprob.cli"] + list(args)


class ChildRuns:
    """Runs CLI child processes and, when traced, collects their summaries."""

    def __init__(self):
        self.raw: dict = {}
        self.count = 0

    def op(self, key: str, args) -> Op:
        def run(traced: bool):
            summary = os.path.join(harness.WORK_DIR, f"child-{self.count}.json")
            self.count += 1
            t0 = perf_counter()
            code, out, err = harness.run_child(cli_argv(args, traced, summary),
                                               env=harness.cli_env())
            latency = perf_counter() - t0
            if traced and os.path.exists(summary):
                with open(summary) as fh:
                    part = json.load(fh)
                os.remove(summary)
                import tracer
                tracer.merge(self.raw, part)
                tracer.merge(self.raw, {"cli.process_sum": latency, "cli.children": 1})
            error = None if code == 0 else f"exit {code}: {err.strip()[-200:]}"
            return latency, out, error
        return Op(key, run, harness.digest_bytes, (key,))


def setup_cold_cli(P, seed: int, cycles: int, children: ChildRuns) -> State:
    state = State(P, children=True)
    os.makedirs(harness.WORK_DIR, exist_ok=True)
    for c in range(cycles):
        idx = pool_index(seed, cycles, c)
        ops = [children.op(f"{slot}#0", args) for slot, args in FIXED_CLI]
        rng = random.Random(slot_seed("kreweras", idx))
        # Five cheap ops below the cfree transforms put the median of a
        # four-cycle run inside the group of eight cfree ops.
        for slot in ("kreweras.a", "kreweras.b", "kreweras.c", "kreweras.d", "kreweras.e"):
            ops.append(children.op(f"{slot}#{idx}", [
                "nc", "kreweras", "--partition", random_nc_text(rng, 12)]))
        ops.append(children.op(f"verify14#{idx}", [
            "verify", "--theorem", "14", "--N", "4", "--seed", str(idx)]))
        ops.append(children.op(f"verify55a#{idx}", [
            "verify", "--theorem", "eq55a", "--N", "5", "--seed", str(idx)]))
        files = {}
        for role, kind in (("phi", "moment"), ("chi", "moment"), ("kc", "cfree-cumulant")):
            fam = P.random_family(2, 5, seed=slot_seed(f"cli.{role}", idx), kind=kind)
            files[role] = os.path.join(harness.WORK_DIR, f"{role}-{c}.json")
            with open(files[role], "w") as fh:
                json.dump(fam.to_json_dict(), fh)
        for slot, direction, second in (("cfree.to", "to-cumulants", "chi"),
                                        ("cfree.from", "to-moments", "kc")):
            ops.append(children.op(f"{slot}#{idx}", [
                "transform", "--brand", "cfree", "--direction", direction,
                "--input", files["phi"], "--input", files[second]]))
        random.Random(f"cold-cli/{seed}/{c}").shuffle(ops)
        state.cycles.append(ops)
    phi, chi = make_inputs(P, "cfree_cumulants", 2, 5, slot_seed("profile.cli", seed))
    state.profile.append(lambda: P.cfree_cumulants(phi, chi))
    return state


# name -> (setup, baseline cycle duration in seconds)
WORKLOADS = {
    "transform-sweep": (setup_transform_sweep, 12.5),
    "verify-grid": (setup_verify_grid, 10.0),
    "cold-cli": (setup_cold_cli, 7.5),
}


def repeat_share(state: State) -> float:
    seen = set()
    repeats = total = 0
    for ops in state.cycles:
        for op in ops:
            total += 1
            repeats += op.repeat_key in seen
            seen.add(op.repeat_key)
    return repeats / total if total else 0.0


# ---------------------------------------------------------------------------
# max_degree_k2 probe
# ---------------------------------------------------------------------------

def max_degree_k2(P, log: harness.OpLog) -> int:
    """Largest N <= 12 at which every transform at k=2 on one seeded input
    finishes within PROBE_LIMIT_S reference seconds; stops at the first
    transform over it."""
    best = 0
    for N in range(1, PROBE_MAX_N + 1):
        warm_lattices(P, N, min(N, SIGNED_MAX_N))
        for name in PROBE_ORDER:
            if N < 2 and name in ("psi_k", "delta_star"):
                continue  # these consume one degree
            inputs = make_inputs(P, name, 2, N, PROBE_SEED)
            fn = getattr(P, name)
            before = harness.time_reference()
            latency, out, error = _call_op(lambda: fn(*inputs))(False)
            log.record(f"probe.{name}@{N}", latency,
                       None if error else _digest_out(out), error)
            [latency] = harness.normalize([latency], [before, harness.time_reference()])
            if error is not None or latency > PROBE_LIMIT_S:
                return best
        best = N
    return best
