"""Workload-independent parts of the benchmark: statistics, metric names,
the reference clock, output digests, op bookkeeping, child processes and
the run header."""

import hashlib
import json
import os
import platform
import re
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
SRC_DIR = os.path.join(ROOT, "src")
WORK_DIR = os.path.join(ROOT, ".perfbench_work")
DIGESTS_PATH = os.path.join(BENCH_DIR, "digests.json")

NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
CHILD_TIMEOUT_S = 120


def valid_metric_name(name: str) -> bool:
    return NAME_RE.fullmatch(name) is not None


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------

def tail_rank(n: int, beyond: int = 10) -> int | None:
    """0-based rank, in ascending order, of the highest sample that still
    has `beyond` samples above it; None when there are too few samples."""
    if n <= beyond:
        return None
    return n - 1 - beyond


def tail_latency(samples, beyond: int = 10) -> tuple[float, float, int]:
    """(value, percentile, sample count) of the highest percentile of the
    samples that has at least `beyond` samples beyond it."""
    xs = sorted(samples)
    rank = tail_rank(len(xs), beyond)
    if rank is None:
        raise ValueError(f"need more than {beyond} samples, got {len(xs)}")
    return xs[rank], 100.0 * (rank + 1) / len(xs), len(xs)


# ---------------------------------------------------------------------------
# Reference clock
# ---------------------------------------------------------------------------
#
# The host is shared and its speed drifts: a fixed single-threaded loop ran
# up to 1.6 times faster from one ten-second window to the next.  So every
# op is bracketed by a fixed reference computation in this process, and
# times are reported in reference seconds: measured seconds scaled by
# REF_S / (the reference's time around the op).  REF_S is the reference's
# time on the baseline host, so reference seconds read like seconds there.

REF_S = 0.016
REF_WINDOW = 2  # reference samples taken on each side of an op


def _reference_loop() -> Fraction:
    """Fixed Fraction arithmetic, the same work on every call and commit."""
    acc, x = Fraction(0), Fraction(3, 7)
    for i in range(1, 3000):
        acc += x * Fraction(i % 9 - 4, i % 4 + 1)
        if i % 50 == 0:
            acc = Fraction(acc.numerator % 10007, acc.denominator % 10007 + 1)
    return acc


def time_reference() -> float:
    t0 = time.perf_counter()
    _reference_loop()
    return time.perf_counter() - t0


def normalize(latencies, refs) -> list[float]:
    """Latencies in reference seconds.  refs[i] was taken just before op i
    and refs[-1] after the last op; op i is scaled by the median of the
    REF_WINDOW samples on each side of it."""
    if len(refs) != len(latencies) + 1:
        raise ValueError("need one reference sample before each op and one after")
    out = []
    for i, latency in enumerate(latencies):
        window = refs[max(0, i + 1 - REF_WINDOW): i + 1 + REF_WINDOW]
        out.append(latency * REF_S / statistics.median(window))
    return out


# ---------------------------------------------------------------------------
# Output digests
# ---------------------------------------------------------------------------

def digest_bytes(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:32]


def family_digest(*families) -> str:
    """Digest of the canonical `to_json_dict` bytes of one or more families."""
    docs = [f.to_json_dict() for f in families]
    return digest_bytes(json.dumps(docs, sort_keys=True).encode())


REPORT_KEYS = ("theorem", "seed", "k", "N", "ok", "counterexample")


def report_digest(report: dict) -> str:
    """Digest of a verification report, over the keys it has always had."""
    doc = {key: report.get(key) for key in REPORT_KEYS}
    return digest_bytes(json.dumps(doc, sort_keys=True).encode())


def load_digests() -> dict:
    with open(DIGESTS_PATH) as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# Op bookkeeping
# ---------------------------------------------------------------------------

class OpLog:
    """Latencies and outcomes of the ops of one timed phase."""

    def __init__(self, expected: dict | None):
        self.expected = expected
        self.latencies: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.mismatched = 0
        self.unchecked = 0
        self.errors: list[str] = []

    def record(self, key: str, latency: float, digest: str | None, error: str | None):
        """One finished op.  It fails when it raised (or exited non-zero, or
        reported ok: false), or when its output digest differs from the one
        stored for `key`."""
        self.attempted += 1
        self.latencies.append(latency)
        if error is None and self.expected is not None:
            want = self.expected.get(key)
            if want is None:
                self.unchecked += 1
            elif want != digest:
                self.mismatched += 1
                error = f"{key}: output digest {digest} != stored {want}"
        if error is not None:
            self.failed += 1
            if len(self.errors) < 5:
                self.errors.append(error)


def run_child(argv, env=None, cwd=ROOT) -> tuple[int, bytes, str]:
    """Run one child process to completion; (exit code, stdout, stderr tail).
    A child still running after CHILD_TIMEOUT_S is killed and reads as -1."""
    try:
        proc = subprocess.run(
            argv, cwd=cwd, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired as exc:
        return -1, exc.stdout or b"", f"killed after {CHILD_TIMEOUT_S} s"
    return proc.returncode, proc.stdout, proc.stderr.decode(errors="replace")[-300:]


def cli_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC_DIR
    return env


def peak_rss_mib(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# Run header
# ---------------------------------------------------------------------------

def _git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def source_digest() -> str:
    """Digest of every file under src/, so a checkout without .git still
    identifies the code it measured."""
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(SRC_DIR):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, SRC_DIR).encode())
            with open(path, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()[:16]


def run_header(stage: str) -> dict:
    head = {"stage": stage, "loadavg": [round(x, 2) for x in os.getloadavg()],
            "time": time.strftime("%Y-%m-%dT%H:%M:%S")}
    if stage == "start":
        head.update(
            commit=_git_commit(),
            source=source_digest(),
            python=platform.python_version(),
            nproc=os.cpu_count(),
            affinity=len(os.sched_getaffinity(0)),
        )
    return head


def die(message: str, code: int = 2) -> None:
    print(f"perfbench: {message}", file=sys.stderr, flush=True)
    sys.exit(code)
