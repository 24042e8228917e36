"""Write digests.json: the output digest of every op the benchmark can
schedule, for every pool index, plus the max_degree_k2 probe for N <= 7.

    python3 perfbench/make_digests.py

Run it only on the commit that defines the expected outputs; on any later
commit the benchmark compares against these digests, which is how it checks
that outputs stay bit-identical.
"""

import json
import shutil
import sys

import harness
import workloads

PROBE_DIGEST_MAX_N = 7


def collect(state) -> dict:
    out = {}
    for ops in state.cycles:
        for op in ops:
            if op.key in out:
                continue
            _, output, error = op.run(False)
            if error is not None:
                sys.exit(f"{op.key} failed: {error}")
            digest = out[op.key] = op.digest(output)
            print(op.key, digest, flush=True)
    return out


def main() -> None:
    P = workloads.import_ncprob()
    pool = workloads.POOL
    doc = {}
    doc["transform-sweep"] = collect(workloads.setup_transform_sweep(P, 0, pool))
    doc["verify-grid"] = collect(workloads.setup_verify_grid(P, 0, pool))
    doc["cold-cli"] = collect(
        workloads.setup_cold_cli(P, 0, pool, workloads.ChildRuns()))
    probe = {}
    for N in range(1, PROBE_DIGEST_MAX_N + 1):
        workloads.warm_lattices(P, N, min(N, workloads.SIGNED_MAX_N))
        for name in workloads.PROBE_ORDER:
            if N < 2 and name in ("psi_k", "delta_star"):
                continue
            inputs = workloads.make_inputs(P, name, 2, N, workloads.PROBE_SEED)
            out = getattr(P, name)(*inputs)
            probe[f"probe.{name}@{N}"] = harness.family_digest(out)
            print(f"probe.{name}@{N}", flush=True)
    doc["probe"] = probe
    shutil.rmtree(harness.WORK_DIR, ignore_errors=True)
    with open(harness.DIGESTS_PATH, "w") as fh:
        json.dump(doc, fh, indent=0, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
