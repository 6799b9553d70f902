"""One fresh-process set-up of a workload, timed by the parent.

Imports memflow, then builds what the workload needs before its first
operation: for CNF workloads the multiplier, its CNF and one flow
evaluation per instance (plus the literal graph and its distances for
analyze); for toy-scan the two toy flows.  Prints one JSON line with the
phase times once it is ready; the parent's clock runs from process start
to that line.  A second line gives the reference rate measured after it.

    PYTHONPATH=src python3 perfbench/setup_probe.py --workload analyze-793 --seed 0
"""

import argparse
import json
import sys
import time

import spec


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(spec.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args()
    workload = spec.resolve(args.workload, args.tiny)

    phases = {}
    t0 = time.perf_counter()
    import numpy as np
    import memflow
    from memflow import toyflow
    phases["import_s"] = time.perf_counter() - t0

    if workload.kind == "toy":
        t0 = time.perf_counter()
        for flow in workload.flows:
            toyflow.logistic_product(1) if flow == "logistic" else toyflow.spiral_sink()
        phases["flows_s"] = time.perf_counter() - t0
    else:
        for phase in ("build_s", "encode_s", "first_flow_s", "literal_graph_s", "distances_s"):
            phases[phase] = 0.0
        params = memflow.FlowParams()
        for n, p_bits, q_bits in workload.instances:
            t0 = time.perf_counter()
            netlist = memflow.build_multiplier(p_bits, q_bits)
            t1 = time.perf_counter()
            cs = memflow.encode_cnf(netlist, n)
            t2 = time.perf_counter()
            state = memflow.initial_state(cs, params, np.random.default_rng(args.seed))
            memflow.flow_field(state, cs, params)
            t3 = time.perf_counter()
            phases["build_s"] += t1 - t0
            phases["encode_s"] += t2 - t1
            phases["first_flow_s"] += t3 - t2
            if workload.kind == "analyze":
                graph = memflow.literal_graph(cs)
                t4 = time.perf_counter()
                graph.distances()
                phases["literal_graph_s"] += t4 - t3
                phases["distances_s"] += time.perf_counter() - t4

    sys.stdout.write(json.dumps(phases) + "\n")
    sys.stdout.flush()
    # The machine's speed right after set-up, on the same CPU.
    from reference import reference_rate
    sys.stdout.write(json.dumps(reference_rate()) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
