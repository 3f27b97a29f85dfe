"""Visualise simulated communication with the trace timeline.

Runs two communication patterns on the simulated MPI and renders their
per-rank virtual-time timelines: the ring all-reduce's staggered
neighbour pipeline, and the domain-parallel halo exchange's single
pairwise burst.  The traffic matrix confirms the structure (ring ranks
talk only to their successor; halo ranks only to adjacent rows).

Run:  python examples/trace_timeline.py
"""

import numpy as np

from repro.dist.conv_domain import DomainConv2D
from repro.dist.partition import BlockPartition
from repro.machine.params import cori_knl
from repro.report.timeline import render_timeline, traffic_matrix
from repro.simmpi.engine import SimEngine


def main() -> None:
    machine = cori_knl()

    # --- ring all-reduce on 4 ranks --------------------------------------
    engine = SimEngine(4, machine, trace=True)

    def allreduce_prog(comm):
        comm.allreduce(np.ones(200_000, dtype=np.float32))

    engine.run(allreduce_prog)
    print("Ring all-reduce (4 ranks, 200k floats):")
    print(render_timeline(engine.tracer.events))
    print("\ntraffic (bytes): each rank sends only to (rank+1) mod P:")
    for src, row in sorted(traffic_matrix(engine.tracer.events).items()):
        print(f"  rank {src} -> {row}")

    # --- halo exchange of a domain-parallel convolution --------------------
    engine = SimEngine(4, machine, trace=True)
    x = np.random.default_rng(0).standard_normal((8, 16, 32, 32))
    w = np.random.default_rng(1).standard_normal((16, 16, 3, 3))
    part = BlockPartition(32, 4)

    def halo_prog(comm):
        op = DomainConv2D(comm, 32, 3, 3)
        op.forward(part.take(x, comm.rank, axis=2), w)

    engine.run(halo_prog)
    print("\nDomain-parallel 3x3 convolution (4 row blocks):")
    print(render_timeline(engine.tracer.events))
    print("\ntraffic (bytes): only adjacent row owners exchange boundaries:")
    for src, row in sorted(traffic_matrix(engine.tracer.events).items()):
        print(f"  rank {src} -> {row}")


if __name__ == "__main__":
    main()
