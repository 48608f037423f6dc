"""Cross-validate the chain model against the slot simulator.

Walks the bundled validation family (2 or 5 SUs on 5..100 channels) and
prints the analytic and simulated network throughput side by side.  These
scenarios run a single long probe per slot with lightly loaded PUs, the
regime where the decoupled chain algebra is essentially exact, so the two
columns should agree to a couple of percent.  Two multi-stage scenarios
follow, for contrast: there the gap can be large, and no line checks it.
"""

import numpy as np

from rsop.chain import analyze_scenario
from rsop.config import load_bundled
from rsop.core import upper_bound_throughput
from rsop.simulator import simulate_scenario

HEADER = (f"{'scenario':>22} {'analytic':>9} {'simulated':>10} {'gap':>7} "
          f"{'t_I model':>10} {'t_I sim':>8} {'bound':>6}")


def compare(name):
    sc = load_bundled(name)
    ana = analyze_scenario(sc)
    sim = simulate_scenario(sc, n_slots=500, n_reps=20, seed=7)
    gap = sim.network_throughput / ana.network_throughput - 1.0
    bound = upper_bound_throughput(sc.config.n_su, sc.config.presence_prob)
    print(f"{sc.name:>22} {ana.network_throughput:9.4f} "
          f"{sim.network_throughput:10.4f} {gap:+7.2%} "
          f"{ana.interference:10.5f} {sim.interference:8.5f} {bound:6.2f}")


print(HEADER)
for n_su in (2, 5):
    for n_pu in (5, 10, 20, 50, 100):
        compare(f"validation_ns{n_su}_np{n_pu}")

print("\nMulti-stage scenarios, where the mean-field occupancy and the decoupled")
print("collision term are not exact; the gap is printed, not checked:")
print(HEADER)
for name in ("dense_ns20_np5", "sparse_ns3_np7"):
    compare(name)
