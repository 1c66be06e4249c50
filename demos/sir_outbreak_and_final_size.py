"""Network SIR: one seeded node, the R(t) story, and the final state.

A 20-node contact graph with a single fully infected node. The effective
reproduction number R(t) starts above 1, the infection surges, R(t) falls
below 1 in finite time, and the epidemic dies out. The final split into
never-infected and recovered is then recomputed without any integration at
all, as the certified fixed point of the conserved-quantity map, and the two
routes are compared node by node.
"""

import numpy as np

from netepi import (
    ModelParams,
    effective_r_series,
    initial_state,
    integrate,
    load_graph,
    sir_asymptotic,
    time_to_subthreshold,
)

RING = "\n".join(f"{i} {i % 20 + 1} 1.0\n{i % 20 + 1} {i} 1.0" for i in range(1, 21))
CHORDS = """
1 5 1.0
5 1 1.0
2 8 1.0
8 2 1.0
3 12 1.0
12 3 1.0
4 15 1.0
15 4 1.0
6 11 1.0
11 6 1.0
7 17 1.0
17 7 1.0
9 14 1.0
14 9 1.0
10 19 1.0
19 10 1.0
13 18 1.0
18 13 1.0
16 20 1.0
20 16 1.0
"""
g = load_graph(RING + CHORDS)
beta, gamma = 0.5, 0.4

x0 = np.zeros(g.n)
x0[0] = 1.0  # node 1 fully infected, everyone else healthy
state0 = initial_state("SIR", x0)
traj = integrate(
    state0, ModelParams("SIR", beta, gamma), g, t_end=80.0, dt=0.005, record_every=40
)

times, r_of_t = effective_r_series(traj, g, beta, gamma)
tau = time_to_subthreshold(traj, g, beta, gamma)
mean_x = traj.x.mean(axis=1)
peak = int(np.argmax(mean_x))

print(f"R(0) = {r_of_t[0]:.3f}  (above 1: outbreak)")
print(f"R(t) crosses 1 at t = {tau:.3f}")
print(f"mean infected fraction peaks at t = {times[peak]:.2f} with {mean_x[peak]:.3f}")
print(f"R(end) = {r_of_t[-1]:.3f}, mean infected at end = {mean_x[-1]:.2e}")
print()

print("t      R(t)    mean s   mean x   mean r")
for t_mark in (0.0, 2.0, 4.0, 6.0, 10.0, 20.0, 40.0, 80.0):
    k = int(np.searchsorted(times, t_mark))
    k = min(k, len(times) - 1)
    print(
        f"{times[k]:5.1f}  {r_of_t[k]:6.3f}  {traj.s[k].mean():.4f}   "
        f"{traj.x[k].mean():.4f}   {traj.r[k].mean():.4f}"
    )
print()

print("=== final state without integrating: the fixed-point route ===")
res = sir_asymptotic(g, beta, gamma, state0, start="zero")
gap = np.abs(res.s_inf - traj.s[-1]).max()
print(
    f"fixed point certified in {res.iterations} Newton steps, "
    f"width {res.width:.1e}, residual {res.residual:.1e}"
)
print(f"worst per-node gap to the integrated final state: {gap:.2e}")
print()
print("node   s_inf(map)  s(end,ODE)   r_inf")
for i in range(0, g.n, 4):
    print(
        f"{i + 1:4d}   {res.s_inf[i]:.6f}    {traj.s[-1][i]:.6f}    {res.r_inf[i]:.6f}"
    )
print()
print("the seeded node (1) ends with s = 0: it was never susceptible again")
