"""Network SIS: threshold classification and the endemic fixed point.

Below the epidemic threshold beta*lambda_max/gamma = 1 every infection dies
out; above it the system settles into a unique strictly positive endemic
state. That state is computed here by Newton-GMRES, which stops once it
certifies an enclosure lower <= x* <= upper of width at most tol; it is then
compared against a long integration and against two closed-form
approximations valid in opposite parameter regimes.
"""

import numpy as np

from netepi import (
    ModelParams,
    initial_state,
    integrate,
    load_graph,
    reproduction_number,
    sis_endemic,
    sis_endemic_expansion_high_rate,
    sis_endemic_expansion_threshold,
)

EDGES = """
1 2 2.0
2 1 8.0
"""
g = load_graph(EDGES)

print("=== threshold classification ===")
for beta, gamma in [(0.1, 1.0), (0.25, 1.0), (1.0, 1.0)]:
    rep = reproduction_number(g, beta, gamma)
    print(
        f"beta = {beta:4.2f}, gamma = {gamma:3.1f}: "
        f"R0 = {rep.r0:.3f} ({rep.classification})"
    )
print()

beta = gamma = 1.0
print(f"=== endemic state at beta = gamma = {beta} (R0 = 4) ===")
lower = sis_endemic(g, beta, gamma, bracket="lower")
upper = sis_endemic(g, beta, gamma, bracket="upper")
print(f"lower end: x* >= {np.round(lower.x_star, 10)}")
print(f"upper end: x* <= {np.round(upper.x_star, 10)}")
print(f"{lower.iterations} Newton steps, certified width {lower.width:.2e}")
print("exact fixed point by hand: (5/8, 5/6) =", (5 / 8, 5 / 6))

traj = integrate(
    initial_state("SIS", np.full(2, 0.5)),
    ModelParams("SIS", beta, gamma),
    g,
    t_end=100.0,
    dt=0.005,
    record_every=1000,
    stop_when_stationary=True,
)
print(f"long integration ends at {np.round(traj.x[-1], 10)} (t = {traj.times[-1]:.1f})")
print()

print("=== expansion near the threshold: x* ~ delta * a * u_max ===")
lam = 4.0
for delta in (0.2, 0.05, 0.01):
    b = (1 + delta) / lam
    exact = sis_endemic(g, b, 1.0, tol=1e-12).x_star
    approx = sis_endemic_expansion_threshold(g, b, 1.0)
    print(
        f"delta = {delta:5.2f}: error {np.abs(exact - approx).max():.2e} "
        f"(should shrink like delta^2 = {delta**2:.1e})"
    )
print()

print("=== expansion at high infection rate: x* ~ 1 - (gamma/beta)/d ===")
for eps in (0.5, 0.1, 0.02):
    exact = sis_endemic(g, 1.0, eps, tol=1e-12).x_star
    approx = sis_endemic_expansion_high_rate(g, 1.0, eps)
    print(
        f"gamma/beta = {eps:4.2f}: error {np.abs(exact - approx).max():.2e} "
        f"(should shrink like (gamma/beta)^2 = {eps**2:.1e})"
    )
