"""Tour of the model registry: evaluation, domains, analytic gradients.

Every model is addressed by a string id and evaluated through a single
interface; gradients are hand-derived and can be sanity-checked against
finite differences on the spot.
"""

import numpy as np

import bioassay as ba

print("registered models:")
for model in ba.REGISTRY.values():
    arity = "variadic" if model.arity is None else str(model.arity)
    print(f"  {model.id:24s} family={model.family:18s} params={arity}")

# -- evaluating a growth curve ------------------------------------------------
print("\nGompertz growth at unit parameters:")
for u in (0.0, 0.5, 1.0, 2.0):
    print(f"  f({u:3.1f}) = {ba.evaluate('gompertz', u, [1, 1, 1]):.6f}")

# -- dose-response curves are CDFs ----------------------------------------------
doses = np.linspace(0.0, 4.0, 9)
curve = ba.evaluate("multi-hit", doses, [2, 1.0])
print("\ntwo-hit response curve (probabilities, nondecreasing):")
print("  " + "  ".join(f"{v:.4f}" for v in curve))

# -- kinetics: half-maximal velocity at the Michaelis constant -------------------
vmax, km = 2.0, 1.0
print(f"\nMM velocity at s = km: {ba.evaluate('mm', km, [vmax, km]):.6f} (= vmax/2)")

# -- analytic gradient vs central differences ------------------------------------
theta = np.array([1.5, 0.8, 0.6])
u = 1.3
analytic = ba.gradient("logistic", u, theta)
fd = np.empty_like(theta)
for i in range(len(theta)):
    h = 1e-6 * max(1.0, abs(theta[i]))
    up, dn = theta.copy(), theta.copy()
    up[i] += h
    dn[i] -= h
    fd[i] = (ba.evaluate("logistic", u, up) - ba.evaluate("logistic", u, dn)) / (2 * h)
print("\nlogistic gradient at u=1.3:")
print(f"  analytic: {analytic}")
print(f"  central differences: {fd}")
print(f"  max abs deviation: {np.max(np.abs(analytic - fd)):.2e}")

# -- domain violations are named -----------------------------------------------------
try:
    ba.evaluate("multi-hit", 1.0, [2.5, 1.0])
except Exception as exc:
    print(f"\nnon-integer hit count is rejected: {exc}")
