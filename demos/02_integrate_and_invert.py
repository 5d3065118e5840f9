"""Taylor-Verlet integration: exact inversion and an analytic oracle.

The integrator composes closed-form sub-updates, so running it backwards
applies the exact inverse map and the accumulated density change returns
to zero.  A flow whose q-field is a constant diagonal linear map has the
closed-form solution exp((t1-t0) s1) q0, which any step count reproduces.
"""

import numpy as np

from verletflow import IntegratorConfig, PhaseState, VerletFlow, verlet_integrate

rng = np.random.default_rng(0)

# a random order-1 flow on 2+2 dims
flow = VerletFlow(2, 2, order=1, hidden=[16], seed=3)
q0 = rng.standard_normal(2)
p0 = rng.standard_normal(2)

fwd = verlet_integrate(flow, PhaseState(q=q0, p=p0, t=0.0), IntegratorConfig(steps=100))
print(f"forward:  q1 = {fwd.state.q}, dlogp = {float(fwd.dlogp):.6f}")

back = verlet_integrate(
    flow, fwd.state.with_(dlogp=fwd.dlogp), IntegratorConfig(t0=1.0, t1=0.0, steps=100)
)
print(f"reverse:  |q - q0| = {np.abs(back.state.q - q0).max():.2e}, "
      f"|p - p0| = {np.abs(back.state.p - p0).max():.2e}, "
      f"residual dlogp = {abs(float(back.dlogp)):.2e}")

# analytic oracle: frozen-p linear flow
s1 = np.array([0.6, -0.35])
linear = VerletFlow(2, 2, order=1, hidden=[4], seed=0).zero_()
linear.q_nets[1].net.biases[-1][:] = s1

print("\nfrozen-p linear flow vs closed form exp(s1)*q0:")
for steps in (1, 10, 100):
    res = verlet_integrate(
        linear, PhaseState(q=q0, p=p0, t=0.0), IntegratorConfig(steps=steps)
    )
    err = np.abs(res.state.q - np.exp(s1) * q0).max()
    print(f"  steps={steps:3d}: error {err:.2e}, "
          f"dlogp {float(res.dlogp):.12f} (expected {-s1.sum():.12f})")
