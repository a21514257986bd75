# Integrate dual-geodesics of the induced and the symmetrized connection from
# the same start, and observe that they trace the same curve at different
# speeds; the Levi-Civita connection is not in the class.
#
# Run:  python demos/demo_dual_geodesics.py

import numpy as np

from dualgeo.fixtures import builtin
from dualgeo.geodesics import curves_coincide, integrate_dual_geodesic

sw2 = builtin("sw2")
kw = dict(box=sw2.box, singular_loci=sw2.singular_loci)
x0, w0 = [1.0, 2.0], [0.35, 0.35]

# A dual-geodesic keeps the covelocity 1-form parallel: the integrated system
# is xdot = g^{-1} p, pdot_i = Gamma^k_ji xdot^j p_k (classical RK4, fixed step).
traj_t = integrate_dual_geodesic(sw2.connection("+T"), sw2.metric, x0, w0, 2000, 1e-3, **kw)
traj_b = integrate_dual_geodesic(sw2.connection("+B"), sw2.metric, x0, w0, 2000, 1e-3, **kw)
print("induced connection:    ", len(traj_t.tau), "samples, exit:", traj_t.exit_reason)
print("symmetrized connection:", len(traj_b.tau), "samples, exit:", traj_b.exit_reason)

# Same point set, different parametrization: the comparison works on the
# overlapping arc with one-sided Hausdorff distances.
cmp = curves_coincide(traj_t, traj_b, tol=1e-6)
print("\ncoincide:", cmp.coincide,
      " distances:", cmp.dist_a_to_b, cmp.dist_b_to_a)

lc = integrate_dual_geodesic(sw2.connection("LC"), sw2.metric, x0, w0, 2000, 1e-3, **kw)
cmp_lc = curves_coincide(traj_t, lc, tol=1e-6)
print("Levi-Civita vs induced:", cmp_lc.coincide,
      " distance:", max(cmp_lc.dist_a_to_b, cmp_lc.dist_b_to_a))

# Any scalar reparametrization q leaves the point set unchanged.
affine = integrate_dual_geodesic(sw2.connection("+T"), sw2.metric, x0, w0, 1500, 1e-3, **kw)
scaled = integrate_dual_geodesic(sw2.connection("+T"), sw2.metric, x0, w0, 1500, 1e-3,
                                 q=np.sin, **kw)
cmp_q = curves_coincide(affine, scaled, tol=1e-6)
print("\nreparametrized (q = sin) vs affine:", cmp_q.coincide)

# Trajectories export to CSV (17 significant digits, bit-exact round trip).
traj_t.write_csv("trajectory-sw2-induced.csv")
print("\nwrote trajectory-sw2-induced.csv")
