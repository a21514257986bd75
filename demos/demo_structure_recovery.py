# Recover the structure tensor of the inverse-square (Smorodinsky-Winternitz
# type) system, decompose it, and classify the restricted family.
#
# Run:  python demos/demo_structure_recovery.py

import numpy as np

from dualgeo.fixtures import builtin, builtin_config, from_config
from dualgeo.structure import classify, decompose, lower_output

# The sw2 fixture: flat 2D metric, potentials {x1^2+x2^2, 1/x1^2, 1/x2^2, 1}.
# Without its closed-form T, every structure field below is recovered.
cfg = builtin_config("sw2")
del cfg["structure"]
sw2 = from_config(cfg)
x = np.array([1.0, 2.0])

# The pointwise least-squares recovery solves, over all basis potentials,
#   T^k_ij d_k V = (hessian V)_ij - (1/n) g_ij Laplacian(V)
# for the symmetric, trace-free unknown T.
# The solve returns T alone; the fit residual is a separate call, the one
# that validation makes over its grid.
T = sw2.solver.structure_tensor(x)
print("fit residual:", sw2.solver.fit_residual(x, {"T": T}))
print("T[k,i,j] at (1,2):\n", T)
print("closed form: T^1_11 = -3/(2 x1) =", -1.5, " T^2_11 = 3/(2 x2) =", 0.75)

# Decomposition into the trace 1-form t and the remainder S.  Reconstruction
# is exact by definition; the symmetry defect of S is reported, not assumed.
dec = decompose(T, sw2.metric.value(x), sw2.metric.inverse(x))
print("\ntau =", dec.tau, "  t =", dec.t)
print("S symmetry defect (reported):", dec.symmetry_defect)

# B = T + ((n+2)/n) g (x) t is totally symmetric even though T alone is not.
Bh = sw2.b_tensor(x)
Bc = lower_output(Bh, sw2.metric.value(x))
defect = max(np.max(np.abs(Bc - np.transpose(Bc, p)))
             for p in ((0, 2, 1), (1, 0, 2), (2, 1, 0)))
print("\nB^1_11 =", Bh[0, 0, 0], " total-symmetry defect:", defect)

# Restricting to {1/x1^2, 1/x2^2, 1} gives an (n+1)-parameter system.  Its
# prolongation tensor D and the 1-form s are recovered the same way, and the
# mixed-symmetry obstruction N decides whether the system extends back.
weak = builtin("sw2-weak")
cls = classify(weak.metric, weak.prolongation_tensor, weak.s_covector, weak.grid(5))
print("\nrestricted family:", cls.verdict, " max |N| =", cls.max_n_norm)
print("extracted T matches the full recovery:",
      np.max(np.abs(weak.structure_tensor(x) - T)))

# A synthetic tensor-level fixture with a mixed-symmetry injection cannot
# extend: N stays an order-one obstruction.
strong = builtin("sw2-strong-synthetic")
cls2 = classify(strong.metric, strong.prolongation_tensor, strong.s_covector,
                strong.grid(5))
print("\nsynthetic fixture:", cls2.verdict, " max |N| =", cls2.max_n_norm)
