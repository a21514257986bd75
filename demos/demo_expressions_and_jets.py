# Walk through the expression layer: parsing, exact derivatives via jet
# arithmetic, and a finite-difference cross-check.
#
# Run:  python demos/demo_expressions_and_jets.py

import numpy as np

from dualgeo.expressions import parse, to_source
from dualgeo.jets import eval_jet2, eval_jet3, eval_value

# Parsing gives an immutable tree; printing it back gives a source string that
# re-parses to the same tree.
expr = parse("exp(-x1^2/2) * log(x2 + 1) + 1/x1^2", n=2)
print("parsed:     ", to_source(expr))
print("round trip: ", parse(to_source(expr), 2) == expr)

# Evaluation at a point: plain value, then the full second-order jet.
x = np.array([1.0, 2.0])
print("\nvalue at (1, 2):", eval_value(expr, x))

jet = eval_jet2(expr, x)
print("gradient:", jet.grad)
print("hessian:\n", jet.hess)

# The jet derivatives are exact to roundoff.  Central differences at the step
# cbrt(eps) * (1 + |x_i|) (of the values for the gradient, of the exact
# gradient for the Hessian) agree to a few 1e-9, their own accuracy limit.
h = np.cbrt(np.finfo(float).eps) * (1.0 + np.abs(x))
shifts = np.diag(h)
fd_grad = np.array([(eval_value(expr, x + e) - eval_value(expr, x - e)) / (2.0 * hi)
                    for e, hi in zip(shifts, h)])
fd_hess = np.array([(eval_jet2(expr, x + e).grad - eval_jet2(expr, x - e).grad) / (2.0 * hi)
                    for e, hi in zip(shifts, h)])
print("\n|jet grad - FD grad| =", np.max(np.abs(jet.grad - fd_grad)))
print("|jet hess - FD hess| =", np.max(np.abs(jet.hess - fd_hess)))

# Third derivatives come from a third-order jet; for 1/x1^2 the closed form is
# d^3/dx1^3 (x1^-2) = -24 x1^-5.
third = eval_jet3(parse("1/x1^2", 1), [1.0]).third
print("\nthird derivative of 1/x1^2 at 1:", third[0, 0, 0], "(closed form: -24)")

# Domain violations are errors that name the offending subexpression, never NaNs.
try:
    eval_value(parse("log(x1 - 2)", 1), [1.0])
except Exception as exc:
    print("\ndomain violation:", exc)
