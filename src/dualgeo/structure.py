"""Structure data of second-order superintegrable fixtures.

The central object is the pointwise linear recovery problem: a potential
family V_1..V_m determines, at each chart point, a tensor ``T[k, i, j]``
(symmetric and g-trace-free in ``(i, j)``) through

    T^k_{ij} d_k V  =  (nabla^2 V)_{ij} - (1/n) g_{ij} Laplacian(V)

for every member of the family, or, for (n+1)-parameter families, the
trace-unconstrained analogue ``nabla^2 V = D(dV)``.  Each component pair
``(i, j)`` is an overdetermined system with the same matrix, the family's
gradients, so both are one SVD least-squares solve (rcond 1e-10) with n
unknowns per right-hand side; normal equations are never formed, and T needs
no trace constraint (see :class:`StructureSolver`).  T and D, whose connections
the suites differentiate (the Ricci symmetry of +-T and +D), have one derivative
each: the field's linear system differentiated and solved for every chart axis
at once.  s, which only first-order claims use, has none.  A point or
a ``(..., n)`` stack is one ``np.linalg.svd`` call, and a solve returns its
field alone: validation asks :meth:`StructureSolver.fit_residual` for the fit.

The grid checks (classification, beta condition, Killing, Bertrand-Darboux,
Poisson) reduce through :func:`dualgeo.geometry.grid_max`, so a NaN residual
is the result, classifies STRONG and fails every threshold.  Slot and
orientation conventions live in :mod:`dualgeo.conventions`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import conventions as conv
from .geometry import (
    Metric, ScalarField, TensorField, covariant_derivative, grid_max, hessian, matvec,
)
from .jets import compile

RECOVERY_RCOND = 1e-10


class StructureError(ValueError):
    pass


class RankDeficiencyError(StructureError):
    pass


@dataclass(frozen=True)
class PotentialFamily:
    """Basis potentials of a fixture, with its declared kind."""

    potentials: tuple[ScalarField, ...]
    kind: str  # "nondegenerate" (m = n+2) or "semidegenerate" (m = n+1)

    def __post_init__(self):
        if self.kind not in ("nondegenerate", "semidegenerate"):
            raise StructureError(f"unknown family kind {self.kind!r}")

    @property
    def size(self) -> int:
        return len(self.potentials)


class StructureSolver:
    """Recovery engine for one (metric, family) pair, at a point or a stack.

    The system ``X^k_{ij} d_k V_a = rhs[a, i, j]`` decouples into
    ``grads @ C = B`` with ``C[k, p] = X[k, i_p, j_p]`` and
    ``B[a, p] = rhs[a, i_p, j_p]`` over the P pairs ``i_p <= j_p``: one
    least-squares solve with n unknowns per column and P right-hand sides.
    T and D are the same solve with different right-hand sides.  Recovered T
    is g-trace-free with no constraint imposed: with ``v_p = g^{i_p j_p}``,
    doubled off the diagonal, every right-hand side
    ``nabla^2 V - (1/n) g Laplacian(V)`` has ``B v = 0``, so the least-squares
    solution has ``C v = pinv(grads) B v = 0``, and its derivative keeps the
    trace of ``dT`` at zero the same way.  The family's potentials are
    compiled into one program.
    """

    def __init__(self, g: Metric, family: PotentialFamily):
        self.g = g
        self.family = family
        self._program = compile([V.expr for V in family.potentials])
        n = g.n
        self._i, self._j = np.triu_indices(n)
        # X[k, i, j] = C[k, pair[i, j]]
        self._pair = np.empty((n, n), dtype=int)
        self._pair[self._i, self._j] = self._pair[self._j, self._i] = np.arange(len(self._i))

    # --- shared assembly --------------------------------------------------

    @staticmethod
    def _covariant_hessians(gamma, ginv, grads, hesses) -> tuple[np.ndarray, np.ndarray]:
        """Covariant Hessian and Laplacian of every potential, stacked."""
        hess_cov = hesses - np.einsum("...kij,...ak->...aij", gamma, grads)
        return hess_cov, np.einsum("...ij,...aij->...a", ginv, hess_cov)

    def _system(self, field: str, x) -> tuple[np.ndarray, np.ndarray]:
        """(grads, B) of field "T", "D" or "s" in grads @ C = B at x: one column
        of B per index pair i <= j for T and D, the Laplacians for s."""
        g = self.g
        grads, hesses = self._program.jet_arrays(x, 2)[1:]
        hess_cov, laps = self._covariant_hessians(g.christoffel(x), g.inverse(x), grads, hesses)
        if field == "s":
            return grads, laps[..., None]
        if field == "T":
            hess_cov = hess_cov - np.einsum("...ij,...a->...aij", g.value(x), laps) / g.n
        return grads, hess_cov[..., self._i, self._j]

    def _differentiated_system(self, field: str, x) -> tuple[np.ndarray, ...]:
        """(grads, hessians, dB[a, m, p] = d_m B[a, p]) of field "T" or "D":
        :meth:`_system` differentiated along every chart axis m."""
        g = self.g
        grads, hesses, thirds = self._program.jet_arrays(x, 3)[1:]
        gamma = g.christoffel(x)
        dhess_cov = (thirds
                     - np.einsum("...mkij,...ak->...amij", g.christoffel_jacobian(x), grads)
                     - np.einsum("...kij,...amk->...amij", gamma, hesses))
        if field == "D":
            return grads, hesses, dhess_cov[..., self._i, self._j]
        ginv = g.inverse(x)
        hess_cov, laps = self._covariant_hessians(gamma, ginv, grads, hesses)
        dlap = (np.einsum("...mij,...aij->...am", g.inverse_jacobian(x), hess_cov)
                + np.einsum("...ij,...amij->...am", ginv, dhess_cov))
        gmat, dgmat, _ = g.jets(x)
        drhs = (dhess_cov
                - np.einsum("...mij,...a->...amij", dgmat, laps) / g.n
                - np.einsum("...ij,...am->...amij", gmat, dlap) / g.n)
        return grads, hesses, drhs[..., self._i, self._j]

    def _solve(self, grads: np.ndarray, B: np.ndarray, label: str, x) -> np.ndarray:
        """Least-squares C of grads @ C = B at a point or over a stack, by one SVD;
        the one rank check of every recovery: a singular value at or below
        RECOVERY_RCOND times the largest fails it at the first such row's point."""
        n = self.g.n
        u, s, vt = np.linalg.svd(grads, full_matrices=False)
        if s.shape[-1] < n or not (s[..., -1] > RECOVERY_RCOND * s[..., 0]).all():
            rank = np.count_nonzero(s > RECOVERY_RCOND * s[..., :1], axis=-1)
            row = np.unravel_index(np.argmax(rank < n), rank.shape)
            raise RankDeficiencyError(
                f"{label} recovery is rank-deficient at {np.asarray(x)[row]} "
                f"(rank {rank[row]} < {n}); family degenerate there")
        return vt.swapaxes(-1, -2) @ ((u.swapaxes(-1, -2) @ B) / s[..., None])

    def _columns(self, field: str, X: np.ndarray) -> np.ndarray:
        """C of grads @ C = B from field X as the solve methods return it."""
        return X[..., None] if field == "s" else X[..., self._i, self._j]

    def _jacobian(self, field: str, X: np.ndarray, x) -> np.ndarray:
        """dC[m, k, p] solving grads @ dC[m] = dB[m] - d_m(grads) C, all axes m in
        one call, for the solved field X, "T" or "D": the fields whose connections
        a suite differentiates, T of a nondegenerate family (+-T) and D of a
        semi-degenerate one (+D).  Exact where the fit residual is at roundoff,
        as it is for those; s, which feeds first-order claims only, has none."""
        grads, hesses, dB = self._differentiated_system(field, x)
        lead, (m_pot, n) = grads.shape[:-2], grads.shape[-2:]
        rhs = dB - np.einsum("...amk,...kp->...amp", hesses, self._columns(field, X))
        dC = self._solve(grads, rhs.reshape(lead + (m_pot, -1)), "Jacobian", x)
        return dC.reshape(lead + (n, n, -1)).swapaxes(-3, -2)

    # --- recovery: T of nondegenerate families, D and s of semi-degenerate ones

    def structure_tensor(self, x) -> np.ndarray:
        """T[k,i,j], symmetric and trace-free."""
        return self._solve(*self._system("T", x), "structure-tensor", x)[..., self._pair]

    def structure_tensor_jacobian(self, x) -> np.ndarray:
        """dT[a, k, i, j] = d_a T^k_{ij}, by differentiating the linear system."""
        return self._jacobian("T", self.structure_tensor(x), x)[..., self._pair]

    def prolongation_tensor(self, x) -> np.ndarray:
        """D[k,i,j] solving nabla^2 V = D(dV); no trace constraint."""
        return self._solve(*self._system("D", x), "prolongation-tensor", x)[..., self._pair]

    def prolongation_jacobian(self, x) -> np.ndarray:
        return self._jacobian("D", self.prolongation_tensor(x), x)[..., self._pair]

    def s_vector(self, x) -> np.ndarray:
        """s^k solving Laplacian(V) = s^k d_k V over the family."""
        return self._solve(*self._system("s", x), "semi-degeneracy", x)[..., 0]

    def fit_residual(self, x, fields: dict) -> np.ndarray:
        """Largest |grads @ C - B| per point over solved fields keyed "T", "D" or
        "s", as the solve methods return them at x; only validation asks for it."""
        worst = []
        for field, X in fields.items():
            grads, B = self._system(field, x)
            worst.append(np.max(np.abs(grads @ self._columns(field, X) - B), axis=(-2, -1)))
        return np.max(worst, axis=0)


# --- decomposition and derived tensors ----------------------------------------


def lower_output(T: np.ndarray, gmat: np.ndarray) -> np.ndarray:
    """Tc[i,j,k] = g_{kl} T[l,i,j]; output slot flatted last."""
    return np.einsum("...kl,...lij->...ijk", gmat, T)


@dataclass
class Decomposition:
    S: np.ndarray           # remainder after removing the three t-terms
    t: np.ndarray           # covariant components
    tau: np.ndarray
    symmetry_defect: float  # reported, not asserted
    trace_defect: float     # reported, not asserted


def decompose(T: np.ndarray, gmat: np.ndarray, ginv: np.ndarray) -> Decomposition:
    """Split T into the trace 1-form t and the remainder S.

    ``tau_j = T^i_{ij}``, ``t = n/((n-1)(n+2)) tau`` and S is defined as the
    exact remainder ``T_flat - (t (x) g + permutations)``, so reconstruction
    is an identity.  Total symmetry and full tracelessness of S are measured
    and reported; on concrete fixtures the remainder is generally NOT totally
    symmetric, which is why no code path assumes it.  Over a stack of points
    the two defects are the largest over the stack.
    """
    n = gmat.shape[-1]
    tau = np.einsum("...iij->...j", T)
    t = conv.t_coefficient(n) * tau
    Tc = lower_output(T, gmat)
    t_terms = (np.einsum("...i,...jk->...ijk", t, gmat)
               + np.einsum("...j,...ik->...ijk", t, gmat)
               + np.einsum("...k,...ij->...ijk", t, gmat))
    S = Tc - t_terms
    sym_defect = float(np.maximum(np.max(np.abs(S - np.einsum("...ikj->...ijk", S))),
                                  np.max(np.abs(S - np.einsum("...jik->...ijk", S)))))
    trace_defect = float(np.max(np.abs(np.einsum("...ij,...ijk->...k", ginv, S))))
    return Decomposition(S, t, tau, sym_defect, trace_defect)


def t_from_prolongation(D: np.ndarray, s_cov: np.ndarray, n: int) -> np.ndarray:
    """t for systems without a structure tensor: the (1/n) g (x) s part of D
    contributes s/n to the output-covariant trace, which is removed first."""
    tau_D = np.einsum("...iij->...j", D)
    return conv.t_coefficient(n) * (tau_D - s_cov / n)


def build_N(D: np.ndarray, gmat: np.ndarray, s_cov: np.ndarray,
            t_cov: np.ndarray) -> np.ndarray:
    """Mixed-symmetry obstruction N(X,Y,Z); zero exactly on weak systems.

    N = (1/3) (2 Dn(X,Y,Z) - Dn(X,Z,Y) - Dn(Y,Z,X))
        + (1/(3(n-1))) (2 g(X,Y) d(Z) - g(X,Z) d(Y) - g(Y,Z) d(X))

    with ``d = (n+2) t - s`` and ``Dn`` the flat of the connection difference
    (see conventions: Dn = -flat(D), the calibrated orientation).
    """
    n = gmat.shape[-1]
    Dn = conv.N_DIFFERENCE_ORIENTATION * lower_output(D, gmat)
    d_form = (n + 2) * t_cov - s_cov
    gd = np.einsum("...ab,...c->...abc", gmat, d_form)
    hook = (2.0 * Dn - np.einsum("...acb->...abc", Dn)
            - np.einsum("...bca->...abc", Dn)) / 3.0
    trace_part = (2.0 * gd - np.einsum("...acb->...abc", gd)
                  - np.einsum("...bca->...abc", gd)) / (3.0 * (n - 1))
    return hook + trace_part


@dataclass
class Classification:
    verdict: str                    # "WEAK" | "STRONG"
    max_n_norm: float
    tol: float


def classify(g: Metric, prolongation_fn: Callable, s_cov_fn: Callable,
             points, tol: float = 1e-8) -> Classification:
    """WEAK iff max ||N|| over the grid stays below tol.

    ``prolongation_fn(x) -> D[..., k,i,j]`` and ``s_cov_fn(x) -> s[..., i]``
    supply the system data (recovered for family fixtures, declared for
    tensor-level ones); both receive a block of points.  The structure tensor
    a WEAK system extracts, ``D - (1/n) g (x) s_sharp``, is
    :meth:`dualgeo.fixtures.Fixture.structure_tensor`.
    """
    n = g.n

    def obstruction(block):
        D = prolongation_fn(block)
        s_cov = s_cov_fn(block)
        return build_N(D, g.value(block), s_cov, t_from_prolongation(D, s_cov, n))

    worst = grid_max(obstruction, points)
    return Classification("WEAK" if worst < tol else "STRONG", worst, tol)


def beta_condition_residual(g: Metric, conn_d, D_fn: Callable, s_cov_fn: Callable,
                            points) -> float:
    """Residual of the antisymmetrized metric-derivative identity.

    Left side: nabla^{D}_X g(Y,Z) - nabla^{D}_Y g(X,Z), computed from the
    actual connection coefficients.  Right side: N(Y,Z,X) - N(X,Z,Y) plus the
    ((s - (n+2) t)/n)-weighted metric terms.  The two sides travel through
    independent code paths (connection algebra vs tensor assembly).
    ``D_fn`` and ``s_cov_fn`` receive a block of points.
    """
    from .connections import antisymmetrized_gradient

    n = g.n

    def residual(block):
        gmat = g.value(block)
        lhs = antisymmetrized_gradient(conn_d, g, block)
        D = D_fn(block)
        s_cov = s_cov_fn(block)
        t_cov = t_from_prolongation(D, s_cov, n)
        N = build_N(D, gmat, s_cov, t_cov)
        phi = (s_cov - (n + 2) * t_cov) / n
        rhs = (np.einsum("...jki->...ijk", N) - np.einsum("...ikj->...ijk", N)
               + np.einsum("...i,...jk->...ijk", phi, gmat)
               - np.einsum("...j,...ik->...ijk", phi, gmat))
        return lhs - rhs

    return grid_max(residual, points)


# --- curvature correction Z and the Codazzi completion ------------------------


def sym_product_metric_form(gmat: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Pi_sym(g (x) w)_{ijk} = g_ij w_k + g_jk w_i + g_ki w_j, at a point or
    over leading point axes."""
    return (np.einsum("...ij,...k->...ijk", gmat, w)
            + np.einsum("...jk,...i->...ijk", gmat, w)
            + np.einsum("...ki,...j->...ijk", gmat, w))


@dataclass
class ZetaData:
    Z: np.ndarray
    Z_tracefree: np.ndarray
    zeta_residual: float      # || tracefree(Z) - tracefree(nabla^2 zeta) ||


def build_Z_and_digamma(g: Metric, T: np.ndarray, zeta: ScalarField, x) -> ZetaData:
    """Curvature correction Z = SS - (n-2)(S(t) + t (x) t) - Ric.

    Only defined for n >= 3; zeta is fixture data (solving for it is out of
    scope), so the defining equation for zeta is only ever reported as a
    residual.  The Codazzi completion F that zeta enters is
    :meth:`dualgeo.fixtures.Fixture._f_tensor`.
    """
    n = g.n
    if n < 3:
        raise StructureError("the curvature correction needs dimension n >= 3")
    gmat = g.value(x)
    ginv = g.inverse(x)
    dec = decompose(T, gmat, ginv)
    S, t = dec.S, dec.t
    t_up = matvec(ginv, t)
    SS = np.einsum("...ikl,...jmn,...km,...ln->...ij", S, S, ginv, ginv)
    S_t = np.einsum("...ijk,...k->...ij", S, t_up)
    ric = g.ricci(x)
    Z = SS - (n - 2) * (S_t + np.einsum("...i,...j->...ij", t, t)) - ric

    def tracefree(a):
        return a - (np.einsum("...ij,...ij->...", ginv, a) / n)[..., None, None] * gmat

    Z0 = tracefree(Z)
    zeta_residual = float(np.max(np.abs(Z0 - tracefree(hessian(g, zeta, x)))))
    return ZetaData(Z, Z0, zeta_residual)


# --- fixture validation checks -------------------------------------------------


def killing_check(g: Metric, K: TensorField, points) -> float:
    """max over the grid of the cyclic-symmetrized covariant derivative of K."""
    def cyclic_sum(block):
        nk = covariant_derivative(g, K, block)  # [..., i, j, k] = (nabla_i K)_{jk}
        return (nk + np.einsum("...jki->...ijk", nk) + np.einsum("...kij->...ijk", nk)) / 3.0

    return grid_max(cyclic_sum, points)


def bertrand_darboux_check(g: Metric, K: TensorField, V: ScalarField, points) -> float:
    """max ||d omega|| for omega_i = K^j_i (d_j V) dx^i."""
    def curl(block):
        ginv = g.inverse(block)
        kvals, dk = K.jets(block)
        grad, hess = V.derivatives(block)
        k_mixed = np.einsum("...mk,...kj->...mj", ginv, kvals)            # K^m_j
        dk_mixed = (np.einsum("...amk,...kj->...amj", g.inverse_jacobian(block), kvals)
                    + np.einsum("...mk,...akj->...amj", ginv, dk))
        domega = (np.einsum("...imj,...m->...ij", dk_mixed, grad)
                  + np.einsum("...mj,...im->...ij", k_mixed, hess))
        return domega - np.swapaxes(domega, -1, -2)

    return grid_max(curl, points)


def poisson_check(g: Metric, V: ScalarField, K: TensorField, W: ScalarField,
                  points, momenta: Sequence) -> float:
    """max |{H, F}| for H = g^{ij} p_i p_j + V, F = K^{ij} p_i p_j + W.

    The canonical bracket is evaluated at every (grid point, momentum) pair.
    """
    P = np.asarray(momenta, dtype=float)   # (q, n), one momentum per row

    def brackets(block):
        ginv = g.inverse(block)
        dginv = g.inverse_jacobian(block)
        kvals, dk = K.jets(block)
        k_up = np.einsum("...ia,...jb,...ab->...ij", ginv, ginv, kvals)
        dk_up = (np.einsum("...mia,...jb,...ab->...mij", dginv, ginv, kvals)
                 + np.einsum("...ia,...mjb,...ab->...mij", ginv, dginv, kvals)
                 + np.einsum("...ia,...jb,...mab->...mij", ginv, ginv, dk))
        # axes (..., q, m): every momentum row of P at every point of the block
        dH_dx = np.einsum("...mij,qi,qj->...qm", dginv, P, P) + V.gradient(block)[..., None, :]
        dH_dp = matvec(2.0 * ginv[..., None, :, :], P)
        dF_dx = np.einsum("...mij,qi,qj->...qm", dk_up, P, P) + W.gradient(block)[..., None, :]
        dF_dp = matvec(2.0 * k_up[..., None, :, :], P)
        # per row (1, n) @ (n, 1), rounded as the single-point u @ v
        return (dH_dx[..., None, :] @ dF_dp[..., None]
                - dH_dp[..., None, :] @ dF_dx[..., None])

    return grid_max(brackets, points)
