"""The adjoint coefficient field, assembled on its own.

The package builds adjoint kernels from the forward operator, whose transpose
is the adjoint stiffness.  Tests compare them against kernels of this field,
tA[alpha, beta, i, j] = A[beta, alpha, j, i], assembled and solved as a
forward system of its own.
"""

from neumannlab.coeff import CoefficientField


def adjoint_coefficients(fld):
    """tA[alpha, beta, i, j] = A[beta, alpha, j, i]; an involution."""
    base = getattr(fld, "adjoint_of", None)
    if base is not None:
        return base

    def ev(pts):
        return fld.evaluate(pts).transpose(0, 2, 1, 4, 3)

    adj = CoefficientField(fld.m, fld.lam, fld.bound, ev)
    adj.adjoint_of = fld
    return adj
