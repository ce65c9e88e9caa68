"""Exact-arithmetic toolkit for quantum Fermat algebras.

The package decides the Calabi-Yau criterion for the quotient of a skew
polynomial ring by the sum of n-th powers, computes the Frobenius
automorphism of the twisted exterior dual two independent ways, classifies
point modules (simplex faces, shift automorphisms, exact Fermat point
counts), and exhaustively censuses all commutation-exponent matrices for
small n.  Every computation is exact over cyclotomic fields; the package
contains no floating-point tolerances.

The package namespace re-exports nothing: import each name from the module
that defines it, e.g. ``from qfermat.hilb1 import hilb1``.
"""

__version__ = "0.1.0"
