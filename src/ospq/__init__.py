"""Exact computational algebra for deformed paraboson oscillators.

Layers, bottom to top:

- scalars / qcoeff: exact coefficients (Q(sqrt 2), and one fraction type
  over Laurent polynomials in s = q^(1/2) with canonical denominators).
- walgebra: the deformed Weyl algebra W_q(n) -- normal ordering, products,
  and the defining action of one letter on a Fock state.
- ospclassic: the classical orthosymplectic Lie superalgebra osp(1|2n) as
  exact graded matrices, with its defining triple relations.
- uqosp: the quantum superalgebra U_q[osp(1/2n)] -- Chevalley generators,
  the oscillator realization, and the full relation catalog.
- fockrep: the finite-dimensional Fock representation at q = exp(i*pi/k),
  unitarity checks, and the gl(n)-level decomposition.
- cli: the `ospq` command-line tool.
"""
from __future__ import annotations

__version__ = "0.1.0"

from .scalars import Q2
from .qcoeff import (
    QFrac,
    q_int,
    q_factorial,
    fock_norm_factor,
    eval_root,
)

__all__ = [
    "Q2",
    "QFrac",
    "q_int",
    "q_factorial",
    "fock_norm_factor",
    "eval_root",
    "__version__",
]
