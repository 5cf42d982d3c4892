"""lgorbit: exact and numerical certification of a Landau-Ginzburg model.

The library checks, claim by claim, the construction of a Lefschetz
fibration on the semisimple adjoint orbit of sl(2, C), its Lagrangian
thimble geometry, the directed Fukaya-Seidel category it generates, the
non-existence of a projective mirror, and the compactified picture on a
product of projective lines together with its Hirzebruch-surface and
quiver descriptions.
"""

__version__ = "0.1.0"

__all__ = ["__version__"]
