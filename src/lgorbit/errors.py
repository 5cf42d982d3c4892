"""Shared exception types.

Three failure vocabularies are used across the library:

* ``StructureError``   -- malformed data handed to a constructor or operation
  (mismatched blocks, unknown variables, non-composable chains).
* ``PreconditionError`` -- a documented operation precondition was violated
  (off-sphere input, non-critical point, out-of-range parameter).
* ``DiagnosticError``  -- a computation could not certify its own consistency
  (a quiver chase or path basis that does not close, a non-integral
  Riemann-Roch value in toric).

``IndeterminatePointError`` narrows ``PreconditionError`` for evaluating a
rational map at a point of its base locus.
"""


class StructureError(ValueError):
    pass


class PreconditionError(ValueError):
    pass


class DiagnosticError(RuntimeError):
    pass


class IndeterminatePointError(PreconditionError):
    pass
