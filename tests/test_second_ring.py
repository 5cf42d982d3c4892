"""The exact certificates, re-checked over sympy instead of ``MultiHomPoly``.

The certificate formulas are ring-generic, so they run unchanged on sympy
symbols.  A fault in ``MultiHomPoly`` that makes an equality hold vacuously
then fails a test here, not only a report row.
"""

import ast
import itertools
from pathlib import Path

import pytest
import sympy

from lgorbit import compactification as cg
from lgorbit import symplectic
from lgorbit.errors import StructureError

REPORT = Path(cg.__file__).with_name("report.py")

# Certificates that cannot take sympy input yet, each with the reason.  This
# list may only shrink: the test below fails once one of them runs on sympy.
SYMPY_EXEMPT = {
    # substitutes the two forms into the MultiHomPoly graph surface
    "graph_extension_certificate",
}


def cofactor_certificates():
    """The certificate names report.py passes to ``certify_cofactors``."""
    names = []
    for node in ast.walk(ast.parse(REPORT.read_text(encoding="utf-8"))):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "certify_cofactors"
            and isinstance(node.args[0], ast.Attribute)
        ):
            names.append(node.args[0].attr)
    return sorted(set(names))


def test_the_report_certifies_cofactors():
    names = cofactor_certificates()
    assert "orbit_membership_certificate" in names
    assert SYMPY_EXEMPT <= set(names)


@pytest.mark.parametrize("name", cofactor_certificates())
def test_cofactor_certificate_holds_over_sympy(name):
    x, y, z, w = sympy.symbols("x y z w")
    relation = x * w - y * z - 1
    certificate = getattr(cg, name)
    if name in SYMPY_EXEMPT:
        with pytest.raises(StructureError):
            certificate(x, y, z, w)
        return
    pairs = certificate(x, y, z, w)
    assert pairs
    for diff, q in pairs:
        assert sympy.expand(diff - q * relation) == 0


def _sympy_basis():
    return [
        tuple(tuple(sympy.Rational(e.re) + sympy.I * sympy.Rational(e.im) for e in row)
              for row in a)
        for a in symplectic.su2_basis()
    ]


def test_sphere_lagrangian_identity_over_sympy():
    p, q, r = sympy.symbols("p q r", real=True)
    point = symplectic.sphere_embedding(p, q, r, sympy.I)
    tangents = [symplectic.commutator_triple(point, a) for a in _sympy_basis()]
    for u, v in itertools.combinations(tangents, 2):
        h = sympy.expand(symplectic.hermitian_pairing(u, v))
        assert h != 0
        assert sympy.expand(h - sympy.conjugate(h)) == 0


def test_sphere_off_infinity_identities_over_sympy():
    p, q, r = sympy.symbols("p q r", real=True)
    point = symplectic.sphere_embedding(p, q, r, sympy.I)
    assert sympy.expand(symplectic.orbit_residual(point) - (p**2 + q**2 + r**2 - 1)) == 0
    x, y, z = sympy.symbols("x y z")
    relation = symplectic.orbit_residual((x, y, z))
    m = ((x, y), (z, -x))
    square = cg.product(m, m)
    for i, j in itertools.product(range(2), repeat=2):
        assert sympy.expand(square[i][j] - int(i == j) - relation * int(i == j)) == 0


def _vanishes(expr):
    return sympy.expand(expr) == 0


def test_thimble_identities_over_sympy():
    lam, c, a, b = sympy.symbols("lam c a b", real=True)
    u = a + sympy.I * b
    disk, circle = c**2 + lam**2 - 1, a**2 + b**2 - 1
    point, d_lam, d_t = symplectic.thimble_chart(lam, c, u, sympy.conjugate(u), sympy.I)
    assert _vanishes(symplectic.orbit_residual(point) - disk - c**2 * circle)
    assert point[0] == lam and _vanishes(point[2] - sympy.conjugate(point[1]))
    assert _vanishes(symplectic.tangency_residual(point, d_lam) + 2 * lam * c * circle)
    assert _vanishes(symplectic.tangency_residual(point, d_t))
    assert _vanishes(symplectic.hermitian_pairing(d_lam, d_t))
    norm_lam = symplectic.hermitian_pairing(d_lam, d_lam)
    assert _vanishes(norm_lam - 2 - 2 * disk - 2 * lam**2 * circle)
    assert _vanishes(symplectic.hermitian_pairing(d_t, d_t) - 2 * c**2 - 2 * c**2 * circle)


def test_taming_identity_over_sympy():
    p0, q0, p1, q1, p2, q2 = sympy.symbols("p0 q0 p1 q1 p2 q2", real=True)
    v = (p0 + sympy.I * q0, p1 + sympy.I * q1, p2 + sympy.I * q2)
    norm = symplectic.hermitian_pairing(v, v)
    rotated = symplectic.hermitian_pairing(v, tuple(sympy.I * e for e in v))
    assert _vanishes(rotated + sympy.I * norm)
    assert _vanishes(norm - 2 * (p0**2 + q0**2) - (p1**2 + q1**2) - (p2**2 + q2**2))


def test_cylinder_chart_identities_over_sympy():
    lam, x, y, z, u = sympy.symbols("lam x y z u")
    unit = y * u - 1
    chart = symplectic.cylinder_chart(lam, y, u)
    assert _vanishes(symplectic.orbit_residual(chart) - (1 - lam**2) * unit)
    ideal = -z * unit + u * symplectic.orbit_residual((x, y, z)) - u * (x + lam) * (x - lam)
    assert _vanishes(z - chart[2] - ideal)
