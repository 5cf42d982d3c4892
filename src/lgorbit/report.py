"""The verification suites: each check is declared once; one runner evaluates them.

A suite is an inputs function and its checks, declared in row order.  The
inputs function imports the layers the suite calls, so running one suite
loads only those modules, and computes what several checks share; its local
names are the shared inputs.  A check is an id, an anchor and a verdict
whose parameters name the shared inputs it reads; the verdict returns
(ok, detail) or (ok, detail, residual).  ok is "assumption" for the
enumerated statements that cannot be checked computationally (the
symplectic patching step, and the cited classification and K-theory
propositions), so a clean run never silently upgrades them.

A check that raises becomes a failing row whose detail is "raised <Type>:
<message>", and the next check still runs; when the shared inputs raise,
every row of that suite fails that way.

Reports are deterministic: the same configuration and seed produce byte
identical JSON, which the determinism suite relies on.
"""

from __future__ import annotations

import json
from typing import Callable, Dict, List, Mapping, NamedTuple, Optional, Tuple

from .errors import PreconditionError

SCHEMA_VERSION = 1


class Config(NamedTuple):
    seed: int = 0
    sphere_samples: int = 1000
    box_margin: int = 1
    t_range: int = 10


# Size bounds, so the largest allowed run of each suite takes seconds (README)
MAX_SPHERE_SAMPLES = 100_000
MAX_T_RANGE = 1000


def load_config(path: Optional[str] = None, overrides: Optional[Mapping] = None) -> Config:
    """Read a JSON config file and apply command-line overrides on top."""
    data: Dict = {}
    if path is not None:
        with open(path, "r", encoding="utf-8") as handle:
            try:
                loaded = json.load(handle)
            except RecursionError:
                raise PreconditionError("config file is nested too deeply") from None
        if not isinstance(loaded, dict):
            raise PreconditionError("config file must hold a JSON object")
        data.update(loaded)
    if overrides:
        for key, value in overrides.items():
            if value is not None:
                data[key] = value
    unknown = set(data) - set(Config._fields)
    if unknown:
        raise PreconditionError(f"unknown config keys: {sorted(unknown)}")
    for key in Config._fields:
        # every key is an int; JSON true/false arrive as bool, which Python counts as one
        if key in data and (isinstance(data[key], bool) or not isinstance(data[key], int)):
            raise PreconditionError(f"config key {key!r} has the wrong type")
    cfg = Config(**data)
    for key, least in (("sphere_samples", 1), ("box_margin", 0), ("t_range", 1)):
        if getattr(cfg, key) < least:
            raise PreconditionError(f"{key} must be at least {least}")
    for key, bound in (("sphere_samples", MAX_SPHERE_SAMPLES), ("t_range", MAX_T_RANGE)):
        if getattr(cfg, key) > bound:
            raise PreconditionError(f"{key} must be at most {bound}")
    return cfg


class CheckResult(NamedTuple):
    id: str
    anchor: str
    status: str
    detail: str
    residual: Optional[float] = None


class Check(NamedTuple):
    """One declared row; ``verdict`` reads the shared inputs its parameters name."""

    id: str
    anchor: str
    verdict: Callable[..., tuple]


def _raised(exc: Exception) -> str:
    return f"raised {type(exc).__name__}: {exc}"


def _evaluate(
    inputs: Callable, checks: Tuple[Check, ...], cfg: Config
) -> Tuple[List[CheckResult], Dict[str, object]]:
    """One suite's rows, in declared order, and its tables."""
    try:
        shared, tables = inputs(cfg)
    except Exception as exc:  # no check runs without what it shares
        return [CheckResult(c.id, c.anchor, "fail", _raised(exc)) for c in checks], {}
    rows = []
    for check in checks:
        code = check.verdict.__code__
        try:
            ok, detail, *residual = check.verdict(
                *(shared[name] for name in code.co_varnames[: code.co_argcount])
            )
        except Exception as exc:
            rows.append(CheckResult(check.id, check.anchor, "fail", _raised(exc)))
            continue
        status = ok if ok == "assumption" else "pass" if ok else "fail"
        rows.append(CheckResult(check.id, check.anchor, status, detail, *residual))
    return rows, tables


def _certified(identities: Callable, names: str) -> bool:
    """Whether poly.certify passes identities(*symbols), one symbol per name."""
    from . import poly
    return poly.certify(identities(*poly.variables(names))) is None


# every suite's declared checks, in row order, keyed by suite name
CHECKS: Dict[str, Tuple[Check, ...]] = {}


def _suite(inputs: Callable, *checks: Check) -> Callable:
    """Declare a suite; the returned plain function, bound to suite_<name>,
    runs it on one config (perfbench's tracer times suites by that name)."""
    CHECKS[checks[0].id.split(".")[0]] = checks

    def suite(cfg: Config) -> Tuple[List[CheckResult], Dict[str, object]]:
        return _evaluate(inputs, checks, cfg)

    return suite


# -------------------------------------------------------------------- lie


def _lie(cfg: Config):
    from . import lie
    h = lie.SL2_BASE
    points = lie.critical_points(h, h)
    critical = _certified(lie.sl2_critical_identities, "x y z")
    return locals(), {}


def _critical_count(diag, regular_h, expected):
    """The verdict that the orbit of diag(diag) has ``expected`` critical points."""

    def verdict(lie):
        h0, hh = lie.CartanDiagonal(diag), lie.CartanDiagonal(regular_h)
        count, enumerated = lie.critical_count(h0, hh), len(lie.critical_points(h0, hh))
        return (
            count == expected == enumerated,
            f"orbit of diag{diag}: formula gives {count}, enumeration gives "
            f"{enumerated}, expected {expected}",
        )

    return verdict


def _hessian_nondegenerate(lie, h, points):
    """Each sl(2) critical point's chart Hessian is certified and nondegenerate."""
    dets = [abs(lie.hessian_determinant(h, h, d)) for d in points]
    certified = all(_certified(lambda *u: lie.hessian_identities(h, h, d, *u), "u01 u10")
                    for d in points)
    return (certified and min(dets) != 0,
            "exact chart Hessian determinant magnitude at both critical points: "
            "tr(H [Z, [Z, P]]) = sum (p_j - p_i)(h_j - h_i) u_ij u_ji at Z = sum u_ij E_ij, "
            "so the Hessian pairs each E_ij with E_ji by (p_j - p_i)(h_j - h_i)",
            float(min(dets)))


suite_lie = _suite(
    _lie,
    Check("lie.critical-set", "claim:height-critical-set-two-points",
          lambda points, critical: (
              critical and points == {(1, -1), (-1, 1)},
              "at X = [[x, y], [z, -x]] and H = diag(1, -1), [X, H] = [[0, -2y], [2z, 0]] and "
              "x^2 - 1 = (x^2 + yz - 1) - y*z: the critical points on the orbit are (x, y, z) "
              "= (1, 0, 0) and (-1, 0, 0), the diagonals diag(1, -1) and diag(-1, 1), exactly",
          )),
    Check("lie.critical-heights", "claim:critical-values-plus-minus-two",
          lambda lie, h, points, critical: (
              critical and {lie.height(h, lie.diagonal(d)) for d in points} == {2, -2},
              "tr(H X) = 2x on the orbit: the two critical heights are 2 and -2 and "
              "are distinct",
          )),
    Check("lie.hessian-nondegenerate", "claim:morse-nondegeneracy", _hessian_nondegenerate),
    *(
        Check(check_id, "claim:critical-point-count-formula", _critical_count(*orbit))
        for check_id, *orbit in (
            ("lie.count-sl3-regular", (1, 0, -1), (1, 0, -1), 6),
            ("lie.count-sl3-degenerate", (1, 1, -2), (1, 0, -1), 3),
            ("lie.count-sl4-paired", (1, 1, -1, -1), (3, 1, -1, -3), 6),
        )
    ),
    Check("lie.orbit-membership-exact", "claim:orbit-is-conjugation-invariant",
          lambda lie: (
              _certified(lie.orbit_membership_identities, "x y z w"),
              "at a = [[x, z], [y, w]], with R = xw - yz - 1, M = a diag(1, -1) adj(a) "
              "has trace 0*R and x^2 + yz - 1 = (R + 2)*R on M's coordinates "
              "(cofactors 0, R + 2): every conjugate of the base diagonal is on the orbit",
          )),
)


# ------------------------------------------------------------- symplectic


def _symplectic(cfg: Config):
    from . import symplectic
    sampled_taming = symplectic.check_sphere_lagrangian(cfg.sphere_samples, cfg.seed)
    tamed = _certified(symplectic.taming_identities, "p0 q0 p1 q1 p2 q2 i")
    thimble = _certified(symplectic.thimble_identities, "lam c a b i")
    return locals(), {}


suite_symplectic = _suite(
    _symplectic,
    Check("symplectic.sphere-tangent-frame", "claim:sphere-is-lagrangian",
          lambda symplectic: (
              _certified(symplectic.sphere_frame_identities, "p q r i"),
              "over real symbols p, q, r, each su(2) tangent u = [S, A_k] at "
              "S = (r, -p + iq, -p - iq) has tangency residual 0, u0 = conj(u0) and "
              "u2 = conj(u1); on the rows (Re u0, Re u1, Im u1) the determinant is 0 and "
              "the nine 2x2 minors have squares summing to 16 (p^2 + q^2 + r^2)^2, so "
              "the tangents are Hermitian and span exactly the tangent plane of the sphere",
          )),
    Check("symplectic.sphere-lagrangian-exact", "claim:sphere-is-lagrangian",
          lambda symplectic: (
              _certified(symplectic.sphere_lagrangian_identities, "p q r i"),
              "over real symbols p, q, r, the pairing of each two su(2) tangents at "
              "(r, -p + iq, -p - iq) equals its own conjugate, so Omega is the zero "
              "polynomial on all of R^3",
          )),
    Check("symplectic.taming", "claim:form-tames-complex-structure",
          lambda tamed, sampled_taming: (
              tamed and sampled_taming > 0,
              "over real symbols, h(v, iv) = -i h(v, v) for every v in C^3, so "
              "omega(v, Jv) = h(v, v) = 2(p0^2 + q0^2) + (p1^2 + q1^2) + (p2^2 + q2^2), "
              "a positive-weight sum of squares; float cross-check: the smallest "
              "pairing of a sampled nonzero sphere tangent against its complex rotation",
              sampled_taming,
          )),
    Check("symplectic.thimble-grid", "claim:thimble-is-lagrangian-disk",
          lambda thimble: (
              thimble,
              "over real symbols lambda, c, a, b with u = a + ib, modulo D = c^2 + "
              "lambda^2 - 1 and C = a^2 + b^2 - 1, the chart (lambda, cu, c conj(u)) has "
              "orbit residual D + c^2 C, x = lambda and z = conj(y), so each circle lies "
              "in its fiber and in the sphere; the tangents c d/dlambda and d/dt have "
              "tangency -2 lambda c C and 0 and pairing 0, so Omega vanishes identically",
          )),
    Check("symplectic.thimble-taming", "claim:form-tames-complex-structure",
          lambda tamed, thimble: (
              tamed and thimble,
              "omega(v, Jv) = h(v, v) on C^3, and the thimble tangents c d/dlambda and "
              "d/dt have h = 2 + 2D + 2 lambda^2 C and 2c^2 + 2c^2 C, that is 2 and "
              "2(1 - lambda^2) on the thimble, positive for |lambda| < 1",
          )),
    Check("symplectic.matching-circle-gluing", "claim:two-thimbles-glue-to-sphere",
          lambda symplectic: (
              (gluing := symplectic.matching_circles_distance()) < symplectic.FLOAT_TOL,
              f"the two thimble halves agree on the equator circle to {gluing:.3e}",
              gluing,
          )),
    Check("symplectic.cylinder-chart", "claim:fiber-is-a-cylinder",
          lambda symplectic: (
              _certified(symplectic.cylinder_chart_identities, "lam x y z u"),
              "for lambda^2 != 1, y -> (lambda, y, (1 - lambda^2)/y) and (x, y, z) -> y "
              "are inverse maps between C* and the fiber x = lambda: with u = 1/y, the "
              "chart's orbit residual is (1 - lambda^2)(yu - 1), and z minus the chart's "
              "z lies in the ideal of yu - 1, the orbit equation and x - lambda",
          )),
)


# --------------------------------------------------------------- category


def _category(cfg: Config):
    from . import fukaya, mirror, toric
    cat = fukaya.lg2_category()
    table = cat.hom_table()
    # object i shifted by 2i; the matcher must solve the inverse shifts
    planted = tuple(range(0, 2 * len(cat.objects), 2))
    # L0 -> O(-E), L1 -> O on the degree-2 surface
    pair = toric.EXCEPTIONAL_PAIR
    return locals(), {
        "fukaya_hom": {
            f"hom(L{i},L{j})": {str(d): r for d, r in sorted(ranks.items())}
            for (i, j), ranks in sorted(table.items())
        }
    }


suite_category = _suite(
    _category,
    Check("category.a-infinity-relations", "claim:directed-category-satisfies-a-infinity",
          lambda fukaya, cat: (
              fukaya.check_a_infinity(cat),
              "every composable chain of arity "
              f"{', '.join(map(str, fukaya.relation_arities(cat)))} satisfies the signed "
              "associativity relations over the integers; no relation of another arity "
              "has a nonzero term",
          )),
    Check("category.strict-unitality", "claim:identities-are-strict-units",
          lambda fukaya, cat: (
              fukaya.check_strict_unitality(cat),
              "binary products against identities reproduce each generator with "
              "coefficient one and identities never feed other arities",
          )),
    Check("category.degree-forced-vanishing", "claim:higher-products-vanish-by-degree",
          lambda fukaya, cat: (
              fukaya.degree_forced_vanishing(cat) == [],
              "no chain of two or more non-identity generators admits a target "
              "of the right degree, so all higher products vanish by grading",
          )),
    Check("category.differential-slot", "claim:only-the-differential-slot-is-open",
          lambda fukaya, cat: (
              fukaya.degree_forced_vanishing(cat, min_arity=1) == [(1, ("x0",), 1)],
              "surveying arity one as well leaves exactly one degree-admissible "
              "slot, the differential on the degree-zero generator",
          )),
    Check("category.morse-circle-differential", "claim:circle-differential-cancels",
          lambda fukaya: (
              (morse := fukaya.morse_circle_floer()).differential == ((0,),)
              and morse.cohomology == {0: 1, 1: 1},
              "the two flow lines carry opposite signs, the differential is zero "
              "and both generators survive, closing the open slot",
          )),
    Check("category.hom-table", "claim:hom-table-matches-circle-cohomology",
          lambda table: (
              table == {(0, 0): {0: 1}, (0, 1): {0: 1, 1: 1}, (1, 0): {}, (1, 1): {0: 1}},
              "one identity per object, nothing backward, and the forward space "
              "equals the circle cohomology with one class in each degree",
          )),
    Check("category.shift-matching-sanity", "claim:shift-matching-control",
          lambda fukaya, table, planted: (
              fukaya.tables_equal(table, table) == (0,) * len(planted)
              and fukaya.tables_equal(fukaya.shift_table(table, planted), table)
              == tuple(-s for s in planted),
              "the matcher finds the identity assignment and undoes a planted "
              "object shift, so a mirror would not be missed for shift reasons",
          )),
    Check("category.projective-line-mismatch", "claim:no-projective-line-mirror-table",
          lambda fukaya, mirror, table: (
              fukaya.tables_equal(table, mirror.ext_hom_table(mirror.EXCEPTIONAL_PAIR)) is None,
              "no object shifts make the table match the projective-line exceptional-pair "
              "table: the forward hom forces the only candidate shift, and it differs",
          )),
    # the controls move the pair to the degree 0 and 1 surfaces, or swap it
    # on the degree-2 one
    Check("category.f2-ext-equivalence", "claim:category-matches-f2-line-bundles",
          lambda toric, table, pair: (
              table == toric.ext_hom_table(toric.HirzebruchFan(2), pair)
              and table not in [toric.ext_hom_table(toric.HirzebruchFan(a), bundles)
                                for a, bundles in ((0, pair), (1, pair), (2, pair[::-1]))],
              "sending L0 to O(-E) and L1 to O matches every hom space with the Ext "
              "groups on the degree-2 surface, degree by degree; the degree 0 and 1 "
              "surfaces and the swapped assignment do not match",
          )),
)


# ---------------------------------------------------------------- sheaves


def _sheaves(cfg: Config):
    from . import toric
    fans = {a: toric.HirzebruchFan(a) for a in (0, 1, 2)}
    fan2 = fans[2]

    # toric caches each class, and the rows below repeat classes
    def coh(
        c: toric.PicClass, fan: toric.HirzebruchFan, margin: int = cfg.box_margin
    ) -> toric.CohDims:
        return toric.cohomology_dims(fan, toric.pic_to_divisor(fan, c), margin)

    bundle = dict(zip(("O(-E)", "O"), toric.EXCEPTIONAL_PAIR))
    section_classes = {
        "O": (bundle["O"], (1, 0, 0)),
        "O(E)": (toric.PicClass(1, 0), (1, 1, 0)),
        "O(-E)": (bundle["O(-E)"], (0, 0, 0)),
    }
    ext_table = {
        (x, y): toric.ext_dims(fan2, bundle[x], bundle[y]).triple for x in bundle for y in bundle
    }
    return locals(), {
        "f2_ext": {
            f"ext({x},{y})": list(triple) for (x, y), triple in sorted(ext_table.items())
        }
    }


def _hypersurface_controls(toric):
    x0, x1, _, y0, y1 = toric.f2_variables()
    return (
        not toric.verify_f2_hypersurface(x0 * y0 * y0)
        and not toric.verify_f2_hypersurface(x0 * y0 - x1 * y1),
        "a monomial equation and a wrong-bidegree equation are both "
        "rejected by the same entry point",
    )


suite_sheaves = _suite(
    _sheaves,
    Check("sheaves.divisor-conventions", "claim:picard-basis-and-fan-agree",
          lambda toric, fans: (
              all(toric.verify_divisor_convention(f) for f in fans.values()),
              "ray self-intersections, pairings, principal relations and the "
              "canonical class all match the section-and-fiber basis for a in 0..2",
          )),
    Check("sheaves.section-class-cohomology", "claim:negative-section-cohomology-table",
          lambda coh, fan2, section_classes: (
              all(coh(c, fan2).triple == want for c, want in section_classes.values()),
              "cohomology of the trivial, section, and minus-section classes on "
              "the degree-2 surface is (1,0,0), (1,1,0), (0,0,0)",
          )),
    Check("sheaves.ext-table", "claim:line-bundle-ext-table",
          lambda ext_table: (
              ext_table == {
                  ("O", "O"): (1, 0, 0),
                  ("O(-E)", "O(-E)"): (1, 0, 0),
                  ("O(-E)", "O"): (1, 1, 0),
                  ("O", "O(-E)"): (0, 0, 0),
              },
              "the four Ext triples between the trivial and minus-section line "
              "bundles match the frozen table exactly",
          )),
    Check("sheaves.riemann-roch-sweep", "claim:euler-characteristic-formula",
          lambda toric, fans, coh: (
              all(
                  coh(c, fan).euler == toric.euler_rr(c, a)
                  for a, fan in fans.items() for p in range(-5, 6) for q in range(-5, 6)
                  for c in [toric.PicClass(p, q)]
              ),
              "alternating sums match the intersection-number formula for all "
              "classes with |p|, |q| <= 5 on the degree 0, 1, 2 surfaces",
          )),
    Check("sheaves.serre-duality", "claim:serre-duality-spot-checks",
          lambda toric, fans, coh: (
              all(
                  coh(c, fan).triple == tuple(reversed(coh(k - c, fan).triple))
                  for a, fan in fans.items() for k in [toric.canonical_class(a)]
                  for p in range(-3, 4) for q in range(-3, 4) for c in [toric.PicClass(p, q)]
              ),
              "cohomology of each class with |p|, |q| <= 3 mirrors the "
              "cohomology of the canonical twist in reverse order",
          )),
    Check("sheaves.fiber-class-sections", "claim:fiber-multiples-have-q-plus-1-sections",
          lambda toric, fans, coh: (
              all(coh(toric.PicClass(0, q), fan).triple == (q + 1, 0, 0)
                  for fan in fans.values() for q in range(0, 6)),
              "multiples of the fiber class have q + 1 sections and no higher "
              "cohomology on every surface checked",
          )),
    Check("sheaves.box-stability", "claim:character-box-is-stable",
          lambda coh, fan2, section_classes, cfg: (
              all(coh(c, fan2) == coh(c, fan2, cfg.box_margin + 2)
                  for c, _want in section_classes.values()),
              "enlarging the summation margin by two changes no dimension",
          )),
    Check("sheaves.surface-invariants", "claim:rational-surface-invariants",
          lambda toric, fans: (
              all(
                  toric.intersection(toric.canonical_class(a), toric.canonical_class(a), a) == 8
                  and toric.euler_rr(toric.PicClass(0, 0), a) == 1
                  for a in fans
              ),
              "canonical self-intersection 8 and structure-sheaf Euler "
              "characteristic 1 on every surface checked",
          )),
    Check("sheaves.hypersurface-model", "claim:surface-embeds-as-(1,2)-hypersurface",
          lambda toric: (
              toric.verify_f2_hypersurface() and len(toric.F2_CHARTS) == 6,
              "the bidegree (1,2) equation is irreducible and six affine chart "
              "certificates write 1 in the Jacobian ideal, so it is smooth",
          )),
    Check("sheaves.hypersurface-controls", "claim:hypersurface-check-rejects-controls",
          _hypersurface_controls),
)


# ----------------------------------------------------------------- quiver


def _quiver(cfg: Config):
    from . import fukaya, quiver, toric
    cat = fukaya.lg2_category()
    blocks = quiver.end_algebra(cat)
    return locals(), {}


suite_quiver = _suite(
    _quiver,
    Check("quiver.path-basis", "claim:path-algebra-has-dimension-five",
          lambda quiver, cat, blocks: (
              {pair: len(basis) for pair, basis in blocks.items()}
              == {("O", "O"): 1, ("O", "X"): 1, ("X", "O"): 1, ("X", "X"): 2}
              and all(quiver.identity(cat, s) in blocks[(s, s)] for s in quiver.SUMMANDS),
              "H^0 of End(O + X) has blocks Hom(O, O), Hom(O, X), Hom(X, O), End X of "
              "dimensions 1, 1, 1, 2: the identities of O and X, one morphism each way, "
              "and one loop at X",
          )),
    Check("quiver.composition-pattern", "claim:one-composite-vanishes-the-other-does-not",
          lambda quiver, cat, blocks: (
              len((trips := quiver.round_trips(cat, blocks))[1]) == 1
              and trips[1][0] in blocks[("X", "X")] and trips[0] == trips[2] == [{}],
              "m_2 on twisted complexes makes O -> X -> O zero and X -> O -> X a "
              "basis loop of H^0(End X), and that loop squares to zero",
          )),
    Check("quiver.tilting-rank-chase", "claim:endomorphism-dimensions-one-one-one-two",
          lambda quiver, cat, blocks: (
              (tilting := quiver.end_algebra_dims_tilting(cat)).hom_dims == (1, 1, 1, 2)
              and tilting.higher_ext_vanish
              and tilting.total == sum(map(len, blocks.values())),
              "Hom between O = L1 and the twisted complex X = (L0 + L1, x1) gives "
              "dimensions (1, 1, 1, 2) with all higher Ext zero, total five, "
              "matching the path algebra",
          )),
    Check("quiver.connecting-map-injectivity", "claim:connecting-map-is-injective",
          lambda quiver, cat: (
              quiver.twisted_hom_cohomology(cat, quiver.SUMMANDS["X"], quiver.SUMMANDS["O"])
              == {0: 1},
              "H*(Hom(X, O)) = {0: 1}: d(id_L1) = m_2(x1, id_L1) = x1 by strict "
              "unitality, so the connecting map is injective on the extension class",
          )),
    Check("quiver.dg-zero-cohomology", "claim:dg-quiver-reproduces-floer-table",
          lambda fukaya, quiver, cat: (
              quiver.twisted_hom_cohomology(cat, quiver.L0, quiver.L1)
              == fukaya.morse_circle_floer().cohomology,
              "with the zero differential, H*(Hom(L0, L1)) over the thimble category "
              "equals the Morse cohomology of the circle, one class in each degree",
          )),
    Check("quiver.dg-literal-acyclic", "claim:literal-differential-is-acyclic",
          lambda quiver, cat: (
              quiver.twisted_hom_cohomology(quiver.literal_differential(cat), quiver.L0, quiver.L1)
              == {},
              "filling the open slot literally, m_1(x0) = x1, kills H*(Hom(L0, L1)), so "
              "that reading is flagged as acyclic rather than matching the table",
          )),
    Check("quiver.undirected-backward-hom", "claim:backward-hom-survives-only-undirected",
          lambda cat, blocks: (
              len(blocks[("X", "O")]) == 1 and cat.hom_table()[(1, 0)] == {},
              "End(O + X) keeps one morphism X -> O in degree 0, while the directed "
              "thimble category has none from L1 to L0: the backward arrow lives on "
              "the tilting object, not between the thimbles",
          )),
    Check("quiver.k-group-rank", "claim:k-group-is-free-of-rank-two",
          lambda quiver, toric, cat: (
              (euler := quiver.euler_form_matrix(toric.EXCEPTIONAL_PAIR)).rank() == 2
              and euler == quiver.thimble_euler_form(cat),
              "the Euler-form matrix of (O(-E), O), with entries chi from the "
              "Ext dimensions on the degree-2 surface, has rank two and equals the "
              "thimbles' Euler form, the alternating sum of their hom ranks",
          )),
)


# ----------------------------------------------------------------- mirror


def _mirror(cfg: Config):
    from . import mirror
    return locals(), {}


def _exclusion_table(mirror, cfg):
    rows = mirror.exclusion_table(cfg.t_range)
    return all(r.verified for r in rows), "; ".join(f"{r.case}: {r.reason}" for r in rows)


suite_mirror = _suite(
    _mirror,
    Check("mirror.main-search", "claim:no-projective-line-object-pair",
          lambda mirror, cfg: (
              mirror.search_mirror_pair(cfg.t_range) is None,
              f"no ordered pair of shifted line bundles or point sheaves with "
              f"twists within {cfg.t_range} reproduces the forward table with "
              "vanishing backward morphisms and simple endomorphisms",
          )),
    Check("mirror.control-witness", "claim:search-control-finds-known-pair",
          lambda mirror, cfg: (
              (found := mirror.search_mirror_pair(cfg.t_range, target_forward={0: 2}))
              is not None and found.forward == ((0, 2),),
              "relaxing only the target to two degree-zero morphisms finds the "
              "standard exceptional pair, so the search is not vacuous",
          )),
    Check("mirror.control-relaxed-distinct", "claim:distinct-pairs-fail-even-relaxed",
          lambda mirror, cfg: (
              mirror.search_mirror_pair(
                  cfg.t_range, require_backward_zero=False, require_end_simple=False
              ) is None,
              "even with the backward and endomorphism constraints dropped no "
              "pair of distinct objects realizes the forward table",
          )),
    Check("mirror.control-self-pair", "claim:self-pair-needs-dropped-constraints",
          lambda mirror, cfg: (
              mirror.search_mirror_pair(
                  cfg.t_range,
                  require_backward_zero=False,
                  require_end_simple=False,
                  allow_self_pairs=True,
              ) is not None,
              "a point sheaf against itself does realize the forward pattern, "
              "but only after dropping the constraints the target imposes",
          )),
    Check("mirror.stability", "claim:search-stable-under-enlargement",
          lambda mirror, cfg: (
              mirror.search_mirror_pair(2 * cfg.t_range, mirror.SHIFT_WINDOW + 2) is None,
              f"stability note: the window doubled to twists within "
              f"{2 * cfg.t_range} and shifts within {mirror.SHIFT_WINDOW + 2} and "
              "still no witness appears",
          )),
    Check("mirror.exclusion-table", "claim:casewise-exclusion-reasons", _exclusion_table),
    Check("mirror.dimension-bound", "claim:rank-bounds-dimension",
          lambda mirror: (
              all(mirror.dimension_bound_verdict(n, 2) == "excluded" for n in range(2, 7))
              and mirror.dimension_bound_verdict(1, 2) == "admissible",
              "a variety of dimension two or more needs at least three free "
              "generators, so rank two excludes it; dimension one survives "
              "to the casewise argument",
          )),
    Check("mirror.euler-pairing", "claim:euler-pairing-matches-twist-difference",
          lambda mirror: (
              mirror.euler_pairing_identity(span=30),
              "the alternating sum of the closed-form dimensions equals the "
              "twist difference plus one across the swept window",
          )),
    Check("mirror.cited-classification-inputs", "claim:cited-classification-inputs",
          lambda: (
              "assumption",
              "three literature inputs are consumed unverified: the "
              "classification of smooth projective curves with rank-two K-group, "
              "the K-group computations for the singular and affine cases, and "
              "the general bound used for higher-dimensional targets",
          )),
)


# -------------------------------------------------------- compactification


def _compactification(cfg: Config):
    from fractions import Fraction
    from . import compactification as geo
    # entries (x, y, z, w) of the identity and of the shear [[1, 1], [0, 1]]
    ident, shear = (1, 0, 0, 1), (1, 0, 1, 1)
    half = Fraction(1, 2)
    return locals(), {}


def _brackets(coords) -> str:
    """A point of P1 as [a:b]."""
    return "[" + ":".join(map(str, coords)) + "]"


suite_compactification = _suite(
    _compactification,
    Check("compactification.quadric-presentations", "claim:closure-is-the-product-quadric",
          lambda geo: (
              geo.quadric_change_check(),
              "homogenization, the shear to a rank-4 quadric, the rescaling onto "
              "the determinant relation, and the rank-3 conic at infinity are "
              "all exact identities; "
              + "; ".join(sorted(geo.SIGN_CONVENTIONS)),
          )),
    Check("compactification.tensor-projector",
          "claim:tensor-matrix-is-a-trace-one-projector",
          lambda geo, ident, shear: (
              geo.tensor_entries(*ident) == ((1, 0), (0, 0))
              and geo.tensor_entries(*shear) == ((1, -1), (0, 0))
              and _certified(geo.tensor_projector_identities, "x y z w"),
              "identity and shear examples match; at a = [[x, z], [y, w]], with "
              "R = xw - yz - 1, trace - 1 = 1*R, M col1 - col1 = R*col1, M col2 = 0*R "
              "(cofactors 1, col1, 0): a trace-one projector on all of SL(2)",
          )),
    Check("compactification.moment-conjugation", "claim:moment-matrix-is-a-conjugate",
          lambda geo, ident, shear, half: (
              geo.moment_map(*ident) == ((half, 0), (0, -half))
              and geo.moment_map(*shear) == ((half, -1), (0, -half))
              and _certified(geo.moment_conjugation_identities, "x y z w"),
              "identity and shear examples match; the generic moment matrix is "
              "a diag(1/2, -1/2) adj(a) (cofactor 0) and M col1 - col1/2 = "
              "(R/2)*col1 (cofactor col1/2): column one is an eigenvector",
          )),
    Check("compactification.extension-on-orbit", "claim:extension-restricts-to-the-height",
          lambda geo: (
              _certified(geo.extension_on_orbit_identities, "x y z w"),
              "num*1 - den*height = -(xw + yz)*R at the generic eigenline pair "
              "(cofactor -(xw + yz)): the value is [height : 1] on all of SL(2)",
          )),
    Check("compactification.extension-off-orbit",
          "claim:extension-sends-infinity-to-one-zero",
          lambda geo: (
              geo.parallel(geo.rational_extension((1, 1), (1, 1)), (1, 0))
              and geo.parallel(geo.rational_extension((1, 0), (0, 1)), (1, 1)),
              "the identity eigenline pair maps to [1:1] and a non-orbit point "
              "maps to [1:0], both exactly",
          )),
    Check("compactification.extension-scaling", "claim:extension-is-projectively-defined",
          lambda geo: (
              _certified(geo.scaling_identities, "x y z w lam mu r s"),
              "both forms xw + yz and xw - yz have bidegree (1, 1), so rescaling "
              "the factors by l and m multiplies both by l*m",
          )),
    Check("compactification.base-locus", "claim:two-indeterminate-points",
          lambda geo: (
              geo.base_locus_certificate(),
              "the forms generate (xw, yz), as xw = (num + den)/2 and yz = (num - den)/2, "
              "so each common zero has a zero coordinate in each factor; of the four "
              "torus-fixed points the map fails at the two base points only, with the "
              "defined error",
          )),
    Check("compactification.graph-smooth", "claim:graph-closure-is-smooth",
          lambda geo: (
              geo.graph_smooth_check() and len(geo.GRAPH_CHARTS) == 8,
              "in each of the eight affine charts a certificate writes 1 as a "
              "combination of the equation and its partials",
          )),
    Check("compactification.graph-contains-extension", "claim:closure-extends-the-graph",
          lambda geo: (
              _certified(geo.graph_extension_identities, "x y z w")
              and _certified(geo.exceptional_fiber_identities, "r s"),
              "with r, s replaced by xw + yz, xw - yz the trilinear equation is the "
              "zero polynomial (cofactor 0); over both base points it vanishes too",
          )),
    Check("compactification.critical-classification", "claim:two-degenerate-values",
          lambda geo: (
              geo.singular_points_certificate(),
              "values " + " and ".join(map(_brackets, geo.DEGENERATE_VALUES))
              + " are degenerate with unique singular points "
              + " and ".join("(" + ",".join(map(_brackets, pt)) + ")" for pt in geo.SINGULAR_POINTS)
              + ", certified by fiber and Jacobian vanishing",
          )),
    Check("compactification.singular-scan", "claim:no-other-degenerate-values",
          lambda geo: (
              geo.degenerate_values_certificate(),
              "the graph equation's coefficient matrix, read off its second partials "
              "in (x, y) x (z, w), has determinant r^2 - s^2, a nonzero multiple of "
              "(r - s)(r + s), so [1:1] and [1:-1] are the only degenerate values",
          )),
    Check("compactification.deformed-ring", "claim:deformation-at-time-two-is-the-orbit",
          lambda geo: (
              _certified(geo.deformed_ring_identities, "x y z")
              and not _certified(geo.unchanged_ring_certificate, "x y z"),
              "the affine change of coordinates carries one equation to a scalar "
              "multiple of the other, and the identity substitution does not",
          )),
    # the assumption stands on its supporting check; a failed one fails the row
    Check("compactification.symplectic-patching", "claim:compactified-category-unchanged",
          lambda geo: (
              "assumption" if (supported := geo.sphere_off_infinity_certificate()) else False,
              "the patching construction of a symplectic structure near infinity "
              "is not machine checked; supporting exact check "
              + ("passed" if supported else "FAILED")
              + ": the sphere's orbit residual is (p^2 + q^2 + r^2 - 1) times 1; each "
              "orbit matrix M = [[x, y], [z, -x]] has M M - I = (x^2 + yz - 1) I, so it "
              "is a trace-0 involution with distinct eigenlines, whose pair is off the "
              "diagonal; and both base points lie on the diagonal",
          )),
)


# ------------------------------------------------------------ report shell


SUITES = {
    "category": suite_category,
    "compactification": suite_compactification,
    "lie": suite_lie,
    "mirror": suite_mirror,
    "quiver": suite_quiver,
    "sheaves": suite_sheaves,
    "symplectic": suite_symplectic,
}


class Report(NamedTuple):
    schema: int
    suite: str
    config: Dict
    results: Tuple[CheckResult, ...]
    tables: Dict[str, object]

    @property
    def counts(self) -> Dict[str, int]:
        out = {"pass": 0, "fail": 0, "assumption": 0}
        for result in self.results:
            out[result.status] += 1
        return out

    @property
    def failed(self) -> bool:
        return any(r.status == "fail" for r in self.results)


def run(suite: str, cfg: Config) -> Report:
    """Run one suite, or all of them in name order, and assemble the report."""
    if suite == "all":
        names = sorted(SUITES)
    elif suite in SUITES:
        names = [suite]
    else:
        raise PreconditionError(f"unknown suite {suite!r}")
    results: List[CheckResult] = []
    tables: Dict[str, object] = {}
    for name in names:
        suite_results, suite_tables = SUITES[name](cfg)
        results.extend(suite_results)
        tables.update(suite_tables)
    return Report(
        SCHEMA_VERSION,
        suite,
        cfg._asdict(),
        tuple(results),
        dict(sorted(tables.items())),
    )


def render_json(report: Report) -> str:
    payload = {
        "schema": report.schema,
        "suite": report.suite,
        "config": report.config,
        "summary": report.counts,
        "results": [r._asdict() for r in report.results],
        "tables": report.tables,
    }
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def render_text(report: Report) -> str:
    lines = []
    for result in report.results:
        residual = "" if result.residual is None else f"  residual={result.residual:.3e}"
        lines.append(f"{result.status.upper():10s} {result.id}{residual}")
    counts = report.counts
    lines.append(
        f"{counts['pass']} passed, {counts['fail']} failed, "
        f"{counts['assumption']} recorded assumptions"
    )
    return "\n".join(lines) + "\n"
