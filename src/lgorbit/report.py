"""Suite driver: runs every verification family and assembles one report.

Each suite function turns library checks into CheckResult rows; it imports
the layers it calls in its own body, so running one suite loads only those
modules.  A row is "pass" or "fail" except for the enumerated statements that
cannot be checked computationally (the symplectic patching step, the cited
classification and K-theory propositions, and the injectivity of the
connecting map against the nontrivial extension class); those are reported
with status "assumption" so a clean run never silently upgrades them.

Reports are deterministic: the same configuration and seed produce byte
identical JSON, which the determinism suite relies on.
"""

from __future__ import annotations

import json
from typing import Dict, List, Mapping, NamedTuple, Optional, Tuple

from .errors import DiagnosticError, PreconditionError

SCHEMA_VERSION = 1


class Config(NamedTuple):
    seed: int = 0
    sphere_samples: int = 1000
    thimble_grid: Tuple[int, int] = (9, 64)
    box_margin: int = 1
    t_range: int = 10


# Size bounds, so the largest allowed run of each suite takes seconds (README)
MAX_SPHERE_SAMPLES, MAX_THIMBLE_CELLS = 100_000, 250_000
MAX_T_RANGE = 1000

# JSON writes a tuple as a list
_JSON_TYPES = {int: int, tuple: (list, tuple)}
_CONFIG_TYPES = {k: _JSON_TYPES[type(v)] for k, v in Config._field_defaults.items()}


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
    unknown = set(data) - set(_CONFIG_TYPES)
    if unknown:
        raise PreconditionError(f"unknown config keys: {sorted(unknown)}")
    for key, expected in _CONFIG_TYPES.items():
        # JSON true/false arrive as bool, which Python counts as an int
        if key in data and (
            isinstance(data[key], bool) or not isinstance(data[key], expected)
        ):
            raise PreconditionError(f"config key {key!r} has the wrong type")
    if "thimble_grid" in data:
        grid = tuple(data["thimble_grid"])
        if len(grid) != 2 or not all(
            isinstance(g, int) and not isinstance(g, bool) and g > 0 for g in grid
        ):
            raise PreconditionError("thimble_grid must be two positive integers")
        data["thimble_grid"] = grid
    cfg = Config(**data)
    for key, least in (("sphere_samples", 1), ("box_margin", 0), ("t_range", 1)):
        if getattr(cfg, key) < least:
            raise PreconditionError(f"{key} must be at least {least}")
    for key, bound in (("sphere_samples", MAX_SPHERE_SAMPLES), ("t_range", MAX_T_RANGE)):
        if getattr(cfg, key) > bound:
            raise PreconditionError(f"{key} must be at most {bound}")
    if cfg.thimble_grid[0] * cfg.thimble_grid[1] > MAX_THIMBLE_CELLS:
        raise PreconditionError(f"thimble_grid must have at most {MAX_THIMBLE_CELLS} cells")
    return cfg


class CheckResult(NamedTuple):
    id: str
    anchor: str
    status: str
    detail: str
    residual: Optional[float] = None


def _row(
    check_id: str, anchor: str, ok: bool, detail: str, residual: Optional[float] = None
) -> CheckResult:
    return CheckResult(check_id, anchor, "pass" if ok else "fail", detail, residual)


def _assumption(check_id: str, anchor: str, detail: str) -> CheckResult:
    return CheckResult(check_id, anchor, "assumption", detail, None)


SuiteOutput = Tuple[List[CheckResult], Dict[str, object]]


# -------------------------------------------------------------------- lie


def suite_lie(cfg: Config) -> SuiteOutput:
    from . import compactification as geo
    from . import lie
    from .gaussian import GaussianRational
    results: List[CheckResult] = []
    h = lie.CartanDiagonal((1, -1))

    points = lie.critical_points(h, h)
    coords = {
        lie.sl2_orbit_coordinates(lie.CartanDiagonal(d).as_exact_matrix())
        for d in points
    }
    expected = {
        (GaussianRational(1), GaussianRational(0), GaussianRational(0)),
        (GaussianRational(-1), GaussianRational(0), GaussianRational(0)),
    }
    results.append(_row(
        "lie.critical-set",
        "claim:height-critical-set-two-points",
        points == {(1, -1), (-1, 1)} and coords == expected,
        f"critical diagonals {sorted(points)} give orbit coordinates "
        "(1,0,0) and (-1,0,0), exactly",
    ))

    heights = {lie.height_exact(h, lie.CartanDiagonal(d).as_exact_matrix()) for d in points}
    results.append(_row(
        "lie.critical-heights",
        "claim:critical-values-plus-minus-two",
        heights == {2, -2},
        "the two critical heights are 2 and -2 and are distinct",
    ))

    dets = [abs(lie.hessian_determinant(h, h, d)) for d in points]
    results.append(_row(
        "lie.hessian-nondegenerate",
        "claim:morse-nondegeneracy",
        min(dets) != 0,
        "exact chart Hessian determinant magnitude at both critical points, "
        "polarizing tr(H [Z, [Z, P]]) / 2 over the root directions; in closed "
        "form (p_j - p_i)(h_j - h_i) pairs each E_ij with E_ji",
        residual=float(min(dets)),
    ))

    for check_id, diag, regular_h, expected_count in (
        ("lie.count-sl3-regular", (1, 0, -1), (1, 0, -1), 6),
        ("lie.count-sl3-degenerate", (1, 1, -2), (1, 0, -1), 3),
        ("lie.count-sl4-paired", (1, 1, -1, -1), (3, 1, -1, -3), 6),
    ):
        h0 = lie.CartanDiagonal(diag)
        hh = lie.CartanDiagonal(regular_h)
        count = lie.critical_count(h0, hh)
        enumerated = len(lie.critical_points(h0, hh))
        results.append(_row(
            check_id,
            "claim:critical-point-count-formula",
            count == expected_count and enumerated == expected_count,
            f"orbit of diag{diag}: formula gives {count}, enumeration gives "
            f"{enumerated}, expected {expected_count}",
        ))

    results.append(_row(
        "lie.orbit-membership-exact",
        "claim:orbit-is-conjugation-invariant",
        geo.certify_cofactors(geo.orbit_membership_certificate),
        "at a = [[x, z], [y, w]], with R = xw - yz - 1, M = a diag(1, -1) adj(a) "
        "has trace 0*R and x^2 + yz - 1 = (R + 2)*R on M's coordinates "
        "(cofactors 0, R + 2): every conjugate of the base diagonal is on the orbit",
    ))
    return results, {}


# ------------------------------------------------------------- symplectic


def suite_symplectic(cfg: Config) -> SuiteOutput:
    from . import symplectic
    results: List[CheckResult] = []

    sphere = symplectic.check_sphere_lagrangian(cfg.sphere_samples, cfg.seed)
    results.append(_row(
        "symplectic.sphere-lagrangian-sampled",
        "claim:sphere-is-lagrangian",
        sphere.passed,
        f"{sphere.samples} seeded samples, worst pairing residual "
        f"{sphere.max_omega:.3e}, tangency residual {sphere.max_tangency_residual:.3e}, "
        f"rank failures {sphere.rank_failures}",
        residual=max(sphere.max_omega, sphere.max_tangency_residual),
    ))

    results.append(_row(
        "symplectic.sphere-lagrangian-exact",
        "claim:sphere-is-lagrangian",
        symplectic.sphere_lagrangian_certificate(),
        "over real symbols p, q, r, the pairing of each two su(2) tangents at "
        "(r, -p + iq, -p - iq) equals its own conjugate, so Omega is the zero "
        "polynomial on all of R^3",
    ))

    results.append(_row(
        "symplectic.taming",
        "claim:form-tames-complex-structure",
        sphere.max_taming_violation == 0.0,
        "no sampled tangent vector had a nonpositive pairing against its "
        "complex rotation",
        residual=sphere.max_taming_violation,
    ))

    n_lam, n_t = cfg.thimble_grid
    thimble = symplectic.check_thimble_lagrangian(symplectic.lambda_grid(n_lam), n_t)
    results.append(_row(
        "symplectic.thimble-grid",
        "claim:thimble-is-lagrangian-disk",
        thimble.passed,
        f"grid {thimble.grid}: fiber residual {thimble.max_fiber_residual:.3e}, "
        f"pairing residual {thimble.max_omega:.3e}, tangency residual "
        f"{thimble.max_tangency_residual:.3e}, sphere membership "
        f"{thimble.max_sphere_residual:.3e}",
        residual=max(thimble.max_omega, thimble.max_tangency_residual),
    ))

    results.append(_row(
        "symplectic.thimble-taming",
        "claim:form-tames-complex-structure",
        thimble.min_taming > 0.0,
        "the taming pairing stays strictly positive along the thimble grid",
        residual=thimble.min_taming,
    ))

    gluing = symplectic.matching_circles_distance(n_t)
    results.append(_row(
        "symplectic.matching-circle-gluing",
        "claim:two-thimbles-glue-to-sphere",
        gluing < symplectic.FLOAT_TOL,
        f"the two thimble halves agree on the equator circle to {gluing:.3e}",
        residual=gluing,
    ))

    results.append(_row(
        "symplectic.cylinder-chart",
        "claim:fiber-is-a-cylinder",
        symplectic.cylinder_chart_certificate(),
        "for lambda^2 != 1, y -> (lambda, y, (1 - lambda^2)/y) and (x, y, z) -> y "
        "are inverse maps between C* and the fiber x = lambda: with u = 1/y, the "
        "chart's orbit residual is (1 - lambda^2)(yu - 1), and z minus the chart's "
        "z lies in the ideal of yu - 1, the orbit equation and x - lambda",
    ))
    return results, {}


# --------------------------------------------------------------- category


def suite_category(cfg: Config) -> SuiteOutput:
    from . import fukaya, mirror, toric
    results: List[CheckResult] = []
    cat = fukaya.lg2_category()

    results.append(_row(
        "category.a-infinity-relations",
        "claim:directed-category-satisfies-a-infinity",
        fukaya.check_a_infinity(cat),
        f"every composable chain of arity {', '.join(map(str, fukaya.relation_arities(cat)))} "
        "satisfies the signed associativity relations over the integers; "
        "no relation of another arity has a nonzero term",
    ))

    results.append(_row(
        "category.strict-unitality",
        "claim:identities-are-strict-units",
        fukaya.check_strict_unitality(cat),
        "binary products against identities reproduce each generator with "
        "coefficient one and identities never feed other arities",
    ))

    open_slots = fukaya.degree_forced_vanishing(cat)
    results.append(_row(
        "category.degree-forced-vanishing",
        "claim:higher-products-vanish-by-degree",
        open_slots == [],
        "no chain of two or more non-identity generators admits a target "
        "of the right degree, so all higher products vanish by grading",
    ))

    survey = fukaya.degree_forced_vanishing(cat, min_arity=1)
    results.append(_row(
        "category.differential-slot",
        "claim:only-the-differential-slot-is-open",
        survey == [(1, ("x0",), 1)],
        "surveying arity one as well leaves exactly one degree-admissible "
        "slot, the differential on the degree-zero generator",
    ))

    morse = fukaya.morse_circle_floer()
    results.append(_row(
        "category.morse-circle-differential",
        "claim:circle-differential-cancels",
        morse.differential == ((0,),) and morse.cohomology == {0: 1, 1: 1},
        "the two flow lines carry opposite signs, the differential is zero "
        "and both generators survive, closing the open slot",
    ))

    table = cat.hom_table()
    results.append(_row(
        "category.hom-table",
        "claim:hom-table-matches-circle-cohomology",
        table == {(0, 0): {0: 1}, (0, 1): {0: 1, 1: 1}, (1, 0): {}, (1, 1): {0: 1}},
        "one identity per object, nothing backward, and the forward space "
        "equals the circle cohomology with one class in each degree",
    ))

    # object i shifted by 2i; the matcher must solve the inverse shifts
    planted = tuple(range(0, 2 * len(cat.objects), 2))
    results.append(_row(
        "category.shift-matching-sanity",
        "claim:shift-matching-control",
        fukaya.tables_equal(table, table) == (0,) * len(planted)
        and fukaya.tables_equal(fukaya.shift_table(table, planted), table)
        == tuple(-s for s in planted),
        "the matcher finds the identity assignment and undoes a planted "
        "object shift, so a mirror would not be missed for shift reasons",
    ))

    results.append(_row(
        "category.projective-line-mismatch",
        "claim:no-projective-line-mirror-table",
        fukaya.tables_equal(table, mirror.ext_hom_table(mirror.EXCEPTIONAL_PAIR)) is None,
        "no object shifts make the table match the projective-line exceptional-pair "
        "table: the forward hom forces the only candidate shift, and it differs",
    ))

    # L0 -> O(-E), L1 -> O on the degree-2 surface; the controls move the
    # pair to the degree 0 and 1 surfaces, or swap it on the degree-2 one
    pair = toric.EXCEPTIONAL_PAIR
    f2_table, *controls = (
        toric.ext_hom_table(toric.HirzebruchFan(a), bundles)
        for a, bundles in ((2, pair), (0, pair), (1, pair), (2, pair[::-1]))
    )
    results.append(_row(
        "category.f2-ext-equivalence",
        "claim:category-matches-f2-line-bundles",
        table == f2_table and table not in controls,
        "sending L0 to O(-E) and L1 to O matches every hom space with the Ext "
        "groups on the degree-2 surface, degree by degree; the degree 0 and 1 "
        "surfaces and the swapped assignment do not match",
    ))

    tables = {
        "fukaya_hom": {
            f"hom(L{i},L{j})": {str(d): r for d, r in sorted(ranks.items())}
            for (i, j), ranks in sorted(table.items())
        }
    }
    return results, tables


# ---------------------------------------------------------------- sheaves


def suite_sheaves(cfg: Config) -> SuiteOutput:
    from . import toric
    results: List[CheckResult] = []
    fans = {a: toric.HirzebruchFan(a) for a in (0, 1, 2)}
    fan2 = fans[2]

    results.append(_row(
        "sheaves.divisor-conventions",
        "claim:picard-basis-and-fan-agree",
        all(toric.verify_divisor_convention(f) for f in fans.values()),
        "ray self-intersections, pairings, principal relations and the "
        "canonical class all match the section-and-fiber basis for a in 0..2",
    ))

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
    coh_ok = all(coh(c, fan2).triple == want for c, want in section_classes.values())
    results.append(_row(
        "sheaves.section-class-cohomology",
        "claim:negative-section-cohomology-table",
        coh_ok,
        "cohomology of the trivial, section, and minus-section classes on "
        "the degree-2 surface is (1,0,0), (1,1,0), (0,0,0)",
    ))

    frozen = {
        ("O", "O"): (1, 0, 0),
        ("O(-E)", "O(-E)"): (1, 0, 0),
        ("O(-E)", "O"): (1, 1, 0),
        ("O", "O(-E)"): (0, 0, 0),
    }
    ext_table = {(x, y): toric.ext_dims(fan2, bundle[x], bundle[y]).triple for x, y in frozen}
    results.append(_row(
        "sheaves.ext-table",
        "claim:line-bundle-ext-table",
        ext_table == frozen,
        "the four Ext triples between the trivial and minus-section line "
        "bundles match the frozen table exactly",
    ))

    sweep_ok = True
    for a, fan in fans.items():
        for p in range(-5, 6):
            for q in range(-5, 6):
                c = toric.PicClass(p, q)
                if coh(c, fan).euler != toric.euler_rr(c, a):
                    sweep_ok = False
    results.append(_row(
        "sheaves.riemann-roch-sweep",
        "claim:euler-characteristic-formula",
        sweep_ok,
        "alternating sums match the intersection-number formula for all "
        "classes with |p|, |q| <= 5 on the degree 0, 1, 2 surfaces",
    ))

    serre_ok = True
    for a, fan in fans.items():
        k = toric.canonical_class(a)
        for p in range(-3, 4):
            for q in range(-3, 4):
                c = toric.PicClass(p, q)
                if coh(c, fan).triple != tuple(reversed(coh(k - c, fan).triple)):
                    serre_ok = False
    results.append(_row(
        "sheaves.serre-duality",
        "claim:serre-duality-spot-checks",
        serre_ok,
        "cohomology of each class with |p|, |q| <= 3 mirrors the "
        "cohomology of the canonical twist in reverse order",
    ))

    nef_ok = all(
        coh(toric.PicClass(0, q), fan).triple == (q + 1, 0, 0)
        for fan in fans.values()
        for q in range(0, 6)
    )
    results.append(_row(
        "sheaves.fiber-class-sections",
        "claim:fiber-multiples-have-q-plus-1-sections",
        nef_ok,
        "multiples of the fiber class have q + 1 sections and no higher "
        "cohomology on every surface checked",
    ))

    stability_ok = all(
        coh(c, fan2) == coh(c, fan2, cfg.box_margin + 2)
        for c, _want in section_classes.values()
    )
    results.append(_row(
        "sheaves.box-stability",
        "claim:character-box-is-stable",
        stability_ok,
        "enlarging the summation margin by two changes no dimension",
    ))

    results.append(_row(
        "sheaves.surface-invariants",
        "claim:rational-surface-invariants",
        all(
            toric.intersection(toric.canonical_class(a), toric.canonical_class(a), a) == 8
            and toric.euler_rr(toric.PicClass(0, 0), a) == 1
            for a in fans
        ),
        "canonical self-intersection 8 and structure-sheaf Euler "
        "characteristic 1 on every surface checked",
    ))

    results.append(_row(
        "sheaves.hypersurface-model",
        "claim:surface-embeds-as-(1,2)-hypersurface",
        toric.verify_f2_hypersurface() and toric.f2_chart_count() == 6,
        "the bidegree (1,2) equation is irreducible and six affine chart "
        "certificates write 1 in the Jacobian ideal, so it is smooth",
    ))

    x0, x1, y0, y1 = toric.f2_variables()
    bad_reducible = x0 * y0 * y0
    bad_degree = x0 * y0 - x1 * y1
    results.append(_row(
        "sheaves.hypersurface-controls",
        "claim:hypersurface-check-rejects-controls",
        not toric.verify_f2_hypersurface(bad_reducible)
        and not toric.verify_f2_hypersurface(bad_degree),
        "a monomial equation and a wrong-bidegree equation are both "
        "rejected by the same entry point",
    ))

    tables = {
        "f2_ext": {
            f"ext({x},{y})": list(triple) for (x, y), triple in sorted(ext_table.items())
        }
    }
    return results, tables


# ----------------------------------------------------------------- quiver


def suite_quiver(cfg: Config) -> SuiteOutput:
    from . import fukaya, quiver, toric
    results: List[CheckResult] = []

    ordinary = quiver.ordinary_quiver()
    basis = quiver.path_basis(ordinary)
    by_pair = {
        (source, target): len(basis.by_endpoints(source, target))
        for source in ("v0", "v1")
        for target in ("v0", "v1")
    }
    results.append(_row(
        "quiver.path-basis",
        "claim:path-algebra-has-dimension-five",
        basis.dimension == 5
        and by_pair == {("v0", "v0"): 1, ("v0", "v1"): 1, ("v1", "v0"): 1, ("v1", "v1"): 2},
        "two idempotents, one arrow each way, and one length-two loop "
        "survive the single relation",
    ))

    results.append(_row(
        "quiver.composition-pattern",
        "claim:one-composite-vanishes-the-other-does-not",
        quiver.composition_pattern_check(),
        "the forward-then-back composite is zero, the back-then-forward "
        "composite is a nonzero loop, and that loop squares to zero",
    ))

    detail = (
        "six-term chases give Hom dimensions (1, 1, 1, 2) with all higher "
        "Ext zero, total five, matching the path algebra"
    )
    try:
        tilting = quiver.end_algebra_dims_tilting()
    except DiagnosticError as exc:
        # a wrong Ext table can leave a connecting rank free
        chase_ok, detail = False, f"the rank chase stopped: {exc}"
    else:
        chase_ok = (
            tilting.hom_dims == (1, 1, 1, 2)
            and tilting.higher_ext_vanish
            and tilting.total == basis.dimension
        )
    results.append(_row(
        "quiver.tilting-rank-chase",
        "claim:endomorphism-dimensions-one-one-one-two",
        chase_ok,
        detail,
    ))

    results.append(_assumption(
        "quiver.connecting-map-injectivity",
        "claim:connecting-map-is-injective",
        "one chase consumes the named assumption: "
        + quiver.INJECTIVE_CONNECTING_ASSUMPTION,
    ))

    dg_zero = quiver.dg_quiver("zero")
    cohomology_zero = quiver.hom_cohomology(dg_zero, "v0", "v1")
    floer_table = fukaya.lg2_category().hom_table()[(0, 1)]
    results.append(_row(
        "quiver.dg-zero-cohomology",
        "claim:dg-quiver-reproduces-floer-table",
        cohomology_zero == floer_table,
        "with the zero differential the degreewise Hom cohomology equals "
        "the directed category's forward table",
    ))

    dg_literal = quiver.dg_quiver("literal")
    cohomology_literal = quiver.hom_cohomology(dg_literal, "v0", "v1")
    results.append(_row(
        "quiver.dg-literal-acyclic",
        "claim:literal-differential-is-acyclic",
        cohomology_literal == {},
        "reading the differential literally kills all cohomology, so that "
        "variant is flagged as acyclic rather than matching the table",
    ))

    ordinary_backward = quiver.hom_cohomology(ordinary, "v1", "v0")
    results.append(_row(
        "quiver.undirected-backward-hom",
        "claim:backward-hom-survives-only-undirected",
        ordinary_backward == {0: 1},
        "the ordinary algebra keeps a backward morphism, the directed "
        "category does not, and only the DG table matches the fibration",
    ))

    results.append(_row(
        "quiver.k-group-rank",
        "claim:k-group-is-free-of-rank-two",
        quiver.euler_form_matrix(toric.EXCEPTIONAL_PAIR).rank() == 2,
        "the Euler-form matrix of (O(-E), O), with entries chi from the "
        "Ext dimensions on the degree-2 surface, has rank two",
    ))
    return results, {}


# ----------------------------------------------------------------- mirror


def suite_mirror(cfg: Config) -> SuiteOutput:
    from . import mirror
    results: List[CheckResult] = []

    main = mirror.search_mirror_pair(cfg.t_range)
    results.append(_row(
        "mirror.main-search",
        "claim:no-projective-line-object-pair",
        main is None,
        f"no ordered pair of shifted line bundles or point sheaves with "
        f"twists within {cfg.t_range} reproduces the forward table with "
        "vanishing backward morphisms and simple endomorphisms",
    ))

    control_target = mirror.search_mirror_pair(cfg.t_range, target_forward={0: 2})
    results.append(_row(
        "mirror.control-witness",
        "claim:search-control-finds-known-pair",
        control_target is not None
        and control_target.forward == ((0, 2),),
        "relaxing only the target to two degree-zero morphisms finds the "
        "standard exceptional pair, so the search is not vacuous",
    ))

    relaxed_distinct = mirror.search_mirror_pair(
        cfg.t_range,
        require_backward_zero=False,
        require_end_simple=False,
    )
    results.append(_row(
        "mirror.control-relaxed-distinct",
        "claim:distinct-pairs-fail-even-relaxed",
        relaxed_distinct is None,
        "even with the backward and endomorphism constraints dropped no "
        "pair of distinct objects realizes the forward table",
    ))

    relaxed_self = mirror.search_mirror_pair(
        cfg.t_range,
        require_backward_zero=False,
        require_end_simple=False,
        allow_self_pairs=True,
    )
    results.append(_row(
        "mirror.control-self-pair",
        "claim:self-pair-needs-dropped-constraints",
        relaxed_self is not None,
        "a point sheaf against itself does realize the forward pattern, "
        "but only after dropping the constraints the target imposes",
    ))

    stable = mirror.search_mirror_pair(2 * cfg.t_range, mirror.SHIFT_WINDOW + 2)
    results.append(_row(
        "mirror.stability",
        "claim:search-stable-under-enlargement",
        stable is None,
        f"stability note: the window doubled to twists within "
        f"{2 * cfg.t_range} and shifts within {mirror.SHIFT_WINDOW + 2} and "
        "still no witness appears",
    ))

    rows = mirror.exclusion_table(cfg.t_range)
    results.append(_row(
        "mirror.exclusion-table",
        "claim:casewise-exclusion-reasons",
        all(r.verified for r in rows),
        "; ".join(f"{r.case}: {r.reason}" for r in rows),
    ))

    verdicts_ok = all(
        mirror.dimension_bound_verdict(n, 2) == "excluded" for n in range(2, 7)
    ) and mirror.dimension_bound_verdict(1, 2) == "admissible"
    results.append(_row(
        "mirror.dimension-bound",
        "claim:rank-bounds-dimension",
        verdicts_ok,
        "a variety of dimension two or more needs at least three free "
        "generators, so rank two excludes it; dimension one survives "
        "to the casewise argument",
    ))

    results.append(_row(
        "mirror.euler-pairing",
        "claim:euler-pairing-matches-twist-difference",
        mirror.euler_pairing_identity(span=30),
        "the alternating sum of the closed-form dimensions equals the "
        "twist difference plus one across the swept window",
    ))

    results.append(_assumption(
        "mirror.cited-classification-inputs",
        "claim:cited-classification-inputs",
        "three literature inputs are consumed unverified: the "
        "classification of smooth projective curves with rank-two K-group, "
        "the K-group computations for the singular and affine cases, and "
        "the general bound used for higher-dimensional targets",
    ))
    return results, {}


# -------------------------------------------------------- compactification


def suite_compactification(cfg: Config) -> SuiteOutput:
    from fractions import Fraction
    from . import compactification as geo
    results: List[CheckResult] = []

    results.append(_row(
        "compactification.quadric-presentations",
        "claim:closure-is-the-product-quadric",
        geo.quadric_change_check(),
        "homogenization, the shear to a rank-4 quadric, the rescaling onto "
        "the determinant relation, and the rank-3 conic at infinity are "
        "all exact identities; "
        + "; ".join(sorted(geo.SIGN_CONVENTIONS)),
    ))

    # entries (x, y, z, w) of the identity and of the shear [[1, 1], [0, 1]]
    ident, shear = (1, 0, 0, 1), (1, 0, 1, 1)
    tensor_ok = (
        geo.tensor_entries(*ident) == ((1, 0), (0, 0))
        and geo.tensor_entries(*shear) == ((1, -1), (0, 0))
        and geo.certify_cofactors(geo.tensor_projector_certificate)
    )
    results.append(_row(
        "compactification.tensor-projector",
        "claim:tensor-matrix-is-a-trace-one-projector",
        tensor_ok,
        "identity and shear examples match; at a = [[x, z], [y, w]], with "
        "R = xw - yz - 1, trace - 1 = 1*R, M col1 - col1 = R*col1, M col2 = 0*R "
        "(cofactors 1, col1, 0): a trace-one projector on all of SL(2)",
    ))

    half = Fraction(1, 2)
    moment_ok = (
        geo.moment_map(*ident) == ((half, 0), (0, -half))
        and geo.moment_map(*shear) == ((half, -1), (0, -half))
        and geo.certify_cofactors(geo.moment_conjugation_certificate)
    )
    results.append(_row(
        "compactification.moment-conjugation",
        "claim:moment-matrix-is-a-conjugate",
        moment_ok,
        "identity and shear examples match; the generic moment matrix is "
        "a diag(1/2, -1/2) adj(a) (cofactor 0) and M col1 - col1/2 = "
        "(R/2)*col1 (cofactor col1/2): column one is an eigenvector",
    ))

    results.append(_row(
        "compactification.extension-on-orbit",
        "claim:extension-restricts-to-the-height",
        geo.certify_cofactors(geo.extension_on_orbit_certificate),
        "num*1 - den*height = -(xw + yz)*R at the generic eigenline pair "
        "(cofactor -(xw + yz)): the value is [height : 1] on all of SL(2)",
    ))

    off_orbit = geo.rational_extension(geo.MultiProjPoint(((1, 1), (1, 1))))
    results.append(_row(
        "compactification.extension-off-orbit",
        "claim:extension-sends-infinity-to-one-zero",
        off_orbit == geo.MultiProjPoint(((1, 0),))
        and geo.rational_extension(geo.MultiProjPoint(((1, 0), (0, 1))))
        == geo.MultiProjPoint(((1, 1),)),
        "the identity eigenline pair maps to [1:1] and a non-orbit point "
        "maps to [1:0], both exactly",
    ))

    results.append(_row(
        "compactification.extension-scaling",
        "claim:extension-is-projectively-defined",
        geo.extension_scaling_certificate(),
        "both forms xw + yz and xw - yz have bidegree (1, 1), so rescaling "
        "the factors by l and m multiplies both by l*m",
    ))

    results.append(_row(
        "compactification.base-locus",
        "claim:two-indeterminate-points",
        geo.base_locus_certificate(),
        "the forms generate (xw, yz) (coefficient determinant -2), whose zeros "
        "are exactly the two base points; of the torus-fixed points the map "
        "fails there only, with the defined error",
    ))

    results.append(_row(
        "compactification.graph-smooth",
        "claim:graph-closure-is-smooth",
        geo.graph_smooth_check() and geo.graph_chart_count() == 8,
        "in each of the eight affine charts a certificate writes 1 as a "
        "combination of the equation and its partials",
    ))

    results.append(_row(
        "compactification.graph-contains-extension",
        "claim:closure-extends-the-graph",
        geo.certify_cofactors(geo.graph_extension_certificate, geo.GRAPH_BLOCKS)
        and geo.exceptional_fiber_check(),
        "with r, s replaced by xw + yz, xw - yz the trilinear equation is the "
        "zero polynomial (cofactor 0); over both base points it vanishes too",
    ))

    crit = geo.critical_data()
    results.append(_row(
        "compactification.critical-classification",
        "claim:two-degenerate-values",
        crit.verified
        and geo.is_singular_value(1, 1)
        and not geo.is_singular_value(1, 0),
        "values " + " and ".join(str(v) for v in crit.values)
        + " are degenerate with unique singular points "
        + " and ".join(str(p) for p in crit.points)
        + ", certified by fiber and Jacobian vanishing",
    ))

    results.append(_row(
        "compactification.singular-scan",
        "claim:no-other-degenerate-values",
        geo.degenerate_values_certificate(),
        "the graph equation's coefficient matrix, read off its second partials "
        "in (x, y) x (z, w), has determinant r^2 - s^2, a nonzero multiple of "
        "(r - s)(r + s), so [1:1] and [1:-1] are the only degenerate values",
    ))

    results.append(_row(
        "compactification.deformed-ring",
        "claim:deformation-at-time-two-is-the-orbit",
        geo.deformed_ring_iso_check() and not geo.deformed_ring_control(),
        "the affine change of coordinates carries one equation to a scalar "
        "multiple of the other, and the identity substitution does not",
    ))

    # the assumption stands on its supporting check; a failed one fails the row
    supported = geo.sphere_off_infinity_certificate()
    results.append(CheckResult(
        "compactification.symplectic-patching",
        "claim:compactified-category-unchanged",
        "assumption" if supported else "fail",
        "the patching construction of a symplectic structure near infinity "
        "is not machine checked; supporting exact check "
        + ("passed" if supported else "FAILED")
        + ": the sphere's orbit residual is (p^2 + q^2 + r^2 - 1) times 1; each orbit "
        "matrix M = [[x, y], [z, -x]] has M M - I = (x^2 + yz - 1) I, so it is a trace-0 "
        "involution with distinct eigenlines, whose pair is off the diagonal; and both "
        "base points lie on the diagonal",
    ))

    return results, {}


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
    config_dict = cfg._asdict()
    config_dict["thimble_grid"] = list(cfg.thimble_grid)
    return Report(
        SCHEMA_VERSION,
        suite,
        config_dict,
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
