"""Directed A-infinity categories over the integers, and the two-thimble instance.

Objects are linearly ordered.  Morphisms exist only from lower to higher
index, plus the identity endomorphisms; hom spaces are free graded abelian
groups given by named generators.  Products are sparse tables m_k sending a
composable chain of generators to an integer combination of generators.

The A-infinity relations are checked with the operadic sign convention

    sum over r+s+t = N of
    (-1)^(r + s*t + s*(|a_1|+...+|a_r|)) m_{r+1+t}(a_1..a_r, m_s(...), ..) = 0,

under which m_2 has degree zero and strict unitality reads without signs,
matching the way the unit acts in an ordinary graded algebra.

Every arity is certified by a finite check.  A term of the arity-N
relation nests an m_s inside an m_{N-s+1}, so only N = s + s' - 1, with s
and s' arities of the product table, can have a nonzero term.  Directedness
lemma: a non-identity generator raises the object index, so a chain of them
has at most n - 1 members on n objects, and strict unitality removes the
identities from the inputs of every m_k, k >= 3.  On the two thimbles such
chains have length one, so a minimal, strictly unital A-infinity structure
on this graded quiver is formal: m_k = 0 for k >= 3 and m_2 is the unit
action, so the graded hom table determines it up to isomorphism.
Exceptional collections with isomorphic directed A-infinity endomorphism
algebras generate equivalent triangulated categories (Seidel, Fukaya
Categories and Picard-Lefschetz Theory, Part I; Bondal-Kapranov, Enhanced
triangulated categories, 1990).  A nonempty hom(i, j) fixes the relative
shift s_j - s_i of its objects, so hom tables are compared up to every
object shift by solving the shifts and comparing once.
"""

from __future__ import annotations

from collections import Counter, defaultdict, namedtuple
from fractions import Fraction
from typing import Dict, Iterable, List, Mapping, NamedTuple, Optional, Sequence, Tuple

from .errors import StructureError
from .gaussian import ExactMatrix, cohomology

Chain = Tuple[str, ...]
Table = Mapping[Tuple[int, int], Mapping[int, int]]


class GradedModule(namedtuple("GradedModule", "basis")):
    """Free graded module listed by (generator name, degree)."""

    __slots__ = ()

    def __new__(cls, basis: Iterable[Tuple[str, int]]):
        entries = tuple((str(n), int(d)) for n, d in basis)
        names = [n for n, _ in entries]
        if len(set(names)) != len(names):
            raise StructureError("generator names must be distinct")
        return super().__new__(cls, entries)

    @property
    def ranks(self) -> Dict[int, int]:
        return dict(Counter(degree for _, degree in self.basis))


class ProductEntry(NamedTuple):
    """One structure constant: m_k(inputs) contains coeff * output."""

    inputs: Chain
    output: str
    coeff: int = 1

    @property
    def arity(self) -> int:
        return len(self.inputs)


class DirectedAInfCategory:
    """Directed category data with validation at construction time.

    homs maps an ordered index pair (i, j), i <= j, to a GradedModule; the
    diagonal modules must consist of a single degree-zero identity.  Every
    product entry must be composable left to right through nondecreasing
    object indices and obey the degree rule deg(out) = sum(deg in) + 2 - k.
    """

    def __init__(
        self,
        objects: Sequence[str],
        homs: Mapping[Tuple[int, int], GradedModule],
        products: Iterable[ProductEntry],
    ):
        self.objects = tuple(objects)
        if len(set(self.objects)) != len(self.objects):
            raise StructureError("object names must be distinct")
        self.homs: Dict[Tuple[int, int], GradedModule] = {}
        n = len(self.objects)
        self._info: Dict[str, Tuple[int, int, int]] = {}
        self._identities: Dict[int, str] = {}
        for (i, j), module in homs.items():
            if not (0 <= i <= j < n):
                raise StructureError(f"hom index pair {(i, j)} out of order")
            self.homs[(i, j)] = module
            for name, degree in module.basis:
                if name in self._info:
                    raise StructureError(f"generator name {name} reused")
                self._info[name] = (i, j, degree)
        for i in range(n):
            module = self.homs.get((i, i))
            if module is None:
                raise StructureError(f"missing diagonal hom for object {i}")
            if len(module.basis) != 1 or module.basis[0][1] != 0:
                raise StructureError(
                    f"diagonal hom of object {i} must be one generator in degree 0"
                )
            self._identities[i] = module.basis[0][0]
        table: Dict[Chain, Counter] = defaultdict(Counter)
        for entry in products:
            self._validate_entry(entry)
            table[entry.inputs][entry.output] += entry.coeff
        # entries whose coefficients cancel leave no product behind
        self._table = {
            k: out for k, v in table.items() if (out := {o: c for o, c in v.items() if c})
        }

    # ------------------------------------------------------------- structure

    def gen_info(self, name: str) -> Tuple[int, int, int]:
        """(source index, target index, degree) of a generator."""
        try:
            return self._info[name]
        except KeyError:
            raise StructureError(f"unknown generator {name!r}") from None

    def identity_of(self, i: int) -> str:
        return self._identities[i]

    def is_identity(self, name: str) -> bool:
        i, j, _ = self.gen_info(name)
        return i == j

    def generators(self) -> Tuple[str, ...]:
        return tuple(self._info)

    def chain_endpoints(self, chain: Chain) -> Tuple[int, int]:
        if not chain:
            raise StructureError("empty chain")
        start, end, _ = self.gen_info(chain[0])
        for name in chain[1:]:
            i, j, _ = self.gen_info(name)
            if i != end:
                raise StructureError(f"chain {chain} is not composable")
            end = j
        return start, end

    def _validate_entry(self, entry: ProductEntry) -> None:
        if entry.coeff == 0:
            raise StructureError("zero coefficient entry")
        if entry.arity < 1:
            raise StructureError("products need at least one input")
        start, end = self.chain_endpoints(entry.inputs)
        out_i, out_j, out_deg = self.gen_info(entry.output)
        if (out_i, out_j) != (start, end):
            raise StructureError(
                f"output {entry.output} does not run {start} -> {end}"
            )
        want = sum(self.gen_info(a)[2] for a in entry.inputs) + 2 - entry.arity
        if out_deg != want:
            raise StructureError(
                f"degree rule violated: m_{entry.arity}{entry.inputs} -> "
                f"{entry.output} needs degree {want}, found {out_deg}"
            )

    def products(self) -> List[ProductEntry]:
        """The nonzero structure constants, as entries that rebuild the category."""
        return [ProductEntry(chain, out, coeff)
                for chain, outputs in self._table.items() for out, coeff in outputs.items()]

    def apply(self, chain: Chain) -> Dict[str, int]:
        """m_k evaluated on a chain of k generators (empty dict when zero)."""
        return dict(self._table.get(chain, {}))

    # ----------------------------------------------------------- enumeration

    def composable_chains(self, length: int) -> List[Chain]:
        chains = [((name,), j) for name, (_i, j, _d) in self._info.items()]
        for _ in range(length - 1):
            chains = [(chain + (name,), j) for chain, end in chains
                      for name, (i, j, _d) in self._info.items() if i == end]
        return [chain for chain, _end in chains]

    def hom_table(self) -> Dict[Tuple[int, int], Dict[int, int]]:
        """Ranks by degree for every ordered object pair, zero above diagonal."""
        n = len(self.objects)
        return {(i, j): dict(self.homs[(i, j)].ranks) if (i, j) in self.homs else {}
                for i in range(n) for j in range(n)}


# ------------------------------------------------------------------- checks


def relation_arities(cat: DirectedAInfCategory) -> List[int]:
    """The arities whose A-infinity relation can have a nonzero term.

    Every term of the arity-N relation is m_{N-s+1} applied to an m_s, so
    it vanishes unless both are arities of nonzero products; entries whose
    coefficients cancel leave none.
    """
    present = {len(chain) for chain in cat._table}
    return sorted({s + t - 1 for s in present for t in present})


def check_a_infinity(cat: DirectedAInfCategory) -> bool:
    """Verify the A-infinity relations in every arity, exactly over Z.

    Only the arities of ``relation_arities`` are walked, on every composable
    chain; every other relation reads 0 = 0.  Where an output of one nonzero
    product is an input of another, putting the first product's inputs in
    its place gives a chain whose relation has a nonzero term; an arity with
    such a chain must sum at least one term, or the walk certified nothing.
    """
    composite = {
        len(inner) + len(outer) - 1
        for inner, outputs in cat._table.items()
        for outer in cat._table
        if not outputs.keys().isdisjoint(outer)
    }
    for n in relation_arities(cat):
        terms = 0
        for chain in cat.composable_chains(n):
            total: Dict[str, int] = defaultdict(int)
            degrees = [cat.gen_info(a)[2] for a in chain]
            for s in range(1, n + 1):
                for r in range(0, n - s + 1):
                    t = n - s - r
                    sign = (-1) ** (r + s * t + (s % 2) * sum(degrees[:r]))
                    for name, coeff in cat.apply(chain[r : r + s]).items():
                        outer = cat.apply(chain[:r] + (name,) + chain[r + s :])
                        for out_name, out_coeff in outer.items():
                            total[out_name] += sign * coeff * out_coeff
                            terms += 1
            if any(v != 0 for v in total.values()):
                return False
        if n in composite and not terms:
            return False
    return True


def check_strict_unitality(cat: DirectedAInfCategory) -> bool:
    """Identities are strict units for m_2 and absent from every other m_k."""
    for name in cat.generators():
        i, j, _ = cat.gen_info(name)
        left = cat.apply((cat.identity_of(i), name))
        right = cat.apply((name, cat.identity_of(j)))
        if left != {name: 1} or right != {name: 1}:
            return False
    for chain in cat._table:
        if len(chain) != 2 and any(cat.is_identity(a) for a in chain):
            return False
    return True


def degree_forced_vanishing(
    cat: DirectedAInfCategory, min_arity: int = 2
) -> List[Tuple[int, Chain, int]]:
    """Chains of non-identity generators whose product degree admits a target.

    Returns the slots where grading and directedness alone do NOT force
    m_k to vanish.  Products (min_arity defaults to 2) are the claim "all
    higher compositions vanish for degree reasons"; passing min_arity=1
    also surveys the differential slot, which is closed separately by the
    Morse model on the circle.  Each generator raises the object index, so
    the walk ends by itself after at most n - 1 of them and covers every
    arity; chains through an identity are left to strict unitality.
    """
    out: List[Tuple[int, Chain, int]] = []
    non_identity = [cat.gen_info(g) + (g,) for g in cat.generators() if not cat.is_identity(g)]

    def walk(prefix: Chain, start: int, end: int, degree: int) -> None:
        module = cat.homs.get((start, end))
        if len(prefix) >= min_arity and module and any(d == degree for _n, d in module.basis):
            out.append((len(prefix), prefix, degree))
        for i, j, d, g in non_identity:
            if i == end:
                walk(prefix + (g,), start, j, degree + d - 1)

    for i, j, d, g in non_identity:
        walk((g,), i, j, d + 1)
    return out


# ------------------------------------------------------- twisted complexes

# (distinct unshifted object indices, the degree-one generators of delta)
Twisted = Tuple[Tuple[int, ...], Tuple[str, ...]]
# a morphism of twisted complexes: generator name -> coefficient
Morphism = Dict[str, Fraction]


def _no_higher_products(cat: DirectedAInfCategory) -> None:
    if any(len(chain) > 2 for chain in cat._table):
        raise StructureError("twisted complexes here need a category with no m_k for k >= 3")


def twisted_hom(
    cat: DirectedAInfCategory, source: Twisted, target: Twisted
) -> Tuple[Dict[int, List[str]], Dict[int, List[List[int]]]]:
    """Hom between two twisted complexes: its generators and differential by degree.

    Hom is the sum of hom(a, b) over the source's objects a and the target's
    objects b, graded by generator degree, with the differential

        d f = m_1(f) + m_2(delta_source, f) - (-1)^|f| m_2(f, delta_target)

    in ``apply``'s left-to-right chain order; differentials[k] maps degree k
    to k + 1, one row per generator of degree k + 1.  Under the operadic
    signs above m_1 is a derivation of m_2 and m_2 is strictly associative,
    so d is m_1 + [delta, -] in a DG category, and d^2 = 0 follows from the
    Maurer-Cartan equation m_1(delta) + m_2(delta, delta) = 0 (Bondal-Kapranov
    1990; Seidel, Part I, section 3).  Higher products would add terms
    m_k(delta, ..., f, ..., delta), so a category with one is rejected; on
    the two thimbles ``degree_forced_vanishing`` rules them out.
    """
    _no_higher_products(cat)
    for objects, delta in (source, target):
        if len(set(objects)) != len(objects) or not set(objects) <= set(range(len(cat.objects))):
            raise StructureError("a twisted complex needs distinct objects of the category")
        for g in delta:
            i, j, degree = cat.gen_info(g)
            if degree != 1 or not {i, j} <= set(objects):
                raise StructureError(f"{g} is not a degree-one map between the objects")
        square: Counter = Counter()
        for g in delta:
            square.update(cat.apply((g,)))
            for h in delta:
                square.update(cat.apply((g, h)))
        if any(square.values()):
            raise StructureError("delta fails m_1(delta) + m_2(delta, delta) = 0")
    graded: Dict[int, List[str]] = defaultdict(list)
    for name, (i, j, degree) in cat._info.items():
        if i in source[0] and j in target[0]:
            graded[degree].append(name)
    differentials = {}
    for degree, columns in graded.items():
        rows = {name: k for k, name in enumerate(graded.get(degree + 1, ()))}
        matrix = [[0] * len(columns) for _ in rows]
        for col, f in enumerate(columns):
            terms = [((f,), 1)] + [((d, f), 1) for d in source[1]]
            terms += [((f, d), (-1) ** (degree + 1)) for d in target[1]]
            for chain, sign in terms:
                for name, coeff in cat.apply(chain).items():
                    matrix[rows[name]][col] += sign * coeff
        differentials[degree] = matrix
    return graded, differentials


def twisted_hom_cohomology(
    cat: DirectedAInfCategory, source: Twisted, target: Twisted
) -> Dict[int, int]:
    """The cohomology ranks of ``twisted_hom``, degree by degree."""
    graded, differentials = twisted_hom(cat, source, target)
    return cohomology({d: len(names) for d, names in graded.items()}, differentials)


def twisted_cocycles(
    cat: DirectedAInfCategory, source: Twisted, target: Twisted
) -> Tuple[Morphism, ...]:
    """A basis of the degree-0 cocycles of ``twisted_hom``, one per free
    column of the reduced row echelon form of d.

    With no generator of negative degree nothing in degree 0 is a
    coboundary, so the basis is one of H^0; otherwise StructureError.
    """
    graded, differentials = twisted_hom(cat, source, target)
    if any(degree < 0 for degree in graded):
        raise StructureError("a generator has negative degree, so Z^0 is not H^0")
    columns, matrix = graded.get(0, []), differentials.get(0)
    reduced, pivots, _ = ExactMatrix(matrix).echelon() if matrix else ((), [], None)
    return tuple(
        {columns[free]: Fraction(1),
         **{columns[p]: Fraction(-row[free]) for p, row in zip(pivots, reduced) if row[free]}}
        for free in range(len(columns)) if free not in pivots
    )


def twisted_compose(cat: DirectedAInfCategory, f: Morphism, g: Morphism) -> Morphism:
    """f followed by g, for morphisms f: A -> B and g: B -> C of twisted complexes.

    The composite adds terms m_k(.., f, .., delta, .., g, ..) with k >= 3 to
    m_2(f, g), so over a category without those it is m_2 summed over the
    components.
    """
    _no_higher_products(cat)
    out: Dict[str, Fraction] = defaultdict(Fraction)
    for a, x in f.items():
        for b, y in g.items():
            for name, coeff in cat.apply((a, b)).items():
                out[name] += x * y * coeff
    return {name: c for name, c in out.items() if c}


# ---------------------------------------------------------------- instances


def lg2_category() -> DirectedAInfCategory:
    """The directed category of the two Lefschetz thimbles.

    hom(L0, L1) has one generator in degree 0 and one in degree 1; the only
    products are the unital m_2 entries.
    """
    homs = {
        (0, 0): GradedModule([("id_L0", 0)]),
        (0, 1): GradedModule([("x0", 0), ("x1", 1)]),
        (1, 1): GradedModule([("id_L1", 0)]),
    }
    products = [
        ProductEntry(("id_L0", "id_L0"), "id_L0"),
        ProductEntry(("id_L1", "id_L1"), "id_L1"),
        ProductEntry(("id_L0", "x0"), "x0"),
        ProductEntry(("x0", "id_L1"), "x0"),
        ProductEntry(("id_L0", "x1"), "x1"),
        ProductEntry(("x1", "id_L1"), "x1"),
    ]
    return DirectedAInfCategory(("L0", "L1"), homs, products)


# ------------------------------------------------------------- Morse model


class MorseCircleModel(NamedTuple):
    """Morse complex of a two-critical-point height function on the circle."""

    module: GradedModule
    flow_line_signs: Tuple[int, int]
    differential: Tuple[Tuple[int, ...], ...]
    cohomology: Dict[int, int]


def morse_circle_floer() -> MorseCircleModel:
    """Build the circle's Morse complex and read off the Floer grading.

    The minimum generates in degree 0 and the maximum in degree 1.  The two
    gradient flow lines from the maximum to the minimum carry opposite
    orientation signs, so the differential is the zero map and both ranks
    survive to cohomology, matching H^*(S^1).
    """
    module = GradedModule([("x0", 0), ("x1", 1)])
    signs = (1, -1)
    differential = ((signs[0] + signs[1],),)  # deg 0 -> deg 1, a 1x1 matrix
    h = cohomology(module.ranks, {0: differential})
    return MorseCircleModel(module, signs, differential, h)


# ------------------------------------------------------------ table algebra


def shift_table(table: Table, shifts: Sequence[int]) -> Dict[Tuple[int, int], Dict[int, int]]:
    """Apply object shifts: hom(i, j) degrees translate by shifts[j] - shifts[i]."""
    out: Dict[Tuple[int, int], Dict[int, int]] = {}
    for (i, j), ranks in table.items():
        delta = shifts[j] - shifts[i]
        out[(i, j)] = {d - delta: r for d, r in ranks.items()}
    return out


def _normalized(table: Table):
    return {
        pair: tuple(sorted((d, r) for d, r in ranks.items() if r))
        for pair, ranks in table.items()
    }


def _solve_shifts(a: Mapping, b: Mapping, n_objects: int) -> Tuple[int, ...]:
    """Object shifts forced by the homs nonempty in both normalized tables.

    Matching hom(i, j) fixes s_j - s_i as the difference of the lowest
    degrees; the shifts spread along those homs from 0 at the first object
    of each connected set.
    """
    forced = [(i, j, ranks[0][0] - b[(i, j)][0][0])
              for (i, j), ranks in a.items() if i != j and ranks and b[(i, j)]]
    shifts: Dict[int, int] = {}
    for root in range(n_objects):
        shifts.setdefault(root, 0)
        for _ in range(n_objects):  # a path between two objects has < n steps
            for i, j, delta in forced:
                if i in shifts:
                    shifts.setdefault(j, shifts[i] + delta)
                elif j in shifts:
                    shifts[i] = shifts[j] - delta
    return tuple(shifts[i] for i in range(n_objects))


def tables_equal(table_a: Table, table_b: Table) -> Optional[Tuple[int, ...]]:
    """Object shifts that turn table_a into table_b, or None when none do.

    No window bounds the shifts: the forced ones are solved and the shifted
    table is compared once.  Any other matching assignment differs from this
    witness by a constant on each connected set of objects.
    """
    if set(table_a) != set(table_b):
        return None
    a, b = _normalized(table_a), _normalized(table_b)
    n_objects = max(max(pair) for pair in table_a) + 1 if table_a else 0
    shifts = _solve_shifts(a, b, n_objects)
    return shifts if _normalized(shift_table(table_a, shifts)) == b else None
