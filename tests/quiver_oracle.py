"""Two oracles for the tilting object O + X: the path algebra with relations,
and the tilting blocks by long-exact-sequence chases.

``lgorbit.quiver`` reads End(O + X) off twisted complexes over the thimble
category, block dimensions and products alike.  The first oracle writes the
algebra down by hand instead: a DG path-algebra engine (graded arrows,
monomial relations, a differential checked to square to zero, a
breadth-first path basis and Hom cohomology), with the ordinary quiver of
two vertices and arrows both ways as its fixture.  Composition is
function-style there: the product b*a means "traverse a first, then b".
Paths are stored diagrammatically, as the tuple of arrow names in traversal
order, so the relation "b*a = 0" is the arrow tuple ("a", "b").

The second oracle chases the Ext table of the exceptional pair on F_2
through the four long exact sequences of 0 -> O -> X -> N -> 0.  A chase
cannot see the connecting map, so the one chase whose connecting rank is
free takes it as the pin ``first_connecting="injective"`` and reports that
it did.
"""

from fractions import Fraction
from typing import Dict, Iterable, List, Mapping, NamedTuple, Optional, Sequence, Tuple

from lgorbit.errors import DiagnosticError, PreconditionError, StructureError
from lgorbit.gaussian import cohomology
from lgorbit.toric import EXCEPTIONAL_PAIR, HirzebruchFan, ext_dims

# ------------------------------------------------------------ path algebra

ArrowWord = Tuple[str, ...]
Combo = Dict["Path", Fraction]


class Arrow(NamedTuple):
    name: str
    source: str
    target: str
    degree: int = 0


class Path(NamedTuple):
    """A path monomial: arrow names in traversal order; () is an identity."""

    source: str
    target: str
    arrows: ArrowWord = ()


class PathBasis(NamedTuple):
    paths: Tuple[Path, ...]
    degrees: Tuple[int, ...]

    @property
    def dimension(self) -> int:
        return len(self.paths)

    def by_endpoints(self, source: str, target: str) -> List[Tuple[Path, int]]:
        return [
            (p, d)
            for p, d in zip(self.paths, self.degrees)
            if p.source == source and p.target == target
        ]


class QuiverPresentation:
    """Vertices, graded arrows, relations, and an optional differential.

    relations: each a monomial, given as ((coeff, arrow_word),) with a
    nonzero coefficient; a path containing a relation word is zero.  A
    relation with more than one nonzero term is rejected.

    differential: arrow name -> combination of equal-endpoint paths of
    degree one higher; arrows not listed have differential zero.  The
    square of the induced derivation must vanish on every arrow.
    """

    def __init__(
        self,
        vertices: Sequence[str],
        arrows: Sequence[Arrow],
        relations: Iterable[Tuple[Tuple[int, ArrowWord], ...]] = (),
        differential: Optional[Mapping[str, Tuple[Tuple[int, ArrowWord], ...]]] = None,
    ):
        self.vertices = tuple(vertices)
        if len(set(self.vertices)) != len(self.vertices):
            raise StructureError("vertex names must be distinct")
        self.arrows = tuple(arrows)
        self._arrow_by_name = {a.name: a for a in self.arrows}
        if len(self._arrow_by_name) != len(self.arrows):
            raise StructureError("arrow names must be distinct")
        for a in self.arrows:
            if a.source not in self.vertices or a.target not in self.vertices:
                raise StructureError(f"arrow {a.name} has unknown endpoints")
        self._zero_words: List[ArrowWord] = []
        for combo in relations:
            words = [self._path_of_word(w).arrows for c, w in combo if c != 0]
            if len(words) > 1:
                raise StructureError("only monomial relations are supported")
            self._zero_words += words
        self.differential: Dict[str, Combo] = {}
        for name, combo in (differential or {}).items():
            arrow = self._arrow_by_name.get(name)
            if arrow is None:
                raise StructureError(f"differential on unknown arrow {name}")
            image: Combo = {}
            for coeff, word in combo:
                p = self._path_of_word(word)
                if (p.source, p.target) != (arrow.source, arrow.target):
                    raise StructureError("differential image endpoints differ")
                if self.path_degree(p) != arrow.degree + 1:
                    raise StructureError("differential must raise degree by one")
                image[p] = image.get(p, Fraction(0)) + coeff
            self.differential[name] = {p: c for p, c in image.items() if c}
        for name in self.differential:
            square = self.d_combo(self.differential[name])
            if square:
                raise StructureError(f"differential does not square to zero on {name}")

    # ----------------------------------------------------------- primitives

    def arrow(self, name: str) -> Arrow:
        try:
            return self._arrow_by_name[name]
        except KeyError:
            raise StructureError(f"unknown arrow {name!r}") from None

    def _path_of_word(self, word: ArrowWord) -> Path:
        if not word:
            raise StructureError("relation and differential words must be nonempty")
        first = self.arrow(word[0])
        end = first.target
        for name in word[1:]:
            a = self.arrow(name)
            if a.source != end:
                raise StructureError(f"word {word} is not a composable path")
            end = a.target
        return Path(first.source, end, tuple(word))

    def identity(self, vertex: str) -> Path:
        if vertex not in self.vertices:
            raise StructureError(f"unknown vertex {vertex!r}")
        return Path(vertex, vertex, ())

    def path_degree(self, p: Path) -> int:
        return sum(self.arrow(name).degree for name in p.arrows)

    # -------------------------------------------------------- normal forms

    def normal_form(self, combo: Mapping[Path, Fraction]) -> Combo:
        """Drop the paths that contain a relation word, and zero coefficients."""
        return {
            p: Fraction(c) for p, c in combo.items() if c and self.is_basis_word(p.arrows)
        }

    def is_basis_word(self, word: ArrowWord) -> bool:
        """Whether the word contains no relation word as a consecutive run."""
        for zero in self._zero_words:
            span = len(zero)
            if any(word[at : at + span] == zero for at in range(len(word) - span + 1)):
                return False
        return True

    # ------------------------------------------------------------- algebra

    def path_product(self, late: Path, early: Path) -> Combo:
        """Function-style product late*early: early is traversed first."""
        if early.target != late.source:
            return {}
        word = early.arrows + late.arrows
        p = Path(early.source, late.target, word)
        return self.normal_form({p: Fraction(1)})

    def d_path(self, p: Path) -> Combo:
        """Leibniz extension of the arrow differential, traversal-order signs."""
        total: Combo = {}
        acc = 0
        for at, name in enumerate(p.arrows):
            image = self.differential.get(name)
            if image:
                sign = (-1) ** acc
                for q, coeff in image.items():
                    word = p.arrows[:at] + q.arrows + p.arrows[at + 1 :]
                    spliced = Path(p.source, p.target, word)
                    total[spliced] = total.get(spliced, Fraction(0)) + sign * coeff
            acc += self.arrow(name).degree
        return self.normal_form(total)

    def d_combo(self, combo: Mapping[Path, Fraction]) -> Combo:
        total: Combo = {}
        for p, c in combo.items():
            for q, v in self.d_path(p).items():
                total[q] = total.get(q, Fraction(0)) + c * v
        return {p: c for p, c in total.items() if c}


# ------------------------------------------------------------- enumeration


def path_basis(q: QuiverPresentation, length_bound: int = 8) -> PathBasis:
    """All nonzero path monomials modulo relations, by breadth-first growth.

    Raises a diagnostic when irreducible paths still appear at the bound,
    since the basis may then be infinite.
    """
    if length_bound < 1:
        raise PreconditionError("length_bound must be positive")
    paths: List[Path] = [q.identity(v) for v in q.vertices]
    frontier = paths[:]
    for length in range(1, length_bound + 1):
        new_frontier: List[Path] = []
        for p in frontier:
            for a in q.arrows:
                if a.source != p.target:
                    continue
                word = p.arrows + (a.name,)
                if q.is_basis_word(word):
                    new_frontier.append(Path(p.source, a.target, word))
        if length == length_bound and new_frontier:
            raise DiagnosticError(
                f"path basis still growing at length {length_bound}"
            )
        paths.extend(new_frontier)
        frontier = new_frontier
        if not frontier:
            break
    degrees = tuple(q.path_degree(p) for p in paths)
    return PathBasis(tuple(paths), degrees)


# ------------------------------------------------------------ Hom complexes


def hom_cohomology(q: QuiverPresentation, source: str, target: str) -> Dict[int, int]:
    """Cohomology of the graded span of basis paths between two vertices under d."""
    graded: Dict[int, List[Path]] = {}
    for p, d in path_basis(q).by_endpoints(source, target):
        graded.setdefault(d, []).append(p)
    differentials: Dict[int, List[List[Fraction]]] = {}
    for d, cols in graded.items():
        rows = graded.get(d + 1, [])
        index = {p: k for k, p in enumerate(rows)}
        matrix = [[Fraction(0)] * len(cols) for _ in rows]
        for col, p in enumerate(cols):
            for image, coeff in q.d_path(p).items():
                if image in index:
                    matrix[index[image]][col] = coeff
                elif image.arrows or coeff:
                    if q.path_degree(image) != d + 1:
                        raise DiagnosticError("differential is not degree one")
        differentials[d] = matrix
    return cohomology({d: len(ps) for d, ps in graded.items()}, differentials)


# ------------------------------------------------------- the two fixtures


def ordinary_quiver() -> QuiverPresentation:
    """Two vertices, arrows both ways, the traversal word (a, b) set to zero."""
    return QuiverPresentation(
        ("v0", "v1"),
        (Arrow("alpha", "v0", "v1", 0), Arrow("beta", "v1", "v0", 0)),
        relations=(((1, ("alpha", "beta")),),),
    )


def dg_quiver(variant: str = "zero") -> QuiverPresentation:
    """Two parallel arrows of degrees 0 and 1 and no relations.

    variant "zero": both differentials vanish.  variant "literal": the
    degree-zero arrow maps to the degree-one arrow, which kills the Hom
    cohomology; both readings are provided because the source presentation
    of this quiver is ambiguous on the point.
    """
    arrows = (Arrow("alpha", "v0", "v1", 0), Arrow("alpha_bar", "v0", "v1", 1))
    if variant == "zero":
        differential = None
    elif variant == "literal":
        differential = {"alpha": ((1, ("alpha_bar",)),)}
    else:
        raise PreconditionError("variant must be 'zero' or 'literal'")
    return QuiverPresentation(("v0", "v1"), arrows, differential=differential)


def composition_pattern_check() -> bool:
    """beta*alpha = 0, alpha*beta is a basis element, (alpha*beta)^2 = 0."""
    q = ordinary_quiver()
    alpha = q._path_of_word(("alpha",))
    beta = q._path_of_word(("beta",))
    beta_alpha = q.path_product(beta, alpha)
    if beta_alpha:
        return False
    alpha_beta = q.path_product(alpha, beta)
    if list(alpha_beta.values()) != [Fraction(1)]:
        return False
    loop = next(iter(alpha_beta))
    if not q.is_basis_word(loop.arrows):
        return False
    squared = q.path_product(loop, loop)
    return not squared


# ---------------------------------------------------------- exact sequences


class ChaseResult(NamedTuple):
    middle: Tuple[int, int, int]
    ranks: Tuple[int, ...]
    used_injective_connecting: bool


def les_chase(
    outer: Tuple[int, int, int, int, int, int],
    first_connecting: Optional[str] = None,
) -> ChaseResult:
    """Solve a nine-term exact sequence for its three unknown middle terms.

    The sequence is 0 -> A0 -> A1 -> A2 -> A3 -> A4 -> A5 -> A6 -> A7 ->
    A8 -> 0 with A0, A2, A3, A5, A6, A8 given (positions 1, 4, 7 unknown).
    The connecting ranks r2: A2 -> A3 and r5: A5 -> A6 are free parameters;
    each is forced to zero when either endpoint vanishes, and r2 may instead
    be pinned by first_connecting="injective" (rank = dim A2).  An
    undetermined or inconsistent chase raises a diagnostic.
    """
    a0, a2, a3, a5, a6, a8 = outer
    if min(outer) < 0:
        raise PreconditionError("dimensions must be nonnegative")
    if first_connecting not in (None, "injective"):
        raise PreconditionError("first_connecting must be None or 'injective'")
    used = False
    if a2 == 0 or a3 == 0:
        r2 = 0
    elif first_connecting == "injective":
        r2 = a2
        used = True
    else:
        raise DiagnosticError("connecting rank A2 -> A3 is undetermined")
    if a5 == 0 or a6 == 0:
        r5 = 0
    else:
        raise DiagnosticError("connecting rank A5 -> A6 is undetermined")
    ranks = (a0, a2 - r2, r2, a3 - r2, a5 - r5, r5, a6 - r5, a8)
    if min(ranks) < 0:
        raise DiagnosticError(f"inconsistent exact sequence: ranks {ranks}")
    r0, r1, _, r3, r4, _, r6, r7 = ranks
    return ChaseResult((r0 + r1, r3 + r4, r6 + r7), ranks, used)


def end_algebra_dims_by_chases(first_connecting: Optional[str] = "injective"):
    """(hom, ext1, ext2, used_pin), each a tuple over the blocks Hom(O, O),
    Hom(O, X), Hom(X, O), Hom(X, X), from four chases of the F_2 Ext table."""
    fan = HirzebruchFan(2)
    classes = tuple(zip("no", EXCEPTIONAL_PAIR))
    table = {(x, y): ext_dims(fan, cx, cy).triple for x, cx in classes for y, cy in classes}

    def chase(left, right, pin=None):
        return les_chase((left[0], right[0], left[1], right[1], left[2], right[2]), pin)

    # Hom(-, O): contravariant, N enters first; the only chase with a free rank
    to_o = chase(table[("n", "o")], table[("o", "o")], first_connecting)
    # Hom(-, N)
    to_n = chase(table[("n", "n")], table[("o", "n")])
    # Hom(O, -): covariant, the sub O enters first
    from_o = chase(table[("o", "o")], table[("o", "n")])
    # Hom(X, -): outer terms come from the two contravariant chases
    from_x = chase(to_o.middle, to_n.middle)
    blocks = (table[("o", "o")], from_o.middle, to_o.middle, from_x.middle)
    hom, ext1, ext2 = (tuple(block[d] for block in blocks) for d in range(3))
    return hom, ext1, ext2, to_o.used_injective_connecting
