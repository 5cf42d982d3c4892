"""Path algebras of small quivers with relations, DG structure, and the
endomorphism algebra of the tilting object O + X, computed as twisted
complexes over the two thimbles, whose dimensions match the five-dimensional
path algebra.

Composition is function-style throughout: the product b*a means "traverse a
first, then b".  Paths are stored diagrammatically, as the tuple of arrow
names in traversal order, so the relation "b*a = 0" is the arrow tuple
("a", "b").  This is the unique reading under which the loop at the first
vertex dies while the loop at the second vertex survives as a nilpotent,
matching the composites forced by the defining triangle of the extension
bundle.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, Iterable, List, Mapping, NamedTuple, Optional, Sequence, Tuple

from .errors import DiagnosticError, PreconditionError, StructureError
from .fukaya import lg2_category, twisted_hom_cohomology
from .gaussian import ExactMatrix, cohomology
from .toric import EXCEPTIONAL_PAIR, HirzebruchFan, PicClass, ext_dims, ext_hom_table

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


# ------------------------------------------------------------- tilting


class TiltingReport(NamedTuple):
    hom_dims: Tuple[int, int, int, int]
    ext1: Tuple[int, int, int, int]
    ext2: Tuple[int, int, int, int]

    @property
    def total(self) -> int:
        return sum(self.hom_dims)

    @property
    def higher_ext_vanish(self) -> bool:
        return not any(self.ext1) and not any(self.ext2)


# the summands of the tilting object as twisted complexes over the thimbles
O_SUMMAND, X_SUMMAND = ((1,), ()), ((0, 1), ("x1",))


def end_algebra_dims_tilting() -> TiltingReport:
    """Hom and Ext dimensions of the four blocks of End(O + X).

    The bundle X sits in 0 -> O -> X -> N -> 0, where (N, O) = (O(-E), O)
    is ``EXCEPTIONAL_PAIR`` and the extension is nontrivial.  The pair's Ext
    table on F_2 must equal the hom table of the thimbles (L0, L1) = (N, O),
    or a DiagnosticError is raised.  That comparison is the transport step:
    it identifies x1 with the class in Ext^1(O(-E), O) that defines X, so X
    is the twisted complex (L0 + L1, delta = x1) and O is L1.  Degrees 0, 1
    and 2 of each twisted Hom give Hom, Ext^1 and Ext^2, in the block order
    Hom(O, O), Hom(O, X), Hom(X, O), Hom(X, X).
    """
    cat = lg2_category()
    ext = ext_hom_table(HirzebruchFan(2), EXCEPTIONAL_PAIR)
    if ext != cat.hom_table():
        raise DiagnosticError(f"the thimble hom table differs from the Ext table {ext} on F_2")
    o, x = O_SUMMAND, X_SUMMAND
    blocks = [twisted_hom_cohomology(cat, a, b) for a, b in ((o, o), (o, x), (x, o), (x, x))]
    hom, ext1, ext2 = (tuple(block.get(d, 0) for block in blocks) for d in range(3))
    return TiltingReport(hom, ext1, ext2)


# --------------------------------------------------------------- K-theory


def euler_form_matrix(classes: Sequence[PicClass]) -> ExactMatrix:
    """Euler-form matrix chi(E_i, E_j) = sum_k (-1)^k dim Ext^k(E_i, E_j)
    of line bundles on the Hirzebruch surface F_2.

    An exceptional collection gives a unitriangular matrix, so the rank is
    the number of free generators its objects contribute to the
    Grothendieck group.
    """
    fan = HirzebruchFan(2)
    return ExactMatrix([[ext_dims(fan, ci, cj).euler for cj in classes] for ci in classes])
