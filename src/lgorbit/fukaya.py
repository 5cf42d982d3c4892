"""Directed A-infinity categories over the integers, and the two-thimble instance.

Objects are linearly ordered.  Morphisms exist only from lower to higher
index, plus the identity endomorphisms; hom spaces are free graded abelian
groups given by named generators.  Products are sparse tables m_k sending a
composable chain of generators to an integer combination of generators.

The A-infinity relations are checked with the operadic sign convention

    sum over r+s+t = N of
    (-1)^(r + s*t + s*(|a_1|+...+|a_r|)) m_{r+1+t}(a_1..a_r, m_s(...), ..) = 0,

under which m_2 has degree zero and strict unitality reads without signs,
matching the way the unit acts in an ordinary graded algebra.  For the
two-thimble category every nonvanishing instance reduces to associativity
against an identity, so the checks hold exactly over Z.
"""

from __future__ import annotations

import itertools
from collections import defaultdict, namedtuple
from typing import Dict, Iterable, List, Mapping, NamedTuple, Sequence, Tuple

from .errors import StructureError
from .gaussian import cohomology

Chain = Tuple[str, ...]


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
        out: Dict[int, int] = {}
        for _, degree in self.basis:
            out[degree] = out.get(degree, 0) + 1
        return out


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
        table: Dict[Chain, Dict[str, int]] = defaultdict(dict)
        entries = tuple(products)
        for entry in entries:
            self._validate_entry(entry)
            bucket = table[entry.inputs]
            bucket[entry.output] = bucket.get(entry.output, 0) + entry.coeff
        self.products = entries
        self._table = {k: {o: c for o, c in v.items() if c} for k, v in table.items()}

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

    def apply(self, arity: int, chain: Chain) -> Dict[str, int]:
        """m_arity evaluated on a chain of generators (empty dict when zero)."""
        if len(chain) != arity:
            raise StructureError("arity does not match chain length")
        return dict(self._table.get(chain, {}))

    # ----------------------------------------------------------- enumeration

    def composable_chains(self, length: int) -> List[Chain]:
        chains: List[Chain] = []

        def extend(prefix: Chain, end: int) -> None:
            if len(prefix) == length:
                chains.append(prefix)
                return
            for name, (i, _j, _d) in self._info.items():
                if i == end:
                    extend(prefix + (name,), _j)

        for name, (_i, j, _d) in self._info.items():
            extend((name,), j)
        return [c for c in chains if len(c) == length]

    def hom_table(self) -> Dict[Tuple[int, int], Dict[int, int]]:
        """Ranks by degree for every ordered object pair, zero above diagonal."""
        n = len(self.objects)
        table: Dict[Tuple[int, int], Dict[int, int]] = {}
        for i in range(n):
            for j in range(n):
                module = self.homs.get((i, j))
                table[(i, j)] = dict(module.ranks) if module else {}
        return table


# ------------------------------------------------------------------- checks


def check_a_infinity(cat: DirectedAInfCategory, k_max: int = 6) -> bool:
    """Verify the A-infinity relations on all chains of length <= k_max.

    Exact integer arithmetic; any nonzero total is a failure.
    """
    for n in range(1, k_max + 1):
        for chain in cat.composable_chains(n):
            total: Dict[str, int] = defaultdict(int)
            degrees = [cat.gen_info(a)[2] for a in chain]
            for s in range(1, n + 1):
                for r in range(0, n - s + 1):
                    t = n - s - r
                    inner = cat.apply(s, chain[r : r + s])
                    if not inner:
                        continue
                    sign = (-1) ** (r + s * t + (s % 2) * sum(degrees[:r]))
                    for name, coeff in inner.items():
                        outer_chain = chain[:r] + (name,) + chain[r + s :]
                        outer = cat.apply(r + 1 + t, outer_chain)
                        for out_name, out_coeff in outer.items():
                            total[out_name] += sign * coeff * out_coeff
            if any(v != 0 for v in total.values()):
                return False
    return True


def check_strict_unitality(cat: DirectedAInfCategory) -> bool:
    """Identities are strict units for m_2 and absent from every other m_k."""
    for name in cat.generators():
        i, j, _ = cat.gen_info(name)
        left = cat.apply(2, (cat.identity_of(i), name))
        right = cat.apply(2, (name, cat.identity_of(j)))
        if left != {name: 1} or right != {name: 1}:
            return False
    for entry in cat.products:
        if entry.arity != 2 and any(cat.is_identity(a) for a in entry.inputs):
            return False
    return True


def degree_forced_vanishing(
    cat: DirectedAInfCategory,
    max_arity: int = 6,
    min_arity: int = 2,
) -> List[Tuple[int, Chain, int]]:
    """Chains of non-identity generators whose product degree admits a target.

    Returns the slots where grading and directedness alone do NOT force
    m_k to vanish.  Products (min_arity defaults to 2) are the claim "all
    higher compositions vanish for degree reasons"; passing min_arity=1
    also surveys the differential slot, which is closed separately by the
    Morse model on the circle.
    """
    out: List[Tuple[int, Chain, int]] = []
    non_identity = [g for g in cat.generators() if not cat.is_identity(g)]
    by_source: Dict[int, List[str]] = defaultdict(list)
    for g in non_identity:
        by_source[cat.gen_info(g)[0]].append(g)

    def walk(prefix: Chain, end: int) -> None:
        k = len(prefix)
        if k >= min_arity:
            start = cat.gen_info(prefix[0])[0]
            degree = sum(cat.gen_info(a)[2] for a in prefix) + 2 - k
            module = cat.homs.get((start, end))
            if module is not None:
                if any(d == degree for _n, d in module.basis):
                    out.append((k, prefix, degree))
        if k == max_arity:
            return
        for g in by_source.get(end, []):
            walk(prefix + (g,), cat.gen_info(g)[1])

    for g in non_identity:
        walk((g,), cat.gen_info(g)[1])
    return out


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


def p1_mirror_table() -> Dict[Tuple[int, int], Dict[int, int]]:
    """Hom ranks of the standard exceptional pair on the projective line.

    hom(L0, L1) is two-dimensional in degree zero; this is the table a
    projective-line mirror would have to reproduce.
    """
    return {
        (0, 0): {0: 1},
        (0, 1): {0: 2},
        (1, 0): {},
        (1, 1): {0: 1},
    }


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


def shift_table(
    table: Mapping[Tuple[int, int], Mapping[int, int]],
    shifts: Sequence[int],
) -> Dict[Tuple[int, int], Dict[int, int]]:
    """Apply object shifts: hom(i, j) degrees translate by shifts[j] - shifts[i]."""
    out: Dict[Tuple[int, int], Dict[int, int]] = {}
    for (i, j), ranks in table.items():
        delta = shifts[j] - shifts[i]
        out[(i, j)] = {d - delta: r for d, r in ranks.items()}
    return out


def _normalized(table: Mapping[Tuple[int, int], Mapping[int, int]]):
    return {
        pair: tuple(sorted((d, r) for d, r in ranks.items() if r))
        for pair, ranks in table.items()
    }


def tables_equal(
    table_a: Mapping[Tuple[int, int], Mapping[int, int]],
    table_b: Mapping[Tuple[int, int], Mapping[int, int]],
    shift_window: int = 0,
) -> bool:
    """Equality of hom-rank tables, optionally up to per-object shifts.

    With a window w every assignment of integer shifts in [-w, w] to the
    objects of table_a is tried; True when some assignment matches.
    """
    if set(table_a) != set(table_b):
        return False
    target = _normalized(table_b)
    n_objects = max(max(pair) for pair in table_a) + 1 if table_a else 0
    if shift_window == 0:
        return _normalized(table_a) == target
    for assignment in itertools.product(
        range(-shift_window, shift_window + 1), repeat=n_objects
    ):
        if _normalized(shift_table(table_a, assignment)) == target:
            return True
    return False
