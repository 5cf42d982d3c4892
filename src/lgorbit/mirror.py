"""Decided obstruction search over the simple objects of the projective line.

The simple coherent sheaves on the line are the twists O(t) and the point
sheaves; their Hom and first Ext dimensions follow closed forms, and every
shift just translates the degree pattern.  The searches below decide, for
every ordered pair with bounded twist and shift, whether it matches a target
pattern together with directedness and simplicity of endomorphisms; the
main run must come back empty, and the relaxed controls must not, which
guards against a vacuous search.

Difference classes: the pattern of hom(x[sx], y[sy]) depends only on the
kinds of x and y, on the twist difference d = y.t - x.t of two line bundles
(or on whether two points agree), and on the shift difference
delta = sy - sx (Hartshorne, Algebraic Geometry, III.5.1); the window's
differences fill [-2t, 2t] and [-2s, 2s].  Two line bundles give
{-delta: d + 1} for d >= 0, nothing for d = -1 and {1 - delta: -d - 1} for
d <= -2; the point classes give unit entries at -delta and 1 - delta, or
nothing.  So a target value v can only come from d in {v - 1, -v - 1}, a
target key k only from delta in {-k, 1 - k}, and the empty target from
d = -1 or two distinct points at any delta.  The search solves for those
O(|target|) classes and tests one in-window pair of each, so its cost does
not depend on the window.

Shift convention: the object X[s] contributes in degree d what X
contributes in degree d + s, so hom(X[sx], Y[sy]) in degree d equals
hom(X, Y) in degree d + sy - sx.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple, Union

from .errors import PreconditionError

ExtPattern = Dict[int, int]


class LineBundle(NamedTuple):
    t: int


class Skyscraper(NamedTuple):
    point: str


SimpleP1Object = Union[LineBundle, Skyscraper]


def ext_p1(x: SimpleP1Object, y: SimpleP1Object) -> Tuple[int, int]:
    """(hom, ext1) between unshifted simple objects."""
    if isinstance(x, LineBundle) and isinstance(y, LineBundle):
        d = y.t - x.t
        return (max(0, d + 1), max(0, -d - 1))
    if isinstance(x, LineBundle) and isinstance(y, Skyscraper):
        return (1, 0)
    if isinstance(x, Skyscraper) and isinstance(y, LineBundle):
        return (0, 1)
    if isinstance(x, Skyscraper) and isinstance(y, Skyscraper):
        return (1, 1) if x.point == y.point else (0, 0)
    raise PreconditionError("unsupported object kind")


def shifted_pattern(
    x: SimpleP1Object, y: SimpleP1Object, shift_x: int = 0, shift_y: int = 0
) -> ExtPattern:
    """Degree -> dimension map of hom(x[shift_x], y[shift_y])."""
    hom, ext1 = ext_p1(x, y)
    base = {0: hom, 1: ext1}
    delta = shift_y - shift_x
    return {d - delta: v for d, v in base.items() if v}


# The standard exceptional pair (O, O(1)) on the line.
EXCEPTIONAL_PAIR = (LineBundle(0), LineBundle(1))


def ext_hom_table(
    objects: Sequence[SimpleP1Object],
) -> Dict[Tuple[int, int], ExtPattern]:
    """Nonzero Ext dimensions by degree between every ordered pair of objects.

    The shape of ``toric.ext_hom_table``; on ``EXCEPTIONAL_PAIR`` it is the
    table a projective-line mirror of the thimble category would reproduce.
    """
    return {
        (i, j): shifted_pattern(x, y)
        for i, x in enumerate(objects)
        for j, y in enumerate(objects)
    }


class MirrorWitness(NamedTuple):
    source: SimpleP1Object
    source_shift: int
    target: SimpleP1Object
    target_shift: int
    forward: Tuple[Tuple[int, int], ...]
    backward: Tuple[Tuple[int, int], ...]


_POINTS = (Skyscraper("p"), Skyscraper("q"))


def _solved_classes(
    t_range: int, shift_range: int, target: ExtPattern
) -> Iterable[Tuple[SimpleP1Object, int, SimpleP1Object, int]]:
    """One in-window pair (x, sx, y, sy) per class that can match the target.

    The classes come in order: twist differences ascending, then O(0) -> p,
    p -> O(0), p -> p and p -> q, each with shift differences ascending; the
    empty target takes the smallest one, as no shift fills it.  A difference
    d splits as -(d // 2) -> d - d // 2, so both ends stay in the window.
    """
    values = set(target.values())
    twists = {v - 1 for v in values} | {-v - 1 for v in values} if target else {-1}
    shifts = {-k for k in target} | {1 - k for k in target} if target else {-2 * shift_range}
    origin, p, q = LineBundle(0), _POINTS[0], _POINTS[1]
    pairs = [(LineBundle(-(d // 2)), LineBundle(d - d // 2))
             for d in sorted(twists) if abs(d) <= 2 * t_range]
    pairs += [(origin, p), (p, origin), (p, p), (p, q)]
    deltas = [delta for delta in sorted(shifts) if abs(delta) <= 2 * shift_range]
    for x, y in pairs:
        for delta in deltas:
            yield x, -(delta // 2), y, delta - delta // 2


DEFAULT_TARGET: ExtPattern = {0: 1, 1: 1}

# The report's shift window.  No verdict depends on it: the search solves
# each shift difference from its target, and every window from 1 holds the
# differences of the report's targets.
SHIFT_WINDOW = 3


def search_mirror_pair(
    t_range: int = 10,
    shift_range: int = SHIFT_WINDOW,
    target_forward: Optional[ExtPattern] = None,
    require_backward_zero: bool = True,
    require_end_simple: bool = True,
    allow_self_pairs: bool = False,
) -> Optional[MirrorWitness]:
    """An ordered pair matching the target, or None when none exists.

    A candidate is an object together with a shift; a self pair reuses the
    identical (object, shift) candidate on both sides.  The default flags
    encode the full criterion: forward pattern one dimension in each of
    degrees 0 and 1, backward morphisms all zero, both endomorphism
    algebras one-dimensional.  The controls relax individual flags.

    Only the classes solved from the target are tested, as many for any
    window; the witness is the in-window pair of the first that matches.
    """
    if t_range < 0 or shift_range < 0:
        raise PreconditionError("ranges must be nonnegative")
    target = DEFAULT_TARGET if target_forward is None else {
        d: v for d, v in target_forward.items() if v
    }
    # hom(x, x) depends only on the kind of x
    simple = {
        type(obj): shifted_pattern(obj, obj) == {0: 1}
        for obj in (LineBundle(0), _POINTS[0])
    }
    for x, sx, y, sy in _solved_classes(t_range, shift_range, target):
        if require_end_simple and not (simple[type(x)] and simple[type(y)]):
            continue
        if (x, sx) == (y, sy) and not allow_self_pairs:
            continue
        forward = shifted_pattern(x, y, sx, sy)
        if forward != target:
            continue
        backward = shifted_pattern(y, x, sy, sx)
        if require_backward_zero and backward:
            continue
        return MirrorWitness(
            x, sx, y, sy,
            tuple(sorted(forward.items())),
            tuple(sorted(backward.items())),
        )
    return None


class ExclusionRow(NamedTuple):
    case: str
    reason: str
    verified: bool


def exclusion_table(t_range: int = 10) -> List[ExclusionRow]:
    """Casewise reasons the target pattern never appears, each re-verified.

    Each row is checked at every twist difference in [-2t, 2t], which are
    those of the window's pairs, and at shift difference 0 only, so the
    table takes no shift range: a shift just re-keys the degrees, and each
    row's predicate (at most one degree, total dimension one, non-empty,
    empty) reads only their count and values, so it holds at every shift
    once it holds at 0.
    """
    if t_range < 0:
        raise PreconditionError("t_range must be nonnegative")
    origin, p, q = LineBundle(0), _POINTS[0], _POINTS[1]
    rows: List[ExclusionRow] = []

    lb_single = all(
        len(shifted_pattern(origin, LineBundle(d))) <= 1
        for d in range(-2 * t_range, 2 * t_range + 1)
    )
    rows.append(ExclusionRow(
        "line bundle to line bundle",
        "pattern is concentrated in a single degree, never two",
        lb_single,
    ))

    mixed_one = (
        sum(shifted_pattern(origin, p).values()) == 1
        and sum(shifted_pattern(p, origin).values()) == 1
    )
    rows.append(ExclusionRow(
        "line bundle and point sheaf, either order",
        "total dimension is one, target needs two",
        mixed_one,
    ))

    same_point = shifted_pattern(p, p)
    rows.append(ExclusionRow(
        "one point sheaf against itself",
        "backward morphisms never vanish and the endomorphisms are not simple",
        bool(same_point) and same_point != {0: 1},
    ))

    rows.append(ExclusionRow(
        "two distinct point sheaves",
        "all morphisms vanish",
        not shifted_pattern(p, q),
    ))
    return rows


def dimension_bound_verdict(n: int, m: int) -> str:
    """Free-rank comparison: a variety of dimension n needs n + 1 generators.

    "excluded" when n + 1 exceeds the generator count m of the category,
    otherwise "admissible" (further steps must handle the survivors).
    """
    if n < 0:
        raise PreconditionError("dimension must be nonnegative")
    if m < 1:
        raise PreconditionError("generator count must be positive")
    return "excluded" if n + 1 > m else "admissible"


def euler_pairing_identity(span: int = 30) -> bool:
    """hom - ext1 of O(a) -> O(b) is b - a + 1 (Riemann-Roch on the line).

    Twisting both bundles by O(-a) is an autoequivalence, so hom and ext1 of
    O(a) -> O(b) are those of O -> O(b - a), and ext_p1 reads the pair only
    through d = b - a; the claim b - a + 1 reads only d too.  So one pair per
    difference d in [-2 span, 2 span] covers every pair of twists in
    [-span, span]; d splits as -(d // 2) -> d - d // 2, which stays in the
    window and reaches the corner pairs at d = -2 span and 2 span.
    """
    for d in range(-2 * span, 2 * span + 1):
        x, y = LineBundle(-(d // 2)), LineBundle(d - d // 2)
        hom, ext1 = ext_p1(x, y)
        if hom - ext1 != y.t - x.t + 1:
            return False
    return True
