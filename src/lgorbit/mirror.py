"""Exhaustive obstruction search over the simple objects of the projective line.

The simple coherent sheaves on the line are the twists O(t) and the point
sheaves; their Hom and first Ext dimensions follow closed forms, and every
shift just translates the degree pattern.  The searches below cover every
ordered pair with bounded twist and shift and test it against a target
pattern together with directedness and simplicity of endomorphisms; the
main run must come back empty, and the relaxed controls must not, which
guards against a vacuous search.

Difference classes: the pattern of hom(x[sx], y[sy]) depends only on the
kinds of x and y, on the twist difference y.t - x.t of two line bundles (or
on whether two points agree), and on the shift difference sy - sx
(Hartshorne, Algebraic Geometry, III.5.1).  With twists in [-t, t] and
shifts in [-s, s] those differences lie in [-2t, 2t] and [-2s, 2s], and each
one comes from some pair in the window.  So the search tests one in-window
pair per class, O(t*s) patterns, and returns the first class that matches,
in ``_classes`` order: every pair of a matching class is as good a witness
as any other, so no pair-by-pair scan order is kept.  The exclusion table
checks each row once per class in the same way.

Shift convention: the object X[s] contributes in degree d what X
contributes in degree d + s, so hom(X[sx], Y[sy]) in degree d equals
hom(X, Y) in degree d + sy - sx.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple, Union

from .errors import PreconditionError

ExtPattern = Dict[int, int]


@dataclass(frozen=True)
class LineBundle:
    t: int


@dataclass(frozen=True)
class Skyscraper:
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


@dataclass(frozen=True)
class MirrorWitness:
    source: SimpleP1Object
    source_shift: int
    target: SimpleP1Object
    target_shift: int
    forward: Tuple[Tuple[int, int], ...]
    backward: Tuple[Tuple[int, int], ...]


_POINTS = (Skyscraper("p"), Skyscraper("q"))


def _differences(limit: int) -> range:
    """Every difference of two values in [-limit, limit]."""
    return range(-2 * limit, 2 * limit + 1)


def _classes(
    t_range: int, shift_range: int
) -> Iterable[Tuple[SimpleP1Object, int, SimpleP1Object, int]]:
    """One in-window pair (x, sx, y, sy) per difference class.

    A twist or shift difference d splits as -(d // 2) -> d - d // 2, so both
    ends stay within [-limit, limit].  The point classes pair O(0) with p,
    p with O(0), p with itself and p with q.
    """
    origin, p, q = LineBundle(0), _POINTS[0], _POINTS[1]
    pairs = [(LineBundle(-(d // 2)), LineBundle(d - d // 2)) for d in _differences(t_range)]
    pairs += [(origin, p), (p, origin), (p, p), (p, q)]
    for x, y in pairs:
        for delta in _differences(shift_range):
            yield x, -(delta // 2), y, delta - delta // 2


DEFAULT_TARGET: ExtPattern = {0: 1, 1: 1}


def search_mirror_pair(
    t_range: int = 10,
    shift_range: int = 3,
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

    The witness is the in-window pair of the first matching class in
    ``_classes`` order; no scan order over the window is promised.
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
    for x, sx, y, sy in _classes(t_range, shift_range):
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


@dataclass(frozen=True)
class ExclusionRow:
    case: str
    reason: str
    verified: bool


def exclusion_table(t_range: int = 10, shift_range: int = 3) -> List[ExclusionRow]:
    """Casewise reasons the target pattern never appears, each re-verified.

    Each row is checked once per difference class of the doubled window.
    Every pair in the window has its differences there, and every such
    difference comes from some pair, so this is the statement for all pairs.
    """
    deltas = _differences(shift_range)
    origin, p, q = LineBundle(0), _POINTS[0], _POINTS[1]
    rows: List[ExclusionRow] = []

    lb_single = all(
        len(shifted_pattern(origin, LineBundle(d), 0, delta)) <= 1
        for d in _differences(t_range) for delta in deltas
    )
    rows.append(ExclusionRow(
        "line bundle to line bundle",
        "pattern is concentrated in a single degree, never two",
        lb_single,
    ))

    mixed_one = all(
        sum(shifted_pattern(origin, p, 0, delta).values()) == 1
        and sum(shifted_pattern(p, origin, 0, delta).values()) == 1
        for delta in deltas
    )
    rows.append(ExclusionRow(
        "line bundle and point sheaf, either order",
        "total dimension is one, target needs two",
        mixed_one,
    ))

    same_point_bad = all(
        bool(shifted_pattern(p, p, 0, delta))
        and shifted_pattern(p, p) != {0: 1}
        for delta in deltas
    )
    rows.append(ExclusionRow(
        "one point sheaf against itself",
        "backward morphisms never vanish and the endomorphisms are not simple",
        same_point_bad,
    ))

    distinct_zero = all(not shifted_pattern(p, q, 0, delta) for delta in deltas)
    rows.append(ExclusionRow(
        "two distinct point sheaves",
        "all morphisms vanish",
        distinct_zero,
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

    Checked from ext_p1 for every pair of twists a, b in [-span, span].
    """
    window = range(-span, span + 1)
    for a in window:
        for b in window:
            hom, ext1 = ext_p1(LineBundle(a), LineBundle(b))
            if hom - ext1 != b - a + 1:
                return False
    return True
