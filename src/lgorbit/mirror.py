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
on whether two points agree), and on the shift difference sy - sx.  With
twists in [-t, t] and shifts in [-s, s] those differences lie in [-2t, 2t]
and [-2s, 2s], and each one comes from some pair in the window.  So the
search tests one representative per class, O(t*s) patterns, and returns None
at once when no class matches.  Otherwise it walks the sources in order and
reads each source's first target off the matching classes, O(t*s*matches)
at worst; the witness is the one a pair-by-pair scan finds.  The exclusion
table checks each row once per class in the same way.

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


def _outward(limit: int) -> List[int]:
    out = [0]
    for k in range(1, limit + 1):
        out.extend((k, -k))
    return out


def _position(k: int) -> int:
    """Index of k in the order _outward produces: 0, 1, -1, 2, -2, ..."""
    return 2 * k - 1 if k > 0 else -2 * k


_POINTS = (Skyscraper("p"), Skyscraper("q"))


def _candidates(t_range: int) -> List[SimpleP1Object]:
    objects: List[SimpleP1Object] = [LineBundle(t) for t in _outward(t_range)]
    objects.extend(_POINTS)
    return objects


def _rank(y: SimpleP1Object, sy: int, t_range: int) -> Tuple[int, int]:
    """Position of the target (y, sy) in the search order."""
    if isinstance(y, LineBundle):
        index = _position(y.t)
    else:
        index = 2 * t_range + 1 + _POINTS.index(y)
    return (index, _position(sy))


def _differences(limit: int) -> range:
    """Every difference of two values in [-limit, limit]."""
    return range(-2 * limit, 2 * limit + 1)


def _classes(
    t_range: int, shift_range: int
) -> Iterable[Tuple[SimpleP1Object, SimpleP1Object, int]]:
    """One representative (x0, y0, delta) per difference class of the window.

    The source is O(0) or the point p.  Line bundle targets run over every
    twist difference, point targets over the same and the other point.
    """
    origin, p, q = LineBundle(0), _POINTS[0], _POINTS[1]
    pairs = [(origin, LineBundle(d)) for d in _differences(t_range)]
    pairs += [(origin, p), (p, origin), (p, p), (p, q)]
    for x0, y0 in pairs:
        for delta in _differences(shift_range):
            yield x0, y0, delta


def _earliest_target(
    x: SimpleP1Object, x0: SimpleP1Object, y0: SimpleP1Object, t_range: int
) -> Optional[SimpleP1Object]:
    """First object y in candidate order with (x, y) in the class of (x0, y0).

    x has the kind of x0.  None when the class leaves the twist window.
    """
    if isinstance(y0, Skyscraper):
        if isinstance(x, LineBundle):
            return _POINTS[0]  # both points give one pattern, and p comes first
        return next(y for y in _POINTS if (y == x) == (y0 == x0))
    # from a point every twist gives one pattern, and O(0) comes first
    t = x.t + y0.t - x0.t if isinstance(x, LineBundle) else 0
    return LineBundle(t) if abs(t) <= t_range else None


DEFAULT_TARGET: ExtPattern = {0: 1, 1: 1}


def search_mirror_pair(
    t_range: int = 10,
    shift_range: int = 3,
    target_forward: Optional[ExtPattern] = None,
    require_backward_zero: bool = True,
    require_end_simple: bool = True,
    allow_self_pairs: bool = False,
) -> Optional[MirrorWitness]:
    """First ordered pair matching the target, or None when none exists.

    A candidate is an object together with a shift; a self pair reuses the
    identical (object, shift) candidate on both sides.  The default flags
    encode the full criterion: forward pattern one dimension in each of
    degrees 0 and 1, backward morphisms all zero, both endomorphism
    algebras one-dimensional.  The controls relax individual flags.

    Candidates are ordered by object (twists outward from 0, then the points
    p and q) and then by shift (outward from 0); the witness is the first
    source in that order, paired with its first matching target.
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
    matches: Dict[type, List] = {LineBundle: [], Skyscraper: []}
    for x0, y0, delta in _classes(t_range, shift_range):
        if require_end_simple and not (simple[type(x0)] and simple[type(y0)]):
            continue
        if x0 == y0 and delta == 0 and not allow_self_pairs:
            continue  # this class holds only self pairs
        forward = shifted_pattern(x0, y0, 0, delta)
        if forward != target:
            continue
        backward = shifted_pattern(y0, x0, delta, 0)
        if require_backward_zero and backward:
            continue
        matches[type(x0)].append((
            x0, y0, delta,
            tuple(sorted(forward.items())),
            tuple(sorted(backward.items())),
        ))
    if not any(matches.values()):
        return None

    for x in _candidates(t_range):
        for sx in _outward(shift_range):
            targets = []
            for x0, y0, delta, forward, backward in matches[type(x)]:
                y, sy = _earliest_target(x, x0, y0, t_range), sx + delta
                if y is not None and abs(sy) <= shift_range:
                    targets.append((_rank(y, sy, t_range), y, sy, forward, backward))
            if targets:
                _, y, sy, forward, backward = min(targets, key=lambda c: c[0])
                return MirrorWitness(x, sx, y, sy, forward, backward)
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
