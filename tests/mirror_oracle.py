"""Two mirror-search oracles, the brute-force exclusion table and Euler sweep.

``lgorbit.mirror`` solves for the few difference classes that can match a
target.  The oracles walk instead, and share only ``shifted_pattern`` and
``ext_p1`` with the library:

- ``search_mirror_pair`` visits every ordered pair of shifted candidates,
  O(t^2 s^2) of them, in candidate order (twists outward from 0, then the
  points p and q; shifts outward from 0).  Its first pair can differ from
  the library's witness, so the tests compare only whether one exists.
- ``search_by_class`` walks every difference class, O(t s) of them, with
  one in-window pair each.  The library tests a subset of these classes in
  the same order, so the two must return the same witness.
- ``euler_pairing_identity`` checks every pair of twists in the window,
  where the library checks one pair per twist difference.
"""

from typing import Iterable, Iterator, List, Optional, Tuple

from lgorbit.errors import PreconditionError
from lgorbit.mirror import (
    DEFAULT_TARGET,
    ExclusionRow,
    ExtPattern,
    LineBundle,
    MirrorWitness,
    SimpleP1Object,
    Skyscraper,
    ext_p1,
    shifted_pattern,
)

Pair = Tuple[SimpleP1Object, int, SimpleP1Object, int]


def _outward(limit: int) -> List[int]:
    out = [0]
    for k in range(1, limit + 1):
        out.extend((k, -k))
    return out


def candidates(t_range: int) -> List[SimpleP1Object]:
    """Every object of the twist window, in search order."""
    objects: List[SimpleP1Object] = [LineBundle(t) for t in _outward(t_range)]
    objects.extend((Skyscraper("p"), Skyscraper("q")))
    return objects


def classes(t_range: int, shift_range: int) -> Iterator[Pair]:
    """One in-window pair (x, sx, y, sy) per difference class.

    Twist differences in [-2t, 2t] ascending, then the point classes O(0)
    with p, p with O(0), p with itself and p with q; shift differences in
    [-2s, 2s] ascending within each.  A difference d splits as
    -(d // 2) -> d - d // 2, so both ends stay within [-limit, limit].
    """
    origin, p, q = LineBundle(0), Skyscraper("p"), Skyscraper("q")
    pairs = [(LineBundle(-(d // 2)), LineBundle(d - d // 2))
             for d in range(-2 * t_range, 2 * t_range + 1)]
    pairs += [(origin, p), (p, origin), (p, p), (p, q)]
    for x, y in pairs:
        for delta in range(-2 * shift_range, 2 * shift_range + 1):
            yield x, -(delta // 2), y, delta - delta // 2


def _first_witness(
    pairs: Iterable[Pair],
    target_forward: Optional[ExtPattern] = None,
    require_backward_zero: bool = True,
    require_end_simple: bool = True,
    allow_self_pairs: bool = False,
) -> Optional[MirrorWitness]:
    """The first pair that meets the criterion, or None.

    A self pair reuses the identical (object, shift) on both sides.  The
    default flags encode the full criterion: forward pattern one dimension
    in each of degrees 0 and 1, backward morphisms all zero, both
    endomorphism algebras one-dimensional.  The controls relax single flags.
    """
    target = DEFAULT_TARGET if target_forward is None else {
        d: v for d, v in target_forward.items() if v
    }
    for x, sx, y, sy in pairs:
        if require_end_simple and not all(shifted_pattern(o, o) == {0: 1} for o in (x, y)):
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


def search_mirror_pair(t_range: int = 10, shift_range: int = 3, **flags) -> Optional[MirrorWitness]:
    """First pair-by-pair match in candidate order, O(t^2 s^2) pairs."""
    if t_range < 0 or shift_range < 0:
        raise PreconditionError("ranges must be nonnegative")
    objects = candidates(t_range)
    shifts = _outward(shift_range)
    pairs = ((x, sx, y, sy) for x in objects for sx in shifts for y in objects for sy in shifts)
    return _first_witness(pairs, **flags)


def search_by_class(t_range: int = 10, shift_range: int = 3, **flags) -> Optional[MirrorWitness]:
    """The difference-class walk: the first matching class in ``classes`` order."""
    if t_range < 0 or shift_range < 0:
        raise PreconditionError("ranges must be nonnegative")
    return _first_witness(classes(t_range, shift_range), **flags)


def exclusion_table(t_range: int = 10, shift_range: int = 3) -> List[ExclusionRow]:
    """Casewise reasons the target pattern never appears, each re-verified."""
    shifts = _outward(shift_range)
    twists = _outward(t_range)
    rows: List[ExclusionRow] = []

    lb_single = all(
        len(shifted_pattern(LineBundle(a), LineBundle(b), sa, sb)) <= 1
        for a in twists for b in twists for sa in shifts for sb in shifts
    )
    rows.append(ExclusionRow(
        "line bundle to line bundle",
        "pattern is concentrated in a single degree, never two",
        lb_single,
    ))

    mixed_one = all(
        sum(shifted_pattern(LineBundle(a), Skyscraper("p"), sa, sb).values()) == 1
        and sum(shifted_pattern(Skyscraper("p"), LineBundle(a), sa, sb).values()) == 1
        for a in twists for sa in shifts for sb in shifts
    )
    rows.append(ExclusionRow(
        "line bundle and point sheaf, either order",
        "total dimension is one, target needs two",
        mixed_one,
    ))

    same_point_bad = all(
        bool(shifted_pattern(Skyscraper("p"), Skyscraper("p"), sb, sa))
        and shifted_pattern(Skyscraper("p"), Skyscraper("p")) != {0: 1}
        for sa in shifts for sb in shifts
    )
    rows.append(ExclusionRow(
        "one point sheaf against itself",
        "backward morphisms never vanish and the endomorphisms are not simple",
        same_point_bad,
    ))

    distinct_zero = all(
        not shifted_pattern(Skyscraper("p"), Skyscraper("q"), sa, sb)
        for sa in shifts for sb in shifts
    )
    rows.append(ExclusionRow(
        "two distinct point sheaves",
        "all morphisms vanish",
        distinct_zero,
    ))
    return rows


def euler_pairing_identity(span: int = 30, ext=ext_p1) -> bool:
    """hom - ext1 of O(a) -> O(b) is b - a + 1 for every a, b in [-span, span]."""
    bundles = [LineBundle(a) for a in range(-span, span + 1)]
    for x in bundles:
        for y in bundles:
            hom, ext1 = ext(x, y)
            if hom - ext1 != y.t - x.t + 1:
                return False
    return True
