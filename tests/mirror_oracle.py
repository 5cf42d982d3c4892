"""Brute-force mirror search and exclusion table, kept as the test oracle.

These are the pair-by-pair versions that ``lgorbit.mirror`` replaced with a
search over difference classes.  They visit every ordered pair of shifted
candidates, O(t^2 s^2) of them, and share only ``shifted_pattern`` with the
library.  The candidate order (twists outward from 0, then the points p and
q; shifts outward from 0) lives here alone: the library returns a witness
from its first matching class, so the tests require both to agree on
whether a witness exists and check the library's witness on its own.
"""

from typing import List, Optional

from lgorbit.errors import PreconditionError
from lgorbit.mirror import (
    DEFAULT_TARGET,
    ExclusionRow,
    ExtPattern,
    LineBundle,
    MirrorWitness,
    SimpleP1Object,
    Skyscraper,
    shifted_pattern,
)


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
    """
    if t_range < 0 or shift_range < 0:
        raise PreconditionError("ranges must be nonnegative")
    target = DEFAULT_TARGET if target_forward is None else {
        d: v for d, v in target_forward.items() if v
    }
    objects = candidates(t_range)
    shifts = _outward(shift_range)
    for x in objects:
        for sx in shifts:
            if require_end_simple and shifted_pattern(x, x) != {0: 1}:
                continue
            for y in objects:
                for sy in shifts:
                    if (x, sx) == (y, sy) and not allow_self_pairs:
                        continue
                    if require_end_simple and shifted_pattern(y, y) != {0: 1}:
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
