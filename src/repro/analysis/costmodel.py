"""The static cost model that ranks decoupling points (paper Sec. V).

Each candidate is a *group* of one or more loads (nearby accesses like
``nodes[v]``/``nodes[v+1]`` merge into one point, biased "to happen
together, rather than in two separate stages"). A candidate's score is
``predicted_cost x frequency``:

* cost comes from the access kind — indirect accesses are expensive,
  streaming scans are cheap (the prefetcher mostly covers them), and the
  second member of a group is almost free (it hits the same line). The
  per-kind prices are :mod:`repro.analysis.access`'s ``LOAD_COST`` and
  ``INDIRECTION_COST``, the ones the performance model charges;
* frequency weights inner loops exponentially higher, so the access to
  ``g->edges`` outranks ``g->nodes`` exactly as the paper describes.

``#pragma decouple`` hints force a point to the top of the ranking.
"""

from __future__ import annotations

from typing import Any

from ..frontend.pragmas import DECOUPLE_MARK
from ..ir.stmts import walk
from .access import INDIRECTION_COST, LOAD_COST, AccessInfo, classify_loads
from .alias import AliasInfo
from .loops import estimated_trip_weight

#: Cost of a grouped (adjacent) second access: almost surely a cache hit.
ADJACENT_COST = 1.0

#: Score assigned to `#pragma decouple`-hinted points.
HINT_SCORE = float("inf")


class DecouplePoint:
    """A ranked candidate: split the program at this load group."""

    __slots__ = ("loads", "cls", "kind", "depth", "score", "value_mode", "hinted")

    def __init__(
        self,
        loads: list[Any],
        cls: Any,
        kind: str,
        depth: int,
        score: float,
        value_mode: bool,
        hinted: bool = False,
    ) -> None:
        self.loads = loads  # Load stmts, program order
        self.cls = cls
        self.kind = kind
        self.depth = depth
        self.score = score
        #: True: the producer performs the load and forwards the *value*
        #: (read-only class). False: the class is written somewhere, so the
        #: producer may only prefetch and forward the *index*.
        self.value_mode = value_mode
        self.hinted = hinted

    def __repr__(self) -> str:
        return "DecouplePoint(%s x%d, %s, depth %d, score %.3g%s)" % (
            self.cls,
            len(self.loads),
            self.kind,
            self.depth,
            self.score,
            ", hinted" if self.hinted else "",
        )


def _hinted_load_ids(body: Any) -> set[int]:
    """Loads immediately following a ``#pragma decouple`` marker."""
    hinted = set()
    pending = False
    for stmt in walk(body):
        if stmt.kind == "comment" and stmt.text == DECOUPLE_MARK:
            pending = True
        elif pending and stmt.kind == "load":
            hinted.add(id(stmt))
            pending = False
    return hinted


def rank_decouple_points(function: Any) -> list[DecouplePoint]:
    """Rank all candidate decoupling points, best first."""
    infos = classify_loads(function.body)
    alias = AliasInfo(function.body)
    hinted = _hinted_load_ids(function.body)

    # Group adjacent accesses: same class, same affine root, small offset
    # delta, same loop depth.
    groups: list[list[AccessInfo]] = []
    by_key: dict[tuple[Any, str, int], list[AccessInfo]] = {}
    for info in infos:
        key = None
        if type(info.root) is str:
            key = (info.cls, info.root, info.depth)
        if key is not None and key in by_key:
            leader = by_key[key]
            if abs(info.offset - leader[0].offset) <= 2:
                leader.append(info)
                continue
        group = [info]
        groups.append(group)
        if key is not None:
            by_key[key] = group

    points = []
    for group in groups:
        lead = group[0]
        cost = LOAD_COST[lead.kind] + INDIRECTION_COST * lead.indirection
        cost += ADJACENT_COST * (len(group) - 1)
        weight = estimated_trip_weight(lead.depth)
        score = cost * weight
        is_hinted = any(id(info.stmt) in hinted for info in group)
        if is_hinted:
            score = HINT_SCORE
        points.append(
            DecouplePoint(
                [info.stmt for info in group],
                lead.cls,
                lead.kind,
                lead.depth,
                score,
                value_mode=alias.value_forwarding_legal(lead.cls),
                hinted=is_hinted,
            )
        )

    points.sort(key=lambda p: (-p.score, p.depth))
    return points
