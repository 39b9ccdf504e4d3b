"""Per-node overlay state: the owned zone and the adjacency set."""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.can.zone import Zone, adjacency_direction

if TYPE_CHECKING:  # pragma: no cover
    from repro.can.partition_tree import TreeLeaf

__all__ = ["OverlayNode", "face_keys", "face_slot"]


def face_keys(dims: int) -> tuple[tuple[int, int], ...]:
    """Every face's ``(dim, sign)``, in face-slot order: dim-major,
    positive side first."""
    return tuple((dim, sign) for dim in range(dims) for sign in (+1, -1))


def face_slot(dim, sign):
    """Index of the ``(dim, sign)`` face in :func:`face_keys` order:
    ``2·dim`` for the positive side, ``2·dim + 1`` for the negative.
    Works elementwise on integer arrays too."""
    return 2 * dim + (sign < 0)


class OverlayNode:
    """One CAN participant: a zone plus its face-adjacent neighbor ids.

    The zone is read through the partition-tree leaf so that tree repairs
    (merges, relocations) are immediately visible here.

    ``directions`` caches each edge's shared-face ``(dim, sign)`` — the
    direction from *this* node's perspective — maintained by the overlay
    at rebind time.  The values are the overlay's interned per-face
    tuples (one object per face, not one per edge end).  It mirrors
    ``neighbors`` exactly on the vectorized overlay; ``check_invariants``
    cross-checks both against brute force.

    ``face_index`` groups ``directions`` by face: slot
    ``face_slot(dim, sign)`` holds that face's neighbors as a sorted
    tuple, so a directional lookup (the hot inner step of the INSCAN
    table walks) is one list index.  The overlay builds it lazily and
    resets it to ``None`` whenever the node's edges change.
    """

    __slots__ = ("node_id", "leaf", "neighbors", "directions", "face_index")

    def __init__(self, node_id: int, leaf: "TreeLeaf"):
        self.node_id = node_id
        self.leaf = leaf
        self.neighbors: set[int] = set()
        self.directions: dict[int, tuple[int, int]] = {}
        self.face_index: Optional[list[tuple[int, ...]]] = None

    @property
    def zone(self) -> Zone:
        return self.leaf.zone

    def neighbor_direction(self, other: "OverlayNode") -> Optional[tuple[int, int]]:
        """``(dim, sign)`` of the shared face, or None if not adjacent."""
        return adjacency_direction(self.zone, other.zone)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"OverlayNode({self.node_id}, {self.zone}, deg={len(self.neighbors)})"
