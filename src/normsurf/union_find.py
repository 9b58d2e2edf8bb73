"""Disjoint-set structure used for orbit and component computations."""

from __future__ import annotations

from typing import Hashable, Iterable


class UnionFind:
    """Union-find over arbitrary hashable items with path compression."""

    def __init__(self, items: Iterable[Hashable] = ()):
        self._parent: dict = {item: item for item in items}

    def find(self, item):
        parent = self._parent
        root = parent.setdefault(item, item)
        while parent[root] != root:
            root = parent[root]
        while parent[item] != root:
            parent[item], item = root, parent[item]
        return root

    def union(self, a, b) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self._parent[rb] = ra

    def groups(self) -> dict:
        """Map each root to the sorted list of its members."""
        out: dict = {}
        for item in self._parent:
            out.setdefault(self.find(item), []).append(item)
        for members in out.values():
            members.sort()
        return out
