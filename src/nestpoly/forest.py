"""Nesting forest: the immediate-container relation between polygons."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from .errors import ContainmentCycle


@dataclass
class NestingForest:
    """Maps every polygon id to its immediate container (None for roots)."""

    parent: Dict[str, Optional[str]]

    def depths(self) -> Dict[str, int]:
        """Depth of every polygon, in O(m) whatever the nesting depth.

        Raises ContainmentCycle when the parent links form a cycle.
        """
        memo: Dict[str, int] = {}
        for pid in self.parent:
            chain = []
            cur = pid
            while cur is not None and cur not in memo:
                chain.append(cur)
                if len(chain) > len(self.parent):
                    raise ContainmentCycle(
                        f"parent links of {pid!r} form a cycle"
                    )
                cur = self.parent[cur]
            d = -1 if cur is None else memo[cur]
            for node in reversed(chain):
                d += 1
                memo[node] = d
        return memo
