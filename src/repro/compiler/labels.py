"""Alias labels and the pairwise alias matrix.

The compiler classifies every ordered pair of memory operations (older,
younger) as:

* ``NO``   — provably disjoint; the pair may execute in parallel,
* ``MUST`` — provably overlapping; program order must be enforced,
* ``MAY``  — the analysis cannot decide.

Load-load pairs are excluded: LD-LD ordering is only needed for racy
parallel programs (Section II-A), and the regions here are single threads.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

from repro.ir.graph import DFGraph
from repro.ir.ops import Operation


class AliasLabel(enum.Enum):
    NO = "no"
    MAY = "may"
    MUST = "must"


class PairKind(enum.Enum):
    """Which ordering family a pair belongs to (Figure 2)."""

    ST_ST = "st-st"
    ST_LD = "st-ld"  # older store, younger load (forwarding candidate)
    LD_ST = "ld-st"  # older load, younger store (anti dependence)


def pair_kind(older: Operation, younger: Operation) -> Optional[PairKind]:
    """Classify an (older, younger) memory-op pair; ``None`` for LD-LD."""
    if older.is_store and younger.is_store:
        return PairKind.ST_ST
    if older.is_store and younger.is_load:
        return PairKind.ST_LD
    if older.is_load and younger.is_store:
        return PairKind.LD_ST
    return None


Pair = Tuple[int, int]


@dataclass
class AliasMatrix:
    """Labels for every disambiguation-relevant pair of a region.

    Pairs are keyed ``(older_id, younger_id)`` with ``older_id <
    younger_id`` (op ids are program order).
    """

    labels: Dict[Pair, AliasLabel] = field(default_factory=dict)

    @classmethod
    def universe(cls, graph: DFGraph, default: AliasLabel = AliasLabel.MAY) -> "AliasMatrix":
        """All ST-ST / ST-LD / LD-ST pairs of *graph*, labeled *default*."""
        matrix = cls()
        mem = graph.memory_ops
        stores = [op.is_store for op in mem]
        for i, older in enumerate(mem):
            older_store = stores[i]
            for j in range(i + 1, len(mem)):
                if older_store or stores[j]:  # every pair but LD-LD
                    matrix.labels[(older.op_id, mem[j].op_id)] = default
        return matrix

    # ------------------------------------------------------------------
    def get(self, older: int, younger: int) -> AliasLabel:
        return self.labels[(older, younger)]

    def set(self, older: int, younger: int, label: AliasLabel) -> None:
        if (older, younger) not in self.labels:
            raise KeyError(f"pair ({older}, {younger}) not in the alias universe")
        self.labels[(older, younger)] = label

    def pairs(self, label: Optional[AliasLabel] = None) -> List[Pair]:
        if label is None:
            return sorted(self.labels)
        return sorted(p for p, l in self.labels.items() if l is label)

    def count(self, label: AliasLabel) -> int:
        return sum(1 for l in self.labels.values() if l is label)

    @property
    def total(self) -> int:
        return len(self.labels)

    def fraction(self, label: AliasLabel) -> float:
        return self.count(label) / self.total if self.total else 0.0

    def copy(self) -> "AliasMatrix":
        return AliasMatrix(labels=dict(self.labels))

    def counts(self) -> Dict[AliasLabel, int]:
        out = {label: 0 for label in AliasLabel}
        for l in self.labels.values():
            out[l] += 1
        return out

    def __iter__(self) -> Iterator[Tuple[Pair, AliasLabel]]:
        return iter(sorted(self.labels.items()))

    def __len__(self) -> int:
        return len(self.labels)
