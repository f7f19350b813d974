"""Per-event energy costs.

Values from the paper's Figure 3 table where given:

* network link 600 fJ, ALU 500 fJ/INT and 1500 fJ/FP,
* MDE: MAY 500 fJ/edge, MUST 250 fJ/edge,
* LSQ (2-port, 48 entries/bank): loads 2500 fJ, stores 3500 fJ per CAM
  check.

The LSQ front-end and L1 access energies are not tabulated in the paper;
we use McPAT-scale values chosen so the baseline's aggregate shape
matches the reported breakdown (OPT-LSQ ~= 27% of accelerator + L1
energy).  ``LSQ_BLOOM`` covers the unavoidable per-access front-end work
of the optimized LSQ — entry allocation into the banked queue, age-tag
bookkeeping, and the bloom probe itself; a bloom hit additionally pays
the CAM search.  All values are configuration knobs.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict


class EnergyEvent(enum.Enum):
    # Hash by identity, not by name: members are singletons and the
    # ledger indexes its counts by event on every charge.
    __hash__ = object.__hash__

    ALU_INT = "alu_int"
    ALU_FP = "alu_fp"
    NET_LINK = "net_link"          # one operand traversing one mesh link
    MDE_MAY_CHECK = "mde_may"      # one ==? comparator check
    MDE_MUST = "mde_must"          # one ORDER-edge activation
    MDE_FORWARD = "mde_forward"    # one FORWARD-edge value hand-off
    LSQ_BLOOM = "lsq_bloom"        # bloom-filter probe (every LSQ access)
    LSQ_CAM_LOAD = "lsq_cam_load"  # load's CAM search after a bloom hit
    LSQ_CAM_STORE = "lsq_cam_store"
    LSQ_FORWARD = "lsq_forward"    # SQ data read for store->load forward
    L1_READ = "l1_read"
    L1_WRITE = "l1_write"


@dataclass(frozen=True)
class EnergyConfig:
    """fJ per event occurrence."""

    costs: Dict[EnergyEvent, float] = field(
        default_factory=lambda: {
            EnergyEvent.ALU_INT: 500.0,
            EnergyEvent.ALU_FP: 1500.0,
            EnergyEvent.NET_LINK: 600.0,
            EnergyEvent.MDE_MAY_CHECK: 500.0,
            EnergyEvent.MDE_MUST: 250.0,
            EnergyEvent.MDE_FORWARD: 250.0,
            EnergyEvent.LSQ_BLOOM: 2500.0,
            EnergyEvent.LSQ_CAM_LOAD: 2500.0,
            EnergyEvent.LSQ_CAM_STORE: 3500.0,
            EnergyEvent.LSQ_FORWARD: 1000.0,
            EnergyEvent.L1_READ: 5000.0,
            EnergyEvent.L1_WRITE: 6000.0,
        }
    )

    def cost_of(self, event: EnergyEvent) -> float:
        return self.costs[event]

    @classmethod
    def paper_default(cls) -> "EnergyConfig":
        return cls()
