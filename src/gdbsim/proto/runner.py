"""Dispatch a scenario to the driver its protocol field names."""

from __future__ import annotations

from ..core import Protocol, Scenario
from .base import RunResult
from .group import run_mpnv, run_ntom_multiparty, run_ntom_onetomany, run_ntom_passive
from .onetomany import run_one_to_many
from .pairwise import run_one_way_db, run_sequential_interleaved
from .ring import run_multiparty_gdb

_DRIVERS = {
    Protocol.ONE_WAY: run_one_way_db,
    Protocol.MUTUAL_INTERLEAVED: run_sequential_interleaved,
    Protocol.ONE_TO_MANY: run_one_to_many,
    Protocol.MULTI_PARTY_RING: run_multiparty_gdb,
    Protocol.MPNV: run_mpnv,
    Protocol.NTOM_PASSIVE: run_ntom_passive,
    Protocol.NTOM_MULTIPARTY: run_ntom_multiparty,
    Protocol.NTOM_ONETOMANY: run_ntom_onetomany,
}


def run_scenario(scenario: Scenario) -> RunResult:
    """Validate and execute one scenario end to end.

    Each protocol has one driver; the drivers share two shapes.  MPNV
    and NtoM-passive run one-way listening phases through one group
    driver, and OneToMany and NtoM-onetomany run chains through one
    chain driver.  All randomness comes from the scenario's seed, so a
    scenario fixes its run.
    """
    return _DRIVERS[scenario.protocol](scenario)
