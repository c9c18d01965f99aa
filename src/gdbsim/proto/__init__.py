"""Protocol state machines driving the broadcast channel.

Every driver shares the Brands-Chaum skeleton of base.py: commit_phase,
rapid values that XOR a committed nonce, written either as a plain
block, a phase's plain verifier rows or one plain row, or one message
at a time by RunContext.emit, which times each send, a relayed row's
too.  A verifier's row is its own record of rounds, the interleaved
chain and 1toM return theirs as a list of Rounds, all priced by
active_bounds (a group phase as a whole, in arrays:
pairwise.price_phase), then open_phase, which decommits, signs when
auth is on, and replays every answer against the opened nonces.  The ring
family adds a signed report phase and solves its own bounds.

A run's bounds are one columnar Estimates table; iterating it yields
DbEstimate rows.  A row's verified_auth (auth_ok in bounds.csv) is true
iff auth is on and every signature the run required from either
endpoint verified.
An uncertified party raises AuthFailure in every protocol except the
ring family, which accuses it and marks its estimates unauthenticated.
"""

from .base import (
    AuthFailure,
    CommitMismatch,
    DbEstimate,
    Estimates,
    ResponseMismatch,
    RunResult,
)
from .runner import run_scenario

__all__ = [
    "AuthFailure",
    "CommitMismatch",
    "DbEstimate",
    "Estimates",
    "ResponseMismatch",
    "RunResult",
    "run_scenario",
]
