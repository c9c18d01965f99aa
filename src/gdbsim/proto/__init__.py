"""Protocol state machines driving the broadcast channel.

Every driver shares one skeleton from base.py: commit_phase draws and
commits each party's nonces, each rapid message goes out through the
timing hook RunContext.emit, open_phase decommits (signing the commitment
digest when auth is on), and check_responses replays every response
against the opened nonces.  The ring family adds a signed report phase.

An estimate's verified_auth (auth_ok in bounds.csv) is true iff auth is
on and every signature the run required from either endpoint verified.
An uncertified party raises AuthFailure in every protocol except the
ring family, which accuses it and marks its estimates unauthenticated.
"""

from .base import (
    AuthFailure,
    CommitMismatch,
    DbEstimate,
    NoActiveVerifier,
    ResponseMismatch,
    RunResult,
    response_bits,
)
from .runner import run_scenario

__all__ = [
    "AuthFailure",
    "CommitMismatch",
    "DbEstimate",
    "NoActiveVerifier",
    "ResponseMismatch",
    "RunResult",
    "response_bits",
    "run_scenario",
]
