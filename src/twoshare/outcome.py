"""Decoder outcome type shared by both schemes."""
from __future__ import annotations

from typing import NamedTuple


class DecodeOutcome(NamedTuple):
    """Either a recovered secret sequence or a rejection.

    A rejection carries no partial information about the secret; callers
    must branch on `rejected` before touching `secret`.  A value: it
    compares and hashes as the 1-tuple `(secret,)`.
    """

    secret: tuple[int, ...] | None = None

    @property
    def rejected(self) -> bool:
        return self.secret is None

    def __repr__(self):
        if self.rejected:
            return "DecodeOutcome(REJECT)"
        return f"DecodeOutcome(secret={self.secret})"


REJECT = DecodeOutcome()
