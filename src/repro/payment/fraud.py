"""Token cheating against the payment system, and its detection.

The paper (§1, §5) requires the payment system to "handle typical
scenarios of cheating and malicious attacks".  The two token attacks
live here, each caught by the bank:

- **double spend** — depositing the same token twice (caught by the
  bank's spent-serial set);
- **forgery** — depositing a token with an invalid signature (caught by
  signature verification; serials are blind-signed, so a cheater cannot
  mint value).

Claim fraud — a forwarder claiming more instances than it performed, or
a phantom forwarder on no path claiming a share — is caught in
settlement: :meth:`repro.payment.escrow.SeriesEscrow.settle` pays only
the initiator-validated amounts and logs each claim above the validated
count.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from repro.payment.bank import Bank, DepositError
from repro.payment.tokens import Token, forge_token


class FraudKind(enum.Enum):
    DOUBLE_SPEND = "double-spend"
    FORGERY = "forgery"


@dataclass(frozen=True)
class FraudReport:
    kind: FraudKind
    offender: int
    detail: str
    detected: bool


def double_spend_attempt(bank: Bank, owner: int, token: Token) -> FraudReport:
    """Deposit a token twice; the second deposit must fail."""
    bank.deposit_to_account(owner, [token])
    try:
        bank.deposit_to_account(owner, [token])
    except DepositError as exc:
        return FraudReport(
            kind=FraudKind.DOUBLE_SPEND,
            offender=owner,
            detail=str(exc),
            detected=True,
        )
    return FraudReport(
        kind=FraudKind.DOUBLE_SPEND,
        offender=owner,
        detail="second deposit accepted",
        detected=False,
    )


def forgery_attempt(bank: Bank, owner: int, rng: np.random.Generator, denomination: float = 1.0) -> FraudReport:
    """Deposit a self-minted token; must be rejected."""
    bogus = forge_token(denomination, rng)
    try:
        bank.deposit_to_account(owner, [bogus])
    except DepositError as exc:
        return FraudReport(
            kind=FraudKind.FORGERY, offender=owner, detail=str(exc), detected=True
        )
    return FraudReport(
        kind=FraudKind.FORGERY,
        offender=owner,
        detail="forged token accepted",
        detected=False,
    )
