"""Payment substrate: bank, ledger, blinded tokens, escrow, fraud handling.

The paper's incentive mechanism needs a payment system that (a) settles
``m*P_f + P_r/||pi||`` per forwarder *after* the connection series
completes, and (b) does not itself leak the initiator's identity.  The
ICPP paper defers the details to its technical report; this package
implements a faithful, self-contained equivalent:

- :mod:`~repro.payment.crypto` — textbook RSA blind signatures
  (Miller-Rabin prime generation, blinding/unblinding) so the bank can
  sign withdrawal tokens it cannot later link to deposits.
- :mod:`~repro.payment.ledger` — double-entry account ledger with a
  conservation invariant.
- :mod:`~repro.payment.tokens` — fixed-denomination bearer tokens carrying
  blind signatures; double-spend detection by spent-serial set.
- :mod:`~repro.payment.bank` — the central entity: accounts, token
  issuance (withdrawal), token deposit, settlement.
- :mod:`~repro.payment.escrow` — per-series escrow: the initiator locks a
  budget when the series opens; validated forwarder claims are paid at
  series end, and inflated or phantom claims are rejected and logged;
  the remainder is refunded.
- :mod:`~repro.payment.fraud` — token cheating (double spending,
  forgery) and its detection.
"""

from repro.payment.bank import Bank, DepositError
from repro.payment.crypto import BlindSignatureScheme, RSAKeyPair, generate_prime
from repro.payment.escrow import EscrowError, SeriesEscrow
from repro.payment.fraud import (
    FraudKind,
    FraudReport,
    double_spend_attempt,
)
from repro.payment.ledger import Account, InsufficientFunds, Ledger
from repro.payment.tokens import Token, TokenError

__all__ = [
    "Account",
    "Bank",
    "BlindSignatureScheme",
    "DepositError",
    "EscrowError",
    "FraudKind",
    "FraudReport",
    "InsufficientFunds",
    "Ledger",
    "RSAKeyPair",
    "SeriesEscrow",
    "Token",
    "TokenError",
    "double_spend_attempt",
    "generate_prime",
]
