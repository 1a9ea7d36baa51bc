"""The central bank: accounts, blinded withdrawals, deposits, escrow float.

Anonymity property (the §5 requirement that the payment system "does not
actually decrease" system anonymity): the bank sees *that* an initiator
withdrew tokens of certain denominations, and *that* someone funded a
series escrow with valid tokens, but the blind-signature scheme prevents
it from linking the two.  Forwarder payments are overt (forwarders are
paid for identified work), which leaks nothing about the initiator.

Denominations are bound cryptographically by using **one key pair per
denomination** (as in Chaum's ecash): a token is only valid for value
``v`` if it verifies under the ``v``-key, so a depositor cannot inflate a
token's value.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.obs.events import EventBus
from repro.payment.crypto import BlindSignatureScheme, RSAKeyPair
from repro.payment.ledger import Ledger
from repro.payment.tokens import Token, TokenError, WithdrawalRequest
from repro.sim.faults import BankUnavailable

#: Default denomination set: powers of two, covering escrow budgets of the
#: paper's experiments (P_f <= 100, ~20 rounds, path length ~4).
DEFAULT_DENOMINATIONS: Tuple[int, ...] = tuple(2**k for k in range(15))

#: RSA modulus size of the bank's denomination keys (and, in a scenario,
#: of each series' ephemeral confirmation key).
DEFAULT_KEY_BITS = 128


class DepositError(Exception):
    """A token deposit was rejected (forged, double-spent, unknown value)."""


def _greedy(target: int, denominations: Sequence[int]) -> "List[int] | None":
    out: List[int] = []
    remaining = target
    for d in sorted(denominations, reverse=True):
        while remaining >= d:
            out.append(d)
            remaining -= d
    return out if remaining == 0 else None


def decompose(amount: float, denominations: Sequence[int]) -> List[int]:
    """Decompose ``amount`` into denominations, rounding up if needed.

    Finds the smallest representable total >= ceil(amount): greedy exact
    decomposition is tried for each candidate total up to one smallest
    denomination above the target; if none is greedy-representable (odd
    denomination sets), the fallback pays in copies of the smallest
    denomination.  The returned total therefore always covers ``amount``
    and overshoots by less than one smallest denomination.
    """
    if amount < 0:
        raise ValueError(f"negative amount {amount}")
    if not denominations:
        raise ValueError("empty denomination set")
    target = int(np.ceil(amount - 1e-9))
    if target == 0:
        return []
    smallest = min(denominations)
    for candidate in range(target, target + smallest):
        out = _greedy(candidate, denominations)
        if out is not None:
            return out
    k = -(-target // smallest)  # ceil division
    return [smallest] * k


@dataclass
class Bank:
    """Central payment entity.

    Parameters
    ----------
    rng:
        Seeded generator for key generation and (test-mode) serials.
    denominations:
        Values for which signing keys are created.
    key_bits:
        RSA modulus size per denomination key (small by crypto standards;
        this is a simulation substrate).
    """

    rng: np.random.Generator
    denominations: Sequence[int] = DEFAULT_DENOMINATIONS
    key_bits: int = DEFAULT_KEY_BITS
    #: Optional availability oracle (fault injection): when it returns
    #: False, every value-moving operation raises
    #: :class:`~repro.sim.faults.BankUnavailable` *before* touching any
    #: state — an outage never leaves a half-applied operation.  Wire it
    #: to :meth:`repro.sim.faults.FaultInjector.bank_available`.
    availability: "Optional[callable]" = field(default=None, repr=False)
    #: Optional structured event bus: ``escrow.deposit`` on funding (the
    #: escrow controller emits release/abort through the same bus).  Note
    #: the events mirror what the *bank* sees — an escrow id and amounts,
    #: never the funder's identity (the §5 unlinkability property).
    bus: Optional[EventBus] = field(default=None, repr=False)
    ledger: Ledger = field(default_factory=Ledger)
    schemes: Dict[int, BlindSignatureScheme] = field(default_factory=dict, repr=False)
    _spent: Set[bytes] = field(default_factory=set, repr=False)
    _escrows: Dict[int, float] = field(default_factory=dict, repr=False)
    fraud_log: List[str] = field(default_factory=list)
    tokens_issued: int = 0
    escrows_opened: int = 0

    def __post_init__(self):
        if len(set(self.denominations)) != len(tuple(self.denominations)):
            raise ValueError("duplicate denominations")
        for d in self.denominations:
            if d <= 0:
                raise ValueError(f"denomination must be positive: {d}")
            keys = RSAKeyPair.generate(self.rng, bits=self.key_bits)
            self.schemes[int(d)] = BlindSignatureScheme(keys)

    # -- accounts --------------------------------------------------------
    def open_account(self, owner: int, endowment: float = 0.0):
        return self.ledger.open_account(owner, endowment)

    def balance(self, owner: int) -> float:
        return self.ledger.balance(owner)

    def check_available(self) -> None:
        """Raise :class:`BankUnavailable` while the bank is offline."""
        if self.availability is not None and not self.availability():
            raise BankUnavailable("bank is offline (injected outage)")

    # -- withdrawal (blinded) ---------------------------------------------
    def withdraw(self, owner: int, amount: float) -> List[Token]:
        """Withdraw ``ceil(amount)`` as blinded bearer tokens.

        Runs the full three-step blind-signature protocol — the bank-side
        step (:meth:`sign_blinded`) only ever sees blinded values, so the
        returned tokens are unlinkable to ``owner``.
        """
        self.check_available()
        denoms = decompose(amount, self.denominations)
        total = float(sum(denoms))
        self.ledger.debit_to_float(owner, total)
        tokens: List[Token] = []
        for d in denoms:
            scheme = self.schemes[d]
            req = WithdrawalRequest.create(scheme, float(d), self.rng)
            blind_sig = self.sign_blinded(d, req.blinded)
            tokens.append(req.finish(scheme, blind_sig))
        self.tokens_issued += len(tokens)
        return tokens

    def sign_blinded(self, denomination: int, blinded: int) -> int:
        """Bank-side signing step (exposed for protocol-level tests)."""
        scheme = self.schemes.get(int(denomination))
        if scheme is None:
            raise DepositError(f"unknown denomination {denomination}")
        return scheme.sign_blinded(blinded)

    # -- deposit ------------------------------------------------------------
    def _verify_token(self, token: Token) -> None:
        scheme = self.schemes.get(int(token.denomination))
        if scheme is None or token.denomination != int(token.denomination):
            raise DepositError(f"unknown denomination {token.denomination}")
        if not scheme.verify(token.serial, token.signature):
            self.fraud_log.append("forged-token")
            raise DepositError("invalid signature (forged token)")
        if token.key() in self._spent:
            self.fraud_log.append("double-spend")
            raise DepositError("token already spent (double spend)")

    def deposit_to_account(self, owner: int, tokens: Sequence[Token]) -> float:
        """Redeem tokens into an account.  All-or-nothing verification."""
        self.check_available()
        for t in tokens:
            self._verify_token(t)
        total = 0.0
        for t in tokens:
            self._spent.add(t.key())
            self.ledger.credit_from_float(owner, t.denomination)
            total += t.denomination
        return total

    # -- escrow funding -------------------------------------------------------
    def fund_escrow(self, escrow_id: int, tokens: Sequence[Token]) -> float:
        """Anonymously fund a series escrow with bearer tokens.

        The bank learns the escrow's budget but not who funded it.
        """
        self.check_available()
        for t in tokens:
            self._verify_token(t)
        total = 0.0
        for t in tokens:
            self._spent.add(t.key())
            total += t.denomination
        # Token value was already in the float since withdrawal; tag it.
        if escrow_id not in self._escrows:
            self.escrows_opened += 1
        self._escrows[escrow_id] = self._escrows.get(escrow_id, 0.0) + total
        if self.bus is not None:
            self.bus.emit(
                "escrow.deposit", cid=escrow_id, amount=total, n_tokens=len(tokens)
            )
        return total

    def escrow_balance(self, escrow_id: int) -> float:
        return self._escrows.get(escrow_id, 0.0)

    def pay_from_escrow(self, escrow_id: int, owner: int, amount: float) -> None:
        """Pay a forwarder from a funded escrow."""
        self.check_available()
        if amount < 0:
            raise ValueError(f"negative amount {amount}")
        available = self._escrows.get(escrow_id, 0.0)
        if available < amount - 1e-9:
            raise DepositError(
                f"escrow {escrow_id}: {available} available, {amount} requested"
            )
        self._escrows[escrow_id] = available - amount
        self.ledger.credit_from_float(owner, amount)

    def refund_escrow(self, escrow_id: int, rng: Optional[np.random.Generator] = None) -> List[Token]:
        """Return an escrow's remaining value as fresh bearer tokens.

        Refunding in tokens (not to an account) preserves the funder's
        anonymity; fractional residue below the smallest denomination
        stays in the float (documented house edge of the rounding rule).
        """
        self.check_available()
        remaining = self._escrows.pop(escrow_id, 0.0)
        smallest = min(self.denominations)
        if remaining < smallest:
            self._escrows[escrow_id] = 0.0
            return []
        use_rng = rng if rng is not None else self.rng
        refundable = float(sum(decompose(remaining, self.denominations)))
        while refundable > remaining + 1e-9:
            # ceil overshoots; drop smallest denominations until affordable.
            denoms = decompose(refundable, self.denominations)
            refundable -= min(denoms)
        tokens: List[Token] = []
        for d in decompose(refundable, self.denominations):
            scheme = self.schemes[d]
            req = WithdrawalRequest.create(scheme, float(d), use_rng)
            tokens.append(req.finish(scheme, scheme.sign_blinded(req.blinded)))
        leftover = remaining - refundable
        if leftover > 1e-9:
            self._escrows[escrow_id] = leftover
        return tokens

    # -- reporting ---------------------------------------------------------
    def stats(self) -> Dict[str, float]:
        """Operational counters for reporting/monitoring."""
        return {
            "accounts": float(len(self.ledger.accounts)),
            "tokens_issued": float(self.tokens_issued),
            "tokens_spent": float(len(self._spent)),
            "escrows_opened": float(self.escrows_opened),
            "escrow_value_held": float(sum(self._escrows.values())),
            "bank_float": float(self.ledger.bank_float),
            "fraud_events": float(len(self.fraud_log)),
        }

    # -- invariants --------------------------------------------------------
    def circulating_value_bound(self) -> float:
        """Upper bound on unredeemed token value: the bank float minus
        escrowed amounts (tokens and escrow share the float)."""
        return self.ledger.bank_float - sum(self._escrows.values())

    def audit(self) -> bool:
        return self.ledger.audit() and self.circulating_value_bound() >= -1e-6
