"""Double-entry ledger with a conservation invariant.

Every unit of currency in the system is either in a peer account or in
the bank's float (escrowed / backing circulating tokens).
:meth:`Ledger.audit` checks that the sum of all balances plus the float
equals everything ever minted — the property-based tests hammer this
invariant.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple


class InsufficientFunds(Exception):
    """A debit would overdraw an account."""


class Account:
    """One peer's balance.

    Normally the balance is a plain float attribute; after
    :meth:`bind_store` it lives in an external float64 slot (the sharded
    engine's shared-memory balances array) and the attribute becomes a
    view.  Python floats and float64 slots are the same IEEE double, so
    round-tripping through the slot is exact and every arithmetic update
    (`acct.balance += x`) produces bit-identical values in either mode.
    """

    __slots__ = ("owner", "_balance", "_store", "_slot")

    def __init__(self, owner: int, balance: float = 0.0):
        if balance < 0:
            raise ValueError(f"negative opening balance {balance}")
        self.owner = owner
        self._balance = balance
        self._store = None
        self._slot = -1

    @property
    def balance(self) -> float:
        if self._store is not None:
            return float(self._store[self._slot])
        return self._balance

    @balance.setter
    def balance(self, value: float) -> None:
        if self._store is not None:
            self._store[self._slot] = value
        else:
            self._balance = value

    def bind_store(self, store, slot: int) -> None:
        """Move the balance into ``store[slot]`` and serve it from there."""
        store[slot] = self._balance
        self._store = store
        self._slot = slot

    def unbind_store(self) -> None:
        """Copy the balance back into the object and detach the store
        (the sharded engine calls this before unlinking its segments —
        a bound account must never outlive its backing memory)."""
        if self._store is not None:
            self._balance = float(self._store[self._slot])
            self._store = None
            self._slot = -1

    def __repr__(self) -> str:
        return f"Account(owner={self.owner}, balance={self.balance})"

    def __eq__(self, other) -> bool:
        if not isinstance(other, Account):
            return NotImplemented
        return self.owner == other.owner and self.balance == other.balance


@dataclass
class Ledger:
    """All accounts plus the bank float, with an audit trail."""

    accounts: Dict[int, Account] = field(default_factory=dict)
    #: Value held by the bank itself (escrow + token backing).
    bank_float: float = 0.0
    minted: float = 0.0
    journal: List[Tuple[str, int, float]] = field(default_factory=list)
    #: Optional external balances array (float64, indexed by owner id).
    #: When set (see :meth:`bind_balances`), every account's balance
    #: lives in ``_store[owner]`` — the sharded engine points this at a
    #: shared-memory region so the authoritative ledger state is
    #: visible to shard workers without pickling.
    _store: object = field(default=None, repr=False, compare=False)

    def open_account(self, owner: int, opening_balance: float = 0.0) -> Account:
        if owner in self.accounts:
            raise ValueError(f"account {owner} already exists")
        acct = Account(owner=owner, balance=opening_balance)
        if self._store is not None:
            self._bind_account(acct)
        self.accounts[owner] = acct
        self.minted += opening_balance
        self.journal.append(("open", owner, opening_balance))
        return acct

    def bind_balances(self, store) -> None:
        """Move every balance (current and future) into ``store``.

        ``store`` is a float64 array indexed by owner id — accounts
        opened later bind automatically, so an owner id must stay below
        ``len(store)`` (the sharded engine sizes the region with slack
        and treats overflow as a capacity error).
        """
        if self._store is not None:
            raise RuntimeError("ledger balances already bound to a store")
        self._store = store
        for acct in self.accounts.values():
            self._bind_account(acct)

    def unbind_balances(self) -> None:
        """Inverse of :meth:`bind_balances`: every balance returns to
        plain attribute storage (bit-identical — both sides are the
        same IEEE double) and the store is detached."""
        if self._store is None:
            return
        for acct in self.accounts.values():
            acct.unbind_store()
        self._store = None

    def _bind_account(self, acct: Account) -> None:
        store = self._store
        if acct.owner < 0 or acct.owner >= len(store):  # type: ignore[arg-type]
            raise ValueError(
                f"account owner {acct.owner} outside the bound balance "
                f"store (capacity {len(store)})"  # type: ignore[arg-type]
            )
        acct.bind_store(store, acct.owner)

    def balance(self, owner: int) -> float:
        return self.accounts[owner].balance

    def mint(self, owner: int, amount: float) -> None:
        """Create new currency in an account (endowments only)."""
        self._check_amount(amount)
        self.accounts[owner].balance += amount
        self.minted += amount
        self.journal.append(("mint", owner, amount))

    def debit_to_float(self, owner: int, amount: float) -> None:
        """Move value from an account into the bank float."""
        self._check_amount(amount)
        acct = self.accounts[owner]
        if acct.balance < amount - 1e-9:
            raise InsufficientFunds(
                f"account {owner}: balance {acct.balance} < {amount}"
            )
        acct.balance -= amount
        self.bank_float += amount
        self.journal.append(("debit", owner, amount))

    def credit_from_float(self, owner: int, amount: float) -> None:
        """Move value from the bank float into an account."""
        self._check_amount(amount)
        if self.bank_float < amount - 1e-9:
            raise InsufficientFunds(
                f"bank float {self.bank_float} < {amount}"
            )
        self.bank_float -= amount
        self.accounts[owner].balance += amount
        self.journal.append(("credit", owner, amount))

    def transfer(self, src: int, dst: int, amount: float) -> None:
        """Direct account-to-account transfer."""
        self.debit_to_float(src, amount)
        self.credit_from_float(dst, amount)

    def total_in_accounts(self) -> float:
        return sum(a.balance for a in self.accounts.values())

    def audit(self, tolerance: float = 1e-6) -> bool:
        """Conservation: accounts + float == minted."""
        lhs = self.total_in_accounts() + self.bank_float
        return abs(lhs - self.minted) <= tolerance

    @staticmethod
    def _check_amount(amount: float) -> None:
        if amount < 0:
            raise ValueError(f"negative amount {amount}")
