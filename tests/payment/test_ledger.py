"""Tests for the double-entry ledger."""

import pytest

from repro.payment.ledger import InsufficientFunds, Ledger


@pytest.fixture
def ledger():
    l = Ledger()
    l.open_account(1, opening_balance=100.0)
    l.open_account(2)
    return l


def test_opening_balance_counts_as_minted(ledger):
    assert ledger.minted == 100.0
    assert ledger.balance(1) == 100.0
    assert ledger.audit()


def test_duplicate_account_rejected(ledger):
    with pytest.raises(ValueError):
        ledger.open_account(1)


def test_transfer_moves_value(ledger):
    ledger.transfer(1, 2, 30.0)
    assert ledger.balance(1) == 70.0
    assert ledger.balance(2) == 30.0
    assert ledger.audit()


def test_overdraft_rejected(ledger):
    with pytest.raises(InsufficientFunds):
        ledger.debit_to_float(1, 200.0)
    assert ledger.balance(1) == 100.0  # unchanged


def test_float_roundtrip(ledger):
    ledger.debit_to_float(1, 40.0)
    assert ledger.bank_float == 40.0
    ledger.credit_from_float(2, 40.0)
    assert ledger.bank_float == 0.0
    assert ledger.audit()


def test_credit_beyond_float_rejected(ledger):
    with pytest.raises(InsufficientFunds):
        ledger.credit_from_float(2, 1.0)


def test_mint_increases_supply(ledger):
    ledger.mint(2, 50.0)
    assert ledger.balance(2) == 50.0
    assert ledger.minted == 150.0
    assert ledger.audit()


def test_negative_amounts_rejected(ledger):
    for op in (
        lambda: ledger.mint(1, -1.0),
        lambda: ledger.debit_to_float(1, -1.0),
        lambda: ledger.credit_from_float(1, -1.0),
    ):
        with pytest.raises(ValueError):
            op()


def test_negative_opening_balance_rejected():
    with pytest.raises(ValueError):
        Ledger().open_account(1, opening_balance=-5.0)


def test_journal_records_operations(ledger):
    ledger.transfer(1, 2, 10.0)
    kinds = [entry[0] for entry in ledger.journal]
    assert kinds == ["open", "open", "debit", "credit"]


def test_audit_detects_tampering(ledger):
    ledger.accounts[1].balance += 1.0  # corrupt directly
    assert not ledger.audit()
