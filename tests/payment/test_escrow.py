"""Tests for the series escrow lifecycle."""

import numpy as np
import pytest

from repro.payment.bank import Bank
from repro.payment.escrow import EscrowError, SeriesEscrow

DENOMS = (1, 2, 4, 8, 16, 32, 64, 128, 256, 512)


@pytest.fixture
def bank():
    b = Bank(rng=np.random.default_rng(1), denominations=DENOMS, key_bits=128)
    b.open_account(0, endowment=5_000.0)
    for nid in (5, 6, 7):
        b.open_account(nid)
    return b


def make_escrow(bank, budget=500.0, escrow_id=1):
    return SeriesEscrow(
        bank=bank, escrow_id=escrow_id, initiator_account=0, budget=budget
    )


def test_open_funds_escrow(bank):
    esc = make_escrow(bank)
    funded = esc.open()
    assert funded >= 500.0
    assert bank.escrow_balance(1) == funded
    assert esc.opened


def test_double_open_rejected(bank):
    esc = make_escrow(bank)
    esc.open()
    with pytest.raises(EscrowError):
        esc.open()


def test_settle_before_open_rejected(bank):
    with pytest.raises(EscrowError):
        make_escrow(bank).settle({5: 10.0})


def test_settle_pays_and_refunds(bank):
    esc = make_escrow(bank, budget=400.0)
    esc.open()
    paid = esc.settle({5: 100.0, 6: 150.0})
    assert paid == {5: 100.0, 6: 150.0}
    assert bank.balance(5) == 100.0
    assert bank.balance(6) == 150.0
    assert esc.refund_value() == pytest.approx(150.0)
    assert bank.audit()


def test_double_settle_rejected(bank):
    esc = make_escrow(bank)
    esc.open()
    esc.settle({5: 10.0})
    with pytest.raises(EscrowError):
        esc.settle({5: 10.0})


def test_inflated_claim_flagged_but_validated_amount_paid(bank):
    esc = make_escrow(bank)
    esc.open()
    esc.submit_claim(5, instances=99)
    esc.submit_claim(6, instances=2)
    # Phantom forwarder: node 7 is on no validated path but claims a share.
    esc.submit_claim(7, instances=3)
    esc.settle({5: 50.0, 6: 20.0}, validated_instances={5: 3, 6: 2})
    assert esc.rejected_claims == [5, 7]
    assert bank.balance(5) == 50.0  # still paid the validated amount
    assert bank.balance(6) == 20.0
    assert bank.balance(7) == 0.0  # the phantom claim pays nothing
    assert any("inflated-claim:5" in entry for entry in bank.fraud_log)
    assert any("inflated-claim:7:3>0" in entry for entry in bank.fraud_log)


def test_claims_after_settlement_rejected(bank):
    esc = make_escrow(bank)
    esc.open()
    esc.settle({5: 1.0})
    with pytest.raises(EscrowError):
        esc.submit_claim(6, 1)


def test_negative_claim_rejected(bank):
    esc = make_escrow(bank)
    with pytest.raises(ValueError):
        esc.submit_claim(5, -1)


def test_budget_must_be_positive(bank):
    esc = make_escrow(bank, budget=0.0)
    with pytest.raises(EscrowError):
        esc.open()


def test_conservation_across_full_lifecycle(bank):
    initial = bank.ledger.minted
    esc = make_escrow(bank, budget=333.0)
    esc.open()
    esc.settle({5: 100.0, 6: 100.0, 7: 33.0})
    bank.deposit_to_account(0, esc.refund)
    assert bank.audit()
    total = sum(bank.balance(n) for n in (0, 5, 6, 7))
    assert total + bank.ledger.bank_float == pytest.approx(initial)
