"""Tests for the fraud scenarios: every attack must be detected."""

import numpy as np
import pytest

from repro.payment.bank import Bank
from repro.payment.fraud import (
    FraudKind,
    double_spend_attempt,
    forgery_attempt,
)


@pytest.fixture
def bank():
    b = Bank(
        rng=np.random.default_rng(2), denominations=(1, 2, 4, 8), key_bits=128
    )
    b.open_account(0, endowment=100.0)
    b.open_account(5)
    return b


def test_double_spend_detected(bank):
    token = bank.withdraw(0, 1.0)[0]
    report = double_spend_attempt(bank, 5, token)
    assert report.detected
    assert report.kind is FraudKind.DOUBLE_SPEND
    # First deposit went through; only the replay was blocked.
    assert bank.balance(5) == 1.0


def test_forgery_detected(bank):
    report = forgery_attempt(bank, 5, np.random.default_rng(3), denomination=4.0)
    assert report.detected
    assert report.kind is FraudKind.FORGERY
    assert bank.balance(5) == 0.0
