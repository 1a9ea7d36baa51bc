"""Tests for the bank: withdrawal, deposit, escrow, denominations."""

import numpy as np
import pytest

from repro.payment.bank import Bank, DepositError, decompose
from repro.payment.tokens import Token


DENOMS = (1, 2, 4, 8, 16, 32, 64, 128)


@pytest.fixture(scope="module")
def bank():
    b = Bank(rng=np.random.default_rng(0), denominations=DENOMS, key_bits=128)
    b.open_account(1, endowment=10_000.0)
    b.open_account(2)
    return b


class TestDecompose:
    def test_exact_binary(self):
        assert sorted(decompose(13, DENOMS)) == [1, 4, 8]

    def test_ceils_fractions(self):
        assert sum(decompose(12.3, DENOMS)) == 13

    def test_zero_amount_empty(self):
        assert decompose(0.0, DENOMS) == []

    def test_unrepresentable_rounds_up_to_cover(self):
        # Odd residue with only even denominations: covered by rounding up.
        assert decompose(3.0, (2,)) == [2, 2]
        with pytest.raises(ValueError):
            decompose(1.0, ())  # empty denomination set

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            decompose(-1.0, DENOMS)


class TestWithdrawDeposit:
    def test_withdraw_debits_account(self, bank):
        before = bank.balance(1)
        tokens = bank.withdraw(1, 37.0)
        assert sum(t.denomination for t in tokens) == 37.0
        assert bank.balance(1) == before - 37.0
        assert bank.audit()

    def test_tokens_verify_and_deposit(self, bank):
        tokens = bank.withdraw(1, 21.0)
        before = bank.balance(2)
        total = bank.deposit_to_account(2, tokens)
        assert total == 21.0
        assert bank.balance(2) == before + 21.0
        assert bank.audit()

    def test_double_spend_rejected(self, bank):
        tokens = bank.withdraw(1, 1.0)
        bank.deposit_to_account(2, tokens)
        with pytest.raises(DepositError, match="already spent"):
            bank.deposit_to_account(2, tokens)
        assert "double-spend" in bank.fraud_log

    def test_forged_token_rejected(self, bank):
        bogus = Token(serial=b"forged", denomination=4.0, signature=12345)
        with pytest.raises(DepositError, match="forged"):
            bank.deposit_to_account(2, [bogus])

    def test_unknown_denomination_rejected(self, bank):
        t = bank.withdraw(1, 1.0)[0]
        inflated = Token(serial=t.serial, denomination=512.0, signature=t.signature)
        with pytest.raises(DepositError, match="unknown denomination"):
            bank.deposit_to_account(2, [inflated])

    def test_denomination_binding(self, bank):
        """A valid 1-unit token's signature is invalid under the 2-unit key:
        value inflation is cryptographically impossible."""
        t = bank.withdraw(1, 1.0)[0]
        assert t.denomination == 1.0
        cross = Token(serial=t.serial, denomination=2.0, signature=t.signature)
        with pytest.raises(DepositError, match="forged"):
            bank.deposit_to_account(2, [cross])

    def test_all_or_nothing_deposit(self, bank):
        good = bank.withdraw(1, 1.0)
        bogus = Token(serial=b"nope", denomination=1.0, signature=1)
        before = bank.balance(2)
        with pytest.raises(DepositError):
            bank.deposit_to_account(2, good + [bogus])
        assert bank.balance(2) == before  # nothing credited
        # The good token is still spendable afterwards.
        bank.deposit_to_account(2, good)

    def test_overdraft_withdrawal_rejected(self, bank):
        with pytest.raises(Exception):
            bank.withdraw(2, 10_000_000.0)


class TestEscrow:
    def test_fund_and_pay(self, bank):
        tokens = bank.withdraw(1, 50.0)
        assert bank.fund_escrow(701, tokens) == 50.0
        assert bank.escrow_balance(701) == 50.0
        bank.pay_from_escrow(701, 2, 30.0)
        assert bank.escrow_balance(701) == pytest.approx(20.0)
        assert bank.audit()

    def test_overpay_rejected(self, bank):
        tokens = bank.withdraw(1, 10.0)
        bank.fund_escrow(702, tokens)
        with pytest.raises(DepositError):
            bank.pay_from_escrow(702, 2, 11.0)

    def test_refund_returns_tokens(self, bank):
        tokens = bank.withdraw(1, 25.0)
        bank.fund_escrow(703, tokens)
        bank.pay_from_escrow(703, 2, 5.0)
        refund = bank.refund_escrow(703)
        assert sum(t.denomination for t in refund) == pytest.approx(20.0)
        # Refund tokens are spendable.
        bank.deposit_to_account(1, refund)
        assert bank.audit()

    def test_escrow_funding_rejects_spent_tokens(self, bank):
        tokens = bank.withdraw(1, 2.0)
        bank.deposit_to_account(2, tokens)
        with pytest.raises(DepositError):
            bank.fund_escrow(704, tokens)

    def test_unlinkability_surface(self, bank):
        """The bank's view of a funded escrow contains no account linkage:
        the tokens' serials never appeared at withdrawal time."""
        tokens = bank.withdraw(1, 4.0)
        # Serials are chosen client-side; the ledger journal must not
        # contain them (only amounts).
        serials = {t.serial for t in tokens}
        journal_blob = repr(bank.ledger.journal).encode()
        assert all(s not in journal_blob for s in serials)


def test_duplicate_denominations_rejected():
    with pytest.raises(ValueError):
        Bank(rng=np.random.default_rng(0), denominations=(1, 1), key_bits=128)


def test_nonpositive_denomination_rejected():
    with pytest.raises(ValueError):
        Bank(rng=np.random.default_rng(0), denominations=(0,), key_bits=128)


class TestReporting:
    def test_stats_counters(self):
        import numpy as np
        from repro.payment.bank import Bank

        b = Bank(rng=np.random.default_rng(9), denominations=(1, 2, 4), key_bits=128)
        b.open_account(1, endowment=100.0)
        tokens = b.withdraw(1, 5.0)
        b.fund_escrow(42, tokens)
        s = b.stats()
        assert s["tokens_issued"] == len(tokens)
        assert s["tokens_spent"] == len(tokens)
        assert s["escrows_opened"] == 1
        assert s["escrow_value_held"] >= 5.0
