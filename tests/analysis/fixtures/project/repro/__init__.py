"""Project-fixture package root."""
