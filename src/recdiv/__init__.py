"""Empirical study of prime divisors of integer linear recurrence sequences."""
