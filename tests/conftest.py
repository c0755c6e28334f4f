"""Shared test fixtures."""

from __future__ import annotations

import pytest


@pytest.fixture
def count_calls(monkeypatch):
    """Patch ``module.name`` for the test and return the list of its calls' arguments.

    ``count_calls(decompose, "exact_covers")`` replaces the function with
    one that appends each call's positional arguments to the returned list
    and then calls the original.
    """

    def patch(module, name):
        calls = []
        real = getattr(module, name)

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, counting)
        return calls

    return patch
