"""Fixtures shared by the test modules."""

import numpy as np
import pytest


@pytest.fixture
def cholesky_dtypes(monkeypatch):
    """The dtype of every matrix handed to np.linalg.cholesky."""
    seen = []
    factor = np.linalg.cholesky

    def recording(a):
        seen.append(a.dtype)
        return factor(a)

    monkeypatch.setattr(np.linalg, "cholesky", recording)
    return seen
