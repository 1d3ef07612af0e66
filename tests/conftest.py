"""Fixtures shared by the test modules."""

from __future__ import annotations

from pathlib import Path

import pytest

import voxfeat


@pytest.fixture(scope="session")
def embeddings_path() -> str:
    """The tiny embedding table shipped in the package for tests and smoke runs."""
    return str(Path(voxfeat.__file__).parent / "data" / "tiny_embeddings.txt")
