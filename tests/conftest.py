import os
import pathlib
import sys

import pytest
from hypothesis import settings

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

settings.register_profile("default", deadline=None, max_examples=40)
settings.load_profile("default")


@pytest.fixture(autouse=True)
def one_part(monkeypatch):
    """Run family verify in one part unless a test asks for more.

    Tests that count calls (matrix products, constructions) see only the
    calling process, so a forked part would hide its trials from them and
    make their coverage depend on the machine's CPU count.
    ``tests/test_verify_parts.py`` sets its own CPU count.
    """
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
