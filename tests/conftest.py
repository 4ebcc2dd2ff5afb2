import pytest

from qtschur import verify


@pytest.fixture(autouse=True)
def fresh_suite_context():
    """Start every test without a cached suite context.

    A context keeps operator images and tables built by the code as it
    was when the context was made, so one cached before a monkeypatch
    would hide the patch.
    """
    verify._WORKER_CONTEXTS.clear()
