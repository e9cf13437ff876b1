"""Every test starts from empty builder memos.

The builder memo store ``algebra._MEMOS`` lives as long as the process,
across CLI commands too, so without this a test that counts builds would
see what the tests before it left behind.
"""

import pytest

from degenpoly import sequences


@pytest.fixture(autouse=True)
def _empty_memos():
    sequences._clear_memos()
