import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from magbag.shell import make_shell_config


@pytest.fixture(scope="session")
def cfg100():
    """The workhorse desk-scale configuration."""
    return make_shell_config(100, 16.0)


@pytest.fixture(scope="session")
def cfg25():
    return make_shell_config(25, 16.0)
