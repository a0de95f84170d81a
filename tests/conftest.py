import sys
from pathlib import Path

import pytest

# Allow running the suite from a source checkout without installing.
SRC = str(Path(__file__).resolve().parent.parent / "src")
if SRC not in sys.path:
    sys.path.insert(0, SRC)


@pytest.fixture(scope="session")
def golden_run(tmp_path_factory):
    """The run directory of a chain of ``golden_chains``, replayed at most once
    per session. Tests only read it."""
    from golden_chains import CHAINS

    runs = {}

    def replayed(chain: str) -> Path:
        if chain not in runs:
            runs[chain] = CHAINS[chain](tmp_path_factory.mktemp("golden"))
        return runs[chain]

    return replayed
