"""The artifact contract: every chain of ``golden_chains``, replayed in
process, writes files whose SHA-256 digests are the ones
``golden_listing.json`` records. A change that means to alter an artifact
rewrites the listing with

    PYTHONPATH=src python tests/test_golden_listing.py

and names each changed file, and why, in CHANGES.md.
"""

import json
import sys
import tempfile
from pathlib import Path

import pytest

from golden_chains import CHAINS, listing

LISTING = Path(__file__).resolve().parent / "golden_listing.json"


def differences(got: dict[str, str], want: dict[str, str]) -> list[str]:
    """Every file whose digest differs from the listing's, or that only one side has."""
    return [
        f"{name}: {want.get(name, 'absent')[:12]} in the listing, {got.get(name, 'absent')[:12]} now"
        for name in sorted(got.keys() | want.keys()) if got.get(name) != want.get(name)
    ]


@pytest.mark.parametrize("chain", CHAINS)
def test_a_chain_writes_the_listed_bytes(golden_run, chain):
    want = json.loads(LISTING.read_text(encoding="utf-8"))[chain]
    diffs = differences(listing(golden_run(chain)), want)
    assert not diffs, "; ".join(diffs)


if __name__ == "__main__":
    listings = {}
    for chain, replay in CHAINS.items():
        with tempfile.TemporaryDirectory() as tmp:
            listings[chain] = listing(replay(Path(tmp)))
        print(chain, file=sys.stderr)
    LISTING.write_text(json.dumps(listings, indent=1) + "\n", encoding="utf-8")
