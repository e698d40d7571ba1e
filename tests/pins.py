"""The committed identity digests, and the one helper that checks them.

``snapshots/digests.json`` holds, by name, the sha256 of each scenario's
observable bytes and, for :data:`repro.analysis.scenarios.SCENARIOS`, of
its self-cost bytes. Test-local scenarios pin observable bytes only.
"""

import hashlib
import json
import os

from repro.analysis.scenarios import digests

DIGESTS_PATH = os.path.join(os.path.dirname(__file__), "snapshots",
                            "digests.json")


def committed_digests():
    with open(DIGESTS_PATH) as f:
        return json.load(f)


def assert_pinned(name, observable=None):
    """Check ``name``'s committed digests: of the given test-local
    ``observable`` bytes, or else of registry scenario ``name``'s run."""
    if observable is None:
        got = digests([name])[name]
    else:
        got = {"observable": hashlib.sha256(observable).hexdigest()}
    assert got == committed_digests()[name], f"{name} moved: {got}"
