"""Every output of a fixed command set keeps its pinned bytes.

README promises the same bytes from the same inputs and seed on any
supported Python and numpy; tests/output_digests.sha256 holds them for
the commands scripts/update_output_digests.py runs.
"""

import platform
import runpy
from pathlib import Path

import numpy as np

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "update_output_digests.py"


def test_every_output_matches_its_pinned_digest(tmp_path):
    script = runpy.run_path(str(SCRIPT), run_name="digests")
    script["write_outputs"](tmp_path)
    found, pinned = script["digests"](tmp_path), script["read_digests"]()
    differ = sorted(name for name in found.keys() | pinned.keys()
                    if found.get(name) != pinned.get(name))
    assert not differ, (
        f"{len(differ)} of {len(pinned)} pinned outputs differ on Python "
        f"{platform.python_version()}, numpy {np.__version__}: {', '.join(differ)}")
