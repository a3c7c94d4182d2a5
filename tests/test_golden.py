"""The six subcommands' output bytes against ``tests/golden.json``.

Criterion 10 reruns each subcommand within one commit; this test holds
the bytes across commits.  The digests are valid only on the build that
recorded them, so on another the test skips, naming what differs.
"""

import json

import pytest

import golden


def test_output_bytes_match_the_recorded_digests(tmp_path):
    recorded = json.loads(golden.GOLDEN.read_text())
    here = golden.host()
    for field in sorted(recorded["host"].keys() | here.keys()):
        if recorded["host"].get(field) != here.get(field):
            pytest.skip(f"digests recorded on another build: host field "
                        f"{field!r} is {here.get(field)!r}, recorded "
                        f"{recorded['host'].get(field)!r}")
    got = golden.digests(tmp_path)
    want = recorded["digests"]
    moved = sorted(name for name in want.keys() | got.keys()
                   if want.get(name) != got.get(name))
    assert not moved, (f"{len(moved)} of {len(want)} digests moved: {moved}; "
                       f"if on purpose, rerun tests/golden.py")
