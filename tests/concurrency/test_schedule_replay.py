"""Replay every pinned schedule in ``repros/`` on both layouts.

The repro files are the committed regression net for interleavings
worth keeping (see ``repros/README.md``); this test discovers them so
pinning a new one is just dropping a JSON file in the directory.
"""

from pathlib import Path

import pytest

from tests.concurrency.lockstep import dump_schedule, load_schedule, run_schedule

REPRO_DIR = Path(__file__).parent / "repros"
REPROS = sorted(REPRO_DIR.glob("*.json"))


def test_repro_directory_is_not_empty():
    assert REPROS, "the pinned-schedule regression net went missing"


@pytest.mark.parametrize(
    "path", REPROS, ids=[p.stem for p in REPROS]
)
def test_pinned_schedule_replays(path, layout):
    run_schedule(load_schedule(path), layout=layout)


def test_dump_load_round_trip(tmp_path):
    schedule = [
        {
            "actor": "writer",
            "op": {"op": "insert", "point": [0.5, 0.5], "value": 1},
        },
        {
            "actor": "reader",
            "queries": [{"kind": "get", "point": [0.5, 0.5]}],
            "verify": "structure",
        },
    ]
    target = dump_schedule(schedule, tmp_path / "case.json")
    assert load_schedule(target) == schedule
    run_schedule(load_schedule(target))
