"""Regenerate ``reference/replay_digests.json`` from the current code.

    python3 perfbench/make_reference.py

Replays every checked-in trace under every scheme and every preset of
the scenario suite (the ``scenario-replay`` workload times the first
preset only) and writes each trace's per-rank digest timeline.  Refuses to write when the pairs of one trace disagree:
the digests hash application buffers only, so they must not depend on
the scheme or the platform.  Run it only when a change is meant to alter
what a trace delivers, and say so in that change.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from cells import REPLAY_REFERENCE, replay_cell, load_traces
    from repro.schemes import SCHEME_NAMES
    from repro.workloads.suite import DEFAULT_PRESETS

    reference = {}
    for name, trace in load_traces(ROOT).items():
        timelines = {
            json.dumps(replay_cell(trace, scheme, preset, False).digests)
            for preset in DEFAULT_PRESETS
            for scheme in SCHEME_NAMES
        }
        if len(timelines) != 1:
            print(f"error: {name}: digest timelines differ across "
                  "(scheme, preset) pairs", file=sys.stderr)
            return 1
        reference[name] = json.loads(timelines.pop())
    REPLAY_REFERENCE.parent.mkdir(exist_ok=True)
    REPLAY_REFERENCE.write_text(json.dumps(reference, indent=1) + "\n")
    print(f"wrote {REPLAY_REFERENCE.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
