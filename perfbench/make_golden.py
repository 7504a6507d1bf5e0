"""Record golden.json from the braceforge sources of this checkout.

    python3 perfbench/make_golden.py

Records what every benchmark item produces: verdicts, witnesses (which must
replay), operation and isomorphism-class counts, and the SHA-256 of every
canonical JSON and DOT output, with the CLI outputs taken from --no-cache
runs.  The result is checked against golden.check_facts before it is
written.  Re-record only when an output is meant to change.
"""

import hashlib
import json
import subprocess
import sys
from pathlib import Path

import run  # sets up sys.path and the checkout paths

import golden
from child import ROUNDS, shuffler
from speed import SpeedClock


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    import braceforge as bf
    entries = bf.census()
    data = {"orders": {e.label: e.order for e in entries}}
    for workload in ("theorem-sweep", "iso-census", "hg-atlas"):
        data[workload] = ROUNDS[workload](bf, entries, shuffler(0, 0), None, None,
                                          SpeedClock())["records"]
    data["cli-cache"], data["cli-summary"] = {}, {}
    for key, args in run.cli_commands([e.label for e in entries]).items():
        p = subprocess.run([sys.executable, "-m", "braceforge", *args, "--no-cache"],
                           cwd=run.ROOT, env=run.child_env(), capture_output=True, check=True)
        if p.stderr:
            raise SystemExit(f"{key}: unexpected stderr {p.stderr!r}")
        data["cli-cache"][key] = hashlib.sha256(p.stdout).hexdigest()
        out = json.loads(p.stdout)
        if key == "verify theorem":
            summary = {"good_labels": out["good_labels"], "all_match": out["all_match"]}
        elif key.startswith("classify"):
            summary = {"good": out["good"]}
        else:
            summary = {"operations": len(out["operations"])}
        data["cli-summary"][key] = summary
    golden.check_facts(data)
    Path(golden.GOLDEN_PATH).write_text(json.dumps(data, sort_keys=True, indent=1) + "\n")
    print(f"wrote {golden.GOLDEN_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
