"""Every file `scripts/quick_smoke.sh` writes, pinned by its sha256.

`smoke_manifest.json` maps each output's path under the smoke's root to
the sha256 of its bytes, a CSV's leading `# config=` provenance line
dropped first. A change that moves output bytes on purpose re-records it
and lists the moved files in CHANGES.md:

    rm -rf runs/smoke && scripts/quick_smoke.sh
    python tests/test_smoke.py runs/smoke > tests/smoke_manifest.json
"""

import hashlib
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MANIFEST = os.path.join(ROOT, "tests", "smoke_manifest.json")


def file_digest(path: str) -> str:
    with open(path, "rb") as f:
        data = f.read()
    if path.endswith(".csv") and data.startswith(b"# config="):
        data = data.split(b"\n", 1)[1] if b"\n" in data else b""
    return hashlib.sha256(data).hexdigest()


def output_digests(root: str) -> dict[str, str]:
    """Every file under `root` by its '/'-separated relative path."""
    return {os.path.relpath(os.path.join(d, f), root).replace(os.sep, "/"):
            file_digest(os.path.join(d, f))
            for d, _, files in os.walk(root) for f in files}


def check_against_manifest(root: str) -> None:
    got = output_digests(root)
    with open(MANIFEST) as f:
        want = json.load(f)
    assert sorted(got) == sorted(want), "files missing or extra"
    moved = sorted(rel for rel in want if got[rel] != want[rel])
    assert not moved, f"outputs moved: {moved}"


def test_smoke_outputs_match_the_manifest(tmp_path):
    out = str(tmp_path / "smoke")
    run = subprocess.run(["bash", os.path.join(ROOT, "scripts", "quick_smoke.sh")],
                         env=dict(os.environ, CCPROBE_OUT=out),
                         stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                         text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    check_against_manifest(out)
    # sweep-p's run at the configured mix_p is retrain's run
    for name in ("retrained.ckpt", "retrain_eval.csv"):
        assert (file_digest(os.path.join(out, "sweep", name))
                == file_digest(os.path.join(out, "retrain", name)))


if __name__ == "__main__":
    json.dump(output_digests(sys.argv[1]), sys.stdout, indent=1, sort_keys=True)
    print()
