"""Check a benchmark smoke run's output, read on stdin, against its pinned rows.

usage: python3 perfbench/run.py --seconds 1 --seed SEED | python3 .github/check_digests.py SEED

Exits 0 when the run's last line, a JSON object, reads correct and no failed
operation, and the run printed the three kept-index digests pinned for SEED
below, in workload order (online-kd, adversarial-dense, random-order);
exits 1 otherwise, after naming on stderr the parts that failed (correct,
failed or digests) with the expected and found digests. ROADMAP.md records
the same digests.
"""
import json
import re
import sys

PINNED = {
    "1": ["10eba270f13ec6f6", "fc2fdadbea4f724d", "63ef5327d162bc66"],
    "2": ["7768580860c5f0f7", "f20d1e37686cacd1", "2cd1f9ce536203bd"],
    "3": ["795a1b2ac1a5c7bd", "14cb69ad6ec1509c", "532c78b2e0e4d270"],
}

out = sys.stdin.read()
r = json.loads(out.splitlines()[-1])
digests, pinned = re.findall(r"kept-index digest (\w+)", out), PINNED[sys.argv[1]]
failed = [part for part, ok in (("correct", r["correct"] is True), ("failed", r["failed"] == 0),
                                ("digests", digests == pinned)) if not ok]
if failed:
    print(f"check_digests: {', '.join(failed)} failed at seed {sys.argv[1]}: correct {r['correct']}, "
          f"failed {r['failed']}; digests expected {pinned}, found {digests}", file=sys.stderr)
sys.exit(1 if failed else 0)
