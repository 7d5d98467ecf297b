"""Check a benchmark smoke run's output, read on stdin, against its pinned rows.

usage: python3 perfbench/run.py --seconds 1 --seed SEED | python3 .github/check_digests.py SEED

Exits 0 when the run's last line, a JSON object, reads correct and no failed
operation, and the run printed the three kept-index digests pinned for SEED
below, in workload order (online-kd, adversarial-dense, random-order);
exits 1 otherwise. ROADMAP.md records the same digests.
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
digests = re.findall(r"kept-index digest (\w+)", out)
sys.exit(0 if r["correct"] is True and r["failed"] == 0 and digests == PINNED[sys.argv[1]] else 1)
