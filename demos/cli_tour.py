"""End-to-end tour of the command line: gen, run, verify, bench.

Everything goes through text files in a scratch directory, so the whole
pipeline is reproducible byte for byte from the seeds on the command
lines.
"""
import json
import tempfile
from pathlib import Path

from specstream.cli import main as cli


def run(args):
    print(f"$ specstream {' '.join(args)}")
    rc = cli(args)
    print(f"(exit {rc})\n")
    assert rc == 0


def main():
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        stream = str(tmp / "g.stream")
        sketch = str(tmp / "g.sketch")
        csv = str(tmp / "mu.csv")

        run(["gen", "--kind", "gaussian", "--n", "3000", "--d", "8",
             "--seed", "12", "--perm-seed", "5", "--out", stream])
        run(["run", "--algo", "improved-resparsify", "--eps", "0.35",
             "--seed", "3", "--input", stream, "--out", sketch])
        run(["verify", "--stream", stream, "--sketch", sketch,
             "--diag", sketch + ".diag", "--mu"])
        run(["bench", "--suite", "mu-scaling", "--out", csv])

        # the run subcommand drops a JSON-lines diagnostics sidecar
        with open(sketch + ".diag") as fh:
            summary = [json.loads(line) for line in fh][-1]
        assert summary["kind"] == "summary"
        print("diag summary:", {k: summary[k] for k in sorted(summary)
                                if k not in ("kind",)})


if __name__ == "__main__":
    main()
