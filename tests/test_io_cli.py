"""File formats and the command-line surface."""
import ast
import dataclasses
import hashlib
import json
import math
import os
import re
import shlex
from pathlib import Path

import numpy as np
import pytest

from specstream import (
    DimensionMismatch,
    FormatError,
    NonFiniteInput,
    RowStream,
    RunStats,
    Sketch,
    gen_gaussian,
    gen_kd_multigraph,
    permute,
    read_sketch,
    read_stream,
    run_online,
    write_sketch,
    write_stream,
)
from specstream.bench import ALGO_NAMES, SUITE_NAMES, read_csv, run_sampler
from specstream.cli import _unread_run_flag, build_parser, main

from conftest import make_stream


class TestStreamFiles:
    def test_dense_round_trip_exact(self, tmp_path):
        stream = gen_gaussian(40, 5, seed=1)
        path = str(tmp_path / "g.stream")
        write_stream(path, stream)
        back = read_stream(path)
        assert np.array_equal(back.materialize(), stream.materialize())
        assert back.meta == stream.meta
        assert not back.is_sparse
        assert not os.path.exists(path + ".tmp")

    def test_sparse_round_trip_exact(self, tmp_path):
        stream = gen_kd_multigraph(5, 2)
        path = str(tmp_path / "kd.stream")
        write_stream(path, stream)
        back = read_stream(path)
        assert back.is_sparse and back.n == stream.n
        for a, b in zip(back.iter_rows(), stream.iter_rows()):
            assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])

    def test_empty_dense_stream(self, tmp_path):
        path = str(tmp_path / "empty.stream")
        write_stream(path, make_stream(np.zeros((0, 3))))
        back = read_stream(path)
        assert back.n == 0 and back.d == 3

    def test_awkward_floats_survive(self, tmp_path):
        vals = np.array([[math.pi, 1.0 / 3.0, 1e-308, -0.0]])
        path = str(tmp_path / "f.stream")
        write_stream(path, make_stream(vals))
        assert np.array_equal(read_stream(path).materialize(), vals)

    def test_nan_token_rejected(self, tmp_path):
        path = tmp_path / "nan.stream"
        write_stream(str(path), gen_gaussian(200, 6, seed=1))
        lines = path.read_text().splitlines()
        tokens = lines[2 + 57].split()
        tokens[2] = "nan"
        lines[2 + 57] = " ".join(tokens)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(NonFiniteInput):
            read_stream(str(path))

    def test_format_errors(self, tmp_path):
        cases = {
            "magic": "rowstrea v1 1 2 dense\n# meta {}\n0 0\n",
            "version": "rowstream v2 1 2 dense\n# meta {}\n0 0\n",
            "mode": "rowstream v1 1 2 diagonal\n# meta {}\n0 0\n",
            "truncated": "rowstream v1 1 2 dense\n",
            "count": "rowstream v1 3 2 dense\n# meta {}\n0 0\n",
            "meta": "rowstream v1 1 2 dense\n# info {}\n0 0\n",
            "meta-json": "rowstream v1 1 2 dense\n# meta [1]\n0 0\n",
            "float": "rowstream v1 1 2 dense\n# meta {}\n0 xyz\n",
            "width": "rowstream v1 1 3 dense\n# meta {}\n0 0\n",
            "sparse-count": "rowstream v1 1 2 sparse\n# meta {}\n2 0:1\n",
            "sparse-no-count": "rowstream v1 1 2 sparse\n# meta {}\n0:1 1:1\n",
            "sparse-entry": "rowstream v1 1 2 sparse\n# meta {}\n2 0:1 1=1\n",
            "header-tokens": "rowstream v1 1 2\n# meta {}\n0 0\n",
            "header-counts": "rowstream v1 one 2 dense\n# meta {}\n0 0\n",
            "meta-bad-json": "rowstream v1 1 2 dense\n# meta {oops\n0 0\n",
            "negative-width": "rowstream v1 0 -1 dense\n# meta {}\n",
        }
        for name, text in cases.items():
            path = tmp_path / f"{name}.stream"
            path.write_text(text)
            with pytest.raises(FormatError):
                read_stream(str(path))

    def test_failed_write_leaves_no_temp_file(self, tmp_path):
        # the rename onto a directory fails after the temp file is written
        target = tmp_path / "taken"
        target.mkdir()
        with pytest.raises(OSError):
            write_stream(str(target), make_stream(np.eye(2)))
        assert os.listdir(tmp_path) == ["taken"]


class TestSketchFiles:
    def test_round_trip_with_weights(self, tmp_path):
        sk = Sketch(3)
        rng = np.random.default_rng(2)
        stream = make_stream(rng.standard_normal((13, 3)))
        for i in range(7):
            sk.append(i * 2, float(rng.uniform(0.5, 3.0)), stream.row(i * 2))
        path = str(tmp_path / "s.sketch")
        write_sketch(path, sk, stream, {"algo": "test"})
        back, meta = read_sketch(path)
        assert meta == {"algo": "test"}
        assert back.indices == sk.indices
        assert back.weights == sk.weights
        assert np.array_equal(back.weighted_matrix(), sk.weighted_matrix())

    def test_sparse_sketch_round_trip(self, tmp_path):
        stream = RowStream(4, [([0, 2], [1.0, -1.0]), ([3], [1.0]), ([], []), ([1], [0.25])],
                           {"kind": "test"}, sparse=True)
        sk = Sketch(4)
        sk.append(0, 1.5, stream.row(0))
        sk.append(3, 2.0, stream.row(3))
        path = str(tmp_path / "sp.sketch")
        write_sketch(path, sk, stream)
        back, _ = read_sketch(path)
        assert np.allclose(back.gram.entries, sk.gram.entries, atol=0)

    def test_row_not_in_the_stream_rejected_before_writing(self, tmp_path):
        # the writer copies rows from the stream, so each sketch row must be
        # the stream's row at its index, and the index a row of the stream
        stream = make_stream(np.eye(3))
        path = str(tmp_path / "m.sketch")
        other = Sketch(3)
        other.append(1, 2.0, np.array([0.0, 1.0, 1e-300]))
        past_end = Sketch(3)
        past_end.append(3, 1.0, np.ones(3))
        for sk in (other, past_end):
            with pytest.raises(DimensionMismatch):
                write_sketch(path, sk, stream)
            assert os.listdir(tmp_path) == []

    def test_sparse_explicit_zeros_written(self, tmp_path):
        # a sparse row's stored zeros, 0.0 and -0.0, reach the file as stored
        stream = RowStream(3, [([0, 1], [1.0, 0.0]), ([1, 2], [-0.0, 2.0])],
                           {"kind": "test"}, sparse=True)
        sketch, _ = run_online(stream, 0.5, 1)
        assert sketch.indices == [0, 1]
        path = tmp_path / "z.sketch"
        write_sketch(str(path), sketch, stream)
        rows = [line.split()[2:] for line in path.read_text().splitlines()[2:]]
        assert rows == [["2", "0:1", "1:0"], ["2", "1:-0", "2:2"]]

    def test_format_errors(self, tmp_path):
        cases = {
            "magic": "sketchy v1 1 2 dense\n# meta {}\n0 1 0 0\n",
            "short-row": "sketch v1 1 2 dense\n# meta {}\n0\n",
            "bad-weight": "sketch v1 1 2 dense\n# meta {}\n0 w 0 0\n",
            "count": "sketch v1 2 2 dense\n# meta {}\n0 1 0 0\n",
            "truncated": "sketch v1 1 2 dense\n",
            "sparse-no-count": "sketch v1 1 2 sparse\n# meta {}\n0 1\n",
            "negative-width": "sketch v1 0 -1 dense\n# meta {}\n",
        }
        for name, text in cases.items():
            path = tmp_path / f"{name}.sketch"
            path.write_text(text)
            with pytest.raises(FormatError):
                read_sketch(str(path))

    def sketch_text(self, tmp_path, weight, value):
        path = tmp_path / "w.sketch"
        path.write_text(f"sketch v1 2 2 dense\n# meta {{}}\n0 1 1 0\n3 {weight} 0 {value}\n")
        return str(path)

    def test_non_finite_weight_or_value_rejected(self, tmp_path):
        for weight, value in (("nan", "1"), ("inf", "1"), ("1", "inf"), ("1", "-nan")):
            with pytest.raises(NonFiniteInput):
                read_sketch(self.sketch_text(tmp_path, weight, value))
        path = tmp_path / "sp.sketch"
        path.write_text("sketch v1 2 3 sparse\n# meta {}\n0 1 1 0:1\n2 1.5 2 1:2 2:nan\n")
        with pytest.raises(NonFiniteInput):
            read_sketch(str(path))

    def test_non_positive_weight_rejected(self, tmp_path):
        for weight in ("-2.5", "0", "-0"):
            with pytest.raises(FormatError):
                read_sketch(self.sketch_text(tmp_path, weight, "1"))
        sketch, _ = read_sketch(self.sketch_text(tmp_path, "2.5", "1"))
        assert sketch.weights == [1.0, 2.5]

    def test_negative_source_index_rejected(self, tmp_path):
        # write_sketch refuses a source index below 0, and so does the reader
        path = tmp_path / "neg.sketch"
        path.write_text("sketch v1 2 2 dense\n# meta {}\n-4 1 1 0\n-2 1 0 1\n")
        with pytest.raises(DimensionMismatch):
            read_sketch(str(path))

    def test_bad_sparse_indices_rejected(self, tmp_path):
        # unsorted, repeated and negative columns; a negative one would
        # otherwise wrap around to the last column
        for row in ("2 2:1 0:1", "2 1:1 1:1", "1 -1:2", "1 3:1"):
            path = tmp_path / "idx.sketch"
            path.write_text(f"sketch v1 1 3 sparse\n# meta {{}}\n0 1 {row}\n")
            with pytest.raises(DimensionMismatch):
                read_sketch(str(path))


class TestCliGen:
    def test_kd_triangle(self, tmp_path, capsys):
        out = str(tmp_path / "k3.stream")
        assert main(["gen", "--kind", "kd", "--d", "3", "--copies", "1", "--out", out]) == 0
        assert "wrote" in capsys.readouterr().out
        gram = read_stream(out).gram_matrix()
        assert np.array_equal(gram, [[2, -1, -1], [-1, 2, -1], [-1, -1, 2]])

    def test_gaussian_bytes_deterministic(self, tmp_path):
        a, b = str(tmp_path / "a.stream"), str(tmp_path / "b.stream")
        argv = ["gen", "--kind", "gaussian", "--n", "100", "--d", "5", "--seed", "7"]
        assert main(argv + ["--out", a]) == 0
        assert main(argv + ["--out", b]) == 0
        assert Path(a).read_bytes() == Path(b).read_bytes()

    def test_perm_seed_applies(self, tmp_path):
        plain, shuffled = str(tmp_path / "p.stream"), str(tmp_path / "q.stream")
        argv = ["gen", "--kind", "gaussian", "--n", "50", "--d", "4", "--seed", "1"]
        main(argv + ["--out", plain])
        main(argv + ["--perm-seed", "3", "--out", shuffled])
        sa, sb = read_stream(plain), read_stream(shuffled)
        assert not np.array_equal(sa.materialize(), sb.materialize())
        assert np.allclose(sa.gram_matrix(), sb.gram_matrix(), atol=1e-12)

    def test_missing_parameter_fails(self, tmp_path, capsys):
        out = str(tmp_path / "x.stream")
        for argv, named in ((["--kind", "kd", "--d", "3"], "--copies"),
                            (["--kind", "gaussian", "--d", "3"], "--n"),
                            (["--kind", "mu", "--d", "3", "--gamma", "10"], "--levels")):
            assert main(["gen", *argv, "--out", out]) == 1, argv
            err = capsys.readouterr().err
            assert "error" in err and named in err, argv
            assert not os.path.exists(out)

    def test_overflowing_mu_stream_exits_one(self, tmp_path, capsys):
        # gamma^(2(levels-1)) = 1e398 is past the float range
        out = str(tmp_path / "mu.stream")
        argv = ["gen", "--kind", "mu", "--d", "3", "--levels", "200", "--gamma", "10", "--out", out]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert "error:" in err and "Traceback" not in err
        assert not os.path.exists(out)

    def test_usage_errors_exit_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2
        with pytest.raises(SystemExit) as exc:
            main(["run", "--algo", "greedy", "--eps", "0.3", "-i", "x", "-o", "y"])
        assert exc.value.code == 2
        # a run flag the chosen sampler would not read is a usage error
        unread = {
            "--jl": (["--algo", "online", "--jl"], ["--algo", "optimal", "--jl"]),
            "--c-mult": (["--algo", "optimal", "--c-mult", "0.01"],),
            "--plug-beta": (["--algo", "improved-self", "--plug-beta", "0.2"],
                            ["--algo", "scaled", "--plug-beta", "0.2"]),
        }
        for flag, cases in unread.items():
            for argv in cases:
                capsys.readouterr()
                with pytest.raises(SystemExit) as exc:
                    main(["run", *argv, "--eps", "0.3", "-i", "x", "-o", "y"])
                assert exc.value.code == 2, argv
                assert flag in capsys.readouterr().err, argv
        # an unregistered suite name is refused by the parser
        with pytest.raises(SystemExit) as exc:
            main(["bench", "--suite", "nope"])
        assert exc.value.code == 2
        # the bench harness runs its trials in one thread and takes no pool size
        with pytest.raises(SystemExit) as exc:
            main(["bench", "--suite", "mu-scaling", "--threads", "2"])
        assert exc.value.code == 2


class TestReadmeCommandLine:
    def test_every_readme_command_parses(self):
        # the `specstream ...` lines of the README's "Command line" block, with
        # backslash continuations joined, parse and name no unread run flag
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        block = readme.split("## Command line", 1)[1].split("```")[1].replace("\\\n", " ")
        commands = [shlex.split(ln)[1:] for ln in block.splitlines() if ln.startswith("specstream ")]
        assert {argv[0] for argv in commands} == {"gen", "run", "verify", "bench"}
        for argv in commands:
            args = build_parser().parse_args(argv)
            assert args.command != "run" or _unread_run_flag(args) is None, argv


class TestReadmeQuickstart:
    def test_every_print_matches_its_comment(self):
        # the README's "Quickstart" block runs, and each print shows what its
        # trailing comment says: integers and booleans exactly, and a float
        # written as 0.0729... rounds to the digits shown
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        block = readme.split("## Quickstart", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
        comments = [ln.split("#", 1)[1].split() for ln in block.splitlines() if ln.startswith("print(")]
        printed = []
        exec(block, {"print": lambda *args: printed.append(args)})
        assert len(printed) == len(comments) == 2
        for args, shown in zip(printed, comments):
            assert len(args) == len(shown), (args, shown)
            for got, want in zip(args, shown):
                if want in ("True", "False"):
                    assert got is (want == "True"), (got, want)
                elif want.endswith("..."):
                    places = len(want[:-3].split(".")[1])
                    assert round(got, places) == float(want[:-3]), (got, want)
                else:
                    assert type(got) is int and got == int(want), (got, want)


def _defined_tests(path):
    """The functions and methods a test file defines, as 'name' and
    'Class::name', read with ast: nothing is imported or run."""
    names = set()
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.FunctionDef):
            names.add(node.name)
        elif isinstance(node, ast.ClassDef):
            names.update(f"{node.name}::{m.name}" for m in node.body
                         if isinstance(m, ast.FunctionDef))
    return names


def _is_witness(witness):
    """True for a bench suite name, or for 'tests/file.py::name' naming a
    function or method that file defines (a [param] suffix aside)."""
    if "::" not in witness:
        return witness in SUITE_NAMES
    file, name = witness.split("::", 1)
    path = Path(__file__).resolve().parents[1] / file
    return (file.startswith("tests/") and path.is_file()
            and name.split("[", 1)[0] in _defined_tests(path))


class TestReadmeClaims:
    def test_every_claim_names_a_defined_witness(self):
        # the README's "Claims" table: claims 1-5 each have a row, and every
        # backquoted name in a Witness cell is a defined test or a suite
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        section = readme.split("\n## Claims\n", 1)[1].split("\n## ", 1)[0]
        table = [[cell.strip() for cell in ln.strip("|").split("|")]
                 for ln in section.splitlines() if ln.startswith("|")]
        assert table[0] == ["Claim", "Witness", "Bar", "Measured"]
        rows = table[2:]
        assert {int(re.match(r"\d+", claim).group()) for claim, *_ in rows} == {1, 2, 3, 4, 5}
        for claim, witness, *_ in rows:
            named = re.findall(r"`([^`]+)`", witness)
            assert named or witness.startswith("no witness"), claim
            assert all(_is_witness(w) for w in named), (claim, named)

    def test_a_misspelled_witness_fails(self):
        good = "tests/test_acceptance.py::test_criterion_03_online_guarantee_and_size"
        assert _is_witness(good) and _is_witness("n-scaling")
        assert _is_witness("tests/test_online.py::TestBarrierSampler::test_audited_run_keeps_sandwich")
        for bad in (good + "s", good.replace("test_acceptance", "test_acceptanse"),
                    "tests/test_online.py::test_audited_run_keeps_sandwich",
                    "n_scaling", "../README.md::Claims"):
            assert not _is_witness(bad), bad


def _readme_runstats_fields(readme):
    """The backquoted names, in order, of the README paragraph that lists
    the RunStats fields (the one that starts "`RunStats` holds")."""
    paragraph = next(p for p in readme.split("\n\n") if p.startswith("`RunStats` holds"))
    return re.findall(r"`([a-z_]+)`", paragraph)


class TestReadmeRunStats:
    FIELDS = [f.name for f in dataclasses.fields(RunStats)]

    def test_field_list_matches_the_dataclass(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        assert _readme_runstats_fields(readme) == self.FIELDS

    def test_a_retired_field_fails(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        stale = readme.replace("`frozen_pinvs` and", "`frozen_pinvs`, `jl_scores` and", 1)
        assert stale != readme
        assert _readme_runstats_fields(stale) != self.FIELDS


class TestCliRunVerify:
    def identity_file(self, tmp_path, copies=1):
        path = str(tmp_path / "eye.stream")
        rows = np.vstack([np.eye(6)] * copies)
        write_stream(path, make_stream(rows))
        return path

    def test_online_identity_keeps_everything(self, tmp_path, capsys):
        src = self.identity_file(tmp_path)
        out = str(tmp_path / "eye.sketch")
        assert main(["run", "--algo", "online", "--eps", "0.3",
                     "-i", src, "-o", out]) == 0
        sk, meta = read_sketch(out)
        assert sk.n_rows == 6 and sk.weights == [1.0] * 6
        assert meta["algo"] == "online"
        with open(out + ".diag") as fh:
            summary = [obj for obj in map(json.loads, fh) if obj["kind"] == "summary"][0]
        # every row arrives off the image, so its probability is capped at 1
        assert summary["saturated"] == 6

    def test_summary_carries_every_counter_not_none(self, tmp_path):
        # sketch_rows and the run's counters that are not None: only an
        # improved-resparsify run has resparsify_passes
        src = str(tmp_path / "g.stream")
        write_stream(src, permute(gen_gaussian(1500, 5, seed=24), 25))
        for algo in ALGO_NAMES:
            out = str(tmp_path / f"{algo}.sketch")
            assert main(["run", "--algo", algo, "--eps", "0.4", "--seed", "26", "-i", src, "-o", out]) == 0
            sketch, _ = read_sketch(out)
            _, stats = run_sampler(algo, read_stream(src), 0.4, 26)
            with open(out + ".diag") as fh:
                summary = [obj for obj in map(json.loads, fh) if obj["kind"] == "summary"][0]
            counters = {name: value for name, value in stats.counters().items() if value is not None}
            assert summary == {"kind": "summary", "sketch_rows": sketch.n_rows, **counters}, algo
            assert ("resparsify_passes" in summary) == (algo == "improved-resparsify"), algo

    def test_rerun_is_byte_identical(self, tmp_path):
        src = self.identity_file(tmp_path, copies=30)
        argv = ["run", "--algo", "online", "--eps", "0.4", "--seed", "5", "-i", src]
        out1, out2 = str(tmp_path / "r1.sketch"), str(tmp_path / "r2.sketch")
        assert main(argv + ["-o", out1]) == 0
        assert main(argv + ["-o", out2]) == 0
        assert Path(out1).read_bytes() == Path(out2).read_bytes()
        assert Path(out1 + ".diag").read_bytes() == Path(out2 + ".diag").read_bytes()

    def test_scaled_short_stream_passthrough(self, tmp_path):
        # n = 10 <= K(6) = 11: the whole stream fits in the seed block
        src = str(tmp_path / "short.stream")
        out = str(tmp_path / "s.sketch")
        main(["gen", "--kind", "gaussian", "--n", "10", "--d", "6",
              "--seed", "2", "--out", src])
        assert main(["run", "--algo", "scaled", "--eps", "0.4", "-i", src, "-o", out]) == 0
        sk, _ = read_sketch(out)
        stream = read_stream(src)
        assert sk.n_rows == stream.n
        assert np.array_equal(sk.weighted_matrix(), stream.materialize())

    def test_perm_seed_permutes_the_input(self, tmp_path):
        src, permuted = str(tmp_path / "g.stream"), str(tmp_path / "p.stream")
        write_stream(src, gen_gaussian(300, 4, seed=3))
        write_stream(permuted, permute(read_stream(src), 7))
        outs = str(tmp_path / "a.sketch"), str(tmp_path / "b.sketch")
        argv = ["run", "--algo", "online", "--eps", "0.5", "--seed", "2"]
        assert main(argv + ["--perm-seed", "7", "-i", src, "-o", outs[0]]) == 0
        assert main(argv + ["-i", permuted, "-o", outs[1]]) == 0
        (a, meta), (b, _) = read_sketch(outs[0]), read_sketch(outs[1])
        assert meta["seed_perm"] == 7 and a.n_rows < 300
        assert a.indices == b.indices and np.array_equal(a.weighted_matrix(), b.weighted_matrix())

    def test_bad_sampler_parameters_exit_one(self, tmp_path, capsys):
        # a zero plug setting reaches the plug instead of its default, and a
        # sampling rate that is not finite and positive is refused
        src = self.identity_file(tmp_path, copies=50)
        out = str(tmp_path / "bad.sketch")
        bad = (
            ["--algo", "improved-resparsify", "--plug-beta", "0"],
            ["--algo", "online", "--c-mult", "0"],
            ["--algo", "scaled", "--c-mult", "0"],
            ["--algo", "scaled", "--c-mult", "-1"],
            ["--algo", "scaled", "--c-mult", "nan"],
            ["--algo", "improved-self", "--c-mult", "0"],
        )
        for argv in bad:
            capsys.readouterr()
            assert main(["run", *argv, "--eps", "0.4", "-i", src, "-o", out]) == 1, argv
            err = capsys.readouterr().err
            assert "error" in err and "Traceback" not in err, argv
            assert not os.path.exists(out), argv
        with pytest.raises(SystemExit) as exc:
            main(["run", "--algo", "improved-passthrough", "--eps", "0.4",
                  "-i", src, "-o", out])
        assert exc.value.code == 2

    def test_verify_pass_and_audit(self, tmp_path, capsys):
        src = str(tmp_path / "g.stream")
        out = str(tmp_path / "g.sketch")
        main(["gen", "--kind", "gaussian", "--n", "400", "--d", "6",
              "--seed", "3", "--out", src])
        main(["run", "--algo", "online", "--eps", "0.4", "--seed", "4",
              "-i", src, "-o", out])
        capsys.readouterr()
        rc = main(["verify", "--stream", src, "--sketch", out,
                   "--eps", "0.4", "--diag", out + ".diag"])
        text = capsys.readouterr().out
        assert rc == 0
        assert "eps_actual = " in text
        assert "overestimate audit: ok" in text
        assert "PASS" in text
        # scores logged below the leverage fail the audit, and the run exits 1
        # although eps_actual passes
        with open(out + ".diag") as fh:
            records = [json.loads(line) for line in fh]
        for obj in records:
            if obj["kind"] == "scores":
                obj["values"] = [0.0] * len(obj["values"])
        low = str(tmp_path / "low.diag")
        with open(low, "w") as fh:
            fh.write("".join(json.dumps(obj) + "\n" for obj in records))
        rc = main(["verify", "--stream", src, "--sketch", out, "--eps", "0.4", "--diag", low])
        text = capsys.readouterr().out
        assert rc == 1
        assert "overestimate audit: VIOLATED" in text and "PASS" in text
        # json writes and reads NaN and Infinity tokens, so a sidecar can carry
        # a non-finite score to verify, which refuses it
        for bad in (math.nan, math.inf, -math.inf):
            for obj in records:
                if obj["kind"] == "scores":
                    obj["values"][7] = bad
            with open(low, "w") as fh:
                fh.write("".join(json.dumps(obj) + "\n" for obj in records))
            assert main(["verify", "--stream", src, "--sketch", out, "--diag", low]) == 1, bad
            err = capsys.readouterr().err
            assert "error" in err and "Traceback" not in err, bad
        # the barrier logs probabilities, not scores: its sidecar has no score log
        bar = str(tmp_path / "bar.sketch")
        assert main(["run", "--algo", "optimal", "--eps", "0.5", "--seed", "4",
                     "-i", src, "-o", bar]) == 0
        capsys.readouterr()
        assert main(["verify", "--stream", src, "--sketch", bar, "--diag", bar + ".diag"]) == 0
        assert "overestimate audit: skipped (no score log)" in capsys.readouterr().out

    @pytest.mark.parametrize("line", [
        {"kind": "scores"},
        {"kind": "scores", "values": 0.5},
        {"kind": "scores", "values": [{}]},
        ["kind", "scores"],
        "scores",
    ], ids=["no-values", "values-not-a-list", "values-not-numbers", "array-line", "string-line"])
    def test_verify_refuses_a_malformed_sidecar(self, tmp_path, capsys, line):
        # a sidecar is outside input: a line of the wrong shape is an error
        # line and exit 1, not an exception out of main
        src, out, diag = (str(tmp_path / name) for name in ("g.stream", "g.sketch", "bad.diag"))
        main(["gen", "--kind", "gaussian", "--n", "60", "--d", "4", "--seed", "3", "--out", src])
        main(["run", "--algo", "online", "--eps", "0.5", "-i", src, "-o", out])
        Path(diag).write_text(json.dumps({"kind": "run"}) + "\n" + json.dumps(line) + "\n")
        capsys.readouterr()
        assert main(["verify", "--stream", src, "--sketch", out, "--diag", diag]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err, err

    def test_verify_dimension_mismatch_fails(self, tmp_path, capsys):
        src = str(tmp_path / "g.stream")
        other = str(tmp_path / "h.stream")
        out = str(tmp_path / "g.sketch")
        main(["gen", "--kind", "gaussian", "--n", "50", "--d", "5", "--out", src])
        main(["gen", "--kind", "gaussian", "--n", "50", "--d", "4", "--out", other])
        main(["run", "--algo", "online", "--eps", "0.4", "-i", src, "-o", out])
        assert main(["verify", "--stream", other, "--sketch", out]) == 1
        assert "error" in capsys.readouterr().err

    def test_verify_mu_alone(self, tmp_path, capsys):
        src = str(tmp_path / "mu.stream")
        main(["gen", "--kind", "mu", "--d", "4", "--levels", "3",
              "--gamma", "10", "--out", src])
        capsys.readouterr()
        assert main(["verify", "--stream", src, "--mu"]) == 0
        line = [ln for ln in capsys.readouterr().out.splitlines() if ln.startswith("mu = ")][0]
        assert float(line.split("=")[1]) == pytest.approx(1e4, rel=1e-6)
        # with neither --sketch nor --mu there is nothing to do
        assert main(["verify", "--stream", src]) == 1
        assert "verify needs --sketch" in capsys.readouterr().err

    def test_improved_resparsify_respects_capacity(self, tmp_path):
        src = str(tmp_path / "big.stream")
        out = str(tmp_path / "big.sketch")
        main(["gen", "--kind", "gaussian", "--n", "3000", "--d", "8",
              "--seed", "6", "--perm-seed", "7", "--out", src])
        assert main(["run", "--algo", "improved-resparsify",
                     "--eps", "0.4", "--seed", "8", "-i", src, "-o", out]) == 0
        capacity = math.ceil(4.0 * 9.0 * 8 * math.log(8))
        summary = None
        with open(out + ".diag") as fh:
            for line in fh:
                obj = json.loads(line)
                if obj["kind"] == "summary":
                    summary = obj
        assert summary is not None
        assert summary["max_working_rows"] <= 2 * capacity

    def test_missing_input_fails(self, tmp_path, capsys):
        rc = main(["run", "--algo", "online", "--eps", "0.3",
                   "-i", str(tmp_path / "absent.stream"), "-o", str(tmp_path / "o")])
        assert rc == 1
        assert "error" in capsys.readouterr().err


class TestCliBench:
    def test_mu_scaling_csv(self, tmp_path, capsys):
        out = str(tmp_path / "mu.csv")
        assert main(["bench", "--suite", "mu-scaling", "--out", out]) == 0
        assert "mu-scaling: PASS" in capsys.readouterr().out
        records = read_csv(out)
        assert len(records) == 3
        assert all(r.algo == "online" and r.mu is not None for r in records)

    def test_rerun_identical_modulo_wall_ms(self, tmp_path):
        a, b = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        main(["bench", "--suite", "mu-scaling", "--out", a])
        main(["bench", "--suite", "mu-scaling", "--out", b])
        rows_a = [ln.rsplit(",", 1)[0] for ln in Path(a).read_text().splitlines()]
        rows_b = [ln.rsplit(",", 1)[0] for ln in Path(b).read_text().splitlines()]
        assert rows_a == rows_b


def sha_prefix(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()[:16]


def zeros_stream():
    """Sparse stream with empty rows and explicit zeros (0.0 and -0.0)."""
    rng = np.random.default_rng(31)
    payload = []
    for _ in range(600):
        idx = np.sort(rng.choice(5, size=rng.integers(0, 4), replace=False))
        val = rng.standard_normal(idx.size)
        if idx.size:
            val[rng.integers(idx.size)] = (0.0, -0.0)[int(rng.integers(2))]
        payload.append((idx, val))
    return RowStream(5, payload, {"kind": "test"}, sparse=True)


class TestPinnedBytes:
    """Files stay byte-identical across changes: sha256 prefixes taken before
    the sparse store became CSR arrays (the same at 1 and 2 BLAS threads)."""

    KD_STREAM = "71a9f4c6b2fb38eb"
    RUNS = {  # run flags: (sketch, diag)
        ("--algo", "online", "--eps", "0.5", "--seed", "3"): ("7c8a15128affa468", "d9959c1a182acd79"),
        ("--algo", "scaled", "--eps", "0.5", "--seed", "3"): ("e1b03da7f6b83930", "7b63adbaf10e4a96"),
        # the diag hashed to 8c1c32225894c5d2 before its summary carried
        # resparsify_passes, and still does with that key taken out
        ("--algo", "improved-resparsify", "--eps", "0.4", "--seed", "4"):
            ("afb1394f971fdcf5", "44eff76756a75ad9"),
        # the barrier's probabilities amplify last-bit differences in its gaps
        ("--algo", "optimal", "--eps", "0.5", "--seed", "3"): ("536abcadb19a4764", "b5fb024d3002065d"),
    }

    def test_kd_stream_sketches_and_diags(self, tmp_path):
        src = str(tmp_path / "kd.stream")
        assert main(["gen", "--kind", "kd", "--d", "6", "--copies", "200",
                     "--perm-seed", "2", "--out", src]) == 0
        assert sha_prefix(src) == self.KD_STREAM
        for argv, (sketch, diag) in self.RUNS.items():
            out = str(tmp_path / "kd.sketch")
            assert main(["run", *argv, "-i", src, "-o", out]) == 0
            assert (sha_prefix(out), sha_prefix(out + ".diag")) == (sketch, diag), argv

    def test_sparse_zeros_stream_round_trip_permute_and_sketch(self, tmp_path):
        first, again, shuffled = (str(tmp_path / f"{n}.stream") for n in ("a", "b", "p"))
        write_stream(first, zeros_stream())
        write_stream(again, read_stream(first))
        write_stream(shuffled, permute(read_stream(first), 4))
        out = str(tmp_path / "z.sketch")
        assert main(["run", "--algo", "online", "--eps", "0.5", "--seed", "3",
                     "-i", first, "-o", out]) == 0
        got = [sha_prefix(p) for p in (first, again, shuffled, out, out + ".diag")]
        assert got == ["5f0b5b5fdecfba31", "5f0b5b5fdecfba31", "5e01d9b195f763f7",
                       "5d64b1d635b97da6", "9e59c9a82d117ad9"]
