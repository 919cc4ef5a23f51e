import errno
import io
import json
import os
import site
import subprocess
import sys
import time
from pathlib import Path

import pytest
from test_verify_reference import z_lift_to_f2

from cosetpart import covering, formats, partition
from cosetpart.cli import main
from cosetpart.corpus import generate_partition
from cosetpart.covering import PartitionSpec, z_verify
from cosetpart.partition import (
    member_periods,
    theorem1_check,
    theorem2_check,
    verify_partition,
    z_lift,
)
from cosetpart.schreier import coset, from_permutations, subgroup_coset

EX1 = {"rank": 2, "generators": ["aaaa", "bbbb", "aB", "aaBB", "aaaBBB"]}
MOD2 = {
    "rank": 2,
    "members": [
        {"subgroup": {"rank": 2, "permutations": [[2, 1], [2, 1]]}, "coset_rep": ""},
        {"subgroup": {"rank": 2, "permutations": [[2, 1], [2, 1]]}, "coset_rep": "a"},
    ],
}


def write(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


def test_subgroup_golden(tmp_path, capsys):
    out = tmp_path / "report.json"
    rc = main(["subgroup", write(tmp_path, "ex1.json", EX1), "--out", str(out)])
    assert rc == 0
    text = capsys.readouterr().out
    assert "index d = 4" in text and "period h = 4" in text
    report = json.loads(out.read_text())
    assert report["index"] == 4
    assert report["reciprocal_charpoly"] == ["1", "0", "0", "0", "-16"]
    assert report["transversal"] == ["", "a", "aa", "aaa"]
    assert report["genfuncs"][0]["genfunc"] == {
        "num": ["1"],
        "den": ["1", "0", "0", "0", "-16"],
    }
    assert report["genfuncs"][1]["genfunc"]["num"] == ["0", "2"]
    # emitted permutations round-trip to the same graph
    graph = formats.parse_subgroup(
        {"rank": report["rank"], "permutations": report["permutations"]}
    )
    assert graph == from_permutations(2, [(2, 3, 4, 1), (2, 3, 4, 1)])


def test_subgroup_whole_group(tmp_path):
    rc = main(["subgroup", write(tmp_path, "f2.json", {"rank": 2, "generators": ["a", "b"]})])
    assert rc == 0


def test_subgroup_infinite_index(tmp_path, capsys):
    for gens in (["a"], [], [""]):
        rc = main(["subgroup", write(tmp_path, "inf.json", {"rank": 2, "generators": gens})])
        assert rc == 2
        assert "infinite index" in capsys.readouterr().err


def test_malformed_word_is_exit_1(tmp_path, capsys):
    rc = main(["subgroup", write(tmp_path, "bad.json", {"rank": 2, "generators": ["aZ9"]})])
    assert rc == 1
    assert "position" in capsys.readouterr().err


def test_subgroup_oracle_flag(tmp_path):
    rc = main(["subgroup", write(tmp_path, "ex1.json", EX1), "--oracle"])
    assert rc == 0


def test_oracle_counts_fit_their_budget_at_rank_7(tmp_path, capsys):
    # the counts classify 1 + n + ... + n^k words per member: depth 8 at
    # rank 7 took seconds and hundreds of MB on this one-member family
    path = write(tmp_path, "r7.json", formats.partition_spec_to_json(generate_partition(7, 0, 1)))
    start = time.perf_counter()
    rc = main(["analyze", path, "--oracle"])
    elapsed = time.perf_counter() - start
    assert rc == 0
    assert "oracle agreement: True" in capsys.readouterr().out
    assert elapsed < 2.0


def test_analyze_partition(tmp_path):
    out = tmp_path / "report.json"
    rc = main(
        [
            "analyze",
            write(tmp_path, "mod2.json", MOD2),
            "--oracle",
            "--series-depth",
            "12",
            "--out",
            str(out),
        ]
    )
    assert rc == 0
    report = json.loads(out.read_text())
    assert report["all_checks_pass"] is True
    assert report["partition"]["status"] == "IsPartition"
    assert report["sum_identity"]["holds"] is True
    assert report["coefficient_identity"] == {"holds": True, "depth": 12}
    assert report["members"][0]["period"] == 2
    assert report["residue_sums"][0]["is_zero"] is True
    assert report["oracle"]["all_agree"] is True
    # report echoes its input, and the echo re-parses to the same spec
    spec = formats.parse_partition_file(report["input"])
    k = from_permutations(2, [(2, 1), (2, 1)])
    assert spec == PartitionSpec(2, (subgroup_coset(k), coset(k, (1,))))


def test_analyze_overlap_is_exit_2(tmp_path, capsys):
    bad = {"rank": 2, "members": [MOD2["members"][0], MOD2["members"][0]]}
    rc = main(["analyze", write(tmp_path, "dup.json", bad)])
    assert rc == 2
    captured = capsys.readouterr()
    assert "NOT A PARTITION" in captured.err
    assert "partition: NO (Overlap, witness ε, members (1, 2))\n" in captured.out
    lone = {"rank": 2, "members": [MOD2["members"][0]]}
    assert main(["analyze", write(tmp_path, "lone.json", lone)]) == 2
    assert "partition: NO (Gap, witness a)\n" in capsys.readouterr().out


def test_theorem_failure_is_exit_3(tmp_path, monkeypatch):
    # the theorems hold on genuine partitions, so exit 3 is exercised by
    # stubbing the analysis outcome where the analyze command looks it up
    real = partition.analyze

    def fake_analyze(spec, **kwargs):
        report = real(spec, **kwargs)
        return report._replace(theorem1=dict(report.theorem1, all_pass=False))

    monkeypatch.setattr(partition, "analyze", fake_analyze)
    rc = main(["analyze", write(tmp_path, "mod2.json", MOD2)])
    assert rc == 3


def test_zanalyze(tmp_path):
    out = tmp_path / "zreport.json"
    rc = main(
        [
            "zanalyze",
            write(tmp_path, "z.json", {"moduli": [[2, 0], [4, 1], [4, 3]]}),
            "--out",
            str(out),
        ]
    )
    assert rc == 0
    report = json.loads(out.read_text())
    assert report["davenport_rado"]["largest_repeats"] is True
    assert report["lifted"]["periods"] == [2, 4, 4]
    assert all(report["lifted"]["agreement"].values())


def lifted_section_by_lift(classes):
    """zanalyze's lifted section computed on the lift itself: real d-cycles
    through z_lift, verify_partition, member_periods and the theorem
    checks; None where the certificate finds no partition, as zanalyze
    then stops (and late's 10^9-cycle could not be built)."""
    if not z_verify(classes).ok:
        return None
    lifted = z_lift(classes)
    verdict = verify_partition(lifted)
    periods = member_periods(lifted)
    t1, t2 = theorem1_check(lifted), theorem2_check(lifted)
    return {
        "partition": formats.verdict_to_json(verdict, 1),
        "periods": periods,
        "theorem1": t1,
        "theorem2": t2,
        "agreement": {
            "verdict_matches": verdict.status == z_verify(classes).status,
            "periods_equal_moduli": periods == [d for d, _ in classes],
            "theorem1_all_pass": t1["all_pass"],
            "theorem2_all_pass": t2["all_pass"],
        },
    }


def chain(k):
    """{2Z, 4Z + 1, ..., 2^k Z + 2^(k-1) - 1, 2^k Z + 2^k - 1}: a partition
    of Z with k + 1 classes and moduli up to 2^k."""
    return [[2**j, 2 ** (j - 1) - 1] for j in range(1, k + 1)] + [[2**k, 2**k - 1]]


def test_zanalyze_lifted_section_matches_the_lift(tmp_path, capsys, z_coverings):
    families = [
        # the CI fixtures zcover, late and zgap
        [[2, 0], [4, 1], [4, 3]],
        [[2, 0], [2, 1], [1000000001, 1000000000]],
        [[2, 0], [4, 1]],
        [[1, 0]],
        [[2, 0], [2, 1], [2, 1]],
        [[2, -2], [4, 5], [4, -1]],
        chain(8),
    ] + [[list(c) for c in classes] for classes in z_coverings]
    out = tmp_path / "z.out.json"
    for moduli in families:
        path = write(tmp_path, "z.json", {"moduli": moduli})
        out.unlink(missing_ok=True)
        rc = main(["zanalyze", path, "--out", str(out)])
        report = json.loads(out.read_text())
        expected = lifted_section_by_lift(moduli)
        assert report.get("lifted") == json.loads(json.dumps(expected)), moduli
        assert rc == (2 if expected is None else 0), moduli
        agrees = capsys.readouterr().out.count("lifted rank-1 machinery agrees: True")
        assert agrees == (expected is not None), moduli


def test_zanalyze_builds_no_cycle(tmp_path, monkeypatch, capsys):
    # the lifted section needs no d-vertex cycle, so moduli up to 2^40 cost
    # no more than small ones
    def refuse(d):
        raise AssertionError(f"zanalyze built a {d}-cycle")

    monkeypatch.setattr(partition, "_z_cycle", refuse)
    moduli = chain(40)
    path, out = write(tmp_path, "chain40.json", {"moduli": moduli}), tmp_path / "out.json"
    assert main(["zanalyze", path, "--out", str(out)]) == 0
    assert "lifted rank-1 machinery agrees: True" in capsys.readouterr().out
    lifted = json.loads(out.read_text())["lifted"]
    assert lifted["periods"] == [d for d, _ in moduli]
    assert lifted["partition"]["status"] == "IsPartition"
    assert all(lifted["agreement"].values())


def test_zanalyze_gap_is_exit_2(tmp_path, capsys):
    rc = main(["zanalyze", write(tmp_path, "zgap.json", {"moduli": [[2, 0], [4, 1]]})])
    assert rc == 2
    assert "covering system partitions Z: NO (Gap, witness 3)\n" in capsys.readouterr().out
    rc = main(["zanalyze", write(tmp_path, "zdup.json", {"moduli": [[2, 0], [2, 0]]})])
    assert rc == 2
    expected = "covering system partitions Z: NO (Overlap, witness 0, members (1, 2))\n"
    assert expected in capsys.readouterr().out


def test_zanalyze_late_overlap_is_exit_2(tmp_path):
    out = tmp_path / "late_report.json"
    late = {"moduli": [[2, 0], [2, 1], [1000000001, 1000000000]]}
    assert main(["zanalyze", write(tmp_path, "late.json", late), "--out", str(out)]) == 2
    assert json.loads(out.read_text())["partition"] == {
        "status": "Overlap",
        "witness": 1000000000,
        "overlap_indices": [1, 3],
    }


def test_generate_deterministic_and_valid(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    args = ["generate", "--rank", "2", "--depth", "2", "--seed", "7"]
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    # emitted file re-parses to the generated spec
    spec = formats.parse_partition_file(json.loads(a.read_text()))
    assert spec == generate_partition(2, 2, 7)
    assert main(["analyze", str(a)]) == 0


def test_generate_to_stdout(tmp_path, capsys):
    assert main(["generate", "--rank", "1", "--depth", "1", "--seed", "3"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["rank"] == 1


def test_missing_file_is_exit_1(capsys):
    rc = main(["analyze", "/nonexistent/nowhere.json"])
    assert rc == 1
    assert "cannot read" in capsys.readouterr().err


def test_directory_input_is_exit_1(tmp_path, capsys):
    rc = main(["analyze", str(tmp_path)])
    assert rc == 1
    assert f"error: cannot read {tmp_path}: " in capsys.readouterr().err


def test_usage_errors_are_exit_1(tmp_path, capsys):
    # exit 2 means "not a partition": a typo must not read as a verdict
    path = write(tmp_path, "mod2.json", MOD2)
    ex1 = write(tmp_path, "ex1.json", EX1)
    zpath = write(tmp_path, "z.json", {"moduli": [[2, 0], [4, 1], [4, 3]]})
    cases = [
        ([], "required: command"),
        (["frobnicate"], "invalid choice: 'frobnicate'"),
        (["analyze"], "required: input"),
        (["analyze", path, "--series-depth", "x"], "invalid int value: 'x'"),
        # a negative depth is refused before the command prints anything
        (["subgroup", ex1, "--series-depth", "-1"], "depth must be >= 0, got -1"),
        (["analyze", path, "--series-depth", "-3"], "depth must be >= 0, got -3"),
        # zanalyze reads no series, so it takes no --series-depth
        (["zanalyze", zpath, "--series-depth", "-5"], "unrecognized arguments: --series-depth -5"),
        # nor --oracle: the lift it would check is the tests' reference
        (["zanalyze", zpath, "--oracle"], "unrecognized arguments: --oracle"),
    ]
    for argv, message in cases:
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 1, argv
        captured = capsys.readouterr()
        assert captured.out == "", argv
        assert captured.err.startswith("usage: cosetpart") and message in captured.err, argv
    with pytest.raises(SystemExit) as exc:
        main(["analyze", "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: cosetpart analyze")


def test_series_depth_has_a_stated_bound(tmp_path, capsys):
    from cosetpart.formats import COEFFICIENT_DIGITS, max_series_depth

    # the largest K with n^K < 10^4300, so n^K prints; rank 1 takes rank 2's
    bounds = {n: max_series_depth(n) for n in (1, 2, 26, 28, 100)}
    assert bounds == {1: 14284, 2: 14284, 26: 3038, 28: 2971, 100: 2149}
    for n, bound in bounds.items():
        top = max(n, 2)
        assert top**bound < 10**COEFFICIENT_DIGITS <= top ** (bound + 1)

    ex1 = write(tmp_path, "ex1.json", EX1)
    dup = formats.partition_spec_to_json(generate_partition(2, 3, 7))
    dup["members"].append(dup["members"][0])
    dup = write(tmp_path, "dup.json", dup)
    whole = {
        n: write(tmp_path, f"whole{n}.json", {"rank": n, "permutations": [[1]] * n})
        for n in (28, 100)
    }
    cases = [(["subgroup", ex1], 2), (["analyze", dup], 2)]
    cases += [(["subgroup", path], n) for n, path in whole.items()]
    for argv, rank in cases:
        bound = bounds[rank]
        for depth in (bound + 1, 15000):
            # a usage error, before anything prints
            assert main([*argv, "--series-depth", str(depth)]) == 1
            captured = capsys.readouterr()
            assert captured.out == "", argv
            assert (
                f"error: --series-depth must be <= {bound} at rank {rank} "
                f"({rank}^K within 4300 digits), got {depth}"
            ) in captured.err, argv
    # at the bound every coefficient prints: p(z) = 1/(1 - nz) for F_n itself;
    # under it a rank-2 depth the old fixed bound refused still prints
    out = tmp_path / "sub.out.json"
    for path, depth, last in (
        (whole[28], bounds[28], 28 ** bounds[28]),
        (whole[100], bounds[100], 100 ** bounds[100]),
        (ex1, 5000, 16**1250),  # p(z) = 1/(1 - 16z^4), the golden subgroup
    ):
        assert main(["subgroup", path, "--series-depth", str(depth), "--out", str(out)]) == 0
        series = json.loads(out.read_text())["genfuncs"][0]["series"]
        assert len(series) == depth + 1 and series[-1] == str(last)
    assert main(["analyze", dup, "--series-depth", str(bounds[2])]) == 2
    capsys.readouterr()


def _out_commands(tmp_path):
    """Every subcommand with a valid input, awaiting its --out PATH."""
    return [
        ["generate", "--rank", "2", "--depth", "1", "--seed", "1"],
        ["subgroup", write(tmp_path, "ex1.json", EX1)],
        ["analyze", write(tmp_path, "mod2.json", MOD2)],
        ["zanalyze", write(tmp_path, "z.json", {"moduli": [[2, 0], [4, 1], [4, 3]]})],
    ]


def test_unwritable_out_is_exit_1(tmp_path, capsys):
    missing = tmp_path / "no-such-dir" / "x.json"
    for target, errno_ in ((missing, errno.ENOENT), (tmp_path, errno.EISDIR)):
        for argv in _out_commands(tmp_path):
            capsys.readouterr()
            rc = main(argv + ["--out", str(target)])
            assert rc == 1, argv
            err = capsys.readouterr().err
            assert err == f"error: cannot write {target}: {os.strerror(errno_)}\n", argv
    assert not missing.parent.exists()


def test_bad_json_reports_line_and_column(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text('{"rank": 2,\n "members": [}')
    rc = main(["analyze", str(path)])
    assert rc == 1
    err = capsys.readouterr().err
    assert "line 2" in err and "column" in err
    # the decoder recurses once per bracket; nesting past the interpreter's
    # recursion limit is reported, not raised
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000)
    for command in ("analyze", "subgroup", "zanalyze"):
        assert main([command, str(deep)]) == 1
        # the message alone: no traceback, nothing on stdout
        assert capsys.readouterr() == ("", f"error: JSON nested too deeply in {deep}\n")


def test_malformed_partition_is_exit_1(tmp_path, capsys):
    sub = MOD2["members"][0]["subgroup"]
    cases = [
        ({"rank": 2, "members": [5]}, "member 1 must be an object"),
        ({"rank": 2, "members": 5}, "'members' must be a list"),
        ({"rank": True, "members": MOD2["members"]}, "got True"),
        ({"rank": 2, "members": [{"subgroup": dict(sub, rank=True)}]}, "got True"),
        ({"rank": 2, "members": [{"subgroup": sub, "coset_rep": 1}]}, "'coset_rep'"),
        ({"rank": 2, "members": [{"subgroup": {"rank": 2, "generators": "ab"}}]}, "'generators'"),
        ({"rank": 2, "members": [{"subgroup": {"rank": 2, "permutations": 5}}]}, "'permutations'"),
    ]
    bad_subgroups = [
        ({"permutations": [["x", 1], [2, 1]]}, "entries must be integers, got ['x', 1]"),
        ({"permutations": [[2.0, 1], [2, 1]]}, "entries must be integers, got [2.0, 1]"),
        ({"permutations": [[2, 1], [True, 2]]}, "entries must be integers, got [True, 2]"),
        (dict(sub, basepoint="1"), "'basepoint' must be an integer, got '1'"),
        (dict(sub, basepoint=1.0), "'basepoint' must be an integer, got 1.0"),
        (dict(sub, basepoint=True), "'basepoint' must be an integer, got True"),
    ]
    for record, message in bad_subgroups:
        record = {"rank": 2, **record}
        cases.append(({"rank": 2, "members": [{"subgroup": record}]}, message))
    for obj, message in cases:
        rc = main(["analyze", write(tmp_path, "bad.json", obj)])
        assert rc == 1, obj
        assert message in capsys.readouterr().err, obj


def test_bool_rank_subgroup_is_exit_1(tmp_path, capsys):
    rc = main(["subgroup", write(tmp_path, "bad.json", dict(EX1, rank=True))])
    assert rc == 1
    assert "got True" in capsys.readouterr().err


def test_z_file_validation(tmp_path, capsys):
    cases = [
        ({"moduli": [[2]]}, "entry 1 must be a [modulus, residue] pair"),
        ({"moduli": [5]}, "entry 1 must be a [modulus, residue] pair"),
        ({"moduli": 5}, "'moduli' must be a list"),
        ({"moduli": [[2, 0], [2.5, 0]]}, "entry 2 must hold two integers"),
        ({"moduli": [[2, 0], [2, True]]}, "entry 2 must hold two integers"),
        ({"moduli": [["2", 0]]}, "entry 1 must hold two integers"),
    ]
    for obj, message in cases:
        rc = main(["zanalyze", write(tmp_path, "zbad.json", obj)])
        assert rc == 1, obj
        assert message in capsys.readouterr().err, obj


def test_closed_stdout_is_exit_1(tmp_path, capsys, monkeypatch):
    # as when `cosetpart subgroup fold.json | head -5` closes the pipe early
    class ClosedPipe(io.StringIO):
        def write(self, text):
            raise BrokenPipeError(errno.EPIPE, os.strerror(errno.EPIPE))

    monkeypatch.setattr(sys, "stdout", ClosedPipe())
    rc = main(["subgroup", write(tmp_path, "ex1.json", EX1)])
    assert rc == 1
    assert capsys.readouterr().err == f"error: {os.strerror(errno.EPIPE)}\n"


def test_partition_spec_roundtrips_with_moved_basepoints():
    specs = [generate_partition(2, 3, 7), z_lift([(2, 0), (3, 1), (6, 2), (6, 5)])]
    for spec in list(specs):
        moved = []
        for m in spec.members:
            graph = from_permutations(spec.rank, m.graph.action, m.graph.d)
            moved.append(coset(graph, m.rep))
        specs.append(PartitionSpec(spec.rank, tuple(moved)))
    assert any(m.graph.basepoint != 1 for m in specs[-1].members)
    for spec in specs:
        obj = json.loads(json.dumps(formats.partition_spec_to_json(spec)))
        assert formats.parse_partition_file(obj) == spec


SRC = Path(__file__).resolve().parents[1] / "src"


def loaded_modules(code: str) -> set[str]:
    """The modules loaded after code runs in a bare interpreter: -I -S keeps
    the environment and site hooks out, and -B keeps bytecode caches from
    being written into the source tree (-I ignores PYTHONDONTWRITEBYTECODE).
    The site-packages directories stay on the path, without their hooks, so
    an import of an installed package such as networkx still loads it."""
    path = [str(SRC), *site.getsitepackages()]
    script = f"import sys; sys.path[:0] = {path!r}\n{code}\nprint(*sys.modules)"
    out = subprocess.run(
        [sys.executable, "-B", "-I", "-S", "-c", script],
        capture_output=True,
        text=True,
        check=True,
    )
    return set(out.stdout.splitlines()[-1].split())


def imported_by_cli(module: str) -> bool:
    """Whether a fresh interpreter has module loaded after importing the CLI."""
    return module in loaded_modules("import cosetpart.cli")


def test_cli_import_leaves_out_networkx():
    assert not imported_by_cli("networkx")


def test_cli_import_leaves_out_oracle():
    # the brute-force routes load only under --oracle
    assert not imported_by_cli("cosetpart.oracle")


def test_cli_import_leaves_out_dataclasses_and_typing():
    # The records are named tuples, so starting the CLI loads no dataclass
    # machinery (dataclasses pulls in inspect, ast, dis and tokenize) and no
    # typing.  A bare interpreter (-I -S) keeps site hooks from loading them.
    unwanted = {"dataclasses", "inspect", "typing", "cosetpart.oracle"}
    assert not unwanted & loaded_modules("import cosetpart.cli")


def test_package_import_loads_no_module():
    assert not {m for m in loaded_modules("import cosetpart") if m.startswith("cosetpart.")}


def modules_run_by(*argv) -> set[str]:
    """The modules a fresh interpreter loads to run `cosetpart argv...`."""
    code = (
        "import contextlib, io\n"
        "from cosetpart.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert main({list(argv)!r}) == 0"
    )
    return loaded_modules(code)


def cosetpart_modules(*names):
    return {f"cosetpart.{name}" for name in names}


def test_cyclo_loads_neither_oracle_nor_partition():
    # the number class of Q(zeta_h) sits below the residue code that uses it
    modules = loaded_modules("import cosetpart.cyclo")
    assert "cosetpart.cyclo" in modules
    assert not cosetpart_modules("oracle", "partition") & modules


def test_each_command_loads_only_what_it_runs(tmp_path):
    # a periodic rank-2 partition, and a rank-1 partition whose report has
    # residue sums at three periods: the pushforward certificate decides
    # them, so analyze loads no cyclotomic arithmetic
    periodic = generate_partition(2, 3, 7)
    assert [e["period"] for e in partition.analyze(periodic).residue_sums] == [2]
    spec = write(tmp_path, "p.json", formats.partition_spec_to_json(periodic))
    rank1 = generate_partition(1, 3, 2)
    assert sorted({e["period"] for e in partition.analyze(rank1).residue_sums}) == [4, 12, 20]
    assert len(partition.analyze(rank1).residue_sums) == 14
    spec1 = write(tmp_path, "r1.json", formats.partition_spec_to_json(rank1))
    # what importing the CLI must not load, no command may load either; the
    # residue sums on a partition are zero, so their coefficients are ints
    # and no command needs fractions (which loads decimal and numbers)
    never = {"dataclasses", "inspect", "typing", "networkx", "cosetpart.oracle"}
    never |= {"fractions", "decimal", "numbers"}
    handlers = cosetpart_modules("cli_subgroup", "cli_zanalyze", "cli_generate")
    runs = {
        "zanalyze": (
            ["zanalyze", write(tmp_path, "z.json", {"moduli": [[2, 0], [4, 1], [4, 3]]})],
            cosetpart_modules(
                "poly", "cyclo", "ratfunc", "spectral", "partition", "corpus", "folding",
                "zcovering",
            ),
        ),
        "generate": (
            ["generate", "--rank", "2", "--depth", "3", "--seed", "7"],
            cosetpart_modules("poly", "cyclo", "ratfunc", "spectral", "partition", "zcovering"),
        ),
        "subgroup": (
            ["subgroup", write(tmp_path, "fold.json", EX1)],
            cosetpart_modules("partition", "corpus", "cyclo", "zcovering"),
        ),
        # only a subgroup given by generators is folded
        "subgroup by permutations": (
            ["subgroup", write(tmp_path, "perms.json", MOD2["members"][0]["subgroup"])],
            cosetpart_modules("partition", "corpus", "cyclo", "zcovering", "folding"),
        ),
        "analyze": (
            ["analyze", spec],
            cosetpart_modules("corpus", "cyclo", "folding", "zcovering"),
        ),
        "analyze rank 1": (
            ["analyze", spec1],
            cosetpart_modules("corpus", "cyclo", "folding", "zcovering"),
        ),
    }
    for command, (argv, unwanted) in runs.items():
        loaded = modules_run_by(*argv)
        assert "cosetpart.cli" in loaded, command
        # no command loads another command's handler
        own = {f"cosetpart.cli_{argv[0]}"} & handlers
        assert own <= loaded, command
        unwanted |= never | (handlers - own)
        assert not unwanted & loaded, (command, sorted(unwanted & loaded))


def test_analyze_loads_no_cyclo_on_many_coprime_periods(tmp_path):
    # a rank-2 lift of a covering of Z with periods 6, 10, 42, 78, 110 and
    # 170, whose product is M = 510 510: a cyclic family, so the covering
    # certificate decides it and the 146 residue sums, with no cyclotomic
    # arithmetic
    classes = [(6, 4), (10, 5), (10, 7), (10, 9)]
    for p, (d, r) in zip((7, 13, 11, 17), [(6, 0), (6, 2), (10, 1), (10, 3)]):
        classes += [(d * p, r + d * t) for t in range(p)]
    spec = z_lift_to_f2(classes)
    path = write(tmp_path, "coprime.json", formats.partition_spec_to_json(spec))
    assert "cosetpart.cyclo" not in modules_run_by("analyze", path)


def test_lazy_package_names_resolve_to_their_modules():
    import importlib

    import cosetpart

    assert cosetpart._MODULE_OF
    for name, module in cosetpart._MODULE_OF.items():
        defined = getattr(importlib.import_module(f"cosetpart.{module}"), name)
        assert getattr(cosetpart, name) is defined, name
    assert set(cosetpart._MODULE_OF) <= set(dir(cosetpart))
    namespace: dict = {}
    exec("from cosetpart import *", namespace)
    assert set(cosetpart._MODULE_OF) <= set(namespace)
    for submodule in ("covering", "corpus", "partition"):
        assert getattr(cosetpart, submodule) is importlib.import_module(f"cosetpart.{submodule}")


def test_lazy_package_rejects_unknown_names():
    import cosetpart

    for name in ("no_such_name", "_MAX_TRIES", "__wrapped__"):
        with pytest.raises(AttributeError):
            getattr(cosetpart, name)


PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_partition_names_the_benchmark_reads_resolve():
    # perfbench/worker.py reads partition.<name>, and spans.py traces the
    # partition layer's names, skipping any that are missing
    import importlib.util
    import re

    worker_names = set(re.findall(r"\bpartition\.(\w+)", (PERFBENCH / "worker.py").read_text()))
    assert {"IS_PARTITION", "z_verify", "davenport_rado_check", "z_lift"} <= worker_names
    spec = importlib.util.spec_from_file_location("_perfbench_spans", PERFBENCH / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    for name in worker_names | set(spans.LAYERS["partition"]):
        assert hasattr(partition, name), name


def count_calls(monkeypatch, name):
    """Count calls of a partition function, through partition and through
    covering when it is defined there: each command imports the names it
    runs from the module that defines them when it runs."""
    calls = []
    original = getattr(partition, name)

    def counted(*args):
        calls.append(args)
        return original(*args)

    for module in (partition, covering):
        if getattr(module, name, None) is original:
            monkeypatch.setattr(module, name, counted)
    return calls


def test_each_covering_system_searches_for_witnesses_once(tmp_path, monkeypatch):
    # Davenport-Rado is read off theorem 1's report, so zanalyze and
    # davenport_rado_check each run one witness search on the moduli
    searches = []
    original = covering._divisor_witnesses

    def counted(values):
        searches.append(values)
        return original(values)

    monkeypatch.setattr(covering, "_divisor_witnesses", counted)
    classes = [[2, 0], [4, 1], [4, 3]]
    assert main(["zanalyze", write(tmp_path, "z.json", {"moduli": classes})]) == 0
    assert searches == [[2, 4, 4]]
    searches.clear()
    covering.davenport_rado_check(classes)
    assert searches == [[2, 4, 4]]


def test_each_route_verifies_once(tmp_path, monkeypatch):
    verifies = count_calls(monkeypatch, "verify_partition")
    z_verifies = count_calls(monkeypatch, "z_verify")
    spec = generate_partition(2, 3, 1)
    path = write(tmp_path, "p.json", formats.partition_spec_to_json(spec))
    assert main(["analyze", path]) == 0
    assert len(verifies) == 1
    verifies.clear()
    zpath = write(tmp_path, "z.json", {"moduli": [[2, 0], [4, 1], [4, 3]]})
    assert main(["zanalyze", zpath]) == 0
    # the certificate decides; the lifted section is read off the classes
    assert (len(verifies), len(z_verifies)) == (0, 1)
