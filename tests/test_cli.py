import json
import os
import subprocess
import sys
from pathlib import Path

from cosetpart import formats, partition
from cosetpart.cli import main
from cosetpart.partition import PartitionSpec, generate_partition
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
    rc = main(["subgroup", write(tmp_path, "inf.json", {"rank": 2, "generators": ["a"]})])
    assert rc == 2
    assert "infinite index" in capsys.readouterr().err


def test_malformed_word_is_exit_1(tmp_path, capsys):
    rc = main(["subgroup", write(tmp_path, "bad.json", {"rank": 2, "generators": ["aZ9"]})])
    assert rc == 1
    assert "position" in capsys.readouterr().err


def test_subgroup_oracle_flag(tmp_path):
    rc = main(["subgroup", write(tmp_path, "ex1.json", EX1), "--oracle"])
    assert rc == 0


def test_analyze_partition(tmp_path):
    out = tmp_path / "report.json"
    rc = main(
        [
            "analyze",
            write(tmp_path, "mod2.json", MOD2),
            "--oracle",
            "--numeric-residues",
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
    assert report["numeric_residues"][0]["within_tolerance"] is True
    # report echoes its input, and the echo re-parses to the same spec
    spec = formats.parse_partition_file(report["input"])
    k = from_permutations(2, [(2, 1), (2, 1)])
    assert spec == PartitionSpec(2, (subgroup_coset(k), coset(k, (1,))))


def test_analyze_overlap_is_exit_2(tmp_path, capsys):
    bad = {"rank": 2, "members": [MOD2["members"][0], MOD2["members"][0]]}
    rc = main(["analyze", write(tmp_path, "dup.json", bad)])
    assert rc == 2
    assert "NOT A PARTITION" in capsys.readouterr().err


def test_theorem_failure_is_exit_3(tmp_path, monkeypatch):
    # the theorems hold on genuine partitions, so exit 3 is exercised by
    # stubbing the analysis outcome
    import cosetpart.cli as cli_mod

    real = cli_mod.analyze

    def fake_analyze(spec, **kwargs):
        report = real(spec, **kwargs)
        object.__setattr__(report, "theorem1", dict(report.theorem1, all_pass=False))
        return report

    monkeypatch.setattr(cli_mod, "analyze", fake_analyze)
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


def test_zanalyze_gap_is_exit_2(tmp_path):
    rc = main(["zanalyze", write(tmp_path, "zgap.json", {"moduli": [[2, 0], [4, 1]]})])
    assert rc == 2


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


def test_bad_json_reports_line_and_column(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text('{"rank": 2,\n "members": [}')
    rc = main(["analyze", str(path)])
    assert rc == 1
    err = capsys.readouterr().err
    assert "line 2" in err and "column" in err


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


def test_serialized_values_roundtrip():
    from fractions import Fraction

    from cosetpart.cyclo import CycloNumber
    from cosetpart.ratfunc import rational

    f = rational([0, 2], [1, 0, 0, 0, -16])
    assert formats.ratfunc_from_json(formats.ratfunc_to_json(f)) == f
    x = CycloNumber(4, [Fraction(1, 4), Fraction(-3, 2)])
    assert formats.cyclo_from_json(formats.cyclo_to_json(x)) == x


def test_cli_import_leaves_out_networkx():
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    code = "import sys, cosetpart.cli; print('networkx' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
    )
    assert out.stdout.strip() == "False"


def count_calls(monkeypatch, name):
    """Count calls of a partition function, whether made through the module
    or through the name the CLI imported."""
    from cosetpart import cli

    calls = []
    original = getattr(partition, name)

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(partition, name, counted)
    monkeypatch.setattr(cli, name, counted)
    return calls


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
    assert (len(verifies), len(z_verifies)) == (1, 1)
