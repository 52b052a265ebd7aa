from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import capture_cli_golden
from capture_cli_golden import GOLDEN_DIR, check, report
from chromcat import builtin_names, bundled_library, load_builtin, load_group_file
from chromcat.cli import main
from chromcat.groups import GroupError


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_builtin_library_loads():
    names = builtin_names()
    assert "a4" in names and "s6" in names
    a4 = load_builtin("a4")
    assert a4.order == 12 and a4.name == "A4"
    small = bundled_library(max_order=30)
    assert all(g.order <= 30 for _, g in small)
    with pytest.raises(GroupError):
        load_builtin("nope")


def test_a_bare_group_name_finds_its_builtin_and_a_path_does_not(capsys, monkeypatch, tmp_path):
    # a name with a directory part is read as a path only, even where the
    # library holds a file at it (../library/a4 from the library)
    monkeypatch.chdir(tmp_path)
    code, out, _ = run_cli(capsys, "group-info", "-g", "a4")
    assert code == 0 and json.loads(out)["name"] == "A4"
    for name in ("../library/a4", "library/a4", "a4.json", "nope"):
        code, out, err = run_cli(capsys, "group-info", "-g", name)
        assert (code, out) == (2, ""), name
        assert err == "error: group %r is neither a file nor a builtin (builtins: %s)\n" % (
            name, ", ".join(builtin_names())
        )


def test_load_group_file_errors(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(GroupError):
        load_group_file(bad)
    missing_fields = tmp_path / "missing.json"
    missing_fields.write_text('{"degree": 2}')
    with pytest.raises(GroupError):
        load_group_file(missing_fields)


def test_category_dot_output(capsys):
    code, out, _ = run_cli(capsys, "category", "--group", "a4", "-p", "2", "-n", "2", "--format", "dot")
    assert code == 0
    assert 'V0 [label="rank=1 |Aut|=1"]' in out
    assert 'V1 [label="rank=2 |Aut|=3"]' in out
    assert '"3 morphisms, stab=1"' in out


def test_category_json_deterministic(capsys):
    code1, out1, _ = run_cli(capsys, "category", "--group", "a4", "-n", "1")
    code2, out2, _ = run_cli(capsys, "category", "--group", "a4", "-n", "1")
    assert code1 == code2 == 0
    assert out1 == out2
    payload = json.loads(out1)
    auts = sorted(c["aut_order"] for c in payload["skeleton"]["classes"])
    assert auts == [1, 6]


def test_dot_json_agree_on_counts(capsys):
    _, dot, _ = run_cli(capsys, "category", "--group", "a4", "-n", "2", "--format", "dot")
    _, js, _ = run_cli(capsys, "category", "--group", "a4", "-n", "2")
    payload = json.loads(js)["skeleton"]
    assert dot.count("->") == len(
        [e for e in payload["edges"] if e["source"] != e["target"]]
    )
    assert dot.count("label=") - dot.count("->") == len(payload["classes"])


def test_colim_tower(capsys):
    code, out, _ = run_cli(capsys, "colim", "--group", "a4", "-p", "2", "-q", "4", "--tower")
    assert code == 0
    payload = json.loads(out)
    assert [lvl["size"] for lvl in payload["levels"]] == [6, 5]
    assert [lvl["n"] for lvl in payload["levels"]] == [2, 1]


def test_stab_and_elemab(capsys):
    code, out, _ = run_cli(capsys, "stab", "--group", "a4")
    assert code == 0
    assert json.loads(out)["stabilization_rank"] == 2
    code, out, _ = run_cli(capsys, "elemab", "--group", "a4", "-p", "2")
    payload = json.loads(out)
    assert payload["p_rank"] == 2
    assert len(payload["subgroups"]) == 5


def test_cr_command(capsys, tmp_path):
    gens = tmp_path / "chern.json"
    gens.write_text(json.dumps({"name": "chern", "generators": [
        "x^4 + x^2*y^2 + y^4", "x^4*y^2 + x^2*y^4",
    ]}))
    code, out, _ = run_cli(capsys, "cr", "--group", "a4", "--generators", str(gens))
    assert code == 0
    payload = json.loads(out)
    assert payload["equals"]["A^(1)"] is True
    assert payload["equals"]["quillen"] is False


def test_invariants_command(capsys):
    code, out, _ = run_cli(capsys, "invariants", "--group", "a4", "-p", "2", "--max-degree", "3")
    assert code == 0
    payload = json.loads(out)
    assert payload["invariants"]["2"] == ["x^2 + x*y + y^2"]
    assert len(payload["invariants"]["3"]) == 2


def test_witness_command(capsys):
    code, out, _ = run_cli(capsys, "witness", "-p", "2", "-n", "1", "--max-order", "16")
    assert code == 0
    payload = json.loads(out)
    assert payload["found"] == ["A4"]


def test_witness_library_must_be_a_directory(capsys, tmp_path):
    afile = tmp_path / "a4.json"
    afile.write_text(json.dumps({"name": "A4", "degree": 3, "generators": [[1, 2, 0]]}))
    for library in (tmp_path / "no-such-dir", afile):
        code, out, err = run_cli(capsys, "witness", "--library", str(library))
        assert code == 2 and out == "", library
        assert "is not a directory" in err, library
    # an existing directory without group files is an empty scan
    empty = tmp_path / "empty"
    empty.mkdir()
    code, out, _ = run_cli(capsys, "witness", "--library", str(empty))
    assert code == 0
    assert json.loads(out)["checked"] == []


def test_witness_library_names_a_malformed_group_file(capsys, tmp_path):
    # a document that parses but names no group fails the scan with its
    # path, and so does S7 on 7 points (order 5040): the loader refuses it
    # past the order cap, so the scan never reaches its own cap and lists
    # nothing as skipped; a --max-order past the cap could not take effect,
    # so the parser refuses it before any file is read
    good = {"name": "A4", "degree": 3, "generators": [[1, 2, 0]]}
    (tmp_path / "a4.json").write_text(json.dumps(good))
    bad = tmp_path / "bad.json"
    s7 = {"name": "S7", "degree": 7, "generators": [[1, 0, 2, 3, 4, 5, 6], [1, 2, 3, 4, 5, 6, 0]]}
    for doc, extra, message in [
        ({"name": "Bad", "degree": 3, "generators": [[0, 1]]}, (),
         "generator (0, 1) is not a bijection on 0..2"),
        (s7, (), "closure exceeds order cap 2048"),
        (s7, ("--max-order", "2048"), "closure exceeds order cap 2048"),
    ]:
        bad.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, "witness", "--library", str(tmp_path), *extra)
        assert code == 2 and out == ""
        assert str(bad) in err and message in err
    with pytest.raises(SystemExit) as exit_info:
        main(["witness", "--library", str(tmp_path), "--max-order", "10000"])
    assert exit_info.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and str(bad) not in err
    assert "argument --max-order: 10000 exceeds the group order cap 2048" in err
    with pytest.raises(SystemExit) as exit_info:
        main(["witness", "--help"])
    assert exit_info.value.code == 0
    assert "at most the group order cap 2048" in " ".join(capsys.readouterr().out.split())


def test_a4_demo_exit_zero(capsys):
    code, out, _ = run_cli(capsys, "a4-demo")
    assert code == 0
    payload = json.loads(out)
    assert payload["ok"] is True
    assert payload["b1_cube_degree3"] == "s^3 + s^2*t + t^3"
    assert payload["fgl"] == "s + t + s^2*t^2"
    assert payload["two_series"] == "x^4"
    assert payload["mackey_terms"] == ["s^2 * t^1", "t^2 * s+t^1", "s+t^2 * s^1"]
    # ring elements print in ascending term order on w, z
    assert payload["mackey_total"] == "z^3 + w^2*z + w^3"
    assert payload["reduced"] == (
        "[0] + (s^3 + s^2*t + t^3 + s^2*t^4) b1ob1ob1"
        " + (s^4 + s^2*t^2 + t^4) b1ob1ob2"
        " + (s^5 + s*t^4 + t^5 + s^4*t^4 + s^2*t^6) b1ob1ob3"
        " + (s^6 + s^2*t^4 + t^6) b1ob1ob4"
        " + (s^7 + s^4*t^3 + s^2*t^5 + s*t^6 + t^7) b1ob1ob5"
        " + (s^8 + s^4*t^4 + t^8) b1ob1ob6"
        " + (s^5 + s^4*t + t^5 + s^2*t^6) b1ob2ob2"
        " + (s^7 + s^6*t + s^5*t^2 + s^3*t^4 + t^7) b1ob3ob3"
        " + (s^6 + s^4*t^2 + t^6) b2ob2ob2"
        " + (s^7 + s^4*t^3 + s^2*t^5 + s*t^6 + t^7) b2ob2ob3"
        " + (s^8 + s^4*t^4 + t^8) b2ob2ob4"
        " + (s^8 + s^4*t^4 + t^8) b2ob3ob3"
    )


def test_cli_matches_golden():
    # reports kept by capture_cli_golden.py stay byte-identical
    assert check() == []


def test_golden_check_names_what_a_capture_would_change(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(capture_cli_golden, "GOLDEN_DIR", tmp_path)
    monkeypatch.setattr(capture_cli_golden, "cases", lambda: [
        ("c2-group-info.json", ["group-info", "-g", "c2"]),
        ("c3-group-info.json", ["group-info", "-g", "c3"]),
        ("k4-p2-colim-n1.json", ["colim", "-g", "k4", "-q", "2", "-n", "1"]),
    ])
    assert capture_cli_golden.run([]) == 0
    capsys.readouterr()
    assert capture_cli_golden.run(["--check"]) == 0
    assert capsys.readouterr().out == ""
    (tmp_path / "c2-group-info.json").write_text("{}\n")
    (tmp_path / "c3-group-info.json").unlink()
    (tmp_path / "old.json").write_text("{}\n")
    kept = sorted(path.name for path in tmp_path.iterdir())
    texts = [(tmp_path / name).read_text() for name in kept]
    assert capture_cli_golden.run(["--check"]) == 1
    assert capsys.readouterr().out == "c2-group-info.json\nc3-group-info.json\nold.json\n"
    # the check writes nothing
    assert sorted(path.name for path in tmp_path.iterdir()) == kept
    assert [(tmp_path / name).read_text() for name in kept] == texts
    assert capture_cli_golden.run(["--bogus"]) == 2


def test_stretch_golden_has_two_strict_steps():
    # F_3^3 : H, kept by capture_cli_golden.py from tests/golden/groups/, is
    # the one group known here with A^(2) != A^(3)
    stab = json.loads((GOLDEN_DIR / "f33h-p3-stab.json").read_text())
    assert stab["strict"] == {"1": True, "2": True, "3": False}
    assert "F3^3:H" not in [load_builtin(name).name for name in builtin_names()]


def test_one_parser_serves_every_call(capsys, monkeypatch):
    # the parser is built once, on import; a usage error in between leaves
    # no trace in the next report
    import chromcat.cli as cli_mod

    def no_build():
        raise AssertionError("the parser was rebuilt")

    monkeypatch.setattr(cli_mod, "_build_parser", no_build)
    argv = ["invariants", "-g", "a4", "-p", "2", "--max-degree", "8"]
    golden = (GOLDEN_DIR / "a4-p2-invariants-d8.json").read_text()
    assert report(argv) == golden
    with pytest.raises(SystemExit) as exit_info:
        main(["invariants", "-g", "a4", "-p", "4", "--max-degree", "3"])
    assert exit_info.value.code == 2
    assert "is not a prime" in capsys.readouterr().err
    assert report(argv) == golden


def test_usage_errors_name_the_prime_and_level_parsers(capsys):
    # argparse prints a type's __name__; the parsers are named for what
    # they read, never by the private function behind them
    for argv, message in (
        (("category", "-g", "a4", "-p", "x"), "argument -p: invalid prime value: 'x'"),
        (("category", "-g", "a4", "-n", "1.5"), "argument -n: invalid level value: '1.5'"),
    ):
        with pytest.raises(SystemExit) as exit_info:
            main(list(argv))
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert message in err and "_parse" not in err


def test_input_errors_exit_two(capsys, tmp_path, monkeypatch):
    code, _, err = run_cli(capsys, "group-info", "--group", "definitely-not-a-group")
    assert code == 2
    assert "error" in err
    bad = tmp_path / "bad.json"
    bad.write_text('{"name": "X", "degree": 3, "generators": [[0, 0, 1]]}')
    code, _, err = run_cli(capsys, "group-info", "--group", str(bad))
    assert code == 2
    # fields of the wrong type are refused, not read as something else:
    # "degree": true with a degree-1 generator would pass for the trivial group
    for field, doc in (
        ("degree", {"name": "C3", "degree": "3", "generators": [[1, 2, 0]]}),
        ("degree", {"name": "C3", "degree": 3.5, "generators": [[1, 2, 0]]}),
        ("degree", {"name": "C1", "degree": True, "generators": [[0]]}),
        ("generators", {"name": "C3", "degree": 3, "generators": [5]}),
        ("generators", {"name": "C3", "degree": 3, "generators": [[1, 2, 0.0]]}),
        ("name", {"name": 5, "degree": 3, "generators": [[1, 2, 0]]}),
    ):
        bad.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, "group-info", "--group", str(bad))
        assert code == 2 and out == "", doc
        assert field in err, doc
    # unsupported subring precondition reports the module's message
    code, _, err = run_cli(capsys, "cr", "--group", "d8")
    assert code == 2
    assert "Sylow" in err
    # -p must be a prime: argparse rejects the rest with exit status 2
    for argv in (
        ("elemab", "-g", "c4", "-p", "4"),
        ("category", "-g", "d8", "-p", "1"),
        ("category", "-g", "d8", "-p", "0"),
        ("elemab", "-g", "c3", "-p", "9"),
        ("elemab", "-g", "c3", "-p", "2047"),
    ):
        with pytest.raises(SystemExit) as exit_info:
            main(list(argv))
        assert exit_info.value.code == 2
        assert "is not a prime" in capsys.readouterr().err
    # a negative level is refused with its own message
    with pytest.raises(SystemExit) as exit_info:
        main(["category", "-g", "a4", "-n", "-1"])
    assert exit_info.value.code == 2
    assert "level must be >= 0" in capsys.readouterr().err
    # inf is the one spelling of the Quillen level
    for level in ("oo", "quillen"):
        with pytest.raises(SystemExit) as exit_info:
            main(["colim", "-g", "a4", "-q", "4", "-n", level])
        assert exit_info.value.code == 2
        assert "invalid" in capsys.readouterr().err
    # a prime above the group order cap is refused without a primality test
    with pytest.raises(SystemExit) as exit_info:
        main(["elemab", "-g", "c4", "-p", "1000000000000000003"])
    assert exit_info.value.code == 2
    assert "exceeds the group order cap 2048" in capsys.readouterr().err
    # --format exists only where a second renderer does: category's DOT
    with pytest.raises(SystemExit) as exit_info:
        main(["category", "-g", "a4", "--format", "text"])
    assert exit_info.value.code == 2
    assert "invalid choice: 'text'" in capsys.readouterr().err
    for argv in (
        ("colim", "-g", "a4", "-q", "4"),
        ("stab", "-g", "a4"),
        ("group-info", "-g", "a4"),
        ("elemab", "-g", "a4"),
        ("invariants", "-g", "a4"),
        ("witness",),
        ("cr", "-g", "a4"),
        ("a4-demo",),
    ):
        with pytest.raises(SystemExit) as exit_info:
            main([*argv, "--format", "json"])
        assert exit_info.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
    # a tower has every level, so -n is refused beside --tower
    with pytest.raises(SystemExit) as exit_info:
        main(["colim", "-g", "a4", "-q", "4", "--tower", "-n", "1"])
    assert exit_info.value.code == 2
    assert "not allowed with argument" in capsys.readouterr().err
    # a negative degree bound
    with pytest.raises(SystemExit) as exit_info:
        main(["invariants", "-g", "a4", "--max-degree", "-1"])
    assert exit_info.value.code == 2
    assert "degree must be >= 0" in capsys.readouterr().err
    # a generator file without the "generators" key
    nokey = tmp_path / "nokey.json"
    nokey.write_text(json.dumps({"name": "chern"}))
    code, out, err = run_cli(capsys, "cr", "--group", "a4", "--generators", str(nokey))
    assert code == 2
    assert out == "" and "generators" in err
    # a subring name that is not a string would be printed as it stands
    named = tmp_path / "named.json"
    for name in (5, None, ["a"]):
        named.write_text(json.dumps({"name": name, "generators": []}))
        code, out, err = run_cli(capsys, "cr", "--group", "a4", "--generators", str(named))
        assert code == 2 and out == "", name
        assert "name" in err, name
    # q must be a power of p, at least p, and within the colimit work bound;
    # c3 at p=2 has only the trivial subgroup, so only the q^2 table term
    # stops it
    for argv, message in (
        (("colim", "-g", "a4", "-q", "6"), "6 is not a power of 2"),
        (("colim", "-g", "a4", "-p", "2", "-q", "9"), "9 is not a power of 2"),
        (("colim", "-g", "a4", "-q", "1"), "field size must be at least p"),
        (("colim", "-g", "e8", "-q", "1024"), "past the work bound 1048576"),
        (("colim", "-g", "c3", "-p", "2", "-q", "1099511627776"),
         "past the work bound 1048576"),
    ):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == "", argv
        assert message in err, argv
    # a bad q is refused before any category of the group is built
    import chromcat.cli as cli_mod
    import chromcat.colimits as colimits_mod

    def no_build(*args, **kwargs):
        raise AssertionError("a category was built before q was checked")

    with monkeypatch.context() as patch:
        for module, name in (
            (cli_mod, "Fusion"),
            (cli_mod, "build_category"),
            (colimits_mod, "Fusion"),
        ):
            patch.setattr(module, name, no_build)
        for argv, message in (
            (("colim", "-g", "s6", "-q", "6"), "6 is not a power of 2"),
            (("colim", "-g", "s6", "-q", "4096"), "past the work bound 1048576"),
            (("colim", "-g", "s6", "-q", "6", "--tower"), "6 is not a power of 2"),
        ):
            code, out, err = run_cli(capsys, *argv)
            assert code == 2 and out == "", argv
            assert message in err, argv
    # a negative witness level is refused before the library is loaded
    def no_load(*args, **kwargs):
        raise AssertionError("the library was loaded before -n was checked")

    with monkeypatch.context() as patch:
        patch.setattr(cli_mod, "bundled_library", no_load)
        with pytest.raises(SystemExit) as exit_info:
            main(["witness", "-p", "2", "-n", "-1"])
        assert exit_info.value.code == 2
        assert "level must be >= 0" in capsys.readouterr().err
    # a library scan needs room for at least the trivial group
    for bound in ("0", "-1"):
        with pytest.raises(SystemExit) as exit_info:
            main(["witness", "--max-order", bound])
        assert exit_info.value.code == 2
        assert "max order must be >= 1" in capsys.readouterr().err


def test_group_info_reports_every_prime(capsys, tmp_path):
    # C11 and D11 as permutations of 11 points: a rotation and a reflection
    rotation = [(i + 1) % 11 for i in range(11)]
    reflection = [(-i) % 11 for i in range(11)]
    for name, generators, p_ranks in (
        ("C11", [rotation], {"11": 1}),
        ("D11", [rotation, reflection], {"11": 1, "2": 1}),
    ):
        path = tmp_path / (name + ".json")
        path.write_text(
            json.dumps({"name": name, "degree": 11, "generators": generators})
        )
        code, out, _ = run_cli(capsys, "group-info", "--group", str(path))
        assert code == 0
        assert json.loads(out)["p_ranks"] == p_ranks


def test_python_dash_m_runs_the_cli():
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}

    def run(*argv):
        return subprocess.run(
            [sys.executable, "-m", "chromcat", *argv],
            env=env, capture_output=True, text=True, timeout=60,
        )

    done = run("stab", "-g", "a4")
    assert done.returncode == 0
    assert done.stdout == (GOLDEN_DIR / "a4-p2-stab.json").read_text()
    done = run("stab", "-g", "a4", "-p", "4")
    assert done.returncode == 2 and done.stdout == ""
    assert "is not a prime" in done.stderr


def test_internal_value_error_is_not_a_usage_error(capsys, monkeypatch):
    import chromcat.cli as cli_mod

    def broken():
        raise ValueError("polynomial domains do not match")

    monkeypatch.setattr(cli_mod, "a4_demo", broken)
    with pytest.raises(ValueError, match="domains do not match"):
        main(["a4-demo"])


def test_output_file(capsys, tmp_path):
    target = tmp_path / "report.json"
    code, out, _ = run_cli(capsys, "stab", "--group", "a4", "-o", str(target))
    assert code == 0
    assert out == ""
    assert json.loads(target.read_text())["p_rank"] == 2


def test_colim_single_level(capsys):
    code, out, _ = run_cli(capsys, "colim", "--group", "a4", "-p", "2", "-q", "4", "-n", "1")
    assert code == 0
    payload = json.loads(out)
    assert payload["size"] == 5
    assert payload["components"] == 1
    code, out, _ = run_cli(capsys, "colim", "--group", "d8", "-p", "2", "-q", "2", "-n", "inf")
    assert json.loads(out)["components"] == 2


def test_demo_failure_exits_one(capsys, monkeypatch):
    import chromcat.cli as cli_mod
    from chromcat.demo import DemoFailure

    def boom():
        raise DemoFailure("synthetic failure")

    monkeypatch.setattr(cli_mod, "a4_demo", boom)
    code, out, _ = run_cli(capsys, "a4-demo")
    assert code == 1
    assert json.loads(out)["ok"] is False
