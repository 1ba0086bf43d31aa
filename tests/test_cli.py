"""End-to-end runs of the command-line front end."""

import dataclasses
import json
import os
import resource
import subprocess
import sys
from pathlib import Path

from quarticfibres import cli

CMD = [sys.executable, "-m", "quarticfibres.cli"]
SRC = str(Path(cli.__file__).resolve().parents[1])


def run(*args, cmd=CMD, **kwargs):
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ,
               PYTHONPATH=SRC + (os.pathsep + path if path else ""))
    return subprocess.run(cmd + list(args), capture_output=True, text=True,
                          env=env, **kwargs)


def test_family_json_report():
    r = run("family", "--tag", "III", "--a", "t", "--b", "1", "--c", "1",
            "--d", "0", "--json")
    assert r.returncode == 0
    rec = json.loads(r.stdout)
    assert set(rec) == {"command", "inputs", "results", "checks"}
    assert rec["command"] == "family"
    assert rec["results"]["invariant"] == "1"
    assert rec["results"]["singular_point"] == "(1 : t^(1/4) : t^(1/2))"
    assert all(c["pass"] for c in rec["checks"])
    assert {"name", "anchor", "pass"} <= set(rec["checks"][0])


def test_iso_example():
    r = run("iso", "--tag", "IV", "--params", "0,t,0",
            "--witness", "0,1,1,0", "--verify", "--json")
    assert r.returncode == 0
    rec = json.loads(r.stdout)
    assert rec["results"]["target"] == {"a": "1", "b": "t", "c": "0"}
    assert rec["results"]["scale"] == "1"
    assert all(c["pass"] for c in rec["checks"])


def test_resolve_counts():
    r = run("resolve", "--pencil", "quartic", "--json")
    rec = json.loads(r.stdout)
    assert r.returncode == 0
    assert rec["results"]["blowup_counts"] == {"(1:0:0)": 4, "(0:0:1)": 12}
    assert rec["results"]["fibre_divisors"]["(1:0)"] == \
        [["W", 1], ["E1", 2], ["E2", 2], ["E3", 1]]
    r2 = run("resolve", "--pencil", "cubic", "--json")
    rec2 = json.loads(r2.stdout)
    assert rec2["results"]["blowup_counts"] == {"(1:0:0)": 2, "(0:1:0)": 7}
    assert rec2["results"]["dynkin"]["(0:1) fibre"] == "E7~"
    assert all(c["pass"] for c in rec2["checks"])


def test_resolve_checks_are_measured(monkeypatch, capsys):
    # a resolution missing a blow-up, or a covering check missing an
    # identity, fails its check rather than printing a fixed PASS
    resolve = cli.resolve_pencil

    def one_blowup_short(spec):
        report = resolve(spec)
        return dataclasses.replace(report, nodes=report.nodes[:-1])
    monkeypatch.setattr(cli, "resolve_pencil", one_blowup_short)
    assert cli.main(["resolve", "--pencil", "quartic"]) == 1
    assert "FAIL multiplicity certificate" in capsys.readouterr().out
    monkeypatch.setattr(cli, "resolve_pencil", resolve)
    cover = cli.covering_check
    monkeypatch.setattr(cli, "covering_check", lambda: {
        k: v for k, v in cover().items() if k != "member-1"})
    assert cli.main(["resolve", "--pencil", "cubic"]) == 1
    out = capsys.readouterr().out
    assert "PASS multiplicity certificate" in out
    assert "FAIL inseparable covering identities" in out


def test_fibre_classify():
    r = run("fibre", "classify", "--fibration", "pi4", "--params", "0,0,0",
            "--field-m", "1", "--json")
    rec = json.loads(r.stdout)
    cls = rec["results"]["class"]
    assert cls["kind"] == "IntegralQuartic"
    assert cls["multiplicity"] == 3 and cls["delta"] == 3
    assert cls["tangent"]["kind"] == "Hyperflex4"
    assert rec["results"]["strange"] is True


def test_scan_tables():
    r = run("scan", "--fibration", "pi4", "--field-m", "1", "--json")
    counts = json.loads(r.stdout)["results"]["counts"]
    assert counts == {"IntegralQuartic mult 2": 4, "IntegralQuartic mult 3": 4}
    r2 = run("scan", "--fibration", "pi5", "--field-m", "1",
             "--fix", "d=0", "--json")
    rec2 = json.loads(r2.stdout)
    assert rec2["results"]["counts"] == {"DoubleConic": 8}
    assert rec2["results"]["scanned"] == 8
    r3 = run("scan", "--fibration", "pi4", "--limit", "0", "--json")
    rec3 = json.loads(r3.stdout)
    assert rec3["results"]["scanned"] == 0
    assert rec3["results"]["counts"] == {}
    # a pencil's grid point (0, 0) is no member and is not scanned
    r4 = run("scan", "--fibration", "pencil-quartic", "--field-m", "1")
    assert r4.returncode == 0
    assert r4.stdout == ("scanned 3 fibres\n"
                         "    1  IntegralQuartic mult 2\n"
                         "    1  IntegralQuartic mult 3\n"
                         "    1  LinePlusTripleLine\n")
    r5 = run("scan", "--fibration", "pencil-quartic", "--field-m", "2",
             "--json")
    assert json.loads(r5.stdout)["results"]["scanned"] == 15
    # the cubic pencil has no quartic fibres to classify: not a fibration
    r6 = run("scan", "--fibration", "pencil-cubic", "--json")
    assert r6.returncode == 2 and r6.stdout == ""
    assert "invalid choice: 'pencil-cubic'" in r6.stderr


def test_scan_tables_over_gf4_and_gf8():
    # whole grids over m = 2 and 3, pinned: every cascade branch shows up
    want = {
        ("pi3", "2"): ("scanned 256 fibres\n"
                       "   64  ConicPlusDoubleLine\n"
                       "   96  IntegralQuartic mult 2\n"
                       "   48  IntegralQuartic mult 3\n"
                       "   48  Other\n"),
        ("pi4", "2"): ("scanned 64 fibres\n"
                       "   48  IntegralQuartic mult 2\n"
                       "   16  IntegralQuartic mult 3\n"),
        ("pi5", "2"): ("scanned 256 fibres\n"
                       "   64  DoubleConic\n"
                       "   72  IntegralQuartic mult 2\n"
                       "   36  IntegralQuartic mult 3\n"
                       "   84  Other\n"),
        ("pi4", "3"): ("scanned 512 fibres\n"
                       "  448  IntegralQuartic mult 2\n"
                       "   64  IntegralQuartic mult 3\n"),
    }
    for (fibration, m), table in want.items():
        r = run("scan", "--fibration", fibration, "--field-m", m)
        assert r.returncode == 0
        assert r.stdout == table


def test_tower_breve():
    r = run("tower", "--kind", "A",
            "--consts", "c0=1,c1=1,A2=t,B0=0,B1=1", "--model", "--breve")
    assert r.returncode == 0
    assert "PASS breve relation agrees with elimination" in r.stdout
    assert "model III" in r.stdout


def test_stdout_is_deterministic():
    a = run("scan", "--fibration", "pi3", "--field-m", "1", "--json")
    b = run("scan", "--fibration", "pi3", "--field-m", "1", "--json")
    assert a.stdout == b.stdout
    c = run("resolve", "--pencil", "quartic")
    d = run("resolve", "--pencil", "quartic")
    assert c.stdout == d.stdout
    # timings only ever land on stderr
    assert "s]" not in c.stdout


def test_exit_codes_and_error_record():
    assert run("nonsense").returncode == 2
    assert run("fibre").returncode == 2  # missing required flags
    bad = run("family", "--tag", "III", "--a", "1", "--b", "1", "--c", "1")
    assert bad.returncode == 1
    assert bad.stdout.startswith("error: ConstraintViolation")
    bad_json = run("family", "--tag", "III", "--a", "1", "--b", "1",
                   "--c", "1", "--json")
    rec = json.loads(bad_json.stdout)
    assert rec["error"]["type"] == "ConstraintViolation"
    assert bad_json.returncode == 1
    # a flag the subcommand does not read is a usage error
    assert run("fibre", "classify", "--fibration", "pi4", "--params",
               "1,0,0", "--max-ext", "2").returncode == 2
    assert run("resolve", "--pencil", "quartic",
               "--field-m", "2").returncode == 2
    # a search beyond the scan cap is an error, never a "smooth" answer
    capped = ["scan", "--fibration", "pi4", "--field-m", "9", "--limit", "5"]
    r = run(*capped)
    assert r.returncode == 1
    assert r.stdout.startswith("error: SearchCapped: ")
    rec = json.loads(run(*capped, "--json").stdout)
    assert rec["error"]["type"] == "SearchCapped"
    for field in (["--field-m", "0"],
                  ["--field-m", "2", "--field-poly", "u^2+1"]):
        bad_field = run("family", "--tag", "IV", *field)
        assert bad_field.returncode == 1
        assert bad_field.stdout.startswith("error: FieldError: ")
    # a modulus term that is not 1, u or u^k (k >= 0) is an input error
    for poly in ("u^x+1", "u^-1+1"):
        field = ["--field-m", "4", "--field-poly", poly]
        bad_poly = run("family", "--tag", "III", "--a", "t", "--b", "1",
                       "--c", "1", *field)
        assert bad_poly.returncode == 1
        assert bad_poly.stdout.startswith("error: QuarticError: ")
        rec = json.loads(run("family", "--tag", "III", "--a", "t", "--b", "1",
                             "--c", "1", *field, "--json").stdout)
        assert rec["error"]["type"] == "QuarticError"
    # a term above --field-m is refused before the polynomial is built
    huge = ["family", "--tag", "IV", "--b", "t", "--field-m", "4",
            "--field-poly", "u^100000000+u+1"]
    r = run(*huge)
    assert r.returncode == 1
    assert r.stdout.startswith("error: QuarticError: ")
    assert r.stdout.count("\n") == 1 and len(r.stdout) < 200
    r = run(*huge, "--json")
    assert r.returncode == 1
    assert json.loads(r.stdout)["error"]["type"] == "QuarticError"
    assert len(r.stdout) < 200


def test_field_degree_above_16_is_an_error_record():
    # refused before an exp/log table of 2^m entries is built
    r = run("family", "--tag", "IV", "--b", "t", "--field-m", "24")
    assert r.returncode == 1
    assert r.stdout.startswith("error: FieldError: ")
    r = run("family", "--tag", "IV", "--b", "t", "--field-m", "24", "--json")
    assert r.returncode == 1
    assert json.loads(r.stdout)["error"]["type"] == "FieldError"
    r = run("family", "--tag", "IV", "--b", "t", "--field-m", "16")
    assert r.returncode == 0
    assert "PASS strange quartic" in r.stdout


def _limit_memory():
    limit = 768 << 20
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))


def test_huge_powers_are_parse_errors():
    # refused at the "^" before the power is built; the child's address
    # space is limited, so that a regression fails instead of filling the
    # memory
    for params, pos in ((["--b", "t^1000000000001"], 1),
                        (["--b", "t", "--a", "(t+1)^1000000000"], 5)):
        r = run("family", "--tag", "IV", *params, preexec_fn=_limit_memory)
        assert r.returncode == 1
        assert r.stdout.startswith("error: ParseError: ")
        assert f"(at position {pos})" in r.stdout
        r = run("family", "--tag", "IV", *params, "--json",
                preexec_fn=_limit_memory)
        assert json.loads(r.stdout)["error"]["type"] == "ParseError"


def test_runs_without_numpy():
    # the package imports only the standard library: with numpy made
    # unimportable, the reports are the same
    no_numpy = [sys.executable, "-c",
                "import sys; sys.modules['numpy'] = None;"
                " from quarticfibres.cli import main; sys.exit(main())"]
    for args in (["fibre", "classify", "--fibration", "pi4",
                  "--params", "3,5,7", "--field-m", "6"],
                 ["scan", "--fibration", "pi3", "--field-m", "2"]):
        want = run(*args)
        got = run(*args, cmd=no_numpy)
        assert want.returncode == got.returncode == 0, got.stderr
        assert got.stdout == want.stdout


def test_output_files(tmp_path):
    target = tmp_path / "report.json"
    r = run("resolve", "--pencil", "quartic", "--json", str(target))
    assert r.returncode == 0
    on_disk = json.loads(target.read_text())
    assert on_disk == json.loads(r.stdout)
    text_target = tmp_path / "report.txt"
    r2 = run("family", "--tag", "IV", "--b", "t", "--out", str(text_target))
    assert text_target.read_text() == r2.stdout


def test_field_poly_flag():
    # same field, displayed modulus follows the request
    r = run("family", "--tag", "IV", "--b", "g*t", "--field-m", "4",
            "--field-poly", "u^4+u^3+1", "--json")
    rec = json.loads(r.stdout)
    assert r.returncode == 0
    assert rec["inputs"]["field"]["modulus"] == "u^4+u^3+1"
    # the fibre is scanned and blown up in that same copy of GF(16)
    f = run("fibre", "classify", "--fibration", "pi4", "--params", "3,5,7",
            "--field-m", "4", "--field-poly", "u^4+u^3+1")
    assert f.returncode == 0
    assert "multiplicity 2 delta 3" in f.stdout
    assert "PASS singular point at the closed-form location" in f.stdout
