"""End-to-end runs of the command-line front end."""

import dataclasses
import json
import subprocess
import sys

from quarticfibres import cli

CMD = [sys.executable, "-m", "quarticfibres.cli"]


def run(*args):
    return subprocess.run(CMD + list(args), capture_output=True, text=True)


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
    no_ext = run("fibre", "classify", "--fibration", "pi4",
                 "--params", "1,0,0", "--max-ext", "0")
    assert no_ext.returncode == 1
    assert no_ext.stdout.startswith("error: ConstraintViolation")
    for field in (["--field-m", "0"],
                  ["--field-m", "2", "--field-poly", "u^2+1"]):
        bad_field = run("family", "--tag", "IV", *field)
        assert bad_field.returncode == 1
        assert bad_field.stdout.startswith("error: FieldError: ")


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
