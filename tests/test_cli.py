import hashlib
import json
import os
import subprocess
import sys
import time

import pytest

import ncindiv
from ncindiv.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_count(capsys):
    assert run(capsys, "count", "--k", "2", "--n", "3") == (0, "30\n")
    assert run(capsys, "count", "--k", "3", "--n", "4") == (0, "340\n")
    assert run(capsys, "count", "--k", "2", "--n", "3", "--m", "2") == (0, "136\n")
    assert run(capsys, "count", "--k", "2", "--n", "3", "--rank", "1") == (0, "14\n")
    assert run(capsys, "count", "--k", "2", "--n", "3", "--jumps", "1,1,1") == (0, "49\n")


def test_chains_zeta_mobius(capsys):
    assert run(capsys, "chains", "--k", "2", "--n", "3") == (0, "49\n")
    assert run(capsys, "zeta", "--k", "2", "--n", "3", "--q", "2") == (0, "136\n")
    assert run(capsys, "mobius", "--k", "2", "--n", "3") == (0, "-22\n")
    code, out = run(capsys, "mobius", "--k", "2", "--n", "3", "--m", "2", "--format", "json")
    assert code == 0
    assert json.loads(out) == {"bottom_adjoined": 22, "minima_merged": -92}


def test_enumerate(capsys):
    code, out = run(capsys, "enumerate", "--k", "2", "--n", "3")
    assert code == 0
    lines = out.strip().split("\n")
    assert len(lines) == 30 and lines[0] == "()"
    code, out = run(capsys, "enumerate", "--k", "2", "--n", "3", "--rank", "3")
    assert out.strip() == "(1 2 3 4 5 6 7)"
    code, out = run(capsys, "enumerate", "--k", "2", "--n", "1", "--format", "json")
    assert [r["cycles"] for r in json.loads(out)] == [[], [[1, 2, 3]]]


def test_deterministic_output(capsys):
    first = run(capsys, "enumerate", "--k", "2", "--n", "3", "--format", "json")
    second = run(capsys, "enumerate", "--k", "2", "--n", "3", "--format", "json")
    assert first == second


def test_poset_exports(capsys):
    code, out = run(capsys, "poset", "--k", "2", "--n", "3", "--format", "dot")
    assert code == 0 and out.startswith("digraph nc_poset {")
    code, out = run(capsys, "poset", "--k", "2", "--n", "3", "--format", "csv")
    assert out.splitlines()[0] == "rank,count"
    code, out = run(capsys, "poset", "--k", "2", "--n", "3")
    assert "elements 30" in out and "rank census 0:1, 1:14, 2:14, 3:1" in out


def test_mdiv_and_cambrian(capsys):
    code, out = run(capsys, "mdiv", "--k", "2", "--n", "2", "--m", "2")
    assert code == 0 and "elements 18" in out
    code, out = run(capsys, "cambrian", "--k", "1", "--n", "3")
    assert "dissections 12" in out and "lattice True" in out
    code, out = run(capsys, "cambrian", "--k", "1", "--n", "3", "--format", "dot")
    assert out.startswith("digraph cambrian {")


def test_hurwitz_report(capsys):
    code, out = run(capsys, "hurwitz", "--k", "2", "--n", "3", "--format", "json")
    record = json.loads(out)
    assert record["orbit_size"] == 49 and record["transitive"]
    assert record["start"] == "(1 2 3)|(3 4 5)|(5 6 7)"


def test_bijection_and_nonnesting(capsys):
    code, out = run(capsys, "bijection", "--k", "2", "--n", "3", "--format", "json")
    rows = json.loads(out)
    assert len(rows) == 30 and len({r["path"] for r in rows}) == 30
    code, out = run(capsys, "nonnesting", "--k", "2", "--n", "2")
    assert len(out.strip().split("\n")) == 7


def test_typeb_subcommand(capsys):
    code, out = run(capsys, "typeb-orbit", "--k", "2", "--n", "2", "--format", "json")
    assert code == 0
    record = json.loads(out)
    assert {c["name"] for c in record} >= {"hurwitz orbit size", "prefix census"}
    assert all(c["status"] in ("PASS", "OPEN") for c in record)


def test_verify_subcommand(capsys):
    code, out = run(capsys, "verify", "--max-n", "2", "--max-k", "2", "--format", "json")
    assert code == 0
    report = json.loads(out)
    assert report["failed"] == 0 and report["passed"] > 0


def test_out_flag(tmp_path, capsys):
    target = tmp_path / "count.txt"
    code = main(["count", "--k", "2", "--n", "3", "--out", str(target)])
    assert code == 0
    assert target.read_text() == "30\n"
    assert capsys.readouterr().out == ""


def test_usage_errors(capsys):
    with pytest.raises(SystemExit) as err:
        main(["count", "--k", "2"])  # missing --n
    assert err.value.code == 2
    with pytest.raises(SystemExit) as err:
        main(["no-such-command"])
    assert err.value.code == 2
    assert main(["count", "--k", "0", "--n", "3"]) == 2  # invalid parameters


def test_oversize_refusal(capsys):
    code = main(["enumerate", "--k", "2", "--n", "9"])  # N = 19 > 13
    assert code == 2
    assert "refusing" in capsys.readouterr().err


def test_unwritable_out_is_a_refusal(tmp_path, capsys):
    target = tmp_path / "missing" / "f"
    code = main(["count", "--k", "1", "--n", "3", "--out", str(target)])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert "Traceback" not in captured.err


def test_hurwitz_refuses_before_allocating(capsys):
    started = time.perf_counter()
    code = main(["hurwitz", "--k", "2", "--n", "6", "--max-states", "10"])
    elapsed = time.perf_counter() - started
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert "Traceback" not in captured.err
    assert "371293" in captured.err  # refused on the closed-form orbit size
    assert elapsed < 1.0


def test_cambrian_refuses_before_allocating(capsys):
    started = time.perf_counter()
    code = main(["cambrian", "--k", "1", "--n", "7"])
    elapsed = time.perf_counter() - started
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert "Traceback" not in captured.err
    assert "262144" in captured.err  # refused on the closed-form chain count
    assert elapsed < 1.0


def test_cli_import_leaves_numpy_unloaded():
    src = os.path.dirname(os.path.dirname(os.path.abspath(ncindiv.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    probe = "import sys, ncindiv.cli; print('numpy' in sys.modules)"
    result = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == "False\n"


# SHA-256 of exports whose bytes must not change: element order, labels
# and cover order all show in them
PINNED_STDOUT = {
    ("mdiv", "--k", "1", "--n", "4", "--m", "3", "--format", "dot"):
        "b38c77c491f4ada63ac1b39cfcda704f764de1dd4767087feab179c712cfc8b9",
    ("mdiv", "--k", "2", "--n", "3", "--m", "3", "--format", "json"):
        "9a1222705f283c975cf132dcd25c70ccd4c48ce961215882e1f35d71f52e5199",
    ("cambrian", "--k", "1", "--n", "5", "--format", "dot"):
        "9fa49bf748ee9a9000924f2f22029e80b6db1ef56893c6c3f303f51cb713da80",
    ("poset", "--k", "2", "--n", "3", "--format", "dot"):
        "62a7faf5d32a3203340c358d2fd14a01be770257ceebcfdab020fe6cbf6a93e0",
    ("nonnesting", "--k", "2", "--n", "4", "--format", "json"):
        "f9238a3a5a8d1691d7a988b7799fc374dac0056fc2a84547b0e8e30348ecb56d",
    ("cambrian", "--k", "2", "--n", "3", "--format", "json"):
        "7682cb301db21fe71a4001d033d9def5adbc42faedf99bc7a05a222bb698d392",
}


@pytest.mark.parametrize("argv", sorted(PINNED_STDOUT))
def test_pinned_stdout(capsys, argv):
    code, out = run(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == PINNED_STDOUT[argv]
