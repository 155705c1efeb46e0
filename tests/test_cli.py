import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import time
from datetime import timedelta

import pytest
from hypothesis import assume, given, settings, strategies as st

import ncindiv
from ncindiv import bijections, cli, verify
from ncindiv.cli import main
from ncindiv.counting import nc_cardinality


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
    assert run(capsys, "mobius", "--k", "2", "--n", "3", "--m", "2") == (
        0,
        "bottom adjoined 22\nminima merged -92\n",
    )


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
    report = json.loads(out)
    assert {c["claim"] for c in report["checks"]} >= {
        "type B hurwitz orbit size [k=2,n=2]",
        "type B prefix census [k=2,n=2]",
    }
    assert all(c["status"] in ("PASS", "OPEN") for c in report["checks"])
    assert report["total"] == 4 and report["failed"] == 0


@pytest.mark.parametrize(
    "k, n", [(k, n) for k in range(1, 5) for n in range(1, 5) if k * n <= 4]
)
def test_typeb_orbit_prints_the_lines_of_verify(capsys, k, n):
    code, out = run(capsys, "typeb-orbit", "--k", str(k), "--n", str(n))
    assert code == 0
    *lines, total = out.splitlines()
    assert total.startswith("total 4: ")
    code, out = run(capsys, "verify", "--max-n", str(n), "--max-k", str(k))
    assert code == 0
    tag = f" [k={k},n={n}]: "
    assert lines == [
        line for line in out.splitlines() if " type B " in line and tag in line
    ]
    assert len(lines) == 4


@pytest.mark.parametrize(
    "argv",
    [
        ("count", "--k", "1", "--n", "20000"),
        ("chains", "--k", "1", "--n", "5000"),
        ("zeta", "--k", "1", "--n", "20000", "--q", "3"),
        ("mobius", "--k", "1", "--n", "20000", "--m", "2", "--format", "json"),
    ],
)
def test_a_result_too_long_to_print_is_a_refusal(capsys, argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == (
        f"error: the result has more than {sys.get_int_max_str_digits()} digits, "
        "the limit sys.get_int_max_str_digits() sets on printing an integer\n"
    )


def test_a_long_result_within_the_limit_prints(capsys):
    code, out = run(capsys, "count", "--k", "1", "--n", "5000")
    assert code == 0
    assert int(out) == nc_cardinality(5000, 1)
    assert len(out) == 3006 + 1  # digits and newline, below the default 4,300


def test_verify_subcommand(capsys):
    code, out = run(capsys, "verify", "--max-n", "2", "--max-k", "2", "--format", "json")
    assert code == 0
    report = json.loads(out)
    assert report["failed"] == 0 and report["passed"] > 0


def test_verify_failure_exits_1(monkeypatch, capsys):
    monkeypatch.setattr(verify, "nc_cardinality", lambda n, k: 0)
    code = main(["verify", "--max-n", "1", "--max-k", "1"])
    captured = capsys.readouterr()
    assert code == 1
    assert "FAIL cardinality [k=1,n=1]" in captured.out
    assert "3 failed" in captured.out
    assert captured.err == ""


@pytest.mark.parametrize("to_file", [False, True])
def test_internal_check_failure_exits_1(monkeypatch, tmp_path, capsys, to_file):
    # a wrong closed form trips the count check before the first record
    monkeypatch.setattr(bijections, "nc_cardinality", lambda n, k: 0)
    argv = ["nonnesting", "--k", "1", "--n", "3", "--format", "json"]
    target = tmp_path / "f"
    code = main(argv + ["--out", str(target)] if to_file else argv)
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err == (
        "error: internal check failed: ideal count differs from the closed form\n"
    )
    assert not target.exists()
    if to_file:
        assert captured.out == ""


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_internal_check_failure_prints_no_records(monkeypatch, capsys, fmt):
    monkeypatch.setattr(bijections, "nc_cardinality", lambda n, k: 0)
    code = main(["nonnesting", "--k", "1", "--n", "2", "--format", fmt])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == (
        "error: internal check failed: ideal count differs from the closed form\n"
    )


def test_out_flag(tmp_path, capsys):
    target = tmp_path / "count.txt"
    code = main(["count", "--k", "2", "--n", "3", "--out", str(target)])
    assert code == 0
    assert target.read_text() == "30\n"
    assert capsys.readouterr().out == ""


def test_nonnesting_json_out_matches_stdout(tmp_path, capsys):
    argv = ["nonnesting", "--k", "2", "--n", "3", "--format", "json"]
    code, out = run(capsys, *argv)
    assert code == 0
    target = tmp_path / "ideals.json"
    assert main(argv + ["--out", str(target)]) == 0
    assert capsys.readouterr().out == ""
    assert target.read_text() == out


def test_usage_errors(capsys):
    with pytest.raises(SystemExit) as err:
        main(["count", "--k", "2"])  # missing --n
    assert err.value.code == 2
    with pytest.raises(SystemExit) as err:
        main(["no-such-command"])
    assert err.value.code == 2
    assert main(["count", "--k", "0", "--n", "3"]) == 2  # invalid parameters


@pytest.mark.parametrize(
    "flags", [("--rank", "1", "--m", "2"), ("--jumps", "1,2", "--rank", "1")]
)
def test_count_flags_exclude_each_other(capsys, flags):
    with pytest.raises(SystemExit) as err:
        main(["count", "--k", "2", "--n", "3", *flags])
    assert err.value.code == 2
    assert capsys.readouterr().out == ""


def test_oversize_refusal(capsys):
    code = main(["enumerate", "--k", "2", "--n", "9"])  # N = 19 > 13
    assert code == 2
    assert "refusing" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["poset", "nonnesting"])
def test_refusal_creates_no_out_file(tmp_path, capsys, command):
    target = tmp_path / "f"
    code = main([command, "--k", "1", "--n", "13", "--out", str(target)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "error: refusing full poset build at N = 14 > 13\n"
    assert not target.exists()


def test_unwritable_out_is_a_refusal(tmp_path, capsys):
    target = tmp_path / "missing" / "f"
    code = main(["count", "--k", "1", "--n", "3", "--out", str(target)])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert "Traceback" not in captured.err


def test_memory_error_is_a_refusal(monkeypatch, capsys):
    def exhausted(args):
        raise MemoryError

    monkeypatch.setattr(cli, "cmd_poset", exhausted)
    code = main(["poset", "--k", "1", "--n", "11"])
    captured = capsys.readouterr()
    assert code == 2
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
    assert "7752" in captured.err  # refused on the closed-form dissection count
    assert elapsed < 1.0


@pytest.mark.parametrize("flag", ["--max-n", "--max-k"])
@pytest.mark.parametrize("bound", ["0", "-1"])
def test_verify_over_an_empty_range_is_a_refusal(capsys, flag, bound):
    code = main(["verify", flag, bound])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "error: need max_n >= 1 and max_k >= 1\n"


@pytest.mark.parametrize(
    "argv",
    [
        ("count", "--k", "1", "--n", "4", "--m", "0"),
        ("zeta", "--k", "1", "--n", "4", "--q", "2", "--m", "0"),
        ("mobius", "--k", "1", "--n", "4", "--m", "0"),
        ("mobius", "--k", "2", "--n", "3", "--m", "-1", "--format", "json"),
    ],
)
def test_m_below_one_is_a_refusal(capsys, argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "error: need m >= 1\n"


def test_cli_import_leaves_numpy_unloaded():
    src = os.path.dirname(os.path.dirname(os.path.abspath(ncindiv.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    probe = "import sys, ncindiv.cli; print('numpy' in sys.modules)"
    result = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == "False\n"


def test_module_entry_point():
    src = os.path.dirname(os.path.dirname(os.path.abspath(ncindiv.__file__)))
    env = dict(os.environ, PYTHONPATH=src)

    def cli_run(*argv):
        return subprocess.run(
            [sys.executable, "-m", "ncindiv.cli", *argv],
            env=env,
            capture_output=True,
            text=True,
        )

    result = cli_run("count", "--k", "2", "--n", "3")
    assert (result.returncode, result.stdout) == (0, "30\n"), result.stderr
    result = cli_run("enumerate", "--k", "1", "--n", "13")
    assert result.returncode == 2
    assert result.stderr == "error: refusing full poset build at N = 14 > 13\n"
    assert "Traceback" not in result.stderr


# SHA-256 of exports whose bytes must not change: element order, labels
# and cover order all show in them
PINNED_STDOUT = {
    ("mdiv", "--k", "1", "--n", "4", "--m", "3", "--format", "dot"):
        "b38c77c491f4ada63ac1b39cfcda704f764de1dd4767087feab179c712cfc8b9",
    ("mdiv", "--k", "2", "--n", "3", "--m", "3", "--format", "json"):
        "9a1222705f283c975cf132dcd25c70ccd4c48ce961215882e1f35d71f52e5199",
    ("cambrian", "--k", "1", "--n", "5", "--format", "dot"):
        "2ce74f88b3204ae9799e1f477c7f3497e619a333f87c3c336987da83b1ffbb8b",
    ("poset", "--k", "2", "--n", "3", "--format", "dot"):
        "6df9c6509350aab880e3ea803530cfb8e35e240557ad9436374b3a250a488a71",
    ("nonnesting", "--k", "2", "--n", "4", "--format", "json"):
        "f9238a3a5a8d1691d7a988b7799fc374dac0056fc2a84547b0e8e30348ecb56d",
    ("nonnesting", "--k", "1", "--n", "8"):
        "a518b553a12b4c70622fda34e6e2a89c7d5b93028216ef2ae482850b30542f06",
    ("nonnesting", "--k", "3", "--n", "3", "--format", "json"):
        "2acd6279419f3f12495053f86c1389528f210076e6f986f9f6e61433fba45d7f",
    ("cambrian", "--k", "2", "--n", "3", "--format", "json"):
        "68cbcef4e34b5908a6868b3acd2047c869bf60de243a3fcdf479cdc8a1cd0d2b",
    ("typeb-orbit", "--k", "1", "--n", "4"):
        "09e4bd5e82a7d8d0ccd957bcff217c7af2071932455a115031c6f5e1ab6cd70a",
    ("typeb-orbit", "--k", "2", "--n", "2", "--format", "json"):
        "d7caa5bc4e3a0f71b9d492f67a18b6762d8c75ed46dc5448fdba0ebbcadfc0da",
    ("enumerate", "--k", "2", "--n", "3", "--format", "json"):
        "c9d26f1e4516a4ba3e415b69a6778374c5e162d5b1dadef9db3c8e84bc9a613b",
    ("poset", "--k", "2", "--n", "3", "--format", "json"):
        "3554c715ea63d1c0b597ae88cc7e5d450c70a89689ea3f8cea090d6b16259b79",
    ("poset", "--k", "2", "--n", "3", "--format", "csv"):
        "b28e7773beeca27b88895a596f5b79aba4050a873a4590dc0311ac2ca699f43f",
    ("bijection", "--k", "2", "--n", "3", "--format", "json"):
        "dd7b6f7012c6b6654cbb11d1a134790cd3f1e31eb354adc78f87d05e2db54467",
    ("bijection", "--k", "1", "--n", "6"):
        "6ba6e06a181b87484ffe7219c912fa6108932b2bd5576c1eafb8fcb93460818a",
    ("bijection", "--k", "3", "--n", "3", "--format", "json"):
        "53c2461ee1f93366aa2213bb056f541358d7c7b8a2ed9bbeabb575c7da197941",
    ("hurwitz", "--k", "2", "--n", "3", "--format", "json"):
        "522e45cbbcbd487eb6548cc7c3fe57471a90a338e2f4c94cca615d86115270ab",
    ("mobius", "--k", "2", "--n", "3", "--m", "2", "--format", "json"):
        "df5ebbec22a3a20e028f9e3c8fe2471be133c447dffcb1413a8618e9fce61bf2",
    ("mdiv", "--k", "2", "--n", "2", "--m", "2", "--format", "csv"):
        "3ab2bbe17d6f7e44a2e9cdcde222ee4b46f73ed9a30e74dc735afda621ea8330",
    ("verify", "--format", "json"):
        "82e7f5edf9dcbc92bcf1199defb73223c5c5037aefb9ddb01dedf5b240994470",
    # Cambrian posets that are not lattices
    ("cambrian", "--k", "2", "--n", "4"):
        "4cb0158fbce9f4af51331c67e6f4c1a7264400e8e1ea47281b5ab71723b18947",
    ("cambrian", "--k", "3", "--n", "4"):
        "55c97f2af13b82c50ad2127c165e8a8bd782e83d1ae0abef05f7f6f5ec67eb24",
    ("cambrian", "--k", "2", "--n", "4", "--format", "json"):
        "05ef59ed275d94f729885e7cbf97494cefe0747f4138f7ecbee2ca393286cf50",
    # the largest admitted Cambrian build, and a k = 1 edge order past (1,5)
    ("cambrian", "--k", "2", "--n", "5", "--format", "json"):
        "f4aca158d3228ed3309999a384650ca665d9f65a909e86c049d80e3c6e0086c8",
    ("cambrian", "--k", "1", "--n", "6", "--format", "dot"):
        "1088ea6534535f06cf3d25256413948a818f7cfd8e4668eaa224b9d1df9e7d9d",
    # cover order of the NC posets
    ("poset", "--k", "1", "--n", "6", "--format", "dot"):
        "8b5b1af85dd3de1efeeaf6b97ac59b81d40e717810d5c2225697bfb844e8d5d5",
    ("poset", "--k", "3", "--n", "3", "--format", "dot"):
        "a4897d2df5d883ed3bafa5e56f4593192d1d382e5a808a222ded3bb4c5c5f5b6",
    # the m-divisible checks at (2,5), m = 3, sum over 59,052 m-chains
    ("verify", "--max-n", "5", "--max-k", "2"):
        "685377b37e28165cac23fdaf2d0f829ca9d600b02d611cf6ea29b8acaeee1ace",
}


@pytest.mark.parametrize("argv", sorted(PINNED_STDOUT))
def test_pinned_stdout(capsys, argv):
    code, out = run(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == PINNED_STDOUT[argv]


# every subcommand with its formats and its own options; each option is
# drawn from edge values or left out (None), a required one never is
RANKS = st.sampled_from([None, "-1", "0", "1", "3", "4", "x"])
MS = st.one_of(st.none(), st.integers(-2, 3).map(str))
FUZZ_COMMANDS = {
    "count": (None, {
        "--m": MS,
        "--rank": RANKS,
        "--jumps": st.sampled_from(
            [None, "", "0", "3", "1,1", "1,2", "-1,4", "0,0,3", "1,,2", "a"]
        ),
    }),
    "enumerate": (("text", "json"), {"--rank": RANKS}),
    "poset": (("text", "dot", "csv", "json"), {}),
    "chains": (None, {}),
    "zeta": (None, {"--q": st.integers(-2, 3).map(str), "--m": MS}),
    "mobius": (("text", "json"), {"--m": MS}),
    "mdiv": (("text", "dot", "csv", "json"), {"--m": st.integers(-2, 3).map(str)}),
    "hurwitz": (("text", "json"), {}),
    "cambrian": (("text", "dot", "json"), {}),
    "bijection": (("text", "json"), {}),
    "nonnesting": (("text", "json"), {}),
    "typeb-orbit": (("text", "json"), {}),
    "verify": (("text", "json"), {
        "--max-n": st.integers(-1, 2).map(str),
        "--max-k": st.integers(-1, 2).map(str),
    }),
}


@st.composite
def cli_argvs(draw):
    command = draw(st.sampled_from(sorted(FUZZ_COMMANDS)))
    formats, options = FUZZ_COMMANDS[command]
    argv = [command]
    if command != "verify":
        k, n = draw(st.integers(-1, 3)), draw(st.integers(-1, 3))
        assume(k * n + 1 <= 7)
        assume(command != "typeb-orbit" or k * n <= 4)
        argv += ["--k", str(k), "--n", str(n)]
    if formats:
        argv += ["--format", draw(st.sampled_from(formats))]
    for flag, values in options.items():
        value = draw(values)
        if value is not None:
            argv += [flag, value]
    return argv


@settings(max_examples=150, deadline=timedelta(seconds=10))
@given(cli_argvs())
def test_cli_fuzz_exits_cleanly(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    assert code in (0, 1, 2), (argv, code, err.getvalue())
    assert "Traceback" not in err.getvalue()
