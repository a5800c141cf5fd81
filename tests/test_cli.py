"""End-to-end runs of the command line against frozen outputs.

Every invocation goes through main(argv), so exit codes and streams are
asserted exactly as a shell harness would see them.
"""

import hashlib
import io
import json
import random
import time

import pytest

from tphi import cli
from tphi.cli import build_parser, main
from tphi.homology import format_homology, homology_groups
from tphi.mccord import finite_space_homology
from tphi.models import build_tphi_power
from tphi.phased import parse_gp_file, transversal
from tphi.poset import format_poset_file, parse_poset_file
from tphi.simplicial import complex_to_lines, order_complex, parse_complex_lines

CHAIN_FILE = "elem a\nelem b\nelem c\nrel a < b\nrel b < c\n"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_hfcalc_full_circle(capsys):
    code, out, _ = run(capsys, "hfcalc", "0/1 + 1/2")
    assert code == 0
    assert out == "FULL +0\n"


def test_hfcalc_plain_arc(capsys):
    code, out, _ = run(capsys, "hfcalc", "0/1 + 1/4")
    assert code == 0
    assert out == "[0/1,1/4]\n"


def test_hfcalc_json(capsys):
    code, out, _ = run(capsys, "hfcalc", "0/1 + 1/2", "--format", "json-lines")
    assert code == 0
    assert json.loads(out) == {"sum": "FULL +0", "contains_zero": True}


def test_hfcalc_bad_value(capsys):
    code, _, err = run(capsys, "hfcalc", "0/1 + banana")
    assert code == 2
    assert err.startswith("error:")


@pytest.mark.parametrize("expr", ["1_0/3 + 1/2", "\u0661/\u0662 + 0/1"])
def test_hfcalc_refuses_digits_only_int_takes(capsys, expr):
    # int() reads '1_0' as 10 and Arabic-Indic digits as 1/2; a scalar
    # takes ASCII digits only
    code, out, err = run(capsys, "hfcalc", expr)
    assert (code, out) == (2, "")
    assert err == f"error: bad scalar {expr.split(' + ')[0]!r}: expected '0' or 'p/q'\n"


@pytest.mark.parametrize(
    "argv, flag",
    [
        (("transversal", "--n", "\u0663", "--r", "2"), "--n"),
        (("transversal", "--n", "3", "--r", "1_0"), "--r"),
        (("gp-enum", "--n", "3", "--r", "1", "--k", "+2"), "--k"),
        (("model-build", "--family", "power", "--n", "2", "--k", " 2"), "--k"),
        (("order-complex", "x.poset", "--cap", "1_000"), "--cap"),
        (("gp-enum", "--n", "3", "--r", "2", "--k", "1", "--cap", "-3"), "--cap"),
        (("order-complex", "x.poset", "--cap", "-1"), "--cap"),
        (("model-build", "--family", "power", "--n", "2", "--k", "2", "--cap", "-1"), "--cap"),
        (("mccord-verify", "x.poset", "--cap", "-2"), "--cap"),
    ],
)
def test_integer_flags_refuse_digits_only_int_takes(capsys, argv, flag):
    # int() reads Arabic-Indic three as 3 and '1_0' as 10; an integer flag
    # takes ASCII digits only, as the file formats do, and a cap is at
    # least 0
    value = argv[argv.index(flag) + 1]
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("usage: tphi ")
    assert err.endswith(f": error: argument {flag}: invalid int value: {value!r}\n")


def test_unknown_subcommand(capsys):
    assert main(["frobnicate"]) == 2


def test_gp_check_zero_function(tmp_path, capsys):
    f = tmp_path / "zero.gp"
    f.write_text("2 1\n")
    code, out, _ = run(capsys, "gp-check", str(f))
    assert code == 1
    assert "not identically zero" in out


def test_gp_check_good_function(tmp_path, capsys):
    f = tmp_path / "ok.gp"
    f.write_text("3 2\n1 2 : 0/1\n1 3 : 0/1\n2 3 : 0/1\n")
    code, out, _ = run(capsys, "gp-check", str(f))
    assert code == 0
    assert out == "ok: all exchange relations hold\n"
    code, out, _ = run(capsys, "gp-check", str(f), "--all-tuples")
    assert code == 0


def test_gp_check_failing_function(tmp_path, capsys):
    # two disjoint supports: no exchange term can be non-degenerate twice
    f = tmp_path / "bad.gp"
    f.write_text("4 2\n1 2 : 0/1\n3 4 : 0/1\n")
    code, out, _ = run(capsys, "gp-check", str(f))
    assert code == 1
    assert out == "fail: exchange relation failed at xs=1,2,3 ys=4\n"
    code, out, _ = run(capsys, "gp-check", str(f), "--format", "json-lines")
    assert code == 1
    obj = json.loads(out)
    assert obj["ok"] is False
    assert list(obj) == ["ok", "reason", "xs", "ys"]


def test_gp_check_all_tuples_failure_is_pinned(tmp_path, capsys):
    # three values on (5, 3): the first failure follows a run of relations
    # whose terms are all zero, and both sweeps stop at the same relation
    f = tmp_path / "sparse.gp"
    f.write_text("5 3\n1 3 5 : 1/4\n1 4 5 : 0/1\n2 4 5 : 3/4\n")
    code, out, err = run(capsys, "gp-check", str(f), "--all-tuples")
    assert (code, out, err) == (1, "fail: exchange relation failed at xs=1,2,3,5 ys=4,5\n", "")
    code, out, err = run(capsys, "gp-check", str(f), "--all-tuples", "--format", "json-lines")
    assert (code, err) == (1, "")
    assert json.loads(out) == {
        "ok": False,
        "reason": "exchange relation failed",
        "xs": [1, 2, 3, 5],
        "ys": [4, 5],
    }


def test_gp_check_missing_file(capsys):
    code, _, err = run(capsys, "gp-check", "/nonexistent/file.gp")
    assert code == 2
    assert err.startswith("error:")


def test_gp_enum_count_and_determinism(capsys):
    code, out1, _ = run(capsys, "gp-enum", "--n", "3", "--r", "2", "--k", "2")
    assert code == 0
    assert out1.splitlines()[-1] == "count: 13"
    code, out2, _ = run(capsys, "gp-enum", "--n", "3", "--r", "2", "--k", "2")
    assert out1 == out2


def test_gp_enum_cap(capsys):
    code, _, err = run(
        capsys, "gp-enum", "--n", "5", "--r", "2", "--k", "2", "--cap", "100"
    )
    assert code == 2
    assert "cap" in err


def test_gp_enum_full_rank_builds_no_scalar_pool(capsys):
    # r = n: one tuple, tried at 0 and 1 only, whatever k is
    start = time.monotonic()
    code, out, _ = run(capsys, "gp-enum", "--n", "2", "--r", "2", "--k", "2000000")
    assert code == 0
    assert out == "1,2:0/1\ncount: 1\n"
    assert time.monotonic() - start < 2


def test_perp_refuses_oversized_search_at_once(capsys):
    # 41^8 - 1 candidates: refused before the enumeration starts
    start = time.monotonic()
    code, out, err = run(capsys, "perp", "--k", "40", ",".join(["0/1"] * 8))
    assert code == 2
    assert "cap" in err
    assert out == ""
    assert time.monotonic() - start < 5


def test_perp_model_refuses_huge_k_at_once(capsys):
    # 200000001 candidates: refused before any k-sized table is built
    start = time.monotonic()
    code, out, err = run(
        capsys, "model-build", "--family", "perp", "--n", "1", "--k", "200000000", "0/1"
    )
    assert code == 2
    assert "cap" in err
    assert out == ""
    assert time.monotonic() - start < 5


def test_perp_model_refuses_huge_odd_k_at_once(capsys):
    start = time.monotonic()
    code, out, err = run(
        capsys, "model-build", "--family", "perp", "--n", "1", "--k", "999999999", "0/1"
    )
    assert code == 2
    assert "even" in err
    assert out == ""
    assert time.monotonic() - start < 5


def test_power_refuses_too_many_order_pairs_at_once(capsys):
    # 41^4 - 1 = 2,825,760 elements pass the default cap, but their
    # 37,395,200 strict order pairs do not: refused before anything is built
    start = time.monotonic()
    code, out, err = run(capsys, "model-build", "--family", "power", "--n", "4", "--k", "40")
    assert time.monotonic() - start < 0.5
    assert code == 2
    assert "cap" in err
    assert out == ""


def test_gp_check_refuses_oversized_sweep_at_once(tmp_path, capsys):
    # C(40,21) * C(40,19) relations: refused before any table is built
    f = tmp_path / "big.gp"
    f.write_text("40 20\n" + " ".join(map(str, range(1, 21))) + " : 0/1\n")
    start = time.monotonic()
    code, out, err = run(capsys, "gp-check", str(f))
    assert code == 2
    assert "cap" in err
    assert out == ""
    assert time.monotonic() - start < 5


@pytest.mark.parametrize("n, r", [(13, 6), (70, 2)])
def test_gp_enum_refuses_oversized_search_at_once(capsys, n, r):
    # millions of relations, each search needing far more steps than cap
    start = time.monotonic()
    code, out, err = run(
        capsys, "gp-enum", "--n", str(n), "--r", str(r), "--k", "1"
    )
    assert code == 2
    assert "cap" in err
    assert out == ""
    assert time.monotonic() - start < 5


@pytest.mark.parametrize(
    "argv",
    [
        ("model-build", "--family", "power", "--n", "10000000", "--k", "2"),
        ("perp", "--k", "2", ",".join(["0/1"] * 20000)),
        ("transversal", "--n", "10000000", "--r", "5000000"),
        ("gp-enum", "--n", "100000", "--r", "50000", "--k", "1"),
    ],
)
def test_huge_counts_are_refused_without_being_formed(capsys, argv):
    # each count has millions of digits: refused once a running product
    # passes the cap, and the message names the cap, not the count
    start = time.monotonic()
    code, out, err = run(capsys, *argv)
    assert time.monotonic() - start < 0.5
    assert code == 2
    assert out == ""
    assert "cap" in err
    assert "Exceeds the limit" not in err


def test_gp_check_refuses_huge_sweep_without_forming_it(tmp_path, capsys):
    f = tmp_path / "huge.gp"
    f.write_text("3000 1500\n" + " ".join(map(str, range(1, 1501))) + " : 0/1\n")
    for extra in ((), ("--all-tuples",)):
        start = time.monotonic()
        code, out, err = run(capsys, "gp-check", str(f), *extra)
        assert time.monotonic() - start < 0.5
        assert code == 2
        assert "cap" in err
        assert "Exceeds the limit" not in err


def test_out_of_memory_is_a_clean_exit(capsys, monkeypatch):
    def exhaust(args):
        raise MemoryError

    monkeypatch.setattr("tphi.cli.cmd_model_build", exhaust)
    code, out, err = run(capsys, "model-build", "--family", "power", "--n", "2", "--k", "2")
    assert code == 2
    assert out == ""
    assert err.startswith("error: out of memory")
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "text, named",
    [("a b\n1 : 1/2\n", "bad header 'a b'"), ("2 1\n1 x : 1/2\n", "bad tuple '1 x'")],
)
def test_gp_check_parse_errors_are_clean(tmp_path, capsys, text, named):
    f = tmp_path / "bad.gp"
    f.write_text(text)
    code, out, err = run(capsys, "gp-check", str(f))
    assert code == 2
    assert out == ""
    assert named in err
    assert "invalid literal" not in err


def test_transversal_refuses_oversized_search_at_once(capsys):
    # 11! = 39916800 tuples: refused before any is built
    start = time.monotonic()
    code, out, err = run(capsys, "transversal", "--n", "11", "--r", "11")
    assert code == 2
    assert "cap" in err
    assert out == ""
    assert time.monotonic() - start < 5


def test_transversal_pairs(capsys):
    code, out, _ = run(capsys, "transversal", "--n", "3", "--r", "2")
    assert code == 0
    assert out == "1 2\n1 3\n2 3\nsize: 3\nincreasing-tuples: 3\n"


def test_transversal_even_permutations(capsys):
    code, out, _ = run(capsys, "transversal", "--n", "3", "--r", "3")
    assert code == 0
    assert out == "1 2 3\n2 3 1\n3 1 2\nsize: 3\nincreasing-tuples: 1\n"


def test_transversal_json(capsys):
    code, out, _ = run(
        capsys, "transversal", "--n", "3", "--r", "2", "--format", "json-lines"
    )
    rows = [json.loads(ln) for ln in out.splitlines()]
    assert rows[:-1] == [{"tuple": [1, 2]}, {"tuple": [1, 3]}, {"tuple": [2, 3]}]
    assert rows[-1] == {"size": 3, "increasing_tuples": 3}


def test_transversal_output_bytes(capsys):
    # the bytes of one line per tuple, in both formats; the text lines go
    # out in slices, which (12, 4) crosses
    digests = {
        "text": "4c6ab4595e02e585aba706ca4fe80e3db31f81c9f38ff1f5fad075bc45b8a85d",
        "json-lines": "842e4d8f3eac1a69621d017f246e0524cdf64431cef24262861559bf34453316",
    }
    for fmt, digest in digests.items():
        code, out, _ = run(capsys, "transversal", "--n", "7", "--r", "3", "--format", fmt)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest
    tuples = transversal(12, 4).tuples
    assert len(tuples) > cli._SLICE
    code, out, _ = run(capsys, "transversal", "--n", "12", "--r", "4")
    summary = f"size: {len(tuples)}\nincreasing-tuples: 495\n"
    assert out == "".join(" ".join(map(str, t)) + "\n" for t in tuples) + summary


def test_poset_check_plain_and_mirrored(tmp_path, capsys):
    f = tmp_path / "chain.poset"
    f.write_text(CHAIN_FILE)
    code, out, _ = run(capsys, "poset-check", str(f))
    assert code == 0
    assert out == "poset: ok\n"

    g = tmp_path / "power.poset"
    g.write_text(format_poset_file(build_tphi_power(2, 2)))
    code, out, _ = run(capsys, "poset-check", str(g))
    assert code == 0
    assert out == "mirror: ok\ngeometric: ok\n"


def test_poset_check_detects_broken_mirror(tmp_path, capsys):
    f = tmp_path / "bad.poset"
    f.write_text(
        "elem a\nelem b\nrel a < b\n"
        "index\nelem 1\nelem 2\nrel 1 < 2\n"
        "mirror a -> 2\nmirror b -> 1\n"
    )
    code, out, _ = run(capsys, "poset-check", str(f))
    assert code == 1
    assert "mirror: FAIL" in out


def test_poset_check_malformed_file(tmp_path, capsys):
    f = tmp_path / "junk.poset"
    f.write_text("elem a\nwhat is this\n")
    code, _, err = run(capsys, "poset-check", str(f))
    assert code == 2
    assert err.startswith("error:")


def test_poset_check_refuses_a_second_index_line(tmp_path, capsys):
    # two index blocks once read as one, and the file passed both checks
    f = tmp_path / "twice.poset"
    f.write_text(
        "elem a\nelem b\nrel a < b\n"
        "index\nelem 1\n"
        "index\nelem 2\nrel 1 < 2\n"
        "mirror a -> 1\nmirror b -> 2\n"
    )
    code, out, err = run(capsys, "poset-check", str(f))
    assert (code, out) == (2, "")
    assert err == "error: second index line; a poset file has one index block\n"
    # one index line, with the same lines, is a good mirrored poset
    f.write_text(f.read_text().replace("index\nelem 2", "elem 2"))
    code, out, _ = run(capsys, "poset-check", str(f))
    assert (code, out) == (0, "mirror: ok\ngeometric: ok\n")


def test_order_complex_chain(tmp_path, capsys):
    f = tmp_path / "chain.poset"
    f.write_text(CHAIN_FILE)
    code, out, _ = run(capsys, "order-complex", str(f))
    assert code == 0
    assert out == "a\na b\na b c\na c\nb\nb c\nc\n"


def test_order_complex_rejects_json(tmp_path, capsys):
    f = tmp_path / "chain.poset"
    f.write_text(CHAIN_FILE)
    code, _, err = run(capsys, "order-complex", str(f), "--format", "json-lines")
    assert code == 2
    assert "json-lines" in err


def test_order_complex_cap(tmp_path, capsys):
    f = tmp_path / "chain.poset"
    f.write_text(CHAIN_FILE)
    code, _, err = run(capsys, "order-complex", str(f), "--cap", "3")
    assert code == 2
    assert "cap" in err
    # a cap of 0 is legal: it refuses every chain, and holds the empty poset
    code, _, err = run(capsys, "order-complex", str(f), "--cap", "0")
    assert (code, err) == (2, "error: order complex would hold 7 chains, cap is 0\n")
    f.write_text("")
    assert run(capsys, "order-complex", str(f), "--cap", "0") == (0, "", "")


def test_order_complex_refuses_a_label_its_file_would_lose(tmp_path, capsys):
    # a circle: the lines of a face led by '#a' once read back as comments,
    # and `homology` on the complex file printed H_1 = 0 with exit 0
    f = tmp_path / "circle.poset"
    f.write_text("elem #a\nelem b\nelem c\nelem d\nrel #a < c\nrel #a < d\nrel b < c\nrel b < d\n")
    code, out, _ = run(capsys, "mccord-verify", str(f))
    assert code == 0 and "H_1 = Z^1\n" in out
    code, out, err = run(capsys, "order-complex", str(f))
    assert (code, out) == (2, "")
    assert err.startswith("error: label '#a' cannot be written")


class CountingStdout(io.StringIO):
    """A stdout that counts its write calls."""

    writes = 0

    def write(self, text):
        self.writes += 1
        return super().write(text)


def test_order_complex_writes_in_chunks(tmp_path, monkeypatch):
    # power(5,2): 24,482 faces, over a megabyte of lines
    p = build_tphi_power(5, 2)
    f = tmp_path / "p52.poset"
    f.write_text(format_poset_file(p))
    lines = complex_to_lines(order_complex(p.poset))
    assert len(lines) >= 20_000
    out = CountingStdout()
    monkeypatch.setattr("sys.stdout", out)
    assert main(["order-complex", str(f)]) == 0
    # the bytes one print per line wrote
    assert out.getvalue() == "".join(line + "\n" for line in lines)
    chunks = -(-len(out.getvalue()) // cli._CHUNK)
    assert chunks > 1
    assert out.writes <= chunks + 1


def test_output_written_before_an_error_still_comes_out(capsys, monkeypatch):
    def fail_midway(args):
        cli._emit(args, {}, "first line")
        raise ValueError("second line failed")

    monkeypatch.setattr("tphi.cli.cmd_hfcalc", fail_midway)
    assert run(capsys, "hfcalc", "0/1") == (2, "first line\n", "error: second line failed\n")


def test_homology_from_file_and_reduced(tmp_path, capsys):
    f = tmp_path / "circle.cx"
    f.write_text("a b\nb c\na c\n")
    code, out, _ = run(capsys, "homology", str(f))
    assert code == 0
    assert out == "H_0 = Z^1\nH_1 = Z^1\n"
    code, out, _ = run(capsys, "homology", str(f), "--reduced")
    assert out == "H~_0 = 0\nH~_1 = Z^1\n"


def test_homology_refuses_oversized_line_at_once(capsys, monkeypatch):
    # one 23-label line closes to 2^23 - 1 faces: refused before closing
    line = " ".join(f"v{i}" for i in range(23))
    monkeypatch.setattr("sys.stdin", io.StringIO(line + "\n"))
    start = time.monotonic()
    code, out, err = run(capsys, "homology", "-")
    assert code == 2
    assert "cap" in err
    assert "Traceback" not in err
    assert out == ""
    assert time.monotonic() - start < 5


def test_homology_json(tmp_path, capsys):
    f = tmp_path / "circle.cx"
    f.write_text("a b\nb c\na c\n")
    code, out, _ = run(capsys, "homology", str(f), "--format", "json-lines")
    rows = [json.loads(ln) for ln in out.splitlines()]
    assert rows == [
        {"dim": 0, "betti": 1, "torsion": []},
        {"dim": 1, "betti": 1, "torsion": []},
    ]


def test_round_trip_matches_in_process(tmp_path, capsys, monkeypatch):
    mp = build_tphi_power(2, 2)
    f = tmp_path / "p22.poset"
    f.write_text(format_poset_file(mp))
    code, complex_text, _ = run(capsys, "order-complex", str(f))
    assert code == 0

    monkeypatch.setattr("sys.stdin", io.StringIO(complex_text))
    code, out, _ = run(capsys, "homology", "-", "--reduced")
    assert code == 0
    in_process = homology_groups(order_complex(mp.poset), reduced=True)
    assert out == "".join(line + "\n" for line in format_homology(in_process))
    # and the parsed stream is the same complex
    assert parse_complex_lines(complex_text) == order_complex(mp.poset)


def test_mccord_verify_table(tmp_path, capsys):
    f = tmp_path / "chain.poset"
    f.write_text(CHAIN_FILE)
    code, out, _ = run(capsys, "mccord-verify", str(f))
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "a  cone-apex  7"
    assert lines[3] == "verdict: all basic opens certified contractible"
    assert lines[4] == "H_0 = Z^1"


def test_mccord_verify_json(tmp_path, capsys):
    f = tmp_path / "p22.poset"
    f.write_text(format_poset_file(build_tphi_power(2, 2)))
    code, out, _ = run(capsys, "mccord-verify", str(f), "--format", "json-lines")
    assert code == 0
    rows = [json.loads(ln) for ln in out.splitlines()]
    assert len(rows) == 9
    assert all(r["certificate"] == "cone-apex" for r in rows[:-1])
    assert rows[-1]["homology"] == ["H_0 = Z^1", "H_1 = Z^1"]


def test_empty_input(tmp_path, capsys, monkeypatch):
    f = tmp_path / "empty.poset"
    f.write_text("")
    code, out, err = run(capsys, "mccord-verify", str(f))
    assert (code, out, err) == (0, "verdict: all basic opens certified contractible\n", "")
    code, out, err = run(capsys, "cw-report", str(f))
    assert (code, out, err) == (0, "verdict: CW type\n", "")
    monkeypatch.setattr("sys.stdin", io.StringIO(""))
    assert run(capsys, "homology", "-") == (0, "", "")


def test_cw_report_chain_and_obstructed(tmp_path, capsys):
    f = tmp_path / "chain.poset"
    f.write_text(CHAIN_FILE)
    code, out, _ = run(capsys, "cw-report", str(f))
    assert code == 0
    assert out == "component a b c: contractible\nverdict: CW type\n"

    g = tmp_path / "p22.poset"
    g.write_text(format_poset_file(build_tphi_power(2, 2)))
    code, out, _ = run(capsys, "cw-report", str(g))
    assert code == 1
    assert out.endswith("verdict: obstructed\n")


def test_cw_report_takes_no_cap(tmp_path, capsys):
    # cw-report builds no complex, so there is no size to guard
    f = tmp_path / "chain.poset"
    f.write_text(CHAIN_FILE)
    code, out, err = run(capsys, "cw-report", str(f), "--cap", "10")
    assert (code, out) == (2, "")
    assert "unrecognized arguments: --cap 10" in err


def test_model_build_power_round_trip(capsys):
    code, out, _ = run(capsys, "model-build", "--family", "power", "--n", "2", "--k", "2")
    assert code == 0
    assert out == format_poset_file(build_tphi_power(2, 2))
    parsed = parse_poset_file(out)
    assert finite_space_homology(parsed.poset).betti(1) == 1


def test_model_build_perp_caveat_on_stderr(capsys):
    code, out, err = run(
        capsys, "model-build", "--family", "perp", "--n", "2", "--k", "4", "0/1,0/1"
    )
    assert code == 0
    assert "finite snapshot" in err
    assert "empty strata pruned from the index chain: 1" in err
    parsed = parse_poset_file(out)
    assert len(parsed.poset) == 4
    assert parsed.poset.covers() == []


def test_model_build_grassmannian_stream(capsys):
    code, out, _ = run(
        capsys, "model-build", "--family", "grassmannian", "--n", "3", "--r", "2",
        "--k", "2",
    )
    assert code == 0
    blocks = [b for b in out.split("\n\n") if b.strip()]
    assert len(blocks) == 13
    for b in blocks:
        phi = parse_gp_file(b)
        assert phi.n == 3 and phi.r == 2


def test_model_build_rejects_json(capsys):
    code, _, err = run(
        capsys, "model-build", "--family", "power", "--n", "2", "--k", "2",
        "--format", "json-lines",
    )
    assert code == 2
    assert "json-lines" in err


def test_model_build_validates_spec(capsys):
    code, _, err = run(capsys, "model-build", "--family", "perp", "--n", "2", "--k", "2")
    assert code == 2
    assert "constraint" in err
    code, _, err = run(
        capsys, "model-build", "--family", "perp", "--n", "3", "--k", "2", "0/1,0/1"
    )
    assert code == 2
    assert err == "error: constraint length differs from n\n"
    # vectors are refused outside the perp family and --r outside the
    # grassmannian family, not dropped; vectors are checked first.  The
    # grassmannian family refuses a missing --r by name
    vectors = "error: constraint vectors are taken by --family perp only\n"
    rank = "error: --r is taken by --family grassmannian only\n"
    for extra, message in [
        (("power", "--k", "3", "--r", "1", "0/1,1/2"), vectors),
        (("grassmannian", "--k", "3", "--r", "1", "0/1,1/2"), vectors),
        (("power", "--k", "2", "--r", "7"), rank),
        (("power", "--k", "2", "--r", "0"), rank),
        (("perp", "--k", "2", "--r", "7", "0/1,0/1"), rank),
        (("grassmannian", "--k", "2"), "error: --family grassmannian needs --r\n"),
    ]:
        code, out, err = run(capsys, "model-build", "--n", "2", "--family", *extra)
        assert (code, out, err) == (2, "", message), extra


PERP_FAULTS = (
    ("--k", "3", "0/1,0/1"),  # odd k
    ("--k", "4", "0/1,1/3"),  # an entry off the 4-point grid
    ("--k", "0", "0/1,0/1"),
    ("--k", "-2", "0/1,0/1"),
)
RANK_FAULTS = (("--n", "3", "--k", "2", "--r", r) for r in ("0", "4", "-1"))


@pytest.mark.parametrize(
    "direct, built",
    [(("perp", *f), ("model-build", "--family", "perp", "--n", "2", *f)) for f in PERP_FAULTS]
    + [(("gp-enum", *f), ("model-build", "--family", "grassmannian", *f)) for f in RANK_FAULTS]
    + [
        # off the grid of a k < 1: k is checked first, on both routes
        (("perp", "--k", "-2", "0/1,1/4"),
         ("model-build", "--family", "perp", "--n", "2", "--k", "-2", "0/1,1/4")),
        # constraint vectors outside the perp family, one message for both
        (("model-build", "--family", "power", "--n", "2", "--k", "3", "0/1,1/2"),
         ("model-build", "--family", "grassmannian", "--n", "2", "--k", "3", "--r", "1", "0/1,1/2")),
    ],
)
def test_each_fault_has_one_message(capsys, direct, built):
    # the builder refuses the request, so both routes print its message
    code, out, err = run(capsys, *direct)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert run(capsys, *built) == (2, "", err)


def test_byte_identical_reruns(tmp_path, capsys):
    f = tmp_path / "p22.poset"
    f.write_text(format_poset_file(build_tphi_power(2, 2)))
    outs = set()
    for _ in range(3):
        code, out, _ = run(capsys, "mccord-verify", str(f))
        assert code == 0
        outs.add(out)
    assert len(outs) == 1


# ------------------------------------------------------------------ fuzzing

# Integer flags stay at most 4: the default cap admits legal work that a
# unit test cannot afford (model-build power --n 4 --k 40 holds 2.8M
# elements, transversal --n 40 --r 4 takes seconds).
FUZZ_VALUES = (("0", "0/1", "1/2", "1/4", "3/4", "2/3"), ("5/4", "-1/2", "1/0", "0/0", "a", "1/", ""))
FUZZ_INTS = (("-1", "0", "1", "2", "3", "4"), ("x", "2.5", "", "\u0663", "1_0"))
FUZZ_LABELS = ("a", "b", "c", "d", "0/1", "x,y", "é", "a:b")


def _pick(rng, pool):
    """A good value from pool[0], or now and then a bad one from pool[1]."""
    return rng.choice(pool[rng.random() < 0.1])


def _fuzz_poset(rng):
    """A poset file: a model file with lines dropped, repeated or cut, or
    random lines of every kind."""
    if rng.random() < 0.5:
        lines = format_poset_file(build_tphi_power(rng.randint(1, 2), rng.randint(1, 3))).splitlines()
        for _ in range(rng.randint(0, 2)):
            i = rng.randrange(len(lines))
            action = rng.randrange(3)
            if action == 0:
                lines.insert(i, lines[rng.randrange(len(lines))])
            elif action == 1 and len(lines) > 1:
                del lines[i]
            else:
                lines[i] = lines[i][: rng.randrange(len(lines[i]) + 1)]
        return "\n".join(lines) + "\n"
    lab = lambda: rng.choice(FUZZ_LABELS)
    kinds = (
        lambda: f"elem {lab()}",
        lambda: f"elem {lab()}",
        lambda: f"rel {lab()} < {lab()}",
        lambda: f"rel {lab()} > {lab()}",
        lambda: "index",
        lambda: f"elem {rng.randint(0, 3)}",
        lambda: f"rel {rng.randint(0, 3)} < {rng.randint(0, 3)}",
        lambda: f"mirror {lab()} -> {rng.randint(0, 3)}",
        lambda: rng.choice(("# note", "", "elem", "elem a b", "mirror a b", "\t", "rel a <")),
    )
    return "\n".join(rng.choice(kinds)() for _ in range(rng.randint(0, 12))) + "\n"


def _fuzz_complex(rng):
    lines = []
    for _ in range(rng.randint(0, 8)):
        roll = rng.random()
        if roll < 0.8:
            lines.append(" ".join(rng.choice(FUZZ_LABELS) for _ in range(rng.randint(1, 4))))
        elif roll < 0.9:
            lines.append(" ".join(f"v{i}" for i in range(rng.choice((5, 30)))))
        else:
            lines.append(rng.choice(("# note", "", "  ", "\x00")))
    return "\n".join(lines) + "\n"


def _fuzz_function(rng):
    n, r = _pick(rng, FUZZ_INTS), _pick(rng, FUZZ_INTS)
    lines = [rng.choice((f"{n} {r}", f"{n} {r}", f"{n}", f"{n} {r} 1"))]
    for _ in range(rng.randint(0, 5)):
        key = " ".join(str(rng.randint(0, 4)) for _ in range(rng.randint(0, 3)))
        value = _pick(rng, FUZZ_VALUES)
        lines.append(rng.choice((f"{key} : {value}", f"{key} : {value}", key, f"{key} : x : 1/2")))
    return "\n".join(lines) + "\n"


def _fuzz_argv(rng, path):
    """One random command line and the text of its input file, which is
    read through path, through stdin as '-', or from a missing file."""
    num = lambda: _pick(rng, FUZZ_INTS)
    vector = lambda: ",".join(_pick(rng, FUZZ_VALUES) for _ in range(rng.randint(1, 3)))
    file_arg = rng.choice((str(path),) * 3 + ("-", str(path) + ".missing"))
    fmt = ["--format", _pick(rng, (("text", "json-lines"), ("yaml",)))] if rng.random() < 0.5 else []
    cap = ["--cap", rng.choice(("-1", "0", "10", "1000", "x"))] if rng.random() < 0.3 else []
    sub = rng.choice(
        ("hfcalc", "perp", "gp-check", "gp-enum", "transversal", "poset-check", "order-complex",
         "homology", "mccord-verify", "cw-report", "model-build", "bogus")
    )
    text = ""
    if sub == "hfcalc":
        args = [" + ".join(_pick(rng, FUZZ_VALUES) for _ in range(rng.randint(0, 4)))]
    elif sub == "perp":
        args = ["--k", num()] + [vector() for _ in range(rng.randint(0, 2))]
    elif sub == "gp-check":
        text = _fuzz_function(rng)
        args = [file_arg] + (["--all-tuples"] if rng.random() < 0.3 else [])
    elif sub == "gp-enum":
        args = ["--n", num(), "--r", num(), "--k", num()] + cap
    elif sub == "transversal":
        args = ["--n", num(), "--r", num()]
    elif sub in ("poset-check", "order-complex", "mccord-verify", "cw-report"):
        text = _fuzz_poset(rng)
        args = [file_arg] + (cap if sub in ("order-complex", "mccord-verify") else [])
    elif sub == "homology":
        text = _fuzz_complex(rng)
        args = [file_arg] + (["--reduced"] if rng.random() < 0.5 else [])
    elif sub == "model-build":
        family = _pick(rng, (("power", "perp", "grassmannian"), ("cube",)))
        args = ["--family", family, "--n", num(), "--k", num()]
        args += ["--r", num()] if rng.random() < 0.5 else []
        args += [vector() for _ in range(rng.randint(0, 2))] + cap
    else:
        args = []
    if rng.random() < 0.05 and args:
        del args[rng.randrange(len(args))]
    return [sub] + args + fmt, text


def _parsed(parser, argv, capsys):
    try:
        outcome = vars(parser.parse_args(argv))
    except SystemExit as exc:
        outcome = exc.code
    return outcome, capsys.readouterr()


def test_one_subparser_parses_like_the_full_parser(tmp_path, capsys):
    # main builds the named subcommand's parser alone: every namespace,
    # exit code, usage line and message must be the full parser's
    rng = random.Random(20261019)
    calls = [_fuzz_argv(rng, tmp_path / "input")[0] for _ in range(600)]
    calls += [[name, "-h"] for name in cli._SUBCOMMANDS] + [[name] for name in cli._SUBCOMMANDS]
    calls += [["cw-report", "x", "--cap", "10"], ["hfcalc", "x", "y"], ["perp", "--k"]]
    named = 0
    for argv in calls:
        if argv[0] in cli._SUBCOMMANDS:
            named += 1
            alone = _parsed(build_parser(argv[0]), argv, capsys)
            assert alone == _parsed(build_parser(), argv, capsys), argv
    assert named > 500


def test_fuzzed_calls_exit_cleanly(tmp_path, capsys, monkeypatch):
    # seeded random and malformed inputs for every subcommand: each call
    # ends with exit 0, 1 or 2 and no Python traceback
    rng = random.Random(20261018)
    path = tmp_path / "input"
    codes = set()
    for _ in range(2000):
        argv, text = _fuzz_argv(rng, path)
        path.write_text(text, encoding="utf-8")
        monkeypatch.setattr("sys.stdin", io.StringIO(text))
        try:
            code = main(argv)
        except Exception as exc:
            pytest.fail(f"{argv} on {text!r} raised {exc!r}")
        _, err = capsys.readouterr()
        assert code in (0, 1, 2), argv
        assert "Traceback" not in err, argv
        codes.add(code)
    assert codes == {0, 1, 2}
