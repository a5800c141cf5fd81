"""The text formats' one line rule.

All three readers take their lines through ``errors.file_lines``: one
leading byte-order mark dropped, each line stripped, blank lines and '#'
lines skipped.  So every file a writer produces reads back equal however
its line ends are written, with comments or blank lines added, and behind
a byte-order mark, which some editors put at the head of a UTF-8 file.
"""

import ast
import io
from pathlib import Path

import pytest

import tphi
from test_homology import oracle_posets
from tphi.cli import main
from tphi.errors import check_file_labels
from tphi.models import build_perp_poset, build_tphi_power, enum_grassmannian
from tphi.phased import format_gp, parse_gp_file, parse_vector
from tphi.poset import format_poset_file, parse_poset_file
from tphi.simplicial import complex_to_lines, order_complex, parse_complex_lines

BOM = "\ufeff"
CIRCLE = "a b\nb c\nc a\n"  # the boundary of a triangle


def copies(text):
    """The text as written, with '\\r\\n' line ends, with a blank line and a
    comment line inserted, and with a leading byte-order mark."""
    lines = text.splitlines(keepends=True)
    mid = len(lines) // 2
    return (
        text,
        text.replace("\n", "\r\n"),
        "".join(lines[:mid] + ["\n", "# note\n"] + lines[mid:]),
        BOM + text,
    )


@pytest.mark.parametrize("through", ["file", "stdin"])
def test_a_circle_behind_a_bom_keeps_its_h1(tmp_path, capsys, monkeypatch, through):
    # the mark once stuck to the first label, so the first edge joined a
    # fourth vertex, the circle became a path and printed H_1 = 0 with exit 0
    path = tmp_path / "circle.complex"
    path.write_text(BOM + CIRCLE, encoding="utf-8")
    monkeypatch.setattr("sys.stdin", io.StringIO(BOM + CIRCLE))
    code = main(["homology", str(path) if through == "file" else "-"])
    assert (code, capsys.readouterr().out) == (0, "H_0 = Z^1\nH_1 = Z^1\n")


def test_writers_refuse_a_label_led_by_a_bom():
    # a reader drops the mark at the head of a file, so no label may start
    # with it; one further in is kept as written
    with pytest.raises(ValueError, match="U\\+FEFF"):
        check_file_labels(["b", BOM + "a"])
    check_file_labels(["a" + BOM])
    c = parse_complex_lines(f"a{BOM} b\n")
    assert c.labels == ("a" + BOM, "b")
    assert parse_complex_lines(complex_to_lines(c)) == c


def test_every_format_reads_back_from_every_copy():
    # behind a mark, a poset file once failed with "bad poset line
    # '\\ufeffelem ...'" and a function file with "bad header '\\ufeff4 2'"
    models = [build_tphi_power(3, 2), build_perp_poset([parse_vector("0/1,1/4,1/2,3/4")], 4)]
    for mp in models:
        for text in copies(format_poset_file(mp)):
            assert parse_poset_file(text) == mp, text
    for p in oracle_posets():
        c = order_complex(p)
        for text in copies("\n".join(complex_to_lines(c)) + "\n"):
            assert parse_complex_lines(text) == c, text
    functions = enum_grassmannian(4, 2, 2)
    assert len(functions) > 1
    for phi in functions:
        for text in copies(format_gp(phi)):
            assert parse_gp_file(text) == phi, text


def test_no_module_but_errors_splits_lines():
    # file_lines is the one place the readers' line rule is written
    calls = []
    for path in sorted(Path(tphi.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "splitlines":
                calls.append(path.name)
    assert calls == ["errors.py"]
