"""What loading tphi costs: the package and each CLI subcommand import
only the tphi modules they use, and no child loads the standard library
modules that tphi does not need: the data-class generator (and with it
`inspect`), or `json` outside `--format json-lines`.

`python -m tphi` runs the package's __init__ before the command line, so
an eager import there, or at the top of cli.py, would load every module
in every child.  Each subcommand here runs in a fresh interpreter, and the
tphi modules it loaded are read from that interpreter.
"""

import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import tphi
from tphi.models import build_tphi_power
from tphi.poset import format_poset_file
from tphi.simplicial import complex_to_lines, order_complex

LIBRARY = ("hyperfield", "phased", "poset", "simplicial", "homology", "models", "mccord")
ENV = dict(os.environ, PYTHONPATH=str(Path(tphi.__file__).resolve().parents[1]))

# the library modules each subcommand loads; {file} is a poset file of a
# power model, a face poset, {chain} one of a chain, which is not, and
# {complex} a complex file.  Every call runs its check (exit 0 or 1).
MODELS = {"hyperfield", "phased", "models", "poset"}
FOOTPRINT = (
    (("hfcalc", "0/1 + 1/2"), {"hyperfield"}),
    (("perp", "--k", "2", "0/1,0/1"), {"hyperfield", "phased"}),
    (("gp-enum", "--n", "3", "--r", "2", "--k", "2"), MODELS),
    (("transversal", "--n", "4", "--r", "2"), {"hyperfield", "phased"}),
    (("model-build", "--family", "power", "--n", "2", "--k", "2"), MODELS),
    (("poset-check", "{file}"), {"poset"}),
    (("order-complex", "{file}"), {"poset", "simplicial"}),
    (("homology", "{complex}"), {"simplicial", "homology"}),
    # a face poset's homology comes from its complex's faces
    (("mccord-verify", "{file}"), {"poset", "homology", "mccord"}),
    # any other poset's from its order complex
    (("mccord-verify", "{chain}"), {"poset", "simplicial", "homology", "mccord"}),
    (("cw-report", "{file}"), {"poset", "mccord"}),
)


def _row_id(argv) -> str:
    """The subcommand, marked when the row reads the chain file."""
    return argv[0] + "-chain" * ("{chain}" in argv)


IDS = [_row_id(a) for a, _ in FOOTPRINT]

REPORT = "print(' '.join(sorted(m for m in sys.modules if m.startswith('tphi.'))))"


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    d = tmp_path_factory.mktemp("footprint")
    mp = build_tphi_power(2, 2)
    poset = d / "model.poset"
    poset.write_text(format_poset_file(mp), encoding="utf-8")
    cx = d / "model.cx"
    cx.write_text("\n".join(complex_to_lines(order_complex(mp.poset))) + "\n", encoding="utf-8")
    chain = d / "chain.poset"
    chain.write_text("elem a\nelem b\nelem c\nrel a < b\nrel b < c\n", encoding="utf-8")
    return {"file": str(poset), "complex": str(cx), "chain": str(chain)}


def _library(names) -> set:
    return {n.removeprefix("tphi.") for n in names} & set(LIBRARY)


def _python(*args):
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=ENV, timeout=60
    )


def _imported(*args) -> set:
    # -X importtime names every module the child imports on stderr
    proc = _python("-X", "importtime", *args)
    assert proc.returncode in (0, 1), proc.stderr[-500:]
    return set(re.findall(r"\|\s*([\w.]+)$", proc.stderr, re.M))


def _via_module(argv) -> set:
    return _library(_imported("-m", "tphi", *argv))


def _via_main(argv) -> set:
    code = f"import sys\nfrom tphi.cli import main\nassert main({argv!r}) in (0, 1)\n{REPORT}"
    proc = _python("-c", code)
    assert proc.returncode == 0, proc.stderr[-500:]
    return _library(proc.stdout.split("\n")[-2].split())


@pytest.mark.parametrize("argv, loaded", FOOTPRINT, ids=IDS)
def test_python_m_tphi_loads_only_what_the_subcommand_runs(files, argv, loaded):
    assert _via_module([a.format(**files) for a in argv]) == loaded


@pytest.mark.parametrize("sub", ["hfcalc", "poset-check", "homology"])
def test_cli_main_loads_only_what_the_subcommand_runs(files, sub):
    argv, loaded = next(f for f in FOOTPRINT if f[0][0] == sub)
    assert _via_main([a.format(**files) for a in argv]) == loaded


@pytest.fixture(scope="module")
def bare():
    """What the interpreter itself loads at start, site hooks included."""
    return _imported("-c", "pass")


# the subcommands that print through --format json-lines
JSON_LINES = [a for a, _ in FOOTPRINT if a[0] not in ("model-build", "order-complex")]


@pytest.mark.parametrize("argv", [a for a, _ in FOOTPRINT], ids=IDS)
def test_text_child_loads_no_dataclasses_inspect_or_json(files, bare, argv):
    loaded = _imported("-m", "tphi", *[a.format(**files) for a in argv]) - bare
    assert "tphi.errors" in loaded
    assert not loaded & {"dataclasses", "inspect", "json"}


@pytest.mark.parametrize("argv", JSON_LINES, ids=list(map(_row_id, JSON_LINES)))
def test_json_lines_child_loads_json_only(files, bare, argv):
    argv = [a.format(**files) for a in argv] + ["--format", "json-lines"]
    loaded = _imported("-m", "tphi", *argv)
    assert "json" in loaded
    assert not (loaded - bare) & {"dataclasses", "inspect"}


def test_import_tphi_loads_no_submodule():
    proc = _python("-c", f"import sys, tphi\n{REPORT}")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "\n"


def test_package_names_are_their_home_module_objects():
    assert len(tphi.__all__) == len(set(tphi.__all__))
    for name in tphi.__all__:
        home = importlib.import_module(f"tphi.{tphi._MODULE_OF[name]}")
        assert getattr(tphi, name) is getattr(home, name), name
    assert set(tphi._MODULE_OF.values()) == set(LIBRARY)


def test_star_import_and_unknown_names():
    names = {}
    exec("from tphi import *", names)
    assert set(tphi.__all__) <= set(names)
    assert names["homology_groups"] is importlib.import_module("tphi.homology").homology_groups
    with pytest.raises(AttributeError, match="no_such_name"):
        tphi.no_such_name
    with pytest.raises(ImportError):
        exec("from tphi import no_such_name", {})
    # a submodule is still reached by name
    exec("from tphi import mccord", names)
    assert names["mccord"].__name__ == "tphi.mccord"
