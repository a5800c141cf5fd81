"""The tphi names the benchmark reaches must resolve.

perfbench/spans.py wraps every TARGETS entry when a run is traced, and
perfbench/workloads.py calls tphi functions through their modules while
setting up and running its workloads.  A name deleted from tphi would
otherwise break only a traced run or a workload's set-up.
"""

import importlib
import importlib.util
import re
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _resolve(module: str, dotted: str):
    obj = importlib.import_module(f"tphi.{module}")
    for part in dotted.split("."):
        obj = getattr(obj, part)
    return obj


def test_span_targets_resolve():
    spec = importlib.util.spec_from_file_location("perfbench_spans", PERFBENCH / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans.TARGETS
    for module, attr, _, _ in spans.TARGETS:
        assert callable(_resolve(module, attr)), f"tphi.{module}.{attr}"


def test_workload_module_attributes_resolve():
    text = (PERFBENCH / "workloads.py").read_text(encoding="utf-8")
    modules = re.search(r"^from tphi import (.+)$", text, re.M).group(1).split(", ")
    names = set(re.findall(rf"(?<![\w.])({'|'.join(modules)})\.(\w+)", text))
    assert names
    for module, attr in sorted(names):
        _resolve(module, attr)
