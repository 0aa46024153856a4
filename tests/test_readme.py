"""README.md names only code that exists."""

import importlib
import json
import pkgutil
import re
from pathlib import Path

import stackptr

ROOT = Path(__file__).parent.parent


def _resolves(dotted: str) -> bool:
    module, *attrs = dotted.split(".")
    obj = importlib.import_module(f"stackptr.{module}")
    for attr in attrs:
        if not hasattr(obj, attr):
            return False
        obj = getattr(obj, attr)
    return True


def test_module_references_resolve():
    # Every backticked `module.name` whose module is one of the package's
    # names an attribute of it, or is a metric the benchmark reports.
    modules = {info.name for info in pkgutil.iter_modules(stackptr.__path__)}
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    metrics = {m["name"] for m in bench["end_to_end"] + bench["per_layer"]}
    refs = set(re.findall(r"`([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+)`",
                          (ROOT / "README.md").read_text(encoding="utf-8")))
    refs = {ref for ref in refs if ref.split(".")[0] in modules}
    assert len(refs) >= 10, sorted(refs)
    assert [ref for ref in sorted(refs) if ref not in metrics and not _resolves(ref)] == []
