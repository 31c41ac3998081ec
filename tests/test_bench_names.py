"""The names the bench's span tracer wraps resolve in gridarx.

`bench/spans.py` replaces module attributes of gridarx by name (its
`TARGETS`), so a name deleted or renamed in `src/` breaks a traced bench
run (`bench/run.py --trace 1`). Some names stay for that alone: the
`scenario.write_*_csv` writers, which no run calls, and the re-imports
`pipeline.rls_update`, `scenario.simulate` and `simulate.rbs_generate`.
"""

import importlib
import importlib.util
import os

import pytest

SPANS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "bench", "spans.py")


def traced_names():
    """(module, attribute) of each entry of bench/spans.py's TARGETS."""
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return [(module, attribute) for module, attribute, _, _ in spans.TARGETS]


@pytest.mark.parametrize("module, attribute", traced_names())
def test_traced_name_resolves(module, attribute):
    assert module.split(".")[0] == "gridarx"
    assert callable(getattr(importlib.import_module(module), attribute))
