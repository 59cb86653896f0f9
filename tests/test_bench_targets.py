"""The benchmark's tracer rebinds perchsim functions by name; each name it
rebinds must stay an attribute of the module or class it names."""

import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def test_every_traced_name_is_defined_on_its_owner():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.TARGETS
    missing = [(getattr(owner, "__name__", owner), attr)
               for owner, attr, *_ in tracing.TARGETS if attr not in vars(owner)]
    assert missing == []
