"""The functions the benchmark traces (``bench/spans.py:TRACED``) exist.

The benchmark wraps each ``carev.<layer>.<function>`` by name and reads
``canonical_modulus.cache_info()``, so a rename inside the package would
break it.  ``spans.py`` is executed from its source text, which writes no
bytecode next to it.
"""

import importlib
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def test_traced_names_resolve_on_the_package():
    ns = {}
    exec(compile(SPANS.read_text(), str(SPANS), "exec"), ns)
    assert ns["TRACED"]
    for layer, names in ns["TRACED"].items():
        module = importlib.import_module(f"carev.{layer}")
        for name in names:
            assert callable(getattr(module, name, None)), f"carev.{layer}.{name}"
    field = importlib.import_module("carev.field")
    assert callable(field.canonical_modulus.cache_info)
