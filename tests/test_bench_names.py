"""The benchmark's traced names still resolve in the library.

``perfbench/spans.py`` times each layer by patching the functions it names;
a name that no longer resolves is reported as missing, not raised, so a
rename would otherwise drop a per-layer metric without notice.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans():
    """The tracer module, loaded from its file without writing bytecode there."""
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    dont_write = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
    return module


def bindings() -> dict:
    """Every attribute of every loaded adlv module and of the classes each defines."""
    out = {}
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "adlv" or name.startswith("adlv.")):
            continue
        for attr, value in list(vars(module).items()):
            out[name, attr] = value
            if isinstance(value, type) and value.__module__ == name:
                for member, raw in list(vars(value).items()):
                    out[name, attr, member] = raw
    return out


def test_traced_names_resolve_and_uninstall_restores_them():
    spans = load_spans()
    for module_name, _, _ in spans.LAYERS.values():
        importlib.import_module(module_name)
    importlib.import_module(spans.AUDIT_MODULE)
    before = bindings()
    tracer = spans.Tracer()
    try:
        tracer.install()
        during = bindings()
    finally:
        tracer.uninstall()
    assert tracer.missing == []
    patched = {key for key in before if during[key] is not before[key]}
    assert len(patched) >= len(spans.LAYERS)
    for prefix, (module_name, path, _) in spans.LAYERS.items():
        assert (module_name, *path.split(".")) in patched, prefix
    after = bindings()
    assert after.keys() == before.keys()
    assert [key for key in before if after[key] is not before[key]] == []
