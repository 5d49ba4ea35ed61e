"""The traced benchmark (bench/run.py --trace 1) wraps gicl functions and
methods by name, so deleting or renaming one that it lists breaks it."""

import importlib
import sys
from pathlib import Path

BENCH = str(Path(__file__).resolve().parents[1] / "bench")


def test_bench_tracer_installs_and_uninstalls():
    sys.path.insert(0, BENCH)
    try:
        import layers
        from tracer import Recorder
    finally:
        sys.path.remove(BENCH)
    modules = {m: importlib.import_module(f"gicl.{m}") for m in layers.FUNCTIONS}
    before = {(m, name): getattr(modules[m], name)
              for m, names in layers.FUNCTIONS.items() for name in names}

    recorder = Recorder()
    layers.install(recorder)
    try:
        assert all(getattr(modules[m], name) is not fn for (m, name), fn in before.items())
    finally:
        recorder.uninstall()
    assert all(getattr(modules[m], name) is fn for (m, name), fn in before.items())
