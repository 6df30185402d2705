"""Every name the benchmark's tracer wraps resolves.

perfbench/tracer.py times lexalign by replacing module attributes, some of
which nothing in lexalign itself reads (pipeline.align_orthogonal,
pipeline.meemi_bilingual, cli.run_pipeline, translate.append_cache). A
simplification that deletes one of them breaks `perfbench/run.py --trace 1`,
so this test fails first. The tracer module is only imported, not installed.
"""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def test_every_wrapped_name_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.WRAPS
    missing = [(module, attr) for module, attr, _, _ in tracer.WRAPS
               if not hasattr(importlib.import_module(module), attr)]
    assert missing == []
