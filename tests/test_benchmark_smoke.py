"""The benchmark's smoke run passes, and no per-layer metric falls to 0.

`perfbench/run.py --trace 1` times lexalign from outside by wrapping its
functions (see perfbench/tracer.py). A change that moves work past a wrapped
name leaves the run passing while the layer it timed reads 0, so each
workload's zero metrics must stay within the ones it reads 0 for today: the
layers it never runs, and layers the tracer misses, such as align.meemi_s
(fit_method calls align._meemi, not the wrapped meemi_bilingual). Remove a
name from ALLOWED_ZEROS once its metric reads non-zero.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

# the layers of round-trip translation, of the `lexalign run` command (process,
# text files, hashes), and of fitting and retrieval
TRANSLATE = {"translate.attempts_per_lookup", "translate.cache_append_s",
             "translate.cache_hit_ratio", "translate.cache_load_s",
             "translate.endpoint_wait_s", "translate.lookups", "translate.requests"}
RUN_COMMAND = {"cli.import_s", "cli.process_s", "embeddings.load_mb_per_s",
               "embeddings.load_s", "embeddings.save_mb_per_s", "embeddings.save_s",
               "maps.save_s", "pipeline.hash_mb", "pipeline.run_s", "pipeline.self_s"}
FIT_AND_EVAL = {"align.orthogonal_s", "align.self_s", "embeddings.normalize_s",
                "induction.bytes_gb", "induction.eval_queries", "induction.eval_s",
                "induction.score_gflop", "maps.first_lapack_s", "maps.least_squares_s",
                "maps.paired_s", "maps.pairs_used", "maps.procrustes_s"}

# the per-layer metrics each workload reads 0 for
ALLOWED_ZEROS = {
    "pipeline": {"align.meemi_s", "induction.induce_s", *TRANSLATE},
    "retrieval": {"align.meemi_s", "dictionary.clean_s", "dictionary.load_s",
                  "dictionary.pairs", "dictionary.save_s", "dictionary.split_s",
                  "maps.least_squares_s", *TRANSLATE, *RUN_COMMAND},
    "dictbuild": {"align.meemi_s", "dictionary.load_s", "induction.induce_s",
                  "translate.cache_append_s", *RUN_COMMAND, *FIT_AND_EVAL},
}


@pytest.mark.parametrize("workload", sorted(ALLOWED_ZEROS))
def test_smoke_run_passes_and_times_every_layer_it_runs(workload):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", "1", "--size", "smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
    zeros = {name for name, metric in result["metrics"].items() if metric["value"] == 0}
    assert zeros <= ALLOWED_ZEROS[workload]
