"""A sample's scores depend only on its own genotypes and the models.

`score` on any subset or permutation of a cohort gives each sample bitwise
the PCs, ``raw_prs`` and ``adjusted_prs`` of its row in the whole file, and
`score` on the training file gives bitwise the PCs `fit` regressed on. The
cohort has no missing calls: missing panel and weight calls are still
filled with the scored file's own column means, which depend on the file.

The promise rests on the BLAS build computing each row of a fixed-size
block product the same way wherever the row sits in the block; it was
verified with OpenBLAS 0.3.31 and numpy 2.4.6, at one BLAS thread here
(``conftest.py`` pins it) and at two in a subprocess.
"""

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from prsadjust import adjust, cli

# 300 training and 300 held-out samples, no missing calls.
SCENARIO = """\
seed=5
population=POPA:100:0.1:0.5:100
population=POPB:100:0.1:0.0:100
population=POPC:100:0.1:-0.5:100
n_ancestry_snps=2000
n_trait_snps=40
"""
N_HELD_OUT = 300


def _rows(pcs, *scores):
    """{sample id: the bytes of its PCs and of each of ``scores``}."""
    return {
        sid: (pcs.scores[i].tobytes(), *(s.scores[i].tobytes() for s in scores))
        for i, sid in enumerate(pcs.sample_ids)
    }


def score_rows(vcf, files, model_dir, out):
    """{sample id: (PCs, raw_prs, adjusted_prs)} as `score` computes them for ``vcf``."""
    rows = {}
    report = cli.scores_to_report

    def record(samples, pcs, raw, adjusted):
        rows.update(_rows(pcs, raw, adjusted))
        return report(samples, pcs, raw, adjusted)

    with mock.patch.object(cli, "scores_to_report", record):
        code = cli.main([
            "score", "--test-vcf", str(vcf), "--weights", str(files / "weights.tsv"),
            "--model-dir", str(model_dir), "--out", str(out),
        ])
    assert code == 0
    return rows


def write_subset(vcf, order, dest):
    """``vcf`` with only the samples at ``order``'s positions, in that order."""
    with open(vcf) as source, open(dest, "w") as out:
        for line in source:
            if line.startswith("##"):
                out.write(line)
                continue
            fields = line.rstrip("\n").split("\t")
            out.write("\t".join(fields[:9] + [fields[9 + i] for i in order]) + "\n")


def mismatches(files, model_dir, orders, work):
    """Ids of the samples of ``orders``' subset files whose rows differ from the whole file's."""
    vcf = files / "test_genotypes.vcf"
    whole = score_rows(vcf, files, model_dir, work / "whole")
    found = []
    for n, order in enumerate(orders):
        subset = work / f"subset{n}.vcf"
        write_subset(vcf, order, subset)
        rows = score_rows(subset, files, model_dir, work / f"subset{n}")
        found.extend(sid for sid, row in rows.items() if row != whole[sid])
    return found


@pytest.fixture(scope="module")
def cohort(tmp_path_factory):
    """The simulated files, and a function that fits the models at k on first use
    and returns their directory and `fit`'s training PCs by sample id."""
    root = tmp_path_factory.mktemp("rows")
    (root / "scenario.cfg").write_text(SCENARIO)
    files = root / "data"
    assert cli.main(["simulate", "--scenario", str(root / "scenario.cfg"), "--out", str(files)]) == 0
    models = {}

    def fitted(k):
        if k not in models:
            training = {}
            adjustment = adjust.fit_adjustment

            def record(raw, pcs):
                training.update((sid, row[0]) for sid, row in _rows(pcs).items())
                return adjustment(raw, pcs)

            with mock.patch.object(adjust, "fit_adjustment", record):
                assert cli.main([
                    "fit", "--train-vcf", str(files / "train_genotypes.vcf"),
                    "--panel", str(files / "panel.txt"), "--weights", str(files / "weights.tsv"),
                    "--k", str(k), "--out", str(root / f"k{k}"),
                ]) == 0
            models[k] = root / f"k{k}", training
        return models[k]

    return files, fitted


@settings(max_examples=15, deadline=None)
@given(k=st.integers(1, 9), size=st.integers(1, N_HELD_OUT), data=st.data())
@example(k=2, size=1, data=None).via("one sample")
@example(k=3, size=N_HELD_OUT, data=None).via("the whole file reversed")
def test_a_samples_row_does_not_depend_on_its_file(cohort, k, size, data):
    files, fitted = cohort
    if data is None:
        order = list(range(N_HELD_OUT))[::-1][:size]
    else:
        order = data.draw(st.permutations(range(N_HELD_OUT)))[:size]
    with tempfile.TemporaryDirectory() as work:
        assert mismatches(files, fitted(k)[0], [order], Path(work)) == []


def test_rows_do_not_depend_on_the_file_at_two_blas_threads(cohort, tmp_path):
    """The same check in a process whose BLAS runs two threads: the suite's own
    process pinned one before numpy loaded."""
    files, fitted = cohort
    rng = np.random.default_rng(20)
    sizes = (1, 2, 17, 125, 129, N_HELD_OUT)
    cases = [
        (str(fitted(k)[0]), [rng.permutation(N_HELD_OUT)[:size].tolist() for size in sizes])
        for k in (3, 9)
    ]
    script = (
        "import json, sys\n"
        "from pathlib import Path\n"
        "from test_row_independence import mismatches\n"
        "files, cases, work = json.loads(sys.argv[1])\n"
        "found = [mismatches(Path(files), Path(model), orders, Path(work) / str(i))\n"
        "         for i, (model, orders) in enumerate(cases)]\n"
        "print(json.dumps(found))\n"
    )
    paths = [str(Path(cli.__file__).resolve().parents[1]), str(Path(__file__).resolve().parent)]
    env = {
        **os.environ,
        **dict.fromkeys(("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"), "2"),
        "PYTHONPATH": os.pathsep.join(paths + [os.environ.get("PYTHONPATH", "")]),
    }
    proc = subprocess.run(
        [sys.executable, "-c", script, json.dumps([str(files), cases, str(tmp_path)])],
        env=env, capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == [[], []]


@pytest.mark.parametrize("k", [2, 3])
def test_score_on_the_training_file_gives_fits_pcs(cohort, k, tmp_path):
    """At k = 2 and 3 a one-shot product with the loadings rounds differently
    from its 128-row blocks, so `fit` and `project` must both take the blocks."""
    files, fitted = cohort
    model_dir, training = fitted(k)
    rows = score_rows(files / "train_genotypes.vcf", files, model_dir, tmp_path / "score")
    assert {sid: row[0] for sid, row in rows.items()} == training
