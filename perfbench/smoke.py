"""Smoke test of the benchmark at a tiny shape, in about a minute.

    python3 perfbench/smoke.py

Runs every workload untraced and traced, checks that each run is correct
and reports every metric, feeds the checker corrupted outputs and checks
that each counts as a failed operation, and checks that the benchmark
refuses to run, printing no result, without the program's source.
"""

from __future__ import annotations

import dataclasses
import shutil
import subprocess
import sys
from pathlib import Path

from spawner import Spawner

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
TINY = {"n_train": 120, "n_test": 150, "n_ancestry": 300, "n_trait": 30}
SEED = 1


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"FAIL: {message}")
    print(f"ok: {message}")


def tiny(workload):
    return dataclasses.replace(workload, shape=dataclasses.replace(workload.shape, **TINY))


def runs_are_correct(spawner, bench, workloads) -> None:
    for workload in workloads.WORKLOADS.values():
        for trace in (False, True):
            result, record, _ = bench.measure(spawner, tiny(workload), SEED, 1.0, trace)
            label = f"{workload.name} trace={int(trace)}"
            expect(result["correct"] and result["failed"] == 0, f"{label} is correct")
            names = bench.PER_LAYER if trace else bench.END_TO_END
            expect(set(result["metrics"]) == set(names), f"{label} reports every metric")
            if trace:
                metrics = record["metrics"]
                bound = 2 * metrics["cli.startup_s"] + abs(metrics["tracing.overhead_s"])
                gaps = [gap for p in record["unaccounted_s"] for gap in p.values()]
                expect(
                    all(0.0 <= gap <= bound for gap in gaps),
                    f"{label} self times add up to each command's traced time "
                    f"(gaps {min(gaps):.3f}..{max(gaps):.3f} s)",
                )


def _rewrite(path: Path, edit) -> None:
    path.write_text(edit(path.read_text(encoding="utf-8")), encoding="utf-8")


def corrupted_outputs_fail(spawner, bench, workloads) -> None:
    workload = tiny(workloads.WORKLOADS["score-wide"])
    work = bench.WORK / "smoke-corrupt"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    b = bench.Bench(spawner, workload, SEED, 1.0, work)
    try:
        inputs, _ = b.setup(work / "in")
        runs = b.run_commands(inputs, work, False, "good")
        b.in_sample_check(inputs, work)
        expect(b.ledger.failed == 0, "uncorrupted outputs pass the checker")
        files = workloads.data_files(workload, inputs, work / "simulate")

        def fails(command: str, out: str, split: str, what: str) -> None:
            before = b.ledger.failed
            problems = b.check(command, work / out, files, inputs, work, split)
            b.ledger.record(f"corrupt {what}", problems)
            expect(b.ledger.failed == before + 1, f"{what} counts as failed: {problems[:1]}")

        report = work / "score" / "report.csv"
        original = report.read_text(encoding="utf-8")

        def raw_as_adjusted(text: str) -> str:
            lines = [line.split(",") for line in text.splitlines()]
            for fields in lines[1:]:
                fields[-2] = fields[-3]
            return "\n".join(",".join(fields) for fields in lines) + "\n"

        _rewrite(report, raw_as_adjusted)
        fails("score", "score", "test", "report with adjusted_prs replaced by raw_prs")
        report.write_text("\n".join(original.splitlines()[:-1]) + "\n", encoding="utf-8")
        fails("score", "score", "test", "report missing its last row")
        report.unlink()
        fails("score", "score", "test", "score output without report.csv")

        metrics = work / "evaluate" / "metrics.txt"
        values = bench.checker.read_metrics(metrics)
        _rewrite(metrics, lambda t: t.replace(
            f"auc_adjusted={values['auc_adjusted']}", f"auc_adjusted={values['auc_raw']}"))
        fails("evaluate", "evaluate", "test", "auc_adjusted not above auc_raw")

        summary = work / "evaluate-train" / "population_summary.csv"
        _rewrite(summary, lambda t: "\n".join(
            t.splitlines()[:-1] + [",".join(t.splitlines()[-1].split(",")[:-1] + ["0.5"])]) + "\n")
        fails("evaluate", "evaluate-train", "train", "a population outside the high-risk band")
        expect(len(runs) == len(workload.commands), "every command ran")
    finally:
        shutil.rmtree(work, ignore_errors=True)


def refuses_without_source() -> None:
    bare = ROOT / ".bench_work" / "smoke-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy2(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    try:
        done = subprocess.run(
            [sys.executable, f"{HERE.name}/run.py", "--workload", "pipeline-large",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    expect(done.returncode != 0 and '"correct"' not in done.stdout,
           f"without src/ the benchmark exits {done.returncode} and prints no result")


def main() -> None:
    with Spawner() as spawner:
        sys.path.insert(0, str(SRC))
        import bench
        import workloads

        runs_are_correct(spawner, bench, workloads)
        corrupted_outputs_fail(spawner, bench, workloads)
    refuses_without_source()
    print("smoke: all checks passed")


if __name__ == "__main__":
    main()
