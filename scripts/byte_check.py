"""Byte check: the CLI of a parent revision and of this checkout, same inputs.

    python3 scripts/byte_check.py PARENT_REV

Exports PARENT_REV with ``git archive`` into a temporary directory and
writes the inputs once: the ``pipeline-large`` and ``score-wide`` inputs of
``perfbench/workloads.py`` at seed 11 (the built-in default cohort and
``pipeline-large``'s cohort are written by each tree's own ``simulate``).
Each tree then runs simulate, fit at ``--k 4`` and ``--k auto``, score on
every split and evaluate on each report, with its own ``src/``, one BLAS
thread, and the same working directory and relative paths. Every output
file and each command's stdout, stderr and exit code are compared byte for
byte. Prints IDENTICAL, or, for each file that differs, the number of its
differing lines (paired by difflib, so a removed or inserted line does not
shift the rest) and the first three of them, and exits 1.
"""

from __future__ import annotations

import difflib
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BLAS_ENV = dict.fromkeys(("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"), "1")
os.environ.update(BLAS_ENV)  # before numpy loads: the set-up runs BLAS too
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import workloads  # noqa: E402
from prsadjust.simulate import DEFAULT_SCENARIO  # noqa: E402

SEED = 11
SHOWN = 3  # differing lines printed per file
RUN_MAIN = "import sys; from prsadjust.cli import main; sys.exit(main(sys.argv[1:]))"


def export(rev: str, dest: Path) -> None:
    """The tree of ``rev``, as ``git archive`` writes it, under ``dest``."""
    dest.mkdir()
    archive = subprocess.Popen(["git", "-C", str(ROOT), "archive", rev], stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", str(dest)], stdin=archive.stdout, check=True)
    archive.stdout.close()
    if archive.wait():
        raise SystemExit(f"git archive {rev} failed")


def steps(work: Path) -> list[list[str]]:
    """Write the inputs under ``work``; every command's arguments, in run
    order, with paths relative to ``work``."""
    cases = {"default": (DEFAULT_SCENARIO, None, [])}
    for name in ("pipeline-large", "score-wide"):
        workload = workloads.WORKLOADS[name]
        inputs = workloads.setup(workload, SEED, work / "inputs" / name)
        files = {role: str(path.relative_to(work)) for role, path in inputs.files.items()}
        if workload.simulates:
            cases[name] = (inputs.scenario, None, ["--scenario", files["scenario"]])
        else:
            cases[name] = (inputs.scenario, files, None)
    argvs = []
    for name, (scenario, files, simulate_args) in cases.items():
        base = Path("run") / name
        if files is None:
            argvs.append(["simulate", *simulate_args, "--out", str(base / "simulate")])
            files = {role: str(base / "simulate" / file) for role, file in workloads.DATA_FILES.items()}
        if any(pop.n_test for pop in scenario.populations):
            vcfs = {"train": files["train_genotypes"], "test": files["test_genotypes"]}
        else:  # simulate writes one VCF when no population has a held-out split
            vcfs = {"all": str(base / "simulate" / "genotypes.vcf")}
        for k in ("4", "auto"):
            out = base / f"k{k}"
            argvs.append([
                "fit", "--train-vcf", vcfs.get("train", vcfs.get("all")), "--panel", files["panel"],
                "--weights", files["weights"], "--k", k, "--out", str(out / "fit"),
            ])
            for s, vcf in vcfs.items():
                argvs.append([
                    "score", "--test-vcf", vcf, "--weights", files["weights"],
                    "--model-dir", str(out / "fit"), "--phenotypes", files["phenotypes"],
                    "--out", str(out / f"score-{s}"),
                ])
                argvs.append([
                    "evaluate", "--report", str(out / f"score-{s}" / "report.csv"),
                    "--out", str(out / f"evaluate-{s}"),
                ])
    return argvs


def run_tree(src: Path, argvs: list[list[str]], work: Path) -> None:
    """Run every command with ``src`` first on the path; logs go beside each --out."""
    env = {**os.environ, **BLAS_ENV, "PYTHONPATH": str(src)}
    where = subprocess.run(
        [sys.executable, "-c", "import prsadjust; print(prsadjust.__file__)"],
        env=env, capture_output=True, text=True, check=True,
    ).stdout.strip()
    if not Path(where).resolve().is_relative_to(src.resolve()):
        raise SystemExit(f"{src} is not what runs: prsadjust loads from {where}")
    for argv in argvs:
        proc = subprocess.run([sys.executable, "-c", RUN_MAIN, *argv], cwd=work, env=env,
                              capture_output=True)
        log = work / argv[argv.index("--out") + 1]
        log.parent.mkdir(parents=True, exist_ok=True)
        for suffix, data in (("stdout", proc.stdout), ("stderr", proc.stderr),
                             ("exit", f"{proc.returncode}\n".encode())):
            log.with_name(f"{log.name}.{suffix}").write_bytes(data)


def changed_lines(old_lines: list[bytes], new_lines: list[bytes]):
    """(line number, old text, new text) of each line that differs, the lines
    paired by difflib; a line one side lacks reads None there and is numbered
    in the side that has it, the others in the parent's file."""
    matcher = difflib.SequenceMatcher(None, old_lines, new_lines, autojunk=False)
    for tag, i1, i2, j1, j2 in matcher.get_opcodes():
        if tag == "equal":
            continue
        for offset in range(max(i2 - i1, j2 - j1)):
            old = old_lines[i1 + offset] if i1 + offset < i2 else None
            new = new_lines[j1 + offset] if j1 + offset < j2 else None
            yield (i1 if old is not None else j1) + offset + 1, old, new


def differences(parent: Path, current: Path, rev: str) -> list[str]:
    """For each file that is not the same in both runs, a line counting its
    differing lines, then the first ``SHOWN`` of them."""
    def files(top):
        return {path.relative_to(top) for path in top.rglob("*") if path.is_file()}

    def text(line):
        return "<absent>" if line is None else repr(line[:160])

    found = []
    ours, theirs = files(current), files(parent)
    for rel in sorted(ours | theirs):
        if rel not in theirs or rel not in ours:
            found.append(f"{rel}: written only by {'this checkout' if rel in ours else rev}")
            continue
        old, new = (parent / rel).read_bytes(), (current / rel).read_bytes()
        if old != new:
            changed = list(changed_lines(old.splitlines(), new.splitlines()))
            found.append(f"{rel}: {len(changed)} differing line{'s' * (len(changed) != 1)}")
            found.extend(
                f"    line {number}: {text(a)} -> {text(b)}" for number, a, b in changed[:SHOWN]
            )
    return found


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    rev = argv[0]
    with tempfile.TemporaryDirectory(prefix="byte_check-") as tmp:
        tmp = Path(tmp)
        export(rev, tmp / "parent-tree")
        work = tmp / "work"
        argvs = steps(work)
        for label, src in (("parent", tmp / "parent-tree" / "src"), ("current", ROOT / "src")):
            run_tree(src, argvs, work)
            shutil.move(work / "run", work / label)
        found = differences(work / "parent", work / "current", rev)
    print("\n".join(found) if found else "IDENTICAL")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
