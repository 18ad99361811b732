"""Byte check: the CLI of a parent revision and of this checkout, same inputs.

    python3 scripts/byte_check.py PARENT_REV

Exports PARENT_REV with ``git archive`` into a temporary directory. Each
tree then, with its own ``src/``, at 1 and at 2 BLAS threads (the
benchmark's count), and in the same working directory with the same
relative paths, writes the ``pipeline-large`` and ``score-wide`` inputs of
this checkout's ``perfbench/workloads.py`` at seed 11 (the built-in default
cohort and ``pipeline-large``'s cohort are written by each tree's own
``simulate``) and runs simulate, fit at ``--k 4``, ``--k 8`` (12-column
Krylov blocks) and ``--k auto``, score on every split and evaluate on each
report. Every input file, every output file and each command's stdout,
stderr and exit code are compared byte for byte with the parent's run at
the same thread count; the two thread counts are not compared with each
other, since BLAS may round otherwise at another count. Prints one verdict
per (threads, k) cell, IDENTICAL or the number of differing files (k "-"
holds the inputs and ``simulate``), then, for each file that differs, the
number of its differing lines (paired by difflib, so a removed or inserted
line does not shift the rest) and the first three of them, and exits 1 if
any cell differs. Last it prints each tree's peak RSS for every command
(simulate, fit, score and evaluate); the table is not compared, and the
exit code depends on the bytes alone. The commands are started by
``perfbench/spawner.py``'s helper, launched before this script loads numpy,
so each figure is the command's own high-water mark.
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
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
THREADS = (1, 2)
KS = ("4", "8", "auto")
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from spawner import Spawner  # noqa: E402  (standard library only: loads no numpy)

SEED = 11
SHOWN = 3  # differing lines printed per file
TIMEOUT_S = 1800  # per command
# argv: STDERR_PATH CLI_ARGS...; the launcher sends stdout to the command's log.
RUN_MAIN = (
    "import os, sys\n"
    "os.dup2(os.open(sys.argv[1], os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644), 2)\n"
    "from prsadjust.cli import main\n"
    "sys.exit(main(sys.argv[2:]))\n"
)
INPUT_WORKLOADS = ("pipeline-large", "score-wide")
WRITE_INPUTS = (
    "import sys; from pathlib import Path; import workloads\n"
    "for name in sys.argv[2:]:\n"
    "    workloads.setup(workloads.WORKLOADS[name], int(sys.argv[1]), Path('inputs') / name)\n"
)


def export(rev: str, dest: Path) -> None:
    """The tree of ``rev``, as ``git archive`` writes it, under ``dest``."""
    dest.mkdir()
    archive = subprocess.Popen(["git", "-C", str(ROOT), "archive", rev], stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", str(dest)], stdin=archive.stdout, check=True)
    archive.stdout.close()
    if archive.wait():
        raise SystemExit(f"git archive {rev} failed")


def steps() -> list[list[str]]:
    """Every command's arguments, in run order, with paths relative to the
    working directory, where :func:`write_inputs` puts the inputs."""
    import workloads
    from prsadjust.simulate import DEFAULT_SCENARIO

    held_out = any(pop.n_test for pop in DEFAULT_SCENARIO.populations)
    cases = {"default": (held_out, None, [])}
    for name in INPUT_WORKLOADS:
        workload = workloads.WORKLOADS[name]
        held_out = workload.shape.n_test > 0
        if workload.simulates:
            cases[name] = (held_out, None, ["--scenario", f"inputs/{name}/scenario.cfg"])
        else:
            files = {role: f"inputs/{name}/{file}" for role, file in workloads.DATA_FILES.items()}
            cases[name] = (held_out, files, None)
    argvs = []
    for name, (held_out, files, simulate_args) in cases.items():
        base = Path("run") / name
        if files is None:
            argvs.append(["simulate", *simulate_args, "--out", str(base / "simulate")])
            files = {role: str(base / "simulate" / file) for role, file in workloads.DATA_FILES.items()}
        if held_out:
            vcfs = {"train": files["train_genotypes"], "test": files["test_genotypes"]}
        else:  # simulate writes one VCF when no population has a held-out split
            vcfs = {"all": str(base / "simulate" / "genotypes.vcf")}
        for k in KS:
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


def tree_env(src: Path, threads: int) -> dict[str, str]:
    """The environment that runs ``src``'s package (checked) with ``threads`` BLAS threads."""
    env = {
        **os.environ, **dict.fromkeys(BLAS_VARS, str(threads)),
        "PYTHONPATH": os.pathsep.join((str(src), str(ROOT / "perfbench"))),
    }
    where = subprocess.run(
        [sys.executable, "-c", "import prsadjust; print(prsadjust.__file__)"],
        env=env, capture_output=True, text=True, check=True,
    ).stdout.strip()
    if not Path(where).resolve().is_relative_to(src.resolve()):
        raise SystemExit(f"{src} is not what runs: prsadjust loads from {where}")
    return env


def write_inputs(env: dict[str, str], work: Path) -> None:
    """Write each workload's inputs under ``work/inputs`` with the tree ``env`` runs."""
    subprocess.run([sys.executable, "-c", WRITE_INPUTS, str(SEED), *INPUT_WORKLOADS],
                   cwd=work, env=env, check=True)


def run_tree(spawner: Spawner, env: dict[str, str], argvs: list[list[str]], work: Path):
    """Run every command under ``env``; logs go beside each --out. Returns
    the peak RSS (MB) of each command, keyed by its --out."""
    peaks = {}
    for argv in argvs:
        out = argv[argv.index("--out") + 1]
        log = work / out
        log.parent.mkdir(parents=True, exist_ok=True)
        _, peak, code = spawner.run(
            [sys.executable, "-c", RUN_MAIN, str(log.with_name(f"{log.name}.stderr")), *argv],
            env, work, log.with_name(f"{log.name}.stdout"), TIMEOUT_S,
        )
        log.with_name(f"{log.name}.exit").write_text(f"{code}\n")
        peaks[out] = peak
    return peaks


def cell(rel: Path) -> tuple[str, str]:
    """The (threads, k) cell of a compared file: ``threads1/run/default/k4/...``
    is ("1", "4"); the inputs and ``simulate``'s files are in k "-"."""
    parts = rel.parts
    k = parts[3][1:] if parts[1] == "run" and parts[3] in {f"k{k}" for k in KS} else "-"
    return parts[0].removeprefix("threads"), k


def cell_table(found: dict[Path, list[str]]) -> list[str]:
    """One verdict per (threads, k) cell: IDENTICAL or its differing files' count."""
    counts = {(str(t), k): 0 for t in THREADS for k in ("-", *KS)}
    for rel in found:
        counts[cell(rel)] += 1
    lines = [f"{'threads':<8} {'k':<5} verdict"]
    for (t, k), n in counts.items():
        verdict = f"{n} differing file{'s' * (n != 1)}" if n else "IDENTICAL"
        lines.append(f"{t:<8} {k:<5} {verdict}")
    return lines


def peak_table(peaks: dict[str, dict[str, float]], rev: str) -> list[str]:
    """One line per command: its peak RSS in each tree."""
    parent, current = peaks["parent"], peaks["current"]
    width = max(map(len, parent))
    lines = [f"{'peak RSS (MB)':<{width}}  {rev:>9}  {'current':>9}"]
    lines.extend(f"{out:<{width}}  {parent[out]:>9.1f}  {current[out]:>9.1f}" for out in parent)
    return lines


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


def differences(parent: Path, current: Path, rev: str) -> dict[Path, list[str]]:
    """For each file that is not the same in both runs, a line counting its
    differing lines, then the first ``SHOWN`` of them."""
    def files(top):
        return {path.relative_to(top) for path in top.rglob("*") if path.is_file()}

    def text(line):
        return "<absent>" if line is None else repr(line[:160])

    found = {}
    ours, theirs = files(current), files(parent)
    for rel in sorted(ours | theirs):
        if rel not in theirs or rel not in ours:
            found[rel] = [f"{rel}: written only by {'this checkout' if rel in ours else rev}"]
            continue
        old, new = (parent / rel).read_bytes(), (current / rel).read_bytes()
        if old != new:
            changed = list(changed_lines(old.splitlines(), new.splitlines()))
            found[rel] = [f"{rel}: {len(changed)} differing line{'s' * (len(changed) != 1)}"]
            found[rel].extend(
                f"    line {number}: {text(a)} -> {text(b)}" for number, a, b in changed[:SHOWN]
            )
    return found


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    rev = argv[0]
    peaks = {}
    with Spawner() as spawner, tempfile.TemporaryDirectory(prefix="byte_check-") as tmp:
        tmp = Path(tmp)
        export(rev, tmp / "parent-tree")
        work = tmp / "work"
        work.mkdir()
        argvs = steps()
        for label, src in (("parent", tmp / "parent-tree" / "src"), ("current", ROOT / "src")):
            peaks[label] = {}
            for threads in THREADS:
                env = tree_env(src, threads)
                write_inputs(env, work)
                runs = run_tree(spawner, env, argvs, work)
                peaks[label].update((f"threads{threads}/{out}", peak) for out, peak in runs.items())
                kept = work / label / f"threads{threads}"
                kept.mkdir(parents=True)
                for part in ("inputs", "run"):
                    shutil.move(work / part, kept / part)
        found = differences(work / "parent", work / "current", rev)
    print("\n".join(cell_table(found)))
    for lines in found.values():
        print("\n".join(lines))
    print("\n".join(peak_table(peaks, rev)))
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
