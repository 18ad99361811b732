"""Workload definitions: input shapes, seeded input generation, CLI commands.

Every workload is three populations whose trait offsets run against their
genetic drift (the README's confounded scenario). Inputs come only from
the workload seed and the library's public functions; the CLI under test
sees nothing but the files written here.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from prsadjust import genotypes, io, simulate

POPULATIONS = ("POPA", "POPB", "POPC")
FST = 0.25
TRAIT_WEIGHT_SD = 0.12
# Liability means the populations end up with, from the lowest mean raw
# score to the highest. Reversing the drift's order is what makes raw
# scores confounded; a fixed spread keeps the confounding strong on every
# seed, however close the drawn population means happen to fall.
TARGET_LIABILITY_MEANS = (1.5, 0.0, -1.5)
TARGET_PREVALENCE = 0.25
DOSAGE_NOISE_SD = 0.1
DOSAGE_DECIMALS = 3


@dataclass(frozen=True)
class Shape:
    """Input shape of one workload; sample counts are per population."""

    n_train: int
    n_test: int
    n_ancestry: int
    n_trait: int
    panel_stride: int = 1  # the panel lists every panel_stride-th ancestry SNP
    dosage: bool = False  # GT:DS with fractional dosages instead of GT calls
    missing_rate: float = 0.0


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    prediction: str
    commands: tuple[str, ...]  # CLI commands timed, in order
    shape: Shape

    @property
    def simulates(self) -> bool:
        """Whether the timed simulate command writes the data fit reads."""
        return self.commands[0] == "simulate"


# The files fit and score read, by role, as simulate.write_scenario names them.
DATA_FILES = {
    "train_genotypes": "train_genotypes.vcf",
    "test_genotypes": "test_genotypes.vcf",
    "weights": "weights.tsv",
    "panel": "panel.txt",
    "phenotypes": "phenotypes.tsv",
}


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="pipeline-large",
            why="simulate, fit, score and evaluate at the largest shape; "
            "the eigensolve and VCF writing dominate",
            prediction="a column-selective VCF parser changes nothing here",
            commands=("simulate", "fit", "score", "evaluate"),
            shape=Shape(n_train=700, n_test=100, n_ancestry=2100, n_trait=210),
        ),
        Workload(
            name="score-wide",
            why="a large held-out cohort in GT:DS with 2% missing calls whose VCF rows "
            "are mostly outside the panel and weights, so the DS parse branch, "
            "the mean fill and scoring carry the time",
            prediction="eigensolver changes leave score_s and evaluate_s unchanged; "
            "a GT-only fast path or a new imputation rule costs nothing here",
            commands=("fit", "score", "evaluate"),
            shape=Shape(
                n_train=400,
                n_test=500,
                n_ancestry=1050,
                n_trait=80,
                panel_stride=3,
                dosage=True,
                missing_rate=0.02,
            ),
        ),
    )
}


@dataclass
class Inputs:
    """What one set-up wrote, and the ground truth the checker compares with."""

    scenario: simulate.ScenarioConfig
    cohort: simulate.SyntheticCohort  # as written to the VCFs
    files: dict[str, Path]  # role -> path of every file the CLI reads
    used_ids: frozenset[str]  # panel ids plus weight ids
    prevalence_train: float
    prevalence_test: float


def scenario_for(seed: int, shape: Shape, offsets=(0.0, 0.0, 0.0), bmi_base=25.0):
    return simulate.ScenarioConfig(
        seed=seed,
        populations=tuple(
            simulate.PopulationConfig(label, shape.n_train, FST, offset, shape.n_test)
            for label, offset in zip(POPULATIONS, offsets)
        ),
        n_ancestry_snps=shape.n_ancestry,
        n_trait_snps=shape.n_trait,
        trait_weight_sd=TRAIT_WEIGHT_SD,
        bmi_base=bmi_base,
    )


def calibrated_scenario(seed: int, shape: Shape) -> simulate.ScenarioConfig:
    """Scenario whose offsets reverse the drift and whose BMI base gives
    both classes.

    Offsets and ``bmi_base`` shift liabilities and BMI without consuming
    random draws, so the calibrated cohort has the same genotypes, weights
    and noise as the uncalibrated draw it is computed from.
    """
    draft = simulate.generate_cohort(scenario_for(seed, shape))
    n_anc = shape.n_ancestry
    trait = draft.matrix.dosage[:, n_anc:]
    effect = np.where(draft.truth.effect_is_alt, trait, 2.0 - trait)
    genetic = effect @ np.array([row.weight for row in draft.weights.rows])
    labels = np.array([s.population for s in draft.matrix.samples])
    means = np.array([genetic[labels == pop].mean() for pop in POPULATIONS])
    targets = np.empty(len(POPULATIONS))
    targets[np.argsort(means)] = TARGET_LIABILITY_MEANS
    offsets = targets - (means - genetic.mean())
    offset_of = dict(zip(POPULATIONS, offsets))
    liabilities = draft.truth.liabilities + np.array([offset_of[pop] for pop in labels])
    cut = float(np.quantile(liabilities, 1.0 - TARGET_PREVALENCE))
    scenario = draft.config
    bmi_base = genotypes.OBESITY_BMI_THRESHOLD - scenario.bmi_slope * cut
    return scenario_for(seed, shape, tuple(float(v) for v in offsets), bmi_base)


def _prevalence(matrix: genotypes.GenotypeMatrix, split: str) -> float:
    labels = [s.obese for s in matrix.samples]
    cases = sum(labels)
    if cases == 0 or cases == len(labels):
        raise RuntimeError(
            f"{split} cohort has {cases} obese of {len(labels)}: both classes are needed"
        )
    return cases / len(labels)


def _dosage_cohort(cohort: simulate.SyntheticCohort, seed: int, shape: Shape):
    """Imputed-style copy: 3-decimal dosages near the calls, some missing."""
    rng = np.random.default_rng([seed, 1])
    noisy = cohort.matrix.dosage + rng.normal(0.0, DOSAGE_NOISE_SD, cohort.matrix.dosage.shape)
    dosage = np.round(np.clip(noisy, 0.0, 2.0), DOSAGE_DECIMALS)
    missing = rng.random(dosage.shape) < shape.missing_rate
    dosage[missing] = 0.0
    matrix = replace(cohort.matrix, dosage=dosage, missing_mask=missing)
    for split in (matrix.take_samples(cohort.train_indices), matrix.take_samples(cohort.test_indices)):
        if (~split.missing_mask).sum(axis=0).min() == 0:
            raise RuntimeError("a variant has no observed dosage in one split")
    return replace(cohort, matrix=matrix)


def setup(workload: Workload, seed: int, directory: Path) -> Inputs:
    """Write the workload's inputs for ``seed`` into ``directory``."""
    shape = workload.shape
    directory.mkdir(parents=True, exist_ok=True)
    scenario = calibrated_scenario(seed, shape)
    cohort = simulate.generate_cohort(scenario)
    prevalence_train = _prevalence(cohort.train_matrix(), "training")
    prevalence_test = _prevalence(cohort.test_matrix(), "held-out")
    panel = cohort.panel
    if workload.simulates:
        scenario_path = directory / "scenario.cfg"
        simulate.write_scenario_config(scenario, scenario_path)
        files = {"scenario": scenario_path}
    else:
        if shape.dosage:
            cohort = _dosage_cohort(cohort, seed, shape)
        simulate.write_scenario(cohort, directory)
        if shape.panel_stride > 1:
            panel = genotypes.PanelDefinition(
                name="panel", variant_ids=panel.variant_ids[:: shape.panel_stride]
            )
            io.write_panel(panel, directory / "panel.txt")
        files = {role: directory / name for role, name in DATA_FILES.items()}
    return Inputs(
        scenario=scenario,
        cohort=cohort,
        files=files,
        used_ids=frozenset(panel.variant_ids) | frozenset(cohort.weights.variant_ids),
        prevalence_train=prevalence_train,
        prevalence_test=prevalence_test,
    )


def data_files(workload: Workload, inputs: Inputs, sim_dir: Path) -> dict[str, Path]:
    """The files fit and score read: the set-up's, or those simulate wrote."""
    if not workload.simulates:
        return inputs.files
    return {role: sim_dir / name for role, name in DATA_FILES.items()}


def out_dir(rep_dir: Path, command: str, split: str = "test") -> Path:
    """Where a command writes; runs on the training split get their own."""
    return rep_dir / (command if split == "test" else f"{command}-{split}")


def command_argv(command: str, files: dict[str, Path], inputs: Inputs, rep_dir: Path,
                 split: str = "test") -> list[str]:
    """Arguments of one CLI command; ``split`` picks the VCF that score reads."""
    out = str(out_dir(rep_dir, command, split))
    if command == "simulate":
        return ["simulate", "--scenario", str(inputs.files["scenario"]), "--out", out]
    if command == "fit":
        return [
            "fit",
            "--train-vcf", str(files["train_genotypes"]),
            "--panel", str(files["panel"]),
            "--weights", str(files["weights"]),
            "--k", "4",
            "--out", out,
        ]
    if command == "score":
        return [
            "score",
            "--test-vcf", str(files[f"{split}_genotypes"]),
            "--weights", str(files["weights"]),
            "--model-dir", str(out_dir(rep_dir, "fit")),
            "--phenotypes", str(files["phenotypes"]),
            "--out", out,
        ]
    if command == "evaluate":
        report = out_dir(rep_dir, "score", split) / "report.csv"
        return ["evaluate", "--report", str(report), "--out", out]
    raise ValueError(f"unknown command {command!r}")


def sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()
