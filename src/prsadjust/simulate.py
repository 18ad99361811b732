"""Synthetic multi-population cohorts with known ground truth.

Allele frequencies follow the Balding-Nichols model: each variant draws an
ancestral frequency p ~ Uniform(0.05, 0.95), and every population k with
drift parameter F_k draws its own frequency from

    Beta(p * (1 - F_k) / F_k,  (1 - p) * (1 - F_k) / F_k),

which has mean p and variance F_k * p * (1 - p). Genotypes are then
Binomial(2, p_pop) per sample. Two disjoint variant sets are generated:
an ancestry panel (no phenotype effect, used for PCA) and trait variants
carrying normally drawn weights.

A population's genotypes are exactly ``rng.binomial(2, p_pop, size=(n, m))``,
value for value, with the generator left in the same state. numpy draws
each call by inversion: one uniform ``u`` against three per-variant
thresholds, with a fresh uniform in the rare case that ``u`` passes all
three. ``_draw_genotypes`` does that inversion for whole arrays at once,
with ``rng.random`` and numpy's own threshold arithmetic, and hands the
inputs only numpy's loop handles (a frequency of 0, a uniform numpy would
draw again) to ``rng.binomial`` itself. A property test of
tests/test_simulate.py checks the equality, also on hand-made uniforms at
each threshold; it passes under numpy 2.4.6 with glibc's libm, and CI runs
it under numpy 2.2.6 as well.

The liability of sample s in population k is

    liability_s = sum_i w_i * effect_dosage_si + offset_k + Normal(0, noise_sd)

and BMI is the affine map ``bmi_base + bmi_slope * liability``. Nonzero
per-population offsets confound the phenotype with ancestry on purpose.

All randomness comes from one ``numpy.random.default_rng(seed)`` (the
PCG64 generator, stable across platforms), consumed in a fixed order:
ancestral frequencies, per-population frequencies, per-population
genotypes, ref alleles, alt alleles, sexes, trait weights, effect-allele
sides, liability noise. Equal seeds therefore reproduce cohorts, and the
files written from them, byte for byte.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import io as pio
from .errors import ConfigInvalid
from .genotypes import (
    GenotypeMatrix,
    PanelDefinition,
    SampleRecord,
    ScoreWeightTable,
    Variant,
    WeightRow,
    _blocks,
)
from .text import _ascii_int, _key_values, _vcf_float, _write_key_values

# Non-ambiguous alt choices per ref base: never the base itself and never
# its complement, so no generated variant is strand-ambiguous.
_ALT_CHOICES = {"A": ("C", "G"), "C": ("A", "T"), "G": ("A", "T"), "T": ("C", "G")}
_BASES = ("A", "C", "G", "T")


@dataclass(frozen=True)
class PopulationConfig:
    """One population: size, drift from the ancestral pool, liability offset."""

    label: str
    n_samples: int
    fst: float
    offset: float = 0.0
    n_test: int = 0


@dataclass(frozen=True)
class ScenarioConfig:
    """Full recipe for one synthetic cohort."""

    seed: int
    populations: tuple[PopulationConfig, ...]
    n_ancestry_snps: int = 2000
    n_trait_snps: int = 100
    trait_weight_mean: float = 0.0
    trait_weight_sd: float = 0.15
    noise_sd: float = 1.0
    bmi_base: float = 25.0
    bmi_slope: float = 2.0

    def __post_init__(self):
        object.__setattr__(self, "populations", tuple(self.populations))
        if not self.populations:
            raise ConfigInvalid("populations: at least one population is required")
        labels = [p.label for p in self.populations]
        if len(set(labels)) != len(labels):
            raise ConfigInvalid("populations: labels must be unique")
        for pop in self.populations:
            if not pop.label:
                raise ConfigInvalid("label: population label must be non-empty")
            # Each would split a field or line of a file written from the scenario.
            if any(char in pop.label for char in "\t\n\r:"):
                raise ConfigInvalid(
                    f"label: population label {pop.label!r} holds a tab, line break or ':'"
                )
            # The scenario reader strips a value's ends, so a label starting with
            # whitespace would not read back; one ending with it is refused alike.
            if pop.label != pop.label.strip():
                raise ConfigInvalid(
                    f"label: population label {pop.label!r} has leading or trailing whitespace"
                )
            if pop.n_samples < 1:
                raise ConfigInvalid(
                    f"n_samples: population {pop.label} needs n_samples >= 1, got {pop.n_samples}"
                )
            if pop.n_test < 0:
                raise ConfigInvalid(
                    f"n_test: population {pop.label} needs n_test >= 0, got {pop.n_test}"
                )
            if not 0.0 < pop.fst < 1.0:
                raise ConfigInvalid(
                    f"fst: population {pop.label} needs fst in (0, 1), got {pop.fst}"
                )
            if not np.isfinite(pop.offset):
                raise ConfigInvalid(f"offset: population {pop.label} offset must be finite")
        if self.n_ancestry_snps < 1:
            raise ConfigInvalid(f"n_ancestry_snps: must be >= 1, got {self.n_ancestry_snps}")
        if self.n_trait_snps < 1:
            raise ConfigInvalid(f"n_trait_snps: must be >= 1, got {self.n_trait_snps}")
        if self.trait_weight_sd < 0:
            raise ConfigInvalid(f"trait_weight_sd: must be >= 0, got {self.trait_weight_sd}")
        if self.noise_sd < 0:
            raise ConfigInvalid(f"noise_sd: must be >= 0, got {self.noise_sd}")
        for name in ("trait_weight_mean", "noise_sd", "trait_weight_sd", "bmi_base", "bmi_slope"):
            if not np.isfinite(getattr(self, name)):
                raise ConfigInvalid(f"{name}: must be finite")

    @property
    def n_total_samples(self) -> int:
        return sum(p.n_samples + p.n_test for p in self.populations)


@dataclass(eq=False)
class TruthRecord:
    """Generator-side ground truth for oracle checks."""

    liabilities: np.ndarray
    ancestral_freqs: np.ndarray
    population_freqs: dict[str, np.ndarray]
    effect_is_alt: np.ndarray


@dataclass(eq=False)
class SyntheticCohort:
    """Everything one scenario produced, training and held-out rows together."""

    config: ScenarioConfig
    matrix: GenotypeMatrix
    weights: ScoreWeightTable
    panel: PanelDefinition
    truth: TruthRecord
    train_indices: tuple[int, ...]
    test_indices: tuple[int, ...]

    @property
    def has_test(self) -> bool:
        return bool(self.test_indices)

    def train_matrix(self) -> GenotypeMatrix:
        return self.matrix.take_samples(self.train_indices)

    def test_matrix(self) -> GenotypeMatrix:
        if not self.test_indices:
            raise ValueError("scenario has no held-out samples")
        return self.matrix.take_samples(self.test_indices)


def _binomial2_thresholds(freqs: np.ndarray):
    """Per variant: whether ``freqs`` is folded, and numpy's three inversion
    thresholds for Binomial(2, p).

    numpy draws Binomial(2, p) for ``p' = min(p, 1 - p)`` and returns ``2 - X``
    when ``p > 0.5``. Each threshold is computed in the operation order of its
    C code (``random_binomial_inversion``), with ``px0 = exp(2 log1p(-p'))``
    from libm through ``math``, as that code does; numpy's array ``exp`` and
    ``log1p`` may round differently.
    """
    flip = freqs > 0.5
    p = np.where(flip, 1.0 - freqs, freqs)
    q = 1.0 - p
    px0 = np.array([math.exp(2.0 * math.log1p(-x)) for x in p.tolist()])
    px1 = (2.0 * p * px0) / (1.0 * q)
    px2 = (1.0 * p * px1) / (2.0 * q)
    return flip, px0, px1, px2


def _invert(u: np.ndarray, thresholds) -> bool:
    """Replace each uniform in ``u`` by its genotype, in place.

    ``X = (u > px0) + ((u - px0) > px1)`` is numpy's inversion loop for
    n = 2; a folded variant's ``2 - X`` is the sum of the two tests negated.
    Returns False when some ``(u - px0) - px1 > px2``: numpy would draw that
    call again, so ``u`` then holds no valid result.
    """
    flip, px0, px1, px2 = thresholds
    rest = u - px0
    first = u > px0
    second = rest > px1
    first ^= flip
    second ^= flip
    np.add(first, second, out=u, dtype=np.float64)
    rest -= px1
    return not (rest > px2).any()


def _draw_genotypes(rng: np.random.Generator, freqs: np.ndarray, out: np.ndarray) -> None:
    """Fill ``out`` (float64, C-ordered) with ``rng.binomial(2, freqs, size=out.shape)``
    value for value, and leave ``rng`` in the state that call would.

    Each call takes one uniform from ``rng.random``, in row-major order as
    numpy's own loop does, and is inverted against per-variant thresholds
    (:func:`_binomial2_thresholds`, :func:`_invert`). Two inputs only numpy
    handles go to ``rng.binomial`` itself: a frequency that is 0 (numpy draws
    nothing for it) or outside (0, 1], and a uniform numpy would redraw
    (probability about 1e-16 a call), after restoring the state saved on entry.
    """
    if not ((freqs > 0.0) & (freqs <= 1.0)).all():
        out[...] = rng.binomial(2, freqs, size=out.shape)
        return
    saved = rng.bit_generator.state
    thresholds = _binomial2_thresholds(freqs)
    for rows in _blocks(out.shape[1], out.shape[0]):
        block = rng.random(out=out[rows])
        if not _invert(block, thresholds):
            rng.bit_generator.state = saved
            out[...] = rng.binomial(2, freqs, size=out.shape)
            return


def generate_cohort(config: ScenarioConfig) -> SyntheticCohort:
    """Draw one cohort; equal configs yield identical cohorts.

    Within each population the first ``n_samples`` rows are the training
    split and the following ``n_test`` rows the held-out split; their
    indices into the full matrix are recorded on the returned cohort.
    """
    rng = np.random.default_rng(config.seed)
    n_anc, n_trait = config.n_ancestry_snps, config.n_trait_snps
    n_snps = n_anc + n_trait

    # Draw order is part of the contract; see the module docstring.
    ancestral = rng.uniform(0.05, 0.95, size=n_snps)
    pop_freqs: dict[str, np.ndarray] = {}
    for pop in config.populations:
        a = ancestral * (1.0 - pop.fst) / pop.fst
        b = (1.0 - ancestral) * (1.0 - pop.fst) / pop.fst
        pop_freqs[pop.label] = rng.beta(a, b)
    dosage = np.empty((config.n_total_samples, n_snps))
    start = 0
    for pop in config.populations:
        stop = start + pop.n_samples + pop.n_test
        _draw_genotypes(rng, pop_freqs[pop.label], dosage[start:stop])
        start = stop

    ref_idx = rng.integers(0, 4, size=n_snps)
    alt_idx = rng.integers(0, 2, size=n_snps)
    refs = [_BASES[i] for i in ref_idx]
    alts = [_ALT_CHOICES[refs[j]][alt_idx[j]] for j in range(n_snps)]
    variants = []
    for j in range(n_snps):
        if j < n_anc:
            vid = f"rs{100001 + j}"
        else:
            vid = f"rs{500001 + (j - n_anc)}"
        variants.append(Variant(vid, "1", 1000 * (j + 1), refs[j], alts[j]))

    sexes = rng.integers(0, 2, size=config.n_total_samples)

    weights_values = rng.normal(
        config.trait_weight_mean, config.trait_weight_sd, size=n_trait
    )
    effect_is_alt = rng.integers(0, 2, size=n_trait).astype(bool)
    noise = rng.normal(0.0, config.noise_sd, size=config.n_total_samples)

    trait_dosage = dosage[:, n_anc:]
    effect_dosage = np.where(effect_is_alt, trait_dosage, 2.0 - trait_dosage)
    offsets = np.concatenate(
        [np.full(p.n_samples + p.n_test, p.offset) for p in config.populations]
    )
    liabilities = effect_dosage @ weights_values + offsets + noise
    bmi = config.bmi_base + config.bmi_slope * liabilities

    samples = []
    row = 0
    train_indices: list[int] = []
    test_indices: list[int] = []
    for pop in config.populations:
        for i in range(pop.n_samples + pop.n_test):
            samples.append(
                SampleRecord(
                    sample_id=f"{pop.label}{i + 1:04d}",
                    population=pop.label,
                    sex="male" if sexes[row] == 0 else "female",
                    bmi=float(bmi[row]),
                )
            )
            (train_indices if i < pop.n_samples else test_indices).append(row)
            row += 1

    matrix = GenotypeMatrix(
        samples=tuple(samples),
        variants=tuple(variants),
        dosage=dosage,
        missing_mask=np.zeros(dosage.shape, dtype=bool),
    )
    weight_rows = []
    for t in range(n_trait):
        variant = variants[n_anc + t]
        if effect_is_alt[t]:
            effect, other = variant.alt_allele, variant.ref_allele
        else:
            effect, other = variant.ref_allele, variant.alt_allele
        weight_rows.append(
            WeightRow(
                variant_id=variant.id,
                effect_allele=effect,
                other_allele=other,
                weight=float(weights_values[t]),
            )
        )
    panel = PanelDefinition(
        name="ancestry", variant_ids=tuple(v.id for v in variants[:n_anc])
    )
    truth = TruthRecord(
        liabilities=liabilities,
        ancestral_freqs=ancestral,
        population_freqs=pop_freqs,
        effect_is_alt=effect_is_alt,
    )
    return SyntheticCohort(
        config=config,
        matrix=matrix,
        weights=ScoreWeightTable(rows=tuple(weight_rows)),
        panel=panel,
        truth=truth,
        train_indices=tuple(train_indices),
        test_indices=tuple(test_indices),
    )


def write_scenario(cohort: SyntheticCohort, out_dir: str | Path) -> list[Path]:
    """Write the cohort as files the ingestion layer reads back unchanged.

    Without a held-out split: ``genotypes.vcf``, ``weights.tsv``,
    ``panel.txt``, ``phenotypes.tsv``. With one, the genotypes come as
    ``train_genotypes.vcf`` and ``test_genotypes.vcf`` instead; the
    phenotype table always covers every sample.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths: list[Path] = []
    if cohort.has_test:
        for name, matrix in (
            ("train_genotypes.vcf", cohort.train_matrix()),
            ("test_genotypes.vcf", cohort.test_matrix()),
        ):
            path = out / name
            pio.write_vcf(matrix, path)
            paths.append(path)
    else:
        path = out / "genotypes.vcf"
        pio.write_vcf(cohort.matrix, path)
        paths.append(path)
    weights_path = out / "weights.tsv"
    pio.write_weights(cohort.weights, weights_path)
    paths.append(weights_path)
    panel_path = out / "panel.txt"
    pio.write_panel(cohort.panel, panel_path)
    paths.append(panel_path)
    phenotypes_path = out / "phenotypes.tsv"
    pio.write_phenotypes(list(cohort.matrix.samples), phenotypes_path)
    paths.append(phenotypes_path)
    return paths


# ---------------------------------------------------------------------------
# scenario config files (flat key=value)
# ---------------------------------------------------------------------------

_SCALAR_KEYS = {
    **dict.fromkeys(("seed", "n_ancestry_snps", "n_trait_snps"), _ascii_int),
    **dict.fromkeys(
        ("trait_weight_mean", "trait_weight_sd", "noise_sd", "bmi_base", "bmi_slope"), _vcf_float
    ),
}


def parse_scenario_config(source) -> ScenarioConfig:
    """Parse a flat key=value scenario file.

    One ``population=label:n:fst:offset[:n_test]`` line per population;
    scalar keys as in the module's writer. Integers must be ASCII digits
    and reals ASCII VCF Floats (``text._ascii_int``, ``text._vcf_float``).
    Unknown keys, a second line for any key but ``population`` and malformed
    values raise :class:`ConfigInvalid` naming the offending field.
    """
    values: dict[str, object] = {}
    populations: list[PopulationConfig] = []
    for key, value in _key_values(source, repeatable=("population",)):
        if key == "population":
            parts = value.split(":")
            if len(parts) not in (4, 5):
                raise ConfigInvalid(
                    f"population: expected label:n:fst:offset[:n_test], got {value!r}"
                )
            try:
                pop = PopulationConfig(
                    label=parts[0],
                    n_samples=_ascii_int(parts[1]),
                    fst=_vcf_float(parts[2]),
                    offset=_vcf_float(parts[3]),
                    n_test=_ascii_int(parts[4]) if len(parts) == 5 else 0,
                )
            except ValueError as exc:
                raise ConfigInvalid(f"population: {exc}") from None
            populations.append(pop)
        elif key in _SCALAR_KEYS:
            try:
                values[key] = _SCALAR_KEYS[key](value)
            except ValueError:
                raise ConfigInvalid(f"{key}: cannot parse {value!r}") from None
        else:
            raise ConfigInvalid(f"{key}: unknown scenario key")
    if "seed" not in values:
        raise ConfigInvalid("seed: required")
    if not populations:
        raise ConfigInvalid("population: at least one required")
    return ScenarioConfig(populations=tuple(populations), **values)


def write_scenario_config(config: ScenarioConfig, dest) -> None:
    """Write ``config`` as the lines :func:`parse_scenario_config` reads; reals by ``repr``."""
    # _SCALAR_KEYS lists seed first: the file's first line, before the populations.
    seed, *scalars = (
        (key, repr(value) if read is _vcf_float else value)
        for key, read in _SCALAR_KEYS.items()
        for value in [getattr(config, key)]
    )
    populations = (
        ("population", f"{pop.label}:{pop.n_samples}:{pop.fst!r}:{pop.offset!r}"
         + (f":{pop.n_test}" if pop.n_test else ""))
        for pop in config.populations
    )
    _write_key_values([seed, *populations, *scalars], dest)


DEFAULT_SCENARIO = ScenarioConfig(
    seed=42,
    populations=(
        PopulationConfig(label="POPA", n_samples=200, fst=0.1, offset=1.0),
        PopulationConfig(label="POPB", n_samples=200, fst=0.1, offset=0.0),
        PopulationConfig(label="POPC", n_samples=200, fst=0.1, offset=-1.0),
    ),
)
