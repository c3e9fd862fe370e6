"""RQ-RMI and NuevoMatch configuration.

Table 4 of the paper gives the RQ-RMI structure (number of stages and stage
widths) as a function of the rule-set size; §4 and §5.1 give the remaining
operating parameters (8 hidden neurons per submodel, maximum error threshold
64, iSet coverage cut-offs of 25% / 5% depending on the remainder classifier).
This module centralises those knobs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = [
    "RQRMIConfig",
    "NuevoMatchConfig",
    "stage_widths_for_rules",
    "TABLE4_CONFIGS",
]

#: Table 4 — RQ-RMI configurations for different input rule-set sizes.
TABLE4_CONFIGS: list[tuple[int, int, list[int]]] = [
    # (max_rules_exclusive, num_stages, stage widths)
    (1_000, 2, [1, 4]),
    (10_000, 3, [1, 4, 16]),
    (100_000, 3, [1, 4, 128]),
    (500_000, 3, [1, 8, 256]),
    (10**12, 3, [1, 8, 512]),
]


def stage_widths_for_rules(num_rules: int) -> list[int]:
    """Stage widths recommended by Table 4 for an iSet of ``num_rules`` rules."""
    for max_rules, _stages, widths in TABLE4_CONFIGS:
        if num_rules < max_rules:
            return list(widths)
    return list(TABLE4_CONFIGS[-1][2])


@dataclass
class RQRMIConfig:
    """Configuration of one RQ-RMI model.

    Attributes:
        stage_widths: Number of submodels per stage; ``None`` selects the
            Table 4 configuration for the iSet size at training time.
        hidden_units: Hidden-layer width of every submodel (8 in the paper).
        error_threshold: Maximum allowed prediction-error bound (in array
            slots) for last-stage submodels; 64 in the paper's evaluation.
        max_retrain_attempts: How many times a failing submodel is retrained
            with a doubled sample count before the bound is accepted as-is.
        initial_samples: Initial number of training samples per submodel.
        adam_epochs: Full-batch Adam epochs per training attempt.
        learning_rate: Adam learning rate.
        seed: Base RNG seed for weight init and sampling.
    """

    stage_widths: list[int] | None = None
    hidden_units: int = 8
    error_threshold: int = 64
    max_retrain_attempts: int = 4
    initial_samples: int = 512
    adam_epochs: int = 300
    learning_rate: float = 0.05
    seed: int = 1

    def widths_for(self, num_rules: int) -> list[int]:
        if self.stage_widths is not None:
            return list(self.stage_widths)
        return stage_widths_for_rules(num_rules)


@dataclass
class NuevoMatchConfig:
    """Configuration of the end-to-end NuevoMatch classifier.

    Attributes:
        max_isets: Upper bound on the number of iSets kept (the rest is merged
            into the remainder).  ``None`` keeps every iSet above the coverage
            threshold.
        min_iset_coverage: Minimum fraction of the original rule-set an iSet
            must cover to be kept (0.25 when the remainder is a decision tree,
            0.05 for TupleMerge — §5.1).
        rqrmi: Configuration of the per-iSet RQ-RMI models.
        remainder_params: Extra keyword arguments for the remainder
            classifier's ``build``.
    """

    max_isets: int | None = None
    min_iset_coverage: float = 0.25
    rqrmi: RQRMIConfig = field(default_factory=RQRMIConfig)
    remainder_params: dict = field(default_factory=dict)
