"""Training-free applicability control for prompt memory, with a locked
fit/test evaluation harness over a deterministic synthetic task world."""

from .bank import BankSnapshot, MemoryBank, hoeffding_ucb
from .controller import PolicyConfig, compose_bank_policy, select_threshold_percentile
from .errors import FreezeMismatch, ProtocolViolation, SignalUndefined
from .protocol import (
    CounterfactualRows,
    FreezeManifest,
    LedgerRow,
    ledger_check,
    run_counterfactual,
    run_fit_stage,
    run_governance_loop,
    split_indices,
)
from .retrieval import Query, RetrievalResult, retrieve
from .stats import (
    CalibrationSet,
    bootstrap_ci,
    calibration_metrics,
    mcnemar_exact,
    platt_fit,
    randomization_interaction_test,
    roc_auc,
)
from .worldsim import ConfidenceModel, World, WorldSpec, generate_world

__version__ = "0.1.0"
