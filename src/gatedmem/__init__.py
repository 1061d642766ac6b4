"""Training-free applicability control for prompt memory, with a locked
fit/test evaluation harness over a deterministic synthetic task world.

`import gatedmem` runs only this file. A public name imports its defining
module on first access (PEP 562), so building a world loads the world core
(worldsim, bank, retrieval, util, errors) and no policy, protocol or
statistics code.
"""

import importlib

__version__ = "0.1.0"

# public name -> the submodule that defines it
_EXPORTS = {
    "BankSnapshot": "bank",
    "MemoryBank": "bank",
    "hoeffding_ucb": "bank",
    "PolicyConfig": "controller",
    "compose_bank_policy": "controller",
    "select_threshold_percentile": "controller",
    "FreezeMismatch": "errors",
    "ProtocolViolation": "errors",
    "SignalUndefined": "errors",
    "CounterfactualRows": "protocol",
    "FreezeManifest": "protocol",
    "LedgerRow": "protocol",
    "ledger_check": "protocol",
    "run_counterfactual": "protocol",
    "run_fit_stage": "protocol",
    "run_governance_loop": "protocol",
    "split_indices": "protocol",
    "Query": "retrieval",
    "RetrievalResult": "retrieval",
    "retrieve": "retrieval",
    "CalibrationSet": "stats",
    "bootstrap_ci": "stats",
    "calibration_metrics": "stats",
    "mcnemar_exact": "stats",
    "platt_fit": "stats",
    "randomization_interaction_test": "stats",
    "roc_auc": "stats",
    "ConfidenceModel": "worldsim",
    "World": "worldsim",
    "WorldSpec": "worldsim",
    "generate_world": "worldsim",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name):
    # looked up on every access, not cached here, so a name always reads its module's current attribute
    try:
        module = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    return getattr(importlib.import_module(f".{module}", __name__), name)


def __dir__():
    return sorted({*globals(), *_EXPORTS})
