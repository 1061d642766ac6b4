"""Exception types shared across the package."""


class ProtocolViolation(RuntimeError):
    """A fit-only operation was invoked outside the fit stage, or stage order was broken."""


class FreezeMismatch(ProtocolViolation):
    """Test-stage inputs hash differently from the freeze manifest."""


class AuditFailure(ProtocolViolation):
    """A counterfactual audit failed on one row.

    row is that row as the counterfactual stage's audit.json records it: the
    audit key that failed (check), query_id, version, expected and got.
    """

    def __init__(self, message: str, check: str, query_id, version: str, expected, got):
        super().__init__(message)
        self.row = {"check": check, "query_id": int(query_id), "version": version, "expected": expected, "got": got}


class SignalUndefined(ValueError):
    """A statistic is undefined for the given input (e.g. single-class AUC)."""
