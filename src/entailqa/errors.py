"""Exception types shared across the package.

Every data-dependent failure raises one of these; plain ``ValueError`` is
reserved for violated call preconditions (programmer errors).
"""


class EntailQAError(Exception):
    """Base class for all package errors."""


# --- tree DSL ---------------------------------------------------------------

class TreeError(EntailQAError):
    pass


class TreeSyntaxError(TreeError):
    """Malformed token or step in the tree DSL."""


class StructureError(TreeError):
    """Well-formed tokens but an invalid tree (cycle, reuse, missing root...)."""


class MissingText(TreeError):
    """A node text is required but absent or empty."""


# --- fact base --------------------------------------------------------------

class FactError(EntailQAError):
    pass


class EmptyTable(FactError):
    pass


class EmptyText(FactError):
    pass


class UnknownFactId(FactError):
    pass


class EmptyEvidence(FactError):
    """An example has no evidence to build a fact base from."""


# --- LLM gateway ------------------------------------------------------------

class GatewayError(EntailQAError):
    pass


class BackendError(GatewayError):
    """The backend failed to produce a response."""


class ParseError(GatewayError):
    """The backend response stayed unparseable after the single retry."""


class EmptyDecomposition(GatewayError):
    """A decomposition response contained no usable sub-questions."""


# --- MoE core ---------------------------------------------------------------

class MoeError(EntailQAError):
    pass


class SequenceTooLong(MoeError):
    pass


class LengthMismatch(MoeError):
    pass


class NonFiniteLoss(MoeError):
    pass


class NoFacts(MoeError):
    """An item has an empty fact base, so the FRG head has nothing to score."""


# --- datasets / configuration ----------------------------------------------

class SchemaError(EntailQAError):
    """Invalid dataset or config JSON; message carries a JSON-pointer location."""

    def __init__(self, message: str, pointer: str = ""):
        self.pointer = pointer
        super().__init__(f"{message} (at {pointer})" if pointer else message)
