"""Two-stage multimodal multi-hop QA with entailment trees.

Stage 1 distills evidence into a fact base and initializes an entailment tree
through pluggable LLM backends; stage 2 jointly scores fact retrieval and
question answering with a multi-task mixture-of-experts core and feeds the
results back to regenerate the tree.
"""

from .errors import (
    BackendError,
    EmptyDecomposition,
    EmptyEvidence,
    EmptyTable,
    EmptyText,
    EntailQAError,
    LengthMismatch,
    MissingText,
    NoFacts,
    NonFiniteLoss,
    ParseError,
    SchemaError,
    SequenceTooLong,
    StructureError,
    TreeSyntaxError,
    UnknownFactId,
)
from .facts import Evidence, Fact, FactBase, Table, add_fact, linearize_table, lookup_text, retrieve_evidence
from .llm import BackendRequest, HttpBackend, MockBackend
from .metrics import RetrievalScore, em, normalize_answer, retrieval_f1, word_f1
from .moe import MoeConfig, MoeParams, RoutingDecision, TrainItem, backward_and_step, encode, fact_features, frg_forward, losses, moe_forward, qa_forward, route
from .pipeline import PipelineState, predict_states, run_feedback_iteration, run_pipeline, run_stage1, should_stop
from .refine import refine, tree_to_text
from .tree import (
    EntailmentStep,
    EntailmentTree,
    NodeId,
    TreeScore,
    parse_tree,
    score_tree,
    serialize_tree,
    split_subtrees,
)

__version__ = "0.1.0"
