"""Two-stage multimodal multi-hop QA with entailment trees.

Stage 1 distills evidence into a fact base and initializes an entailment tree
through pluggable LLM backends; stage 2 jointly scores fact retrieval and
question answering with a multi-task mixture-of-experts core and feeds the
results back to regenerate the tree.
"""

__version__ = "0.1.0"
