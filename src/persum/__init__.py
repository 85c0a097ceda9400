"""Perspective-aware customer-support dialog summarization pipeline.

Ingests dialog corpora, generates weak (source, target) training pairs with
the lead/long heuristics, runs heuristic baseline summarizers with
indirect-speech post-processing, samples nested few-shot training subsets,
and evaluates any summarizer's output with ROUGE-1/2/L F-measure. Each name
is imported from its module, such as `persum.corpus`; this package imports none.
"""

__version__ = "0.1.0"
