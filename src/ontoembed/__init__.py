"""ontoembed: ontology-grounded text embeddings at desk scale.

Pipeline pieces: knowledge-graph loading and verbalization, a from-scratch
hashed-token encoder with analytic gradients, contrastive and distillation
training regimes, model-soup weight averaging, and an STS/BCR/NEL/NLI
evaluation suite. The ``ontoembed`` command line ties them together.
"""

__version__ = "0.1.0"
