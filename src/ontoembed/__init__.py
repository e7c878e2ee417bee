"""ontoembed: ontology-grounded text embeddings at desk scale.

Pipeline pieces: knowledge-graph loading and verbalization, a from-scratch
hashed-token encoder with analytic gradients, contrastive and distillation
training regimes, model-soup weight averaging, and an STS/BCR/NEL/NLI
evaluation suite. The ``ontoembed`` command line ties them together.
"""

__version__ = "0.1.0"

from .encoder import (  # noqa: F401
    Checkpoint,
    EncoderConfig,
    Params,
    Tokens,
    backward_batch,
    encode_batch,
    flatten,
    forward_tokens,
    init_params,
    load_checkpoint,
    save_checkpoint,
    tokenize,
    tokenize_batch,
    unflatten,
)
from .losses import cosine_regression, info_nce, mse  # noqa: F401
from .ontology import (  # noqa: F401
    KnowledgeGraph,
    build_corpus,
    load_ontology,
    load_parallel_pairs,
    load_templates,
    merge_glossary,
    sample_hard_negatives,
    verbalize_relations,
)
from .trainer import (  # noqa: F401
    PCAModel,
    TrainConfig,
    adamw_step,
    adapt_sts,
    build_targets,
    pca_fit,
    pca_project,
    train_contrastive,
    train_self_distill,
    train_xlingual,
    warmup_linear,
)
from .soup import SoupCandidate, greedy_soup, uniform_soup  # noqa: F401
from .evalsuite import (  # noqa: F401
    EvalReport,
    build_nel_index,
    eval_bcr,
    eval_nel,
    eval_nli_triplets,
    eval_sts,
    pearson,
    spearman,
)
