"""querydistill: weak supervision for media-search query understanding.

Composable LLM annotation prompts, a persona ensemble with a learned
selection router, and distillation of the resulting weak labels into a
small multi-label entity classifier with per-entity decision thresholds
and frequency-weighted evaluation.
"""

from .annotations import Annotation, Confidence, render_annotation
from .baseline import (Gazetteer, default_gazetteer, lexical_match,
                       load_gazetteer)
from .classifier import (ClassifierModel, ClassifierTrainConfig,
                         apply_thresholds, load_classifier, predict_probs,
                         save_classifier, train_classifier, tune_thresholds,
                         weak_labels_from_annotations, write_predictions_jsonl)
from .data import (DatasetSplit, QueryRecord, ingest_queries, normalize_query,
                   query_id, split_dataset)
from .evaluation import (EvalReport, MetricCell, compute_metrics,
                         matched_operating_point, relative_gain)
from .features import HashedNgramEmbedder
from .llm_client import (AnnotationFailure, AnnotatorHandle, HttpEndpointConfig,
                         MockConfig, ResponseCache, annotate_batch,
                         mock_annotate, mock_handle, prompt_keys)
from .personas import (Persona, aggregate_ensemble, build_confidence_matrix,
                       default_personas, load_personas)
from .pipeline import RunConfig, load_run_config, run_pipeline
from .prompting import (PromptConfig, PromptFrame, PromptText, PromptVariant,
                        build_prompt, parse_response)
from .router import (RouterModel, RouterTrainConfig, load_router,
                     router_forward, save_router, select_top_k, train_router)
from .taxonomy import (EntityDef, EntityRegistry, NONE_LABEL, default_registry,
                       load_registry, validate_label)

__version__ = "0.1.0"
