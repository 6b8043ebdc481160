"""bcscan: find colluding reviewer groups in online rating logs.

The pipeline: ingest a rating log into a bipartite reviewer/product graph,
mine maximal co-rating groups, score six behavioural and size indicators
per group, flag groups whose weighted collusiveness crosses a threshold,
and drill into damaging groups for tighter sub-groups. A small query
language slices the results.
"""

from .model import (BadWeights, BcscanError, Biclique, DEFAULT_MAX_VALUE,
                    DetectionConfig, DuplicateEdge, IndicatorReport,
                    MissingEdge, RatingEdge, RatingGraph, validate_weights)
from .ingest import ParseError, RawRating, build_graph, ingest_ratings, parse_log, prune
from .mining import BudgetExceeded, enumerate_candidates, find_sub_bicliques
from .indicators import (GroupTooSmall, SuspiciousnessTable, build_suspiciousness,
                         group_member_suspiciousness, group_rating_spamicity,
                         group_time_similarity, group_value_similarity,
                         pairwise_value_similarity, product_time_window)
from .detector import (DetectionResult, damaging_impact, degree_of_collusiveness,
                       detect, score_cohort)
from .query import (QueryAst, QueryResult, QuerySemanticError, QuerySyntaxError,
                    UnknownId, evaluate, parse, pretty)
from .synth import (AttackScript, InfeasibleScript, LabeledDataset, Metric,
                    TruthGroup, generate, matches, precision, recall,
                    run_pipeline, strong_attack_dataset, threshold_sweep)

__version__ = "0.1.0"
