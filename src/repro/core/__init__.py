"""The paper's analyses: similarity, subsetting, validation and balance.

Each module reproduces one section of the paper:

* :mod:`repro.core.similarity` — Section III: counters -> PCA (Kaiser) ->
  hierarchical clustering.
* :mod:`repro.core.subsetting` — Section IV-A: representative subsets
  (Table V, Figures 2-4).
* :mod:`repro.core.specdb` / :mod:`repro.core.validation` — Section IV-B:
  subset validation against commercial-system scores (Figures 5-6,
  Table VI).
* :mod:`repro.core.inputsets` — Section IV-C: representative input sets
  (Figures 7-8, Table VII).
* :mod:`repro.core.rate_speed` — Section IV-D: rate vs speed comparison.
* :mod:`repro.core.classification` — Section IV-E: branch / cache
  behaviour spaces (Figures 9-10).
* :mod:`repro.core.domain_analysis` — Section IV-F: application-domain
  coverage (Table VIII).
* :mod:`repro.core.balance` — Section V-A/B: CPU2017 vs CPU2006 coverage
  (Figure 11).
* :mod:`repro.core.power_analysis` — Section V-C: power spectrum
  (Figure 12).
* :mod:`repro.core.casestudies` — Section V-D/E/F: EDA, database and
  graph-analytics case studies (Figure 13).
* :mod:`repro.core.sensitivity` — Section V-G: cross-machine sensitivity
  classification (Table IX).
"""

from repro.core.feature_store import AnalysisEngine, FeatureMatrixStore
from repro.core.similarity import SimilarityResult, analyze_similarity
from repro.core.subsetting import SubsetResult, select_subset, subset_suite

__all__ = [
    "AnalysisEngine",
    "FeatureMatrixStore",
    "SimilarityResult",
    "SubsetResult",
    "analyze_similarity",
    "select_subset",
    "subset_suite",
]
