"""The paper's core contribution: HRO (online upper bound on OPT) and
LHR (the learning-from-HRO cache), plus the components they are built
from — the gradient-boosting model, the feature store, the drift
detector and the threshold estimator.
"""

from repro import _lazy_exports

_EXPORTS, __getattr__, __dir__ = _lazy_exports(
    __name__,
    {
        "repro.core.detection": ("DetectionRecord", "DriftDetector"),
        "repro.core.features": ("FeatureStore", "feature_dim"),
        "repro.core.gbm": ("GradientBoostingRegressor",),
        "repro.core.hazard_models": (
            "HAZARD_MODELS", "HyperexponentialHazard", "PoissonHazard", "WeibullHazard",
            "fit_hazard_model",
        ),
        "repro.core.hro": (
            "HroBound", "HroWindow", "compute_top_set", "hro_bound", "window_labels",
            "window_labels_for_ids",
        ),
        "repro.core.lhr": ("DLhrCache", "LhrCache", "NLhrCache"),
        "repro.core.serialization": (
            "gbm_from_dict", "gbm_to_dict", "lhr_checkpoint", "load_lhr_checkpoint",
            "load_model", "restore_lhr", "save_lhr_checkpoint", "save_model",
        ),
        "repro.core.threshold": (
            "ThresholdEstimator", "WindowSample", "shadow_hit_ratio",
        ),
    },
)

__all__ = list(_EXPORTS)
