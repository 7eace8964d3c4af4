"""osscan: function-level open-source component detection for C/C++ trees.

Pipeline: extract and normalize functions from multi-version component
corpora, store redundancy-eliminated signatures, segment each component
into application vs. borrowed code, then identify components (with
version and reuse pattern) inside a target tree.
"""

from .detector import (
    DetectorConfig,
    TargetFingerprint,
    fingerprint_target,
    identify_components,
    render_report,
)
from .extractor import extract_functions, normalize
from .fingerprint import FuncHash, HashScheme, check_cutoff, distance, hash_function
from .segmenter import segment_all, apply_segmentation
from .signature_store import (
    ComponentDb,
    OssSignature,
    build_component,
    build_signature,
    dedup_ratio,
    load_db,
    save_db,
)

__version__ = "0.1.0"
