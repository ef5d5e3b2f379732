"""FlashMem core: configuration and the end-to-end compile/run facade."""

from repro.core.config import FlashMemConfig
from repro.core.flashmem import CompiledModel, FlashMem
from repro.core.store import (
    ARTIFACT_SCHEMA_VERSION,
    ArtifactStore,
    config_fingerprint,
    flashmem_config_fingerprint,
    stable_fingerprint,
)

__all__ = [
    "FlashMemConfig", "CompiledModel", "FlashMem",
    "ArtifactStore", "ARTIFACT_SCHEMA_VERSION",
    "config_fingerprint", "flashmem_config_fingerprint", "stable_fingerprint",
]
