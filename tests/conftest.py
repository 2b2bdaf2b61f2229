import sys
from pathlib import Path

import pytest

# make the package importable without installation, and the oracle helpers too
ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

from kummer import pipeline  # noqa: E402


def clear_pipeline_memo():
    pipeline._signature_outcomes.cache_clear()
    pipeline._certificate.cache_clear()
    pipeline._disc_class.cache_clear()
    pipeline._conclusions.cache_clear()


@pytest.fixture(autouse=True)
def cold_pipeline_memo():
    """Start every test with the pipeline's per-process memos empty, so a test
    that counts enumerations or patches a stage helper sees the computation
    run, whatever earlier tests left in the memo."""
    clear_pipeline_memo()
