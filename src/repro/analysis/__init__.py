"""Statistics, paper-claim records, and report generation."""

from repro.analysis.charts import BarChart, chart_from_result
from repro.analysis.paper import PAPER_CLAIMS, PaperClaim, claims_for
from repro.analysis.report import build_experiments_md, result_to_markdown
from repro.analysis.stats import Summary, ratio, summarize, within

__all__ = [
    "Summary",
    "BarChart",
    "chart_from_result",
    "summarize",
    "ratio",
    "within",
    "PaperClaim",
    "PAPER_CLAIMS",
    "claims_for",
    "result_to_markdown",
    "build_experiments_md",
]
