"""Table I: the landscape of binary-size savings at each abstraction level.

Measures, on the same app snapshot:

* AST level  — PMD-style token-shingle clone rate over the source;
* SIL level  — the SIL Outlining pass alone;
* LLVM-IR    — MergeFunctions alone, and FMSA alone;
* ISA level  — whole-program repeated machine outlining.

The paper's ordering (fractions of a percent at high levels, ~23% at the
machine level) is the claim under reproduction; sub-IR-opcode repetition is
simply invisible above the ISA.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Tuple

from repro.experiments.common import (
    app_spec,
    build_app,
    format_table,
    optimized_config,
    pct_saving,
)
from repro.frontend.lexer import tokenize
from repro.frontend.tokens import TokenKind
from repro.pipeline import BuildConfig
from repro.workloads.appgen import generate_app


def source_clone_rate(sources: Dict[str, str], window: int = 100) -> float:
    """PMD-style clone detection: % of token shingles that are duplicates.

    Like PMD's CPD, identifiers are kept verbatim (renamed clones are not
    matched) and only literal values are abstracted; this is why source-level
    clone detection sees so little of the machine-level repetition.
    """
    shingles: Dict[Tuple, int] = {}
    total = 0
    for name, text in sources.items():
        kinds = [
            (t.kind.name,
             "_" if t.kind in (TokenKind.INT, TokenKind.FLOAT,
                               TokenKind.STRING) else t.text)
            for t in tokenize(text, name)
            if t.kind is not TokenKind.NEWLINE
        ]
        for i in range(0, max(0, len(kinds) - window)):
            key = tuple(kinds[i:i + window])
            shingles[key] = shingles.get(key, 0) + 1
            total += 1
    if total == 0:
        return 0.0
    duplicated = sum(c for c in shingles.values() if c > 1)
    return 100.0 * duplicated / total


@dataclass
class LandscapeRow:
    level: str
    optimization: str
    metric: str
    paper_note: str


@dataclass
class LandscapeResult:
    rows: List[LandscapeRow]
    savings: Dict[str, float]


def run(scale: str = "small", week: int = 0, rounds: int = 5) -> LandscapeResult:
    spec = app_spec(scale, week=week)
    sources = generate_app(spec)

    # Every row pins merge_mode, so $REPRO_MERGE never leaks into the
    # baseline.
    base = BuildConfig(pipeline="wholeprogram", outline_rounds=0,
                       enable_sil_outlining=False, enable_fmsa=False,
                       merge_mode="off")

    def text_with(**overrides) -> int:
        return build_app(spec, replace(base, **overrides)).sizes.text_bytes

    base_text = text_with()
    clone_rate = source_clone_rate(sources)
    sil_saving = pct_saving(base_text, text_with(enable_sil_outlining=True))
    merge_saving = pct_saving(base_text, text_with(merge_mode="exact"))
    fmsa_saving = pct_saving(base_text, text_with(enable_fmsa=True))
    outlined = build_app(spec, replace(optimized_config(rounds),
                                       merge_mode="off"))
    machine_saving = pct_saving(base_text, outlined.sizes.text_bytes)

    savings = {
        "ast_clone_rate": clone_rate,
        "sil_outlining": sil_saving,
        "merge_functions": merge_saving,
        "fmsa": fmsa_saving,
        "repeated_machine_outlining": machine_saving,
    }
    rows = [
        LandscapeRow("AST", "Source function replicas (PMD-style)",
                     f"{clone_rate:.2f}% shingle replication",
                     "<1% replication (higher here: the synthetic app is "
                     "template-generated)"),
        LandscapeRow("SIL", "SIL outlining",
                     f"{sil_saving:.2f}% size saving", "0.41% size saving"),
        LandscapeRow("LLVM-IR", "MergeFunctions",
                     f"{merge_saving:.2f}% size saving", "0.9% size saving"),
        LandscapeRow("LLVM-IR", "FMSA",
                     f"{fmsa_saving:.2f}% size saving", "2% size savings"),
        LandscapeRow("ISA", "Repeated machine outlining",
                     f"{machine_saving:.2f}% size saving",
                     "23% size reduction"),
    ]
    return LandscapeResult(rows=rows, savings=savings)


def format_report(result: LandscapeResult) -> str:
    table = format_table(
        ["Level", "Optimization considered", "Measured", "Paper"],
        [(r.level, r.optimization, r.metric, r.paper_note)
         for r in result.rows])
    return "Table I: the landscape of binary-size savings\n" + table
