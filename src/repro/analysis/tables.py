"""Regenerate Table 1 of the paper from measured executions.

The paper's Table 1 states, per algorithm, the awake time (AT), the run
time (RT), and the two lower bounds.  Being a theory table, "reproducing"
it means measuring AT and RT across sizes and exhibiting that

* `Randomized-MST`: AT = Θ(log n), RT = Θ(n log n);
* `Deterministic-MST`: AT = Θ(log n), RT = Θ(nN log n);
* both sit above the AT bound Ω(log n) and the AT × RT bound Ω̃(n);
* the traditional-model comparator pays AT = RT.

The measurements are the committed campaign
``examples/campaigns/table1.toml`` (report: ``CAMPAIGN_table1.json``).
:func:`table1_from_records` builds the rows from that report's records,
or from any orchestrator run-store ledger; :func:`render_table` prints
them in the paper's layout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, List, Optional, Sequence, Union

from repro.orchestrator import RunRecord, STATUS_OK, load_records

from .complexity import fit_scaling
from .stats import mean

__all__ = [
    "MeasuredRow",
    "Table1",
    "render_table",
    "table1_from_records",
    "table1_from_store",
]


@dataclass(frozen=True)
class MeasuredRow:
    """One (algorithm, n) measurement averaged over seeds."""

    algorithm: str
    n: int
    max_id: int
    max_awake: float
    rounds: float
    product: float
    correct_runs: int
    total_runs: int

    @property
    def awake_per_log(self) -> float:
        return self.max_awake / math.log2(max(2, self.n))

    @property
    def rounds_per_nlog(self) -> float:
        return self.rounds / (self.n * math.log2(max(2, self.n)))

    @property
    def rounds_per_nNlog(self) -> float:
        return self.rounds / (self.n * self.max_id * math.log2(max(2, self.n)))


@dataclass
class Table1:
    """All measurements plus the fitted asymptotic constants."""

    rows: List[MeasuredRow] = field(default_factory=list)

    def rows_for(self, algorithm: str) -> List[MeasuredRow]:
        return sorted(
            (row for row in self.rows if row.algorithm == algorithm),
            key=lambda row: row.n,
        )

    def awake_fit(self, algorithm: str):
        rows = self.rows_for(algorithm)
        return fit_scaling(
            [row.n for row in rows], [row.max_awake for row in rows], "log"
        )

    def rounds_fit(self, algorithm: str, model: str = "nlog"):
        rows = self.rows_for(algorithm)
        return fit_scaling(
            [row.n for row in rows], [row.rounds for row in rows], model
        )


def table1_from_records(
    records: Iterable[Union[RunRecord, dict]],
    algorithms: Optional[Sequence[str]] = None,
) -> Table1:
    """Aggregate orchestrator records into Table 1 rows.

    Seeds at the same (algorithm, n) are averaged, so a table fitted
    from a stored JSONL ledger is identical to one fitted from the
    campaign report that journalled it.
    """
    grouped: dict = {}
    for record in records:
        if isinstance(record, dict):
            record = RunRecord.from_dict(record)
        if record.status != STATUS_OK or record.metrics is None:
            continue
        metrics = record.metrics
        grouped.setdefault((metrics["algorithm"], metrics["n"]), []).append(metrics)
    if algorithms is not None:
        order = {name: rank for rank, name in enumerate(algorithms)}
        keys = sorted(
            (key for key in grouped if key[0] in order),
            key=lambda key: (order[key[0]], key[1]),
        )
    else:
        keys = sorted(grouped)
    table = Table1()
    for algorithm, n in keys:
        cells = grouped[(algorithm, n)]
        table.rows.append(
            MeasuredRow(
                algorithm=algorithm,
                n=n,
                max_id=cells[0]["max_id"],
                max_awake=mean([cell["max_awake"] for cell in cells]),
                rounds=mean([cell["rounds"] for cell in cells]),
                product=mean(
                    [cell["awake_round_product"] for cell in cells]
                ),
                correct_runs=sum(1 for cell in cells if cell["correct"]),
                total_runs=len(cells),
            )
        )
    return table


def table1_from_store(path) -> Table1:
    """Fit Table 1 straight from a run-store JSONL file."""
    return table1_from_records(load_records(path))


def render_table(table: Table1) -> str:
    """Render the measured Table 1 as aligned ASCII text."""
    header = (
        f"{'Algorithm':<18} {'n':>5} {'AT':>8} {'AT/log2 n':>10} "
        f"{'RT':>10} {'RT/(n log n)':>13} {'AT*RT':>12} {'MST ok':>7}"
    )
    lines = [header, "-" * len(header)]
    for name in sorted({row.algorithm for row in table.rows}):
        for row in table.rows_for(name):
            lines.append(
                f"{row.algorithm:<18} {row.n:>5} {row.max_awake:>8.1f} "
                f"{row.awake_per_log:>10.2f} {row.rounds:>10.0f} "
                f"{row.rounds_per_nlog:>13.2f} {row.product:>12.0f} "
                f"{row.correct_runs:>4}/{row.total_runs}"
            )
        lines.append("")
    return "\n".join(lines)
