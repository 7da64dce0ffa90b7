"""Per-interval throughput series and its CSV form."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional


@dataclass
class IntervalRow:
    start_ms: int
    commits: int
    aborts: int
    phase: str  # pre | ddl | post


@dataclass
class ThroughputSeries:
    interval_ms: int
    rows: list[IntervalRow] = field(default_factory=list)
    total_commits: int = 0
    total_aborts: int = 0
    total_attempts: int = 0
    abort_reasons: dict[str, int] = field(default_factory=dict)
    ddl_start_ms: Optional[int] = None
    ddl_pre_ms: Optional[int] = None
    ddl_commit_ms: Optional[int] = None
    # workers' total commits when the DDL started and when it returned
    ddl_start_commits: Optional[int] = None
    ddl_end_commits: Optional[int] = None
    ddl_status: str = ""
    extra: dict[str, Any] = field(default_factory=dict)

    def pre_ddl_mean(self) -> float:
        vals = [r.commits for r in self.rows if r.phase == "pre"]
        return sum(vals) / len(vals) if vals else 0.0

    def ddl_interval_commits(self) -> list[int]:
        return [r.commits for r in self.rows if r.phase == "ddl"]

    def min_during_ddl(self) -> float:
        vals = self.ddl_interval_commits()
        return float(min(vals)) if vals else float("nan")

    def ddl_duration_ms(self) -> Optional[int]:
        if self.ddl_start_ms is None or self.ddl_commit_ms is None:
            return None
        return self.ddl_commit_ms - self.ddl_start_ms

    def ddl_window_commits(self) -> Optional[int]:
        """Commits made while the DDL ran, counted at its exact start and
        return rather than by reporting interval."""
        if self.ddl_start_commits is None or self.ddl_end_commits is None:
            return None
        return self.ddl_end_commits - self.ddl_start_commits

    def reconciles(self) -> bool:
        return (sum(r.commits for r in self.rows) == self.total_commits
                and self.total_commits + self.total_aborts == self.total_attempts)


def emit(series: ThroughputSeries, path: str) -> None:
    """CSV: fixed header, one row per interval, one trailing summary row
    (mean pre-DDL commits/interval, min in-DDL, DDL duration ms)."""
    lines = ["interval_start_ms,commits,aborts,phase"]
    for row in series.rows:
        lines.append(f"{row.start_ms},{row.commits},{row.aborts},{row.phase}")
    dur = series.ddl_duration_ms()
    min_ddl = series.min_during_ddl()
    min_txt = "" if min_ddl != min_ddl else f"{min_ddl:.1f}"  # NaN -> empty
    lines.append(f"summary,{series.pre_ddl_mean():.1f},{min_txt},"
                 f"{dur if dur is not None else ''}")
    with open(path, "w") as f:
        f.write("\n".join(lines) + "\n")
