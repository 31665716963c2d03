"""Panel scoring kept inside the benchmark.

The program ships its own ``roc_auc``; the benchmark does not use it, so a
change to the program cannot change how the program is scored.
"""

from __future__ import annotations


def midranks(values) -> list[float]:
    """1-based ranks with tied values sharing the mean of their ranks."""
    order = sorted(range(len(values)), key=lambda i: values[i])
    ranks = [0.0] * len(values)
    i = 0
    while i < len(order):
        j = i
        while j + 1 < len(order) and values[order[j + 1]] == values[order[i]]:
            j += 1
        for k in range(i, j + 1):
            ranks[order[k]] = (i + j) / 2.0 + 1.0
        i = j + 1
    return ranks


def rank_auc(scores, labels) -> float:
    """ROC-AUC by rank sum: P(score of a positive > score of a negative).

    Higher scores must mean "more positive"; ties count 1/2.  Labels are
    1 (positive) or 0 (negative), and both must occur.
    """
    if len(scores) != len(labels):
        raise ValueError("scores and labels differ in length")
    n_pos = sum(1 for y in labels if y == 1)
    n_neg = sum(1 for y in labels if y == 0)
    if n_pos + n_neg != len(labels):
        raise ValueError("labels must be 0 or 1")
    if n_pos == 0 or n_neg == 0:
        raise ValueError("AUC needs at least one positive and one negative")
    ranks = midranks(list(scores))
    pos_rank_sum = sum(r for r, y in zip(ranks, labels) if y == 1)
    return (pos_rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def rejections(p_values, alpha: float) -> int:
    """How many p-values reject at level ``alpha`` (p <= alpha)."""
    return sum(1 for p in p_values if p <= alpha)


def panel_stats(p_values, gaps, labels, alpha: float) -> dict:
    """AUC of -p and of gap against the H1 labels, and rejection rates.

    ``labels`` are 1 for H1 (dependent) datasets and 0 for H0 ones.
    """
    h0 = [p for p, y in zip(p_values, labels) if y == 0]
    h1 = [p for p, y in zip(p_values, labels) if y == 1]
    return {
        "pvalue_auc": rank_auc([-p for p in p_values], labels),
        "gap_auc": rank_auc(list(gaps), labels),
        "h0_rejections": rejections(h0, alpha),
        "h0_reject_rate": rejections(h0, alpha) / len(h0),
        "h1_rejections": rejections(h1, alpha),
        "h1_reject_rate": rejections(h1, alpha) / len(h1),
        "n_h0": len(h0),
        "n_h1": len(h1),
    }
