"""Output checks applied to every replay the benchmark runs."""

from __future__ import annotations

from typing import Dict, List, Optional


def model_problems(
    model: Dict[str, object],
    expected_completed: int,
    reference: Optional[Dict[str, object]] = None,
) -> List[str]:
    """What is wrong with one replay's model outputs (empty if nothing).

    ``expected_completed`` is the measured-window arrival count drawn by an
    independent ``TraceGenerator``; ``reference`` is an earlier replay of
    the same seed, whose outputs this one must repeat exactly.
    """
    problems = []
    if model.get("completed") != expected_completed:
        problems.append(
            f"model.completed is {model.get('completed')!r}, expected "
            f"{expected_completed} measured arrivals"
        )
    if reference is not None:
        for key in sorted(set(reference) | set(model)):
            if model.get(key) != reference.get(key):
                problems.append(
                    f"model.{key} is {model.get(key)!r}, an earlier replay of "
                    f"this seed gave {reference.get(key)!r}"
                )
    return problems
