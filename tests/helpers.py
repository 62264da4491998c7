"""Helpers shared across test modules."""

from __future__ import annotations

from repro import Session


def run_batch(points, variants, executor="serial", **knobs):
    """Run ``variants`` once through a private, closed-on-return Session."""
    with Session(points) as session:
        return session.run(variants, executor=executor, **knobs)
