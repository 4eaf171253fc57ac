"""Versioned prompt template assets.

Templates are shipped as text files so the exact prompt wording is a
tracked, hashable artifact; every persisted label records the hash of the
template that produced it.
"""

from __future__ import annotations

import hashlib
from importlib import resources

_TEMPLATE_IDS = ("theme_v1", "topic_v1", "stance_v1")


def load_template(template_id: str) -> str:
    if template_id not in _TEMPLATE_IDS:
        raise KeyError(f"unknown template {template_id!r}")
    ref = resources.files("polarnet") / "templates" / f"{template_id}.txt"
    return ref.read_text(encoding="utf-8")


def template_hash(template_id: str) -> str:
    text = load_template(template_id)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]
