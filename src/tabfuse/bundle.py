"""Versioned on-disk model format.

A bundle is a single compact JSON document holding the fitted preprocessing
state, one or more member model parameter sets, the frequency encoder when a
member needs one, the run configuration it was trained with, and one
fingerprint. Every numeric array is packed (``packed.pack``): its dtype,
shape and base64 little-endian bytes, so save/load reproduces every
parameter bit for bit.

Each fact is stored once. The state gives every size (class count, input
widths, vocabulary) and a net's stored weights give its layer widths, so a
member payload is only a net's parameters or a booster's trees, and members
are decoded against the state through ``MEMBER_CLASSES``. Each class names
its ``kind`` and the ``feature_views`` it can read, and provides
``to_json_dict``, ``from_json_dict(payload, state)``, ``describe`` and
``predict_proba``. A member is its model, and each model has the
``feature_view`` it reads. A member document holds the model's kind, its
payload and, only for a class with a choice of views, its feature view,
which ``from_json_dict`` then takes as a third argument.

The fingerprint is the sha256 of the canonical JSON of every other field of
the document, so it covers everything. Loading checks it before it decodes
any section. A document of another format version is refused. Every object
of the document is read through ``packed.fields`` by the module that defines
it, so one with a field the format does not define, or without one it
needs, is refused too.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from .errors import DataError
from .gbdt import GbdtModel
from .models import BaselineMlp, EmbeddingFusionNet, FrequencyEncoder
from .packed import digest, fields
from .preprocess import PreprocessState
from .schema import load_json

BUNDLE_FORMAT_VERSION = 5

# The one table of member kinds: loading decodes through it, and the pipeline
# trains and validates ensemble members from it.
MEMBER_CLASSES = {cls.kind: cls for cls in (EmbeddingFusionNet, BaselineMlp, GbdtModel)}
MODEL_KINDS = (*MEMBER_CLASSES, "ensemble")


def _fingerprint(doc: dict) -> str:
    """The digest of every field of ``doc`` but its fingerprint."""
    return digest({name: value for name, value in doc.items() if name != "fingerprint"})


def _member_doc(model) -> dict:
    """A member's document; only a class with a choice of views records its view."""
    doc = {"kind": model.kind, "payload": model.to_json_dict()}
    if len(model.feature_views) > 1:
        doc["feature_view"] = model.feature_view
    return doc


def _read_member(doc: dict, state: PreprocessState):
    """The model of member document ``doc``, decoded against ``state``."""
    if not isinstance(doc, dict):
        raise DataError("bundle member must be an object")
    kind = doc.get("kind")
    if not isinstance(kind, str) or kind not in MEMBER_CLASSES:
        raise DataError(f"bundle contains unknown member kind {kind!r}")
    cls = MEMBER_CLASSES[kind]
    names = ("kind", "payload", "feature_view")[: 3 if len(cls.feature_views) > 1 else 2]
    _, payload, *view = fields(doc, names, f"{kind} member")
    return cls.from_json_dict(payload, state, *view)


@dataclass
class ModelBundle:
    """Everything needed to predict on new rows of the fitted schema.

    Each member is a trained model of a class in ``MEMBER_CLASSES``. The
    bundle holds a frequency encoder exactly when some member reads
    ``numeric+frequency``, checked when it is built or loaded.
    """

    kind: str
    state: PreprocessState
    members: list
    frequency_encoder: FrequencyEncoder | None = None
    run_summary: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in MODEL_KINDS:
            raise DataError(f"unknown model kind {self.kind!r}")
        if not self.members:
            raise DataError("bundle has no members")
        if self.kind != "ensemble" and [m.kind for m in self.members] != [self.kind]:
            raise DataError(
                f"a {self.kind} bundle must hold exactly one {self.kind} member, "
                f"not {', '.join(m.kind for m in self.members)}"
            )
        reads_frequency = any(m.feature_view == "numeric+frequency" for m in self.members)
        if reads_frequency != (self.frequency_encoder is not None):
            raise DataError(
                "a member reads numeric+frequency but the bundle has no frequency encoder"
                if reads_frequency
                else "the bundle has a frequency encoder but no member reads numeric+frequency"
            )

    def to_json_dict(self) -> dict:
        doc = {
            "format_version": BUNDLE_FORMAT_VERSION,
            "kind": self.kind,
            "preprocess": self.state.to_json_dict(),
            "members": [_member_doc(m) for m in self.members],
            "frequency_encoder": (
                self.frequency_encoder.to_json_dict()
                if self.frequency_encoder is not None
                else None
            ),
            "run_summary": self.run_summary,
        }
        return {**doc, "fingerprint": _fingerprint(doc)}

    @classmethod
    def from_json_dict(cls, doc: dict) -> "ModelBundle":
        """Decode a bundle document; any structural fault in it is a DataError."""
        try:
            version = doc.get("format_version") if isinstance(doc, dict) else BUNDLE_FORMAT_VERSION
            if version != BUNDLE_FORMAT_VERSION:
                raise DataError(
                    f"unsupported bundle version {version!r}; this build reads version "
                    f"{BUNDLE_FORMAT_VERSION}, so retrain the model with this build"
                )
            _, kind, state, members, encoder, run_summary, fingerprint = fields(doc, (
                "format_version", "kind", "preprocess", "members", "frequency_encoder",
                "run_summary", "fingerprint"), "bundle")
            if fingerprint != _fingerprint(doc):
                raise DataError(
                    "bundle fingerprint does not match its contents "
                    "(document was modified or corrupted)"
                )
            state = PreprocessState.from_json_dict(state)
            if not isinstance(members, list) or not members:
                raise DataError("bundle 'members' must be a non-empty list")
            if encoder is not None:
                encoder = FrequencyEncoder.from_json_dict(encoder, state)
            if not isinstance(run_summary, dict):
                raise DataError("bundle 'run_summary' must be an object")
            return cls(
                kind=kind,
                state=state,
                members=[_read_member(m, state) for m in members],
                frequency_encoder=encoder,
                run_summary=run_summary,
            )
        except (AttributeError, KeyError, TypeError, ValueError, OverflowError) as exc:
            raise DataError(f"malformed bundle document: {exc!r}") from exc


def save_bundle(bundle: ModelBundle, path) -> None:
    Path(path).write_text(
        json.dumps(bundle.to_json_dict(), separators=(",", ":")) + "\n", encoding="utf-8"
    )


def load_bundle(path) -> ModelBundle:
    return ModelBundle.from_json_dict(load_json(path, "bundle"))
