"""Versioned on-disk model format.

A bundle is a single JSON document holding the fitted preprocessing state,
one or more member model parameter sets, the frequency encoder when a
member needs one, and the run configuration it was trained with. Floats
serialize through Python's shortest round-trip repr, so save/load
reproduces every parameter bit for bit.

Member kinds are decoded through ``MEMBER_CLASSES``. Each class names its
``kind`` and the ``feature_views`` it can read, and provides
``to_json_dict``/``from_json_dict``, ``describe`` and ``predict_proba``.

Every member records the fingerprint of the preprocessing state it was
trained against, and its sizes (class count, input widths, vocabulary)
must be the ones that state gives; load refuses a bundle whose members and
state disagree.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from .errors import DataError
from .gbdt import GbdtModel
from .models import BaselineMlp, EmbeddingFusionNet, FrequencyEncoder
from .preprocess import PreprocessState
from .schema import load_json

BUNDLE_FORMAT_VERSION = 1

MEMBER_CLASSES = {cls.kind: cls for cls in (EmbeddingFusionNet, BaselineMlp, GbdtModel)}
MODEL_KINDS = (*MEMBER_CLASSES, "ensemble")


def _state_sizes(state: PreprocessState, view: str) -> dict[str, int]:
    """The sizes a member reading ``view`` takes from ``state``, by attribute name."""
    n_numeric = len(state.numeric_columns)
    width = n_numeric + {
        "numeric+tokens": state.total_padded_width,
        "numeric+frequency": len(state.categorical_columns),
    }.get(view, 0)
    return {
        "n_classes": state.schema.n_classes,
        "n_numeric": n_numeric,
        "token_width": state.total_padded_width,
        "vocab_size": max(state.total_vocab_size, 1),
        "n_features": width,
        "feature_count": width,
    }


@dataclass
class BundleMember:
    """One trained model plus the feature view it reads.

    A kind with a single feature view leaves it out of the document and
    gets it filled in here; a kind with a choice of views records its view.
    """

    kind: str
    model: object
    feature_view: str = ""

    def __post_init__(self):
        views = MEMBER_CLASSES[self.kind].feature_views
        if not self.feature_view and len(views) == 1:
            self.feature_view = views[0]
        if self.feature_view not in views:
            raise DataError(
                f"{self.kind} member has feature view {self.feature_view!r}; "
                f"pick one of {', '.join(views)}"
            )

    @property
    def records_view(self) -> bool:
        return len(MEMBER_CLASSES[self.kind].feature_views) > 1

    def fingerprint(self) -> str:
        return self.model.preprocess_fingerprint

    def describe(self) -> str:
        view = f", feature view {self.feature_view}" if self.records_view else ""
        return f"{self.kind}: {self.model.describe()}{view}"

    def to_json_dict(self) -> dict:
        doc = {"kind": self.kind, "payload": self.model.to_json_dict()}
        if self.records_view:
            doc["feature_view"] = self.feature_view
        return doc

    @classmethod
    def from_json_dict(cls, doc: dict) -> "BundleMember":
        kind = doc.get("kind")
        if not isinstance(kind, str) or kind not in MEMBER_CLASSES:
            raise DataError(f"bundle contains unknown member kind {kind!r}")
        model = MEMBER_CLASSES[kind].from_json_dict(doc["payload"])
        return cls(kind, model, doc.get("feature_view", ""))


@dataclass
class ModelBundle:
    """Everything needed to predict on new rows of the fitted schema."""

    kind: str
    state: PreprocessState
    members: list[BundleMember]
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
        fp = self.state.fingerprint()
        for m in self.members:
            if m.fingerprint() and m.fingerprint() != fp:
                raise DataError(
                    f"member {m.kind!r} was trained against a different "
                    f"preprocessing state (fingerprint mismatch)"
                )
            # A model carries only some of these sizes; the rest pass.
            for name, want in _state_sizes(self.state, m.feature_view).items():
                got = getattr(m.model, name, want)
                if got != want:
                    raise DataError(
                        f"{m.kind} member has {name} {got}; its preprocessing "
                        f"state gives {want}"
                    )
        # The encoder repeats the state's categorical columns and modes, which
        # the fingerprint does not cover.
        enc, state = self.frequency_encoder, self.state
        if enc is not None and (
            enc.columns != state.categorical_columns
            or enc.modes != {c: state.vocabularies[c].mode_value for c in enc.columns}
            or set(enc.tables) != set(enc.columns)
        ):
            raise DataError("frequency encoder columns or modes do not match the state")

    def to_json_dict(self) -> dict:
        return {
            "format_version": BUNDLE_FORMAT_VERSION,
            "kind": self.kind,
            "preprocess": self.state.to_json_dict(),
            "preprocess_fingerprint": self.state.fingerprint(),
            "members": [m.to_json_dict() for m in self.members],
            "frequency_encoder": (
                self.frequency_encoder.to_json_dict()
                if self.frequency_encoder is not None
                else None
            ),
            "run_summary": self.run_summary,
        }

    @classmethod
    def from_json_dict(cls, doc: dict) -> "ModelBundle":
        """Decode a bundle document.

        Documents from earlier builds may carry ``train_config`` and
        ``gbdt_config`` (copies of ``run_summary``), which are ignored, and
        a null ``weights``; members are always averaged with equal weight.
        Any structural fault in the document is a DataError.
        """
        try:
            version = doc.get("format_version")
            if version != BUNDLE_FORMAT_VERSION:
                raise DataError(
                    f"unsupported bundle version {version!r}; "
                    f"this build reads version {BUNDLE_FORMAT_VERSION}"
                )
            state = PreprocessState.from_json_dict(doc["preprocess"])
            stored_fp = doc.get("preprocess_fingerprint", "")
            if stored_fp and stored_fp != state.fingerprint():
                raise DataError(
                    "bundle preprocess fingerprint does not match its state "
                    "(document was modified or corrupted)"
                )
            if doc.get("weights") is not None:
                raise DataError("bundle sets member weights; this build reads none")
            member_docs = doc.get("members")
            if not isinstance(member_docs, list) or not member_docs:
                raise DataError("bundle 'members' must be a non-empty list")
            freq_doc = doc.get("frequency_encoder")
            return cls(
                kind=doc["kind"],
                state=state,
                members=[BundleMember.from_json_dict(m) for m in member_docs],
                frequency_encoder=(
                    FrequencyEncoder.from_json_dict(freq_doc) if freq_doc else None
                ),
                run_summary=doc.get("run_summary", {}),
            )
        except (AttributeError, KeyError, TypeError, ValueError, OverflowError) as exc:
            raise DataError(f"malformed bundle document: {exc!r}") from exc


def save_bundle(bundle: ModelBundle, path) -> None:
    Path(path).write_text(
        json.dumps(bundle.to_json_dict(), indent=2) + "\n", encoding="utf-8"
    )


def load_bundle(path) -> ModelBundle:
    return ModelBundle.from_json_dict(load_json(path, "bundle"))
