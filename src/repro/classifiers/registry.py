"""Decorator-based classifier registry.

Classifiers register themselves under a canonical short name (the one the
paper's figures use, e.g. ``"tm"``) plus optional long-form aliases::

    @register("tm", aliases=("tuplemerge",))
    class TupleMergeClassifier(TupleHashClassifier):
        ...

Consumers resolve names — canonical or alias — through :func:`resolve_classifier`
and build instances with :func:`build_classifier`; :func:`available_classifiers`
enumerates the canonical names for CLI choice lists and error messages.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, TypeVar

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.classifiers.base import Classifier
    from repro.rules.rule import RuleSet

__all__ = [
    "register",
    "resolve_classifier",
    "build_classifier",
    "available_classifiers",
    "classifier_aliases",
    "format_available",
    "UnknownClassifierError",
]

C = TypeVar("C", bound="type")


@dataclass(frozen=True)
class RegistryEntry:
    """One registered classifier: its class, canonical name and aliases."""

    cls: type
    canonical: str
    aliases: tuple[str, ...]


#: Canonical name → entry.
_ENTRIES: dict[str, RegistryEntry] = {}
#: Any accepted name (canonical or alias) → canonical name.
_NAMES: dict[str, str] = {}


class UnknownClassifierError(ValueError):
    """Raised when a classifier name is not in the registry."""

    def __init__(self, name: str):
        super().__init__(
            f"unknown classifier {name!r}; available: {format_available()}"
        )
        self.name = name


def register(name: str, *, aliases: tuple[str, ...] = ()) -> Callable[[C], C]:
    """Class decorator registering a :class:`Classifier` under ``name``.

    Args:
        name: Canonical short name (also used in reports and CLI choices).
        aliases: Alternative names accepted by :func:`resolve_classifier`.
    """

    def decorator(cls: C) -> C:
        for key in (name, *aliases):
            owner = _NAMES.get(key)
            if owner is not None and _ENTRIES[owner].cls is not cls:
                raise ValueError(
                    f"classifier name {key!r} is already registered "
                    f"by {_ENTRIES[owner].cls.__name__}"
                )
        _ENTRIES[name] = RegistryEntry(cls=cls, canonical=name, aliases=tuple(aliases))
        for key in (name, *aliases):
            _NAMES[key] = name
        return cls

    return decorator


def _ensure_registered() -> None:
    """Import the modules that register classifiers (idempotent)."""
    import repro.classifiers  # noqa: F401  (registers the baselines)
    import repro.core.nuevomatch  # noqa: F401  (registers "nm")


def resolve_classifier(name: str) -> "type[Classifier]":
    """Return the classifier class registered under ``name`` (or an alias).

    Raises:
        UnknownClassifierError: If no classifier uses that name.
    """
    _ensure_registered()
    canonical = _NAMES.get(name)
    if canonical is None:
        raise UnknownClassifierError(name)
    return _ENTRIES[canonical].cls


def build_classifier(name: str, ruleset: "RuleSet", **params) -> "Classifier":
    """Build the classifier registered under ``name`` over ``ruleset``.

    ``params`` are forwarded to the class's ``build`` (e.g. ``binth`` for the
    tree classifiers, ``remainder_classifier`` for NuevoMatch).
    """
    return resolve_classifier(name).build(ruleset, **params)


def available_classifiers(include_aliases: bool = False) -> list[str]:
    """Sorted canonical classifier names (optionally with aliases appended)."""
    _ensure_registered()
    names = sorted(_ENTRIES)
    if include_aliases:
        for entry in _ENTRIES.values():
            names.extend(entry.aliases)
        names.sort()
    return names


def classifier_aliases() -> dict[str, tuple[str, ...]]:
    """Canonical name → aliases, for help texts and error messages."""
    _ensure_registered()
    return {name: _ENTRIES[name].aliases for name in sorted(_ENTRIES)}


def format_available() -> str:
    """Human-readable listing of canonical names and their aliases."""
    parts = []
    for name, aliases in classifier_aliases().items():
        parts.append(f"{name} (aka {', '.join(aliases)})" if aliases else name)
    return ", ".join(parts)
