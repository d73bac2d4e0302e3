"""MCA parameter system — the ``--mca key value`` run-time knobs.

Parameters are string-keyed.  Conventional keys::

    <framework>                  force component selection, e.g. "crs" -> "simcr"
    <framework>_<component>_<p>  component-specific knob
    <framework>_base_<p>         framework-wide knob

Values are stored as strings (like Open MPI) with typed accessors.  The
code that reads a parameter declares it once, as a :class:`Param`.
A parameter set is attached to a universe/job at launch and recorded in
global snapshot metadata so ``ompi-restart`` can re-create the job with
the same configuration (paper section 4: the user need not remember the
original runtime parameters).
"""

from __future__ import annotations

from typing import Iterator, Mapping


class MCAParams:
    """An immutable-ish bag of MCA parameters with typed accessors."""

    def __init__(self, values: Mapping[str, object] | None = None):
        self._values: dict[str, str] = {}
        if values:
            for key, val in values.items():
                self.set(key, val)

    # -- mutation ----------------------------------------------------------

    def set(self, key: str, value: object) -> None:
        if not key or not isinstance(key, str):
            raise ValueError("MCA parameter keys must be non-empty strings")
        if isinstance(value, bool):
            value = "1" if value else "0"
        self._values[key] = str(value)

    def update(self, other: "MCAParams | Mapping[str, object]") -> None:
        items = other._values if isinstance(other, MCAParams) else other
        for key, val in items.items():
            self.set(key, val)

    # -- accessors ---------------------------------------------------------

    def get(self, key: str, default: str | None = None) -> str | None:
        return self._values.get(key, default)

    def get_int(self, key: str, default: int = 0) -> int:
        raw = self._values.get(key)
        if raw is None:
            return default
        try:
            return int(raw)
        except ValueError as exc:
            raise ValueError(f"MCA parameter {key}={raw!r} is not an int") from exc

    def get_float(self, key: str, default: float = 0.0) -> float:
        raw = self._values.get(key)
        if raw is None:
            return default
        try:
            return float(raw)
        except ValueError as exc:
            raise ValueError(f"MCA parameter {key}={raw!r} is not a float") from exc

    def get_bool(self, key: str, default: bool = False) -> bool:
        raw = self._values.get(key)
        if raw is None:
            return default
        return raw.strip().lower() in {"1", "true", "yes", "on"}

    def get_list(self, key: str, default: list[str] | None = None) -> list[str]:
        raw = self._values.get(key)
        if raw is None:
            return list(default or [])
        return [part.strip() for part in raw.split(",") if part.strip()]

    # -- container protocol --------------------------------------------------

    def __contains__(self, key: str) -> bool:
        return key in self._values

    def __iter__(self) -> Iterator[str]:
        return iter(self._values)

    def __len__(self) -> int:
        return len(self._values)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, MCAParams) and self._values == other._values

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        inner = ", ".join(f"{k}={v}" for k, v in sorted(self._values.items()))
        return f"MCAParams({inner})"

    # -- (de)serialization for snapshot metadata -----------------------------

    def to_dict(self) -> dict[str, str]:
        return dict(self._values)

    @classmethod
    def from_dict(cls, data: Mapping[str, str]) -> "MCAParams":
        return cls(dict(data))

    def copy(self) -> "MCAParams":
        return MCAParams(self._values)


#: every declared parameter by key (a declaration runs when its module imports)
DECLARED: dict[str, "Param"] = {}
_TYPED = {bool: MCAParams.get_bool, int: MCAParams.get_int, float: MCAParams.get_float}


class Param:
    """One MCA parameter, declared once beside the code that reads it.
    Its type is its default's: ``bool``, ``int``, ``float`` or ``str``."""

    def __init__(self, key: str, default: bool | int | float | str, help: str):
        self.key, self.default, self.help = key, default, help
        DECLARED[key] = self

    def read(self, params: MCAParams):
        """The value *params* gives this parameter (an empty string is unset)."""
        get = _TYPED.get(type(self.default))
        return get(params, self.key, self.default) if get else params.get(self.key) or self.default

    @property
    def default_text(self) -> str:
        """The default as ``--mca`` spells it."""
        return str(int(self.default)) if isinstance(self.default, bool) else str(self.default)
