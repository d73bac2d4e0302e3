"""``ompi-info`` analogue: inspect frameworks, components, parameters.

Open MPI ships ``ompi_info`` so users can see which components a build
offers and which MCA parameters steer them.  This listing is generated:
the registry gives each framework, its components and its selector key,
and every other parameter is the :class:`~repro.mca.params.Param` its
reading code declares, under the framework its key starts with or as a
base parameter.  Handy for validating that a forced selection (``--mca
crs self``) names something real before launching.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.mca.registry import FrameworkRegistry, default_registry
from repro.orte.universe import declared_params


@dataclass
class FrameworkInfo:
    name: str
    components: list[str]
    params: list[tuple[str, str, str]]


def collect_info(registry: FrameworkRegistry | None = None) -> list[FrameworkInfo]:
    """Gather the framework/component/parameter inventory."""
    registry = registry or default_registry()
    declared = declared_params()
    return [
        FrameworkInfo(fw.name, fw.component_names, [(fw.name, fw.default, fw.help), *_rows(declared, f"{fw.name}_")])
        for fw in map(registry.framework, registry.framework_names)
    ]


def _rows(declared: dict, prefix: str = "", frameworks: list[str] = ()) -> list[tuple[str, str, str]]:
    """*declared* parameters whose key starts with *prefix* and not with
    ``<framework>_`` for any of *frameworks*."""
    return [
        (key, p.default_text, p.help) for key, p in declared.items()
        if key.startswith(prefix) and key.split("_", 1)[0] not in frameworks
    ]


def component_exists(framework: str, component: str) -> bool:
    registry = default_registry()
    return framework in registry and component in registry.framework(framework).component_names


def render_info(infos: list[FrameworkInfo] | None = None) -> str:
    """Human-readable ompi_info-style listing."""
    infos = infos if infos is not None else collect_info()
    sections = [(f"  {info.name}: {', '.join(info.components)}", info.params) for info in infos]
    sections.append(("base parameters:", _rows(declared_params(), frameworks=[info.name for info in infos])))
    lines = ["MCA frameworks and components:"]
    for header, params in sections:
        lines.append(header)
        lines += [f"      {key} (default {default!r}) — {text}" for key, default, text in params]
    return "\n".join(lines)
