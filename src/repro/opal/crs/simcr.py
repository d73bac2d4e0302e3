"""``simcr`` — the BLCR analogue for the simulated world.

BLCR captures the entire memory of a process transparently.  Our
simulated equivalent captures *every* registered image contributor
(application record-replay log, PML matching state, CRCP bookmarks,
RNG identities) with zero application involvement, which preserves the
property that matters: the application does not need to know it is
being checkpointed.

Like BLCR, images are tied to the origin platform unless declared
portable: ``crs_simcr_portable`` (default on in the simulation, since
"binary" images here are pickles) controls whether restart on a node
with a different ``os_tag`` is permitted — the heterogeneity gate of
paper section 4.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from repro.mca.component import component_of
from repro.mca.params import Param
from repro.opal.crs.base import CRSComponent

if TYPE_CHECKING:  # pragma: no cover
    from repro.opal.layer import CheckpointRequest, OpalLayer

PORTABLE = Param("crs_simcr_portable", True, "allow simcr images to restart across OS tags")


@component_of("crs", "simcr", priority=20)
class SimCR(CRSComponent):
    """System-level (transparent) checkpointer."""

    def open(self, context: object | None = None) -> None:
        super().open(context)
        self.portable_images = PORTABLE.read(self.params)

    def capture(self, opal: "OpalLayer", request: "CheckpointRequest") -> dict[str, Any]:
        image: dict[str, Any] = {}
        for key, contributor in sorted(opal.contributors.items()):
            image[key] = contributor.capture_image_state(self.name)
        return image
