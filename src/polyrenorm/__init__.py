"""Toolkit for polynomial Julia sets: external rays, cuts, avoiding sets,
carrots, and the carrot surgery that produces a lower-degree quasi-regular
polynomial model."""

import importlib

# Each name is loaded from its module on first access (PEP 562), so importing
# the package, or only its numpy-free modules, loads no numpy.
_EXPORTS = {
    "angles": "Angle tuple_orbit",
    "avoiding": "compare_masks connected_components escape_analysis wedge_raster",
    "bottcher": "Landing RayPolyline SpiralArc bottcher_point equipotential_polyline "
                "external_angle land_rays landing_point trace_ray trace_spirals",
    "carrots": "Carrot GeometryEstimate ProtoCarrot build_carrots carrot_geometry "
               "koenigs_coordinate koenigs_radius proto_contains proto_image_check "
               "quasi_arc_constant transversality_gap transversality_profile weak_qs_constant",
    "cuts": "Cut CutFamily Wedge build_cut build_family check_admissible check_legal "
            "classify_root",
    "grid": "Mask PixelRaster load_mask_raw save_mask_raw",
    "poly": "Cycle EscapeResult Polynomial classify_multiplier critical_points "
            "escape_time find_cycles green_potential",
    "scene": "GridSpec Scene figure1_scene load_scene scene_from_dict",
    "surgery": "SurgeryMap VisitReport build_surgery dilatation_report nonescaping_mask "
               "visit_count_experiment",
    "verify": "ConjugacyReport conjugacy_report cycles_in_region",
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names.split()}

__all__ = sorted(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{module}", __name__), name)


def __dir__():
    return sorted({*globals(), *_MODULE_OF})
