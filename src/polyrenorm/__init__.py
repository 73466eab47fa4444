"""Toolkit for polynomial Julia sets: external rays, cuts, avoiding sets,
carrots, and the carrot surgery that produces a lower-degree quasi-regular
polynomial model."""

from .angles import Angle, tuple_orbit
from .avoiding import (compare_masks, connected_components, escape_analysis,
                       wedge_raster)
from .bottcher import (Landing, RayPolyline, SpiralArc, bottcher_point,
                       equipotential_polyline, external_angle, land_ray,
                       landing_point, trace_ray, trace_spiral)
from .carrots import (Carrot, GeometryEstimate, ProtoCarrot, build_carrot,
                      build_carrots, carrot_geometry, koenigs_coordinate,
                      koenigs_radius, proto_contains, proto_image_check,
                      quasi_arc_constant, transversality_gap,
                      transversality_profile, weak_qs_constant)
from .cuts import (Cut, CutFamily, Wedge, build_cut, build_family,
                   check_admissible, check_legal, classify_root)
from .grid import GridSpec, Mask, PixelRaster, load_mask_raw, save_mask_raw
from .poly import (Cycle, EscapeResult, Polynomial, classify_multiplier,
                   critical_points, escape_time, find_cycles, green_potential)
from .scene import Scene, figure1_scene, load_scene, scene_from_dict
from .surgery import (SurgeryMap, VisitReport, build_surgery, degree_dc,
                      dilatation_report, nonescaping_mask, visit_count_experiment)
from .verify import ConjugacyReport, conjugacy_report, cycles_in_region

__version__ = "0.1.0"
