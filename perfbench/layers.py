"""The layers the traced run times: which public dualgeo functions each span
covers, and the per-layer metrics a traced run reports."""

# span name -> (module, attribute) pairs it times; a dotted attribute is a method
SPANS = {
    "expressions.parse": [("expressions", "parse")],
    "jets.eval_value": [("jets", "eval_value")],
    "jets.eval_jet2": [("jets", "eval_jet2")],
    "jets.eval_jet3": [("jets", "eval_jet3")],
    "geometry.metric_jets": [("geometry", "Metric.jets")],
    "geometry.inverse": [("geometry", "Metric.inverse")],
    "geometry.christoffel": [("geometry", "Metric.christoffel")],
    "geometry.christoffel_jacobian": [("geometry", "Metric.christoffel_jacobian")],
    "geometry.tensor_value": [("geometry", "TensorField.value")],
    "geometry.tensor_jets": [("geometry", "TensorField.jets")],
    "structure.solve": [("structure", "StructureSolver.structure_tensor"),
                        ("structure", "StructureSolver.prolongation_tensor"),
                        ("structure", "StructureSolver.s_vector")],
    "structure.jacobian": [("structure", "StructureSolver.structure_tensor_jacobian"),
                           ("structure", "StructureSolver.prolongation_jacobian")],
    "structure.classify": [("structure", "classify")],
    "structure.checks": [("structure", "killing_check"),
                         ("structure", "bertrand_darboux_check"),
                         ("structure", "poisson_check"),
                         ("structure", "beta_condition_residual")],
    "connections.coefficients": [("connections", "AffineConnection.coefficients")],
    "connections.jacobian": [("connections", "AffineConnection.jacobian")],
    "connections.grid_checks": [("connections", "dual_projective_test"),
                                ("connections", "semi_compatibility_test"),
                                ("connections", "compatibility_residual"),
                                ("connections", "connection_ricci_symmetry_check")],
    "geodesics.integrate": [("geodesics", "integrate_dual_geodesic")],
    "geodesics.compare": [("geodesics", "curves_coincide")],
    "geodesics.export": [("geodesics", "Trajectory.write_csv"),
                         ("geodesics", "Trajectory.write_json")],
    "fixtures.build": [("fixtures", "builtin"), ("fixtures", "load")],
    "fixtures.validate": [("fixtures", "validate")],
    "fixtures.connection": [("fixtures", "Fixture.connection")],
    "theorems.theorem1": [("theorems", "verify_theorem1")],
    "theorems.theorem2": [("theorems", "verify_theorem2")],
    "theorems.weyl": [("theorems", "verify_weyl_symmetry")],
    "theorems.digamma": [("theorems", "verify_remark_digamma")],
    "theorems.claims": [("theorems", "VerificationReport.add")],
    "cli": [("cli", "main")],
}
ROOT_SPAN = "cli"
EXIT_REASONS = ("completed", "domain_exit", "singular_margin", "nonfinite")
LAYERS = sorted({name.split(".")[0] for name in SPANS})


def metric_units() -> dict[str, str]:
    """Every per-layer metric a traced run reports, with its unit, in order."""
    units = {}
    for span in SPANS:
        units[f"{span}.calls"] = "count"
        units[f"{span}.self_s"] = "s"
    for layer in LAYERS:
        units[f"layer.{layer}.self_s"] = "s"
    units["geodesics.rk4_steps"] = "count"
    for reason in EXIT_REASONS:
        units[f"geodesics.exit.{reason}"] = "count"
    units["geodesics.completed_ratio"] = "ratio"
    units["geodesics.min_samples"] = "count"
    units["geodesics.compare.pairs"] = "count"
    units["geodesics.compare.bytes_computed"] = "B"
    units["trace.wall_s"] = "s"
    units["trace.overhead_s"] = "s"
    units["trace.coverage"] = "ratio"
    return units
