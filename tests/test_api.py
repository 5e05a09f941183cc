"""The public API: exactly these names, each importable from the package."""

import nncorr

PUBLIC = {
    # pipeline and bootstrap
    "EstimateResult", "PipelineConfig", "default_lambda", "estimate",
    "confidence_interval", "default_m", "mn_bootstrap_pair",
    # stages
    "Sample", "load_csv", "minmax_scale", "build_nn", "basis_index_set", "design_matrix",
    "derive_rng", "derive_seed",
    # study
    "RAW_CSV_HEADER", "CellSummary", "CopulaConfig", "RawRecord",
    "format_report", "gen_gaussian_copula", "raw_csv_lines", "run_study", "true_t",
    # errors
    "BasisSizeError", "DimensionMismatchError", "FactorizationError", "InputError",
    "InsufficientRowsError", "MissingFileError", "NoCovariateColumnsError",
    "NonFiniteInputError", "NonNumericCellError",
}


def test_all_lists_exactly_the_public_names():
    assert len(PUBLIC) == 33
    assert sorted(nncorr.__all__) == sorted(PUBLIC)
    for name in nncorr.__all__:
        assert hasattr(nncorr, name), name
