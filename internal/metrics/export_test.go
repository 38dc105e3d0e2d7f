package metrics

// The references, for the Fig 8 differential test in package metrics_test,
// which builds its traces through experiments and so cannot live in this
// package.
var (
	RefThroughputOf      = refThroughputOf
	RefConcurrencySeries = refConcurrencySeries
	RefRateSeries        = refRateSeries
)
