package analytics

// RefComputeBlame is the reference, for the Fig 8 differential test in
// package analytics_test, which builds its traces through experiments and
// so cannot live in this package.
var RefComputeBlame = refComputeBlame
