package metrics

import (
	"maps"
	"strconv"
	"testing"

	"rpgo/internal/profiler"
)

// TestSummarizeDataBytesByRoute: bytes sum per "src→dst" route and node
// channels collapse to "nvme", also in a run with two dozen routes.
func TestSummarizeDataBytesByRoute(t *testing.T) {
	xfer := func(src, dst string, bytes int64) profiler.TransferTrace {
		return profiler.TransferTrace{Src: src, Dst: dst, Bytes: bytes}
	}
	transfers := []profiler.TransferTrace{
		xfer("sharedfs", "nvme:3", 1),
		xfer("nvme:0", "sharedfs", 2),
		xfer("sharedfs", "nvme:12", 4),
		xfer("nvme:12", "nvme:12", 8),
		xfer("sharedfs", "burstbuffer", 16),
	}
	want := map[string]int64{
		"sharedfs→nvme":        5,
		"nvme→sharedfs":        2,
		"nvme→nvme":            8,
		"sharedfs→burstbuffer": 16,
	}
	for i := range 10 {
		dst := "tier" + strconv.Itoa(i)
		transfers = append(transfers, xfer("sharedfs", dst, 32), xfer("nvme:"+strconv.Itoa(i), dst, 64))
		want["sharedfs→"+dst] = 32
		want["nvme→"+dst] = 64
	}
	s := SummarizeData(nil, transfers)
	if !maps.Equal(s.BytesByRoute, want) {
		t.Errorf("BytesByRoute = %v, want %v", s.BytesByRoute, want)
	}
	if s.Transfers != len(transfers) || s.BytesMoved != 31+10*96 {
		t.Errorf("%d transfers, %d B moved, want %d and %d", s.Transfers, s.BytesMoved, len(transfers), 31+10*96)
	}
}
