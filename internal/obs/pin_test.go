package obs

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"testing"

	"rpgo/internal/profiler"
)

// pinnedSpill is the exact JSONL the sink writes for pinRecords: a task
// with every field set and one edge of each kind, a task with every
// optional field zero, a transfer and a request with one edge each, and a
// shard record. Spills written by one release are read by the next, and
// rptrace reads whatever file it is given, so the keys, their order and
// what each omitempty leaves out are the format.
const pinnedSpill = `{"transfer":{"uid":"xfer.000007","dataset":"ds.7","task":"task.000042","bytes":268435456,"src":"lustre","dst":"nvme:12","node":12,"start":100,"end":5100,"edges":[{"kind":"contention","from":100,"to":5100,"ref":"lustre"}]}}` + "\n" +
	`{"request":{"uid":"req.9","service":"model","replica":"model/r1","task":"task.000042","issued":10,"dispatched":30,"done":150,"batch":8,"edges":[{"kind":"batch","from":10,"to":30,"ref":"req.8"}]}}` + "\n" +
	`{"task":{"uid":"task.000042","submit":1,"scheduled":2,"launch":3,"start":4,"end":5000000,"final":5000001,` +
	`"failed":true,"backend":"flux","workflow":"ddmd","cores":7,"gpus":1,"retries":2,` +
	`"serv_reqs":3,"serv_fail":1,"serv_wait":99,` +
	`"bytes_in":1048576,"bytes_out":1024,"stage_in":250000,"stage_out":125000,"data_hits":4,"data_miss":2,` +
	`"edges":[` +
	`{"kind":"queued","from":2,"to":3},` +
	`{"kind":"starved","from":2,"to":3,"ref":"srun.ceiling"},` +
	`{"kind":"stage","from":4,"to":5100,"ref":"xfer.000007"},` +
	`{"kind":"transfer","from":4,"to":5100,"ref":"xfer.000007"},` +
	`{"kind":"service","from":10,"to":150,"ref":"model"},` +
	`{"kind":"retry","from":200,"to":300,"ref":"spawn"},` +
	`{"kind":"batch","from":10,"to":30,"ref":"req.9"},` +
	`{"kind":"replica","from":30,"to":40,"ref":"model/r1"},` +
	`{"kind":"contention","from":100,"to":5100,"ref":"lustre"},` +
	`{"kind":"failure","from":400,"to":500,"ref":"node.3"},` +
	`{"kind":"checkpoint","from":600,"to":700,"ref":"xfer.000008"}` +
	`]}}` + "\n" +
	`{"task":{"uid":"task.000043","submit":10,"scheduled":-1,"launch":-1,"start":-1,"end":-1,"final":30}}` + "\n" +
	`{"shard":{"shard":1,"events":5606,"busy":1934,"skipped":1238,"busy_ns":3474364,"sent":2367,"recv":2509,"windows":3172,"lookahead_eff":81.9601956859035}}` + "\n"

// pinnedExportSHA256 is the SHA-256 of the Perfetto export of pinnedSpill
// read back through ReadRecords.
const pinnedExportSHA256 = "ef80a837e63944ec27ac8e96257a4fdcf8344fe128816a8fc601f921c1eb109b"

// pinRecords spills the pinned records through sink, in the order that
// lets the export draw flows from the transfer and the request to the
// task's edges that name them.
func pinRecords(sink *JSONL) {
	sink.OnTransfer(profiler.TransferTrace{
		UID: "xfer.000007", Dataset: "ds.7", Task: "task.000042", Bytes: 1 << 28,
		Src: "lustre", Dst: "nvme:12", Node: 12, Start: 100, End: 5100,
		Edges: []profiler.CausalEdge{{Kind: profiler.EdgeContention, From: 100, To: 5100, Ref: "lustre"}},
	})
	req := sampleRequest()
	req.Edges = []profiler.CausalEdge{{Kind: profiler.EdgeBatch, From: 10, To: 30, Ref: "req.8"}}
	sink.OnRequest(req)

	full := sampleTask()
	for _, e := range []profiler.CausalEdge{
		{Kind: profiler.EdgeQueued, From: 2, To: 3},
		{Kind: profiler.EdgeStarved, From: 2, To: 3, Ref: "srun.ceiling"},
		{Kind: profiler.EdgeStage, From: 4, To: 5100, Ref: "xfer.000007"},
		{Kind: profiler.EdgeTransfer, From: 4, To: 5100, Ref: "xfer.000007"},
		{Kind: profiler.EdgeService, From: 10, To: 150, Ref: "model"},
		{Kind: profiler.EdgeRetry, From: 200, To: 300, Ref: "spawn"},
		{Kind: profiler.EdgeBatch, From: 10, To: 30, Ref: "req.9"},
		{Kind: profiler.EdgeReplica, From: 30, To: 40, Ref: "model/r1"},
		{Kind: profiler.EdgeContention, From: 100, To: 5100, Ref: "lustre"},
		{Kind: profiler.EdgeFailure, From: 400, To: 500, Ref: "node.3"},
		{Kind: profiler.EdgeCheckpoint, From: 600, To: 700, Ref: "xfer.000008"},
	} {
		full.AddEdge(e)
	}
	sink.OnTask(full)

	bare := profiler.NewTaskTrace("task.000043")
	bare.Submit, bare.Final = 10, 30
	sink.OnTask(bare)

	sink.WriteShard(ShardRecord{
		Shard: 1, Events: 5606, Busy: 1934, Skipped: 1238, BusyNs: 3474364,
		Sent: 2367, Recv: 2509, Windows: 3172, LookaheadEff: 81.9601956859035,
	})
}

// TestSpillFormatPinned: the sink writes pinnedSpill byte for byte, and
// its Perfetto export hashes to pinnedExportSHA256.
func TestSpillFormatPinned(t *testing.T) {
	var spill bytes.Buffer
	sink := NewJSONL(&spill)
	pinRecords(sink)
	if err := sink.Flush(); err != nil {
		t.Fatal(err)
	}
	if got := spill.String(); got != pinnedSpill {
		t.Fatalf("spill format moved:\n got %s\nwant %s", got, pinnedSpill)
	}

	var export bytes.Buffer
	pw := NewPerfettoWriter(&export)
	if err := ReadRecords(&spill, func(rec *Record) error {
		pw.Record(rec)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if err := pw.Close(); err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprintf("%x", sha256.Sum256(export.Bytes())); got != pinnedExportSHA256 {
		t.Fatalf("Perfetto export moved: sha256 %s, want %s\n%s", got, pinnedExportSHA256, export.Bytes())
	}
}
