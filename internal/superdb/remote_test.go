package superdb

import (
	"context"
	"math"
	"testing"

	"pmove/internal/docdb"
	"pmove/internal/tsdb"
)

// serve runs in-process docdb/tsdb TCP servers (what cmd/superdb runs)
// on the given stores and returns their addresses.
func serve(t *testing.T, docs *docdb.DB, ts *tsdb.DB) (docAddr, tsAddr string) {
	t.Helper()
	dsrv := docdb.NewServer(docs)
	da, err := dsrv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { dsrv.Close() })
	tsrv := tsdb.NewServer(ts)
	ta, err := tsrv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { tsrv.Close() })
	return da, ta
}

// startServers serves fresh empty stores.
func startServers(t *testing.T) (docAddr, tsAddr string) {
	t.Helper()
	return serve(t, docdb.New(), tsdb.New())
}

func TestRemoteEndToEnd(t *testing.T) {
	docAddr, tsAddr := startServers(t)
	r, err := DialRemote(docAddr, tsAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	ctx := context.Background()
	k := testKB(t, "skx")
	if err := r.ReportKBContext(ctx, k); err != nil {
		t.Fatal(err)
	}
	// Re-reporting upserts.
	if err := r.ReportKBContext(ctx, k); err != nil {
		t.Fatal(err)
	}
	hosts, err := r.HostsContext(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(hosts) != 1 || hosts[0] != "skx" {
		t.Fatalf("hosts: %v", hosts)
	}

	// Ship a TS observation over the wire, then recall it remotely, by
	// field name and with the select-all default.
	local := tsdb.New()
	obs := seedObservation(t, local, "skx", "remote-tag")
	if err := r.ReportObservationContext(ctx, obs, local, ModeTS); err != nil {
		t.Fatal(err)
	}
	for _, fields := range [][]string{{"_cpu0"}, nil} {
		res, err := r.QueryObservationContext(ctx, "skx", "remote-tag", "perfevent_hwcounters_X", fields)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) != 10 {
			t.Fatalf("recalled rows for %v: %d", fields, len(res.Rows))
		}
	}
}

func TestDialRemoteFailures(t *testing.T) {
	if _, err := DialRemote("127.0.0.1:1", "127.0.0.1:1"); err == nil {
		t.Fatal("dial to a closed port succeeded")
	}
	_, tsAddr := startServers(t)
	if _, err := DialRemote("127.0.0.1:1", tsAddr); err == nil {
		t.Fatal("half-open dial succeeded")
	}
}

// TestAggregateObservationRemote summarises an uploaded observation on
// the server: the wire-level aggregate SELECT must reproduce the same
// statistics the local fold computes, and the star/empty field shapes
// are rejected before touching the wire.
func TestAggregateObservationRemote(t *testing.T) {
	docAddr, tsAddr := startServers(t)
	r, err := DialRemote(docAddr, tsAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	local := tsdb.New()
	obs := seedObservation(t, local, "skx", "remote-sum")
	ctx := context.Background()
	if err := r.ReportObservationContext(ctx, obs, local, ModeTS); err != nil {
		t.Fatal(err)
	}
	aggs, err := r.AggregateObservationContext(ctx, "skx", "remote-sum",
		"perfevent_hwcounters_X", []string{"_cpu0", "_cpu1"})
	if err != nil {
		t.Fatal(err)
	}
	if len(aggs) != 2 {
		t.Fatalf("aggregate rows: %+v", aggs)
	}
	byField := map[string]Aggregates{}
	for _, a := range aggs {
		byField[a.Field] = a
	}
	// _cpu0 carries 0..9, _cpu1 carries 0,2,..,18 (seedObservation).
	c0 := byField["_cpu0"]
	if c0.Count != 10 || c0.Min != 0 || c0.Max != 9 || math.Abs(c0.Mean-4.5) > 1e-9 {
		t.Errorf("_cpu0 aggregates: %+v", c0)
	}
	c1 := byField["_cpu1"]
	if c1.Count != 10 || c1.Max != 18 || math.Abs(c1.Mean-9) > 1e-9 {
		t.Errorf("_cpu1 aggregates: %+v", c1)
	}

	if _, err := r.AggregateObservationContext(ctx, "skx", "remote-sum", "perfevent_hwcounters_X", nil); err == nil {
		t.Fatal("empty field list accepted")
	}
	if _, err := r.AggregateObservationContext(ctx, "skx", "remote-sum", "perfevent_hwcounters_X", []string{"*"}); err == nil {
		t.Fatal("star field accepted")
	}
}
