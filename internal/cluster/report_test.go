package cluster

import (
	"context"
	"testing"

	"pmove/internal/docdb"
	"pmove/internal/superdb"
	"pmove/internal/topo"
	"pmove/internal/tsdb"
)

// TestReportUploadsKBsAndJobs runs a job to completion and ships the
// cluster KB to a live remote SUPERDB over the resilient clients.
func TestReportUploadsKBsAndJobs(t *testing.T) {
	docs := docdb.New()
	dsrv := docdb.NewServer(docs)
	da, err := dsrv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer dsrv.Close()
	tsrv := tsdb.NewServer(tsdb.New())
	ta, err := tsrv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer tsrv.Close()
	r, err := superdb.DialRemote(da, ta)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	c, err := New(topo.PresetICL, 2, fabric(), 1)
	if err != nil {
		t.Fatal(err)
	}
	s := c.Scheduler()
	if _, err := s.Submit(smallJob(t, 2, CommSpec{})); err != nil {
		t.Fatal(err)
	}
	if err := s.Drain(100); err != nil {
		t.Fatal(err)
	}

	nodes, jobs, err := c.Report(context.Background(), r)
	if err != nil {
		t.Fatal(err)
	}
	if nodes != 2 || jobs != 1 {
		t.Fatalf("reported %d nodes, %d jobs; want 2, 1", nodes, jobs)
	}
	if n := docs.Collection(superdb.CollKBs).Count(nil); n != 2 {
		t.Fatalf("remote holds %d KB docs", n)
	}
	jd := docs.Collection(superdb.CollJobs).Find(nil)
	if len(jd) != 1 {
		t.Fatalf("remote holds %d job docs", len(jd))
	}
	if jd[0]["name"] != "triad" || jd[0]["user"] != "alice" {
		t.Fatalf("job doc: %v", jd[0])
	}
	if v, ok := jd[0]["gflops_per_node"].(float64); !ok || v <= 0 {
		t.Fatalf("job doc missing performance: %v", jd[0])
	}

	// Re-reporting upserts rather than duplicating.
	if _, _, err := c.Report(context.Background(), r); err != nil {
		t.Fatal(err)
	}
	if n := docs.Collection(superdb.CollJobs).Count(nil); n != 1 {
		t.Fatalf("re-report duplicated job docs: %d", n)
	}
}
