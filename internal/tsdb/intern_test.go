package tsdb

import (
	"reflect"
	"testing"
	"unsafe"

	"pmove/internal/storage"
)

// TestInternClonesSubstrings checks intern stores its own copy of a
// name: DecodeLine hands out substrings of the line, and an interned
// substring would keep the whole line (or snapshot image) alive.
func TestInternClonesSubstrings(t *testing.T) {
	line := "kernel_all_load,tag=x _cpu0=1 5"
	name := line[:len("kernel_all_load")]
	in := interner{}
	got := in.intern(name)
	if got != name {
		t.Fatalf("intern(%q) = %q", name, got)
	}
	if unsafe.StringData(got) == unsafe.StringData(name) {
		t.Fatal("intern stored the substring itself, pinning its line")
	}
	// Later lookups return the stored copy, whatever string they pass.
	again := "xx kernel_all_load"[3:]
	if c := in.intern(again); unsafe.StringData(c) != unsafe.StringData(got) {
		t.Fatal("second intern did not return the canonical copy")
	}
}

// storeContents lists every measurement of db with its series' tag
// sets (in creation order) and its rows.
func storeContents(t *testing.T, db *DB) map[string]any {
	t.Helper()
	out := map[string]any{}
	for _, name := range db.Measurements() {
		sh := db.shardFor(name)
		sh.mu.RLock()
		var tags []map[string]string
		for _, s := range sh.measurements[name].series {
			tags = append(tags, s.tags)
		}
		sh.mu.RUnlock()
		out[name] = []any{tags, rawRows(t, db, name)}
	}
	return out
}

// TestLegacySnapshotRecoversExactly replays a row-engine (line
// protocol) snapshot written by the pre-rewrite encoder — escaped
// names, several tags and measurements — and checks the recovered
// store equals one that ingested the same points directly.
func TestLegacySnapshotRecoversExactly(t *testing.T) {
	points := []Point{
		{Measurement: "kernel_all_load", Tags: map[string]string{"tag": "a", "host": "icl"},
			Fields: map[string]float64{"1 minute": 0.5, "5 minute": 0.25}, Time: 10},
		{Measurement: `m x,y`, Tags: map[string]string{"k,": "v=", `b\`: " "},
			Fields: map[string]float64{`f\`: -0.5, "f=g": 1e-300}, Time: -3},
		{Measurement: "kernel_all_load", Tags: map[string]string{"tag": "a", "host": "icl"},
			Fields: map[string]float64{"1 minute": 0.75}, Time: 11},
		{Measurement: "solo", Fields: map[string]float64{"v": 3}, Time: 1},
	}
	want := New()
	var legacy []byte
	for _, p := range points {
		if err := want.WritePoint(p); err != nil {
			t.Fatal(err)
		}
		line, err := oracleEncodeLine(p)
		if err != nil {
			t.Fatal(err)
		}
		legacy = append(legacy, line...)
		legacy = append(legacy, '\n')
	}

	dir := t.TempDir()
	st, _, err := storage.Open(dir, storage.FsyncAlways)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Compact(legacy); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := Open(dir, storage.FsyncAlways)
	if err != nil {
		t.Fatal(err)
	}
	defer got.Close()
	if g, w := storeContents(t, got), storeContents(t, want); !reflect.DeepEqual(g, w) {
		t.Fatalf("legacy snapshot recovered a different store:\n got %v\nwant %v", g, w)
	}
}
