package tsdb

import (
	"context"
	"fmt"
	"testing"
	"testing/quick"
)

func pt(meas string, t int64, tag string, fields map[string]float64) Point {
	p := Point{Measurement: meas, Fields: fields, Time: t}
	if tag != "" {
		p.Tags = map[string]string{"tag": tag}
	}
	return p
}

func TestWriteAndQuery(t *testing.T) {
	db := New()
	for i := int64(0); i < 10; i++ {
		if err := db.WritePoint(pt("kernel_percpu_cpu_idle", i*1000, "obs1",
			map[string]float64{"_cpu0": float64(i), "_cpu1": float64(i * 2)})); err != nil {
			t.Fatal(err)
		}
	}
	res, err := db.QueryString(`SELECT "_cpu0", "_cpu1" FROM "kernel_percpu_cpu_idle" WHERE tag="obs1"`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 10 {
		t.Fatalf("rows = %d, want 10", len(res.Rows))
	}
	if res.Rows[3].Values["_cpu1"] != 6 {
		t.Errorf("row 3 _cpu1 = %f", res.Rows[3].Values["_cpu1"])
	}
	// Tag mismatch filters everything.
	res, err = db.QueryString(`SELECT "_cpu0" FROM "kernel_percpu_cpu_idle" WHERE tag="other"`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 0 {
		t.Errorf("tag filter leaked %d rows", len(res.Rows))
	}
}

func TestWriteValidation(t *testing.T) {
	db := New()
	if err := db.WritePoint(Point{}); err == nil {
		t.Error("empty point accepted")
	}
	if err := db.WritePoint(Point{Measurement: "m"}); err == nil {
		t.Error("fieldless point accepted")
	}
	if err := db.WritePoint(Point{Measurement: "m", Fields: map[string]float64{"": 1}}); err == nil {
		t.Error("empty field name accepted")
	}
}

func TestOutOfOrderInsertKeepsTimeOrder(t *testing.T) {
	db := New()
	for _, ts := range []int64{50, 10, 30, 20, 40} {
		if err := db.WritePoint(pt("m", ts, "", map[string]float64{"v": float64(ts)})); err != nil {
			t.Fatal(err)
		}
	}
	res, err := db.QueryString(`SELECT "v" FROM "m"`)
	if err != nil {
		t.Fatal(err)
	}
	prev := int64(-1)
	for _, r := range res.Rows {
		if r.Time < prev {
			t.Fatalf("rows out of order: %d after %d", r.Time, prev)
		}
		prev = r.Time
	}
}

func TestTimeRangeQueries(t *testing.T) {
	db := New()
	for i := int64(0); i < 100; i++ {
		db.WritePoint(pt("m", i, "", map[string]float64{"v": 1}))
	}
	res, err := db.QueryString(`SELECT "v" FROM "m" WHERE time >= 10 AND time <= 19`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 10 {
		t.Errorf("time range returned %d rows, want 10", len(res.Rows))
	}
}

func TestSelectStar(t *testing.T) {
	db := New()
	db.WritePoint(pt("m", 1, "", map[string]float64{"a": 1, "b": 2}))
	res, err := db.QueryString(`SELECT * FROM "m"`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Columns) != 2 || res.Columns[0] != "a" || res.Columns[1] != "b" {
		t.Errorf("columns = %v", res.Columns)
	}
}

// TestSelectStarReusedQuery runs one pre-parsed select-all *Query
// twice: the column list must not be built in the caller's Fields, so
// both runs return every column and q.Fields stays ["*"].
func TestSelectStarReusedQuery(t *testing.T) {
	db := New()
	for i := int64(1); i <= 3; i++ {
		if err := db.WritePoint(pt("m", i, "", map[string]float64{"a": 1, "b": 2})); err != nil {
			t.Fatal(err)
		}
	}
	q := &Query{Fields: []string{"*"}, Measurement: "m"}
	for run := 0; run < 2; run++ {
		res, err := db.ExecuteContext(context.Background(), QueryRequest{Query: q})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Columns) != 2 || res.Columns[0] != "a" || res.Columns[1] != "b" {
			t.Errorf("run %d: columns = %v", run, res.Columns)
		}
		for _, r := range res.Rows {
			if len(r.Values) != 2 {
				t.Errorf("run %d: row values = %v", run, r.Values)
			}
		}
	}
	if len(q.Fields) != 1 || q.Fields[0] != "*" {
		t.Errorf("query fields rewritten to %v", q.Fields)
	}
}

func TestQueryMissingMeasurement(t *testing.T) {
	db := New()
	res, err := db.QueryString(`SELECT "x" FROM "nothing"`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 0 {
		t.Error("missing measurement should return no rows, not error")
	}
}

func TestParseQueryListing3(t *testing.T) {
	// Exact statements from the paper's Listing 3.
	stmts := []string{
		`SELECT "_cpu0", "_cpu1", "_cpu22", "_cpu23" FROM "kernel_percpu_cpu_idle" WHERE tag="278e26c2-3fd3-45e4-862b-5646dc9e7aa0"`,
		`SELECT "_node0", "_node1" FROM "mem_numa_alloc_hit" WHERE tag="278e26c2-3fd3-45e4-862b-5646dc9e7aa0"`,
		`SELECT "_node0", "_node1" FROM "perfevent_hwcounters_RAPL_ENERGY_PKG" WHERE tag="278e26c2-3fd3-45e4-862b-5646dc9e7aa0"`,
	}
	for _, s := range stmts {
		q, err := ParseQuery(s)
		if err != nil {
			t.Fatalf("%s: %v", s, err)
		}
		if q.TagFilter["tag"] != "278e26c2-3fd3-45e4-862b-5646dc9e7aa0" {
			t.Errorf("tag filter lost: %v", q.TagFilter)
		}
		if len(q.Fields) == 0 {
			t.Error("fields lost")
		}
	}
	q, _ := ParseQuery(stmts[0])
	if q.Measurement != "kernel_percpu_cpu_idle" {
		t.Errorf("measurement = %q", q.Measurement)
	}
	if len(q.Fields) != 4 || q.Fields[2] != "_cpu22" {
		t.Errorf("fields = %v", q.Fields)
	}
}

func TestParseQueryErrors(t *testing.T) {
	bad := []string{
		``,
		`INSERT INTO x`,
		`SELECT FROM "m"`,
		`SELECT "a" FROM`,
		`SELECT "a" FROM "m" WHERE tag`,
		`SELECT "a" FROM "m" WHERE time >= notanumber`,
		`SELECT "a" FROM "m" WHERE tag<"x"`,
		`SELECT "unterminated FROM "m"`,
	}
	for _, s := range bad {
		if _, err := ParseQuery(s); err == nil {
			t.Errorf("accepted bad query %q", s)
		}
	}
}

func TestQueryStringRoundTrip(t *testing.T) {
	q := &Query{
		Fields:      []string{"_cpu0", "_cpu1"},
		Measurement: "m1",
		TagFilter:   map[string]string{"tag": "abc"},
		From:        5, To: 10,
	}
	q2, err := ParseQuery(q.String())
	if err != nil {
		t.Fatalf("%s: %v", q.String(), err)
	}
	if q2.Measurement != q.Measurement || len(q2.Fields) != 2 ||
		q2.TagFilter["tag"] != "abc" || q2.From != 5 || q2.To != 10 {
		t.Errorf("round trip: %+v", q2)
	}
}

func TestRetention(t *testing.T) {
	db := New()
	db.SetRetention(RetentionPolicy{Name: "short", Duration: 100})
	for i := int64(0); i < 200; i += 10 {
		db.WritePoint(pt("m", i, "", map[string]float64{"v": 1}))
	}
	dropped := db.EnforceRetention(200)
	if dropped != 10 {
		t.Errorf("dropped %d points, want 10 (times 0..90)", dropped)
	}
	res, _ := db.QueryString(`SELECT "v" FROM "m"`)
	for _, r := range res.Rows {
		if r.Time < 100 {
			t.Errorf("point at %d survived retention", r.Time)
		}
	}
	// Infinite retention drops nothing.
	db2 := New()
	db2.WritePoint(pt("m", 1, "", map[string]float64{"v": 1}))
	if db2.EnforceRetention(1<<60) != 0 {
		t.Error("infinite retention dropped points")
	}
}

func TestRetentionRemovesEmptyMeasurements(t *testing.T) {
	db := New()
	db.SetRetention(RetentionPolicy{Duration: 1})
	db.WritePoint(pt("gone", 0, "", map[string]float64{"v": 1}))
	db.EnforceRetention(1000)
	if len(db.Measurements()) != 0 {
		t.Errorf("measurements = %v", db.Measurements())
	}
}

func TestCountValues(t *testing.T) {
	db := New()
	db.WritePoint(pt("m", 0, "", map[string]float64{"a": 0, "b": 1}))
	db.WritePoint(pt("m", 1, "", map[string]float64{"a": 2, "b": 0}))
	total, zeros := db.CountValues("m")
	if total != 4 || zeros != 2 {
		t.Errorf("total=%d zeros=%d, want 4/2", total, zeros)
	}
}

func TestStats(t *testing.T) {
	db := New()
	db.WritePoint(pt("m", 0, "", map[string]float64{"a": 1, "b": 2, "c": 3}))
	points, values := db.Stats()
	if points != 1 || values != 3 {
		t.Errorf("stats = %d/%d", points, values)
	}
}

func TestMeasurementName(t *testing.T) {
	cases := map[string]string{
		"kernel.percpu.cpu.idle":                      "kernel_percpu_cpu_idle",
		"perfevent.hwcounters.FP_ARITH:SCALAR_SINGLE": "perfevent_hwcounters_FP_ARITH_SCALAR_SINGLE",
		"mem.numa.alloc_hit":                          "mem_numa_alloc_hit",
	}
	for in, want := range cases {
		if got := MeasurementName(in); got != want {
			t.Errorf("MeasurementName(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestLineProtocolRoundTrip(t *testing.T) {
	p := Point{
		Measurement: "perfevent_hwcounters_X",
		Tags:        map[string]string{"tag": "abc-def", "host": "skx"},
		Fields:      map[string]float64{"_cpu0": 12345, "_cpu1": 0.5},
		Time:        987654321,
	}
	line, err := EncodeLine(p)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeLine(line)
	if err != nil {
		t.Fatalf("%s: %v", line, err)
	}
	if got.Measurement != p.Measurement || got.Time != p.Time {
		t.Errorf("round trip: %+v", got)
	}
	if got.Tags["host"] != "skx" || got.Fields["_cpu0"] != 12345 {
		t.Errorf("round trip lost data: %+v", got)
	}
}

func TestLineProtocolEscaping(t *testing.T) {
	p := Point{
		Measurement: "with space,comma=eq",
		Tags:        map[string]string{"k ey": "v,al=ue"},
		Fields:      map[string]float64{"f ield": 1},
		Time:        1,
	}
	line, err := EncodeLine(p)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeLine(line)
	if err != nil {
		t.Fatalf("%s: %v", line, err)
	}
	if got.Measurement != p.Measurement || got.Tags["k ey"] != "v,al=ue" || got.Fields["f ield"] != 1 {
		t.Errorf("escaping broken: %q -> %+v", line, got)
	}
}

func TestLineProtocolErrors(t *testing.T) {
	bad := []string{
		"",
		"justmeasurement",
		"m f=notanum 1",
		"m f=1 notatime",
		"m, f=1 1",
	}
	for _, line := range bad {
		if _, err := DecodeLine(line); err == nil {
			t.Errorf("accepted bad line %q", line)
		}
	}
}

func TestLineProtocolProperty(t *testing.T) {
	f := func(v float64, ts int64, n uint8) bool {
		p := Point{
			Measurement: fmt.Sprintf("m%d", n),
			Fields:      map[string]float64{"v": v},
			Time:        ts,
		}
		line, err := EncodeLine(p)
		if err != nil {
			return false
		}
		got, err := DecodeLine(line)
		if err != nil {
			return false
		}
		return got.Fields["v"] == v && got.Time == ts
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestServerClientEndToEnd(t *testing.T) {
	db := New()
	srv := NewServer(db)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Ping(); err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 5; i++ {
		if err := c.Write(pt("remote_m", i, "t1", map[string]float64{"_cpu0": float64(i)})); err != nil {
			t.Fatal(err)
		}
	}
	res, err := c.Query(`SELECT "_cpu0" FROM "remote_m" WHERE tag="t1"`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 5 {
		t.Fatalf("remote query rows = %d", len(res.Rows))
	}
	// Bad query propagates an error.
	if _, err := c.Query(`DROP TABLE x`); err == nil {
		t.Error("bad remote query accepted")
	}
}
