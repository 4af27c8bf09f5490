package tsdb

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"pmove/internal/storage"
)

// errClass maps an error to the sentinel it wraps, or nil for the
// untyped rejections (bad sections, unparsable numbers).
func errClass(err error) error {
	for _, s := range []error{ErrNonFiniteField, ErrDuplicateKey, ErrEmptyKey} {
		if errors.Is(err, s) {
			return s
		}
	}
	return nil
}

// wideLine is a clean one-tag line of n fields, the shape one
// per-CPU telemetry sample ships in (n = 88 on the skx row of
// Table III).
func wideLine(n int) string {
	var b strings.Builder
	b.WriteString("perfevent_hwcounters_FP_ARITH_SCALAR_DOUBLE,tag=obs-1 ")
	for i := 0; i < n; i++ {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "_cpu%d=%g", i, float64(i)*0.25)
	}
	b.WriteString(" 1722000000000000000")
	return b.String()
}

func widePoint(n int) Point {
	p := Point{
		Measurement: "perfevent_hwcounters_FP_ARITH_SCALAR_DOUBLE",
		Tags:        map[string]string{"tag": "obs-1"},
		Fields:      make(map[string]float64, n),
		Time:        1722000000000000000,
	}
	for i := 0; i < n; i++ {
		p.Fields["_cpu"+strconv.Itoa(i)] = float64(i) * 0.25
	}
	return p
}

// FuzzCodecDifferential checks the production codec against the
// pre-rewrite oracle (lineproto_oracle_test.go). Decoding: for any
// input both decoders return an equal point, or both reject it with the
// same error class. Encoding: for any point the oracle encodes, the
// production encoder, the in-place WAL batch envelope and a WRITEB body
// produce the oracle's bytes exactly.
func FuzzCodecDifferential(f *testing.F) {
	for _, line := range []string{
		`trailing\`,
		`m f=1 5\`,
		`m\,x,k\,=v\, f\,=1 5`,
		`m\=x,k\==\=v f\==1 5`,
		`m\ x,k\ =v\  f\ =1 5`,
		`m,k=v\\ f\\=1 5`,
		`m,k=a=b f=1 5`,
		`m f=1=2 5`,
		"m,k=v, f=1 5",
		"m f=1, 5",
		"m,=v f=1 5",
		"m =1 5",
		"m =NaN 5",
		" f=1 5",
		"m f=1 5 6",
		wideLine(88),
		wideLine(1),
	} {
		f.Add(line, "m", "k", "v", "f", 1.0, int64(5))
	}
	f.Add("", `m\`, `k,`, `v=`, `f `, -0.0, int64(-1))
	f.Add("", "μετρ", "ключ", "значение", "字段", 1e308, int64(0))
	f.Fuzz(func(t *testing.T, line, meas, tagKey, tagVal, fieldKey string, fieldVal float64, ts int64) {
		want, werr := oracleDecodeLine(line)
		got, gerr := DecodeLine(line)
		switch {
		case (werr == nil) != (gerr == nil):
			t.Fatalf("decode %q: oracle err %v, production err %v", line, werr, gerr)
		case werr != nil:
			if errClass(werr) != errClass(gerr) {
				t.Fatalf("decode %q: oracle rejects with %v, production with %v", line, werr, gerr)
			}
		case !reflect.DeepEqual(want, got):
			t.Fatalf("decode %q:\n oracle: %+v\nproduct: %+v", line, want, got)
		}

		points := []Point{{
			Measurement: meas,
			Tags:        map[string]string{},
			Fields:      map[string]float64{fieldKey: fieldVal, "f2": 2},
			Time:        ts,
		}}
		if tagKey != "" || tagVal != "" {
			points[0].Tags[tagKey] = tagVal
		}
		if werr == nil {
			points = append(points, want)
		}
		for _, p := range points {
			checkEncodeMatchesOracle(t, p)
		}
	})
}

// checkEncodeMatchesOracle asserts EncodeLine, appendLine behind a
// prefix, and the in-place batch envelope reproduce the oracle's bytes.
func checkEncodeMatchesOracle(t *testing.T, p Point) {
	t.Helper()
	want, werr := oracleEncodeLine(p)
	got, gerr := EncodeLine(p)
	if werr != nil {
		if gerr == nil || errClass(werr) != errClass(gerr) {
			t.Fatalf("encode %+v: oracle rejects with %v, production gives %q, %v", p, werr, got, gerr)
		}
		return
	}
	if gerr != nil || got != want {
		t.Fatalf("encode %+v:\n oracle: %q\nproduct: %q (err %v)", p, want, got, gerr)
	}
	if b := appendLine([]byte("prefix"), &p); string(b) != "prefix"+want {
		t.Fatalf("appendLine dropped or mangled its prefix: %q", b)
	}
	body := storage.AppendBatchHeader(nil, 2)
	for range 2 {
		mark := len(body)
		body = appendLine(body, &p)
		body = storage.FrameBatchItem(body, mark)
	}
	if wantBody := storage.EncodeBatchBody([][]byte{[]byte(want), []byte(want)}); string(body) != string(wantBody) {
		t.Fatalf("in-place batch envelope differs from EncodeBatchBody:\n got %q\nwant %q", body, wantBody)
	}
}

// TestAppendEscaped covers the no-escape fast path and every escaped
// byte against the old replacer-based escaper.
func TestAppendEscaped(t *testing.T) {
	for _, in := range []string{"", "kernel_all_load", `a\b`, "a,b c=d", `\`, "x ", "=", "μ=ν"} {
		want := oracleEscapeLP(in)
		if got := string(appendEscaped([]byte("p:"), in)); got != "p:"+want {
			t.Errorf("appendEscaped(%q) = %q, want %q", in, got, "p:"+want)
		}
	}
}

// TestWALRecordBytesMatchOracle checks the durable write paths frame
// WAL records exactly as the pre-rewrite codec did, so WALs written
// before and after the rewrite are indistinguishable.
func TestWALRecordBytesMatchOracle(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, storage.FsyncNever)
	if err != nil {
		t.Fatal(err)
	}
	single := Point{Measurement: `m x`, Tags: map[string]string{"k,": "v="}, Fields: map[string]float64{`f\`: -0.5}, Time: 7}
	batch := []Point{widePoint(88), widePoint(3), single}
	if err := db.WritePoint(single); err != nil {
		t.Fatal(err)
	}
	if err := db.WriteBatchContext(context.Background(), batch); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	oracle := func(p Point) []byte {
		line, err := oracleEncodeLine(p)
		if err != nil {
			t.Fatal(err)
		}
		return []byte(line)
	}
	var bodies [][]byte
	for _, p := range batch {
		bodies = append(bodies, oracle(p))
	}
	want, err := storage.AppendRecord(nil, 1, oracle(single))
	if err != nil {
		t.Fatal(err)
	}
	if want, err = storage.AppendRecord(want, 2, storage.EncodeBatchBody(bodies)); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join(dir, "wal.log"))
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Fatalf("WAL bytes differ from the oracle framing:\n got %q\nwant %q", got, want)
	}
}

// TestWriteBFrameMatchesOracle captures the WRITEB frame a Client sends
// and checks its body lines are the oracle's encodings, in batch order.
func TestWriteBFrameMatchesOracle(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	batch := []Point{widePoint(88), {Measurement: `m x`, Fields: map[string]float64{"f=": 1}, Time: -3}}
	frame := make(chan []string, 1)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		r := bufio.NewReader(conn)
		var lines []string
		for {
			l, err := r.ReadString('\n')
			if err != nil {
				frame <- lines
				return
			}
			l = strings.TrimSuffix(l, "\n")
			switch {
			case l == "PING":
				fmt.Fprintln(conn, "PONG")
			case strings.HasPrefix(l, "WRITEB "):
				lines = append(lines, l)
				for range batch {
					l, _ := r.ReadString('\n')
					lines = append(lines, strings.TrimSuffix(l, "\n"))
				}
				fmt.Fprintf(conn, "OK %d\n", len(batch))
				frame <- lines
				return
			}
		}
	}()
	c, err := Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.WriteBatchContext(context.Background(), batch); err != nil {
		t.Fatal(err)
	}
	got := <-frame
	if len(got) != 1+len(batch) {
		t.Fatalf("captured %d frame lines, want %d: %q", len(got), 1+len(batch), got)
	}
	if hdr := got[0]; !strings.HasPrefix(hdr, "WRITEB 2 id=") {
		t.Fatalf("header %q", hdr)
	}
	for i, p := range batch {
		want, err := oracleEncodeLine(p)
		if err != nil {
			t.Fatal(err)
		}
		if got[1+i] != want {
			t.Fatalf("body line %d:\n got %q\nwant %q", i, got[1+i], want)
		}
	}
}
