//go:build !race

package tsdb

import "testing"

// TestCodecAllocs pins the allocation cost of the codec on an 88-field,
// one-tag point. The old codec made 8 allocations escaping one clean
// name, 826 encoding the point and 298 decoding it. Not built under
// -race: the race runtime drops a random share of sync.Pool puts, so
// pooled scratch is re-allocated at random there.
func TestCodecAllocs(t *testing.T) {
	p := widePoint(88)
	line, err := EncodeLine(p)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 0, 2*len(line))
	for _, c := range []struct {
		name    string
		ceiling float64
		run     func()
	}{
		{"appendEscaped of a clean name", 0, func() { buf = appendEscaped(buf[:0], p.Measurement) }},
		{"appendLine with capacity", 0, func() { buf = appendLine(buf[:0], &p) }},
		{"EncodeLine", 12, func() { _, _ = EncodeLine(p) }},
		{"DecodeLine", 8, func() { _, _ = DecodeLine(line) }},
	} {
		got := testing.AllocsPerRun(100, c.run)
		t.Logf("%s: %.0f allocs (ceiling %.0f)", c.name, got, c.ceiling)
		if got > c.ceiling {
			t.Errorf("%s: %.0f allocs, ceiling %.0f", c.name, got, c.ceiling)
		}
	}
}
