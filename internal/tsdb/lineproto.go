package tsdb

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"
	"sync"
)

// Typed line-protocol errors. Fuzzing shook out a family of inputs the
// original codec silently accepted (NaN/Inf field values, duplicate or
// empty keys) or mangled (unescaped backslashes); each class now has a
// sentinel so callers can errors.Is on the rejection reason.
var (
	// ErrNonFiniteField rejects NaN/±Inf field values: they survive a
	// FormatFloat/ParseFloat round trip but poison every aggregation that
	// touches them, so the codec refuses them at both ends.
	ErrNonFiniteField = errors.New("tsdb: non-finite field value")
	// ErrDuplicateKey rejects a tag or field key appearing twice in one
	// line; the old decoder let the last occurrence win silently.
	ErrDuplicateKey = errors.New("tsdb: duplicate key")
	// ErrEmptyKey rejects empty tag/field keys (and empty tag values),
	// which encode to ambiguous ",=v" fragments.
	ErrEmptyKey = errors.New("tsdb: empty key")
)

// EncodeLine renders a point in the InfluxDB line protocol:
//
//	measurement[,tag=value...] field=value[,field=value...] timestamp
//
// Tag and field keys are sorted for a canonical form: for any point p
// accepted by Validate, DecodeLine(EncodeLine(p)) returns p and
// re-encoding yields byte-identical output. Backslashes, spaces, commas
// and equals signs in names are escaped with a backslash as in the real
// protocol.
func EncodeLine(p Point) (string, error) {
	if err := p.Validate(); err != nil {
		return "", err
	}
	bp := getBuf()
	defer putBuf(bp)
	*bp = appendLine(*bp, &p)
	return string(*bp), nil
}

// keyScratch pools the key slices appendLine sorts, so encoding a point
// allocates nothing once the destination buffer is large enough.
var keyScratch = sync.Pool{New: func() any { return new([]string) }}

// appendLine appends the line-protocol encoding of p (see EncodeLine)
// to dst. p must already have passed Validate.
func appendLine(dst []byte, p *Point) []byte {
	kp := keyScratch.Get().(*[]string)
	keys := (*kp)[:0]
	dst = appendEscaped(dst, p.Measurement)
	for k := range p.Tags {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	for _, k := range keys {
		dst = append(dst, ',')
		dst = appendEscaped(dst, k)
		dst = append(dst, '=')
		dst = appendEscaped(dst, p.Tags[k])
	}
	dst = append(dst, ' ')
	keys = keys[:0]
	for k := range p.Fields {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	for i, k := range keys {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = appendEscaped(dst, k)
		dst = append(dst, '=')
		dst = strconv.AppendFloat(dst, p.Fields[k], 'g', -1, 64)
	}
	dst = append(dst, ' ')
	dst = strconv.AppendInt(dst, p.Time, 10)
	clear(keys) // drop references to the point's keys before pooling
	*kp = keys[:0]
	keyScratch.Put(kp)
	return dst
}

// needsEscape reports whether c must be backslash-escaped in a name.
// The backslash itself is escaped too: without it a name ending in '\'
// swallows the section separator on decode and the line desyncs.
func needsEscape(c byte) bool {
	return c == '\\' || c == ',' || c == ' ' || c == '='
}

// appendEscaped appends s to dst with line-protocol escapes. A name
// with nothing to escape is appended in one copy.
func appendEscaped(dst []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if needsEscape(s[i]) {
			dst = append(dst, s[:i]...)
			for ; i < len(s); i++ {
				if needsEscape(s[i]) {
					dst = append(dst, '\\')
				}
				dst = append(dst, s[i])
			}
			return dst
		}
	}
	return append(dst, s...)
}

// DecodeLine parses one line-protocol line. One scan locates the three
// sections (and counts their separators to pre-size the maps); each
// section is then parsed in place. Names without escapes are returned
// as substrings of line, sharing its memory — stores that retain a name
// copy it first (see interner.intern).
func DecodeLine(line string) (Point, error) {
	sp1, sp2, sections := -1, -1, 1
	tagSeps, fieldSeps := 0, 0
	for i := 0; i < len(line); i++ {
		switch line[i] {
		case '\\':
			i++
		case ' ':
			sections++
			if sp1 < 0 {
				sp1 = i
			} else if sp2 < 0 {
				sp2 = i
			}
		case ',':
			if sp1 < 0 {
				tagSeps++
			} else if sp2 < 0 {
				fieldSeps++
			}
		}
	}
	if sections != 3 {
		return Point{}, fmt.Errorf("tsdb: line protocol needs 3 sections, got %d in %q", sections, line)
	}
	p := Point{
		Tags:   make(map[string]string, tagSeps),
		Fields: make(map[string]float64, fieldSeps+1),
	}
	// Section 1: measurement and tags.
	meas, rest, more := cutUnescaped(line[:sp1], ',')
	p.Measurement = unescapeLP(meas)
	for more {
		var kv string
		kv, rest, more = cutUnescaped(rest, ',')
		k, v, ok := cutUnescaped(kv, '=')
		if !ok || hasUnescaped(v, '=') {
			return Point{}, fmt.Errorf("tsdb: bad tag %q", kv)
		}
		k, v = unescapeLP(k), unescapeLP(v)
		if k == "" || v == "" {
			return Point{}, fmt.Errorf("%w: tag %q", ErrEmptyKey, kv)
		}
		if _, dup := p.Tags[k]; dup {
			return Point{}, fmt.Errorf("%w: tag %q", ErrDuplicateKey, k)
		}
		p.Tags[k] = v
	}
	// Section 2: fields.
	rest, more = line[sp1+1:sp2], true
	for more {
		var kv string
		kv, rest, more = cutUnescaped(rest, ',')
		k, raw, ok := cutUnescaped(kv, '=')
		if !ok || hasUnescaped(raw, '=') {
			return Point{}, fmt.Errorf("tsdb: bad field %q", kv)
		}
		v, err := strconv.ParseFloat(raw, 64)
		if err != nil {
			return Point{}, fmt.Errorf("tsdb: bad field value %q: %v", raw, err)
		}
		k = unescapeLP(k)
		if _, dup := p.Fields[k]; dup {
			return Point{}, fmt.Errorf("%w: field %q", ErrDuplicateKey, k)
		}
		p.Fields[k] = v
	}
	// Section 3: timestamp.
	ts, err := strconv.ParseInt(line[sp2+1:], 10, 64)
	if err != nil {
		return Point{}, fmt.Errorf("tsdb: bad timestamp %q: %v", line[sp2+1:], err)
	}
	p.Time = ts
	return p, p.Validate()
}

// unescapeLP drops the backslash of every escape pair. A string with no
// backslash is returned as is, without copying.
func unescapeLP(s string) string {
	if strings.IndexByte(s, '\\') < 0 {
		return s
	}
	var b strings.Builder
	b.Grow(len(s))
	for i := 0; i < len(s); i++ {
		if s[i] == '\\' && i+1 < len(s) {
			i++
		}
		b.WriteByte(s[i])
	}
	return b.String()
}

// cutUnescaped slices s around the first sep not escaped by a
// backslash, like strings.Cut.
func cutUnescaped(s string, sep byte) (before, after string, found bool) {
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '\\':
			i++
		case sep:
			return s[:i], s[i+1:], true
		}
	}
	return s, "", false
}

// hasUnescaped reports whether s holds a sep not escaped by a backslash.
func hasUnescaped(s string, sep byte) bool {
	_, _, found := cutUnescaped(s, sep)
	return found
}

// validateFinite rejects NaN and ±Inf field values with the typed error.
func validateFinite(measurement, key string, v float64) error {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return fmt.Errorf("%w: %s in %q", ErrNonFiniteField, key, measurement)
	}
	return nil
}
