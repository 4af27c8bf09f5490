package tsdb

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// The line-protocol codec as it stood before the append-style rewrite,
// kept verbatim (only renamed) as the oracle FuzzCodecDifferential
// checks the production codec against: same points from the same
// lines, same bytes from the same points.

// oracleEncodeLine renders a point in the InfluxDB line protocol:
//
//	measurement[,tag=value...] field=value[,field=value...] timestamp
//
// Tag and field keys are sorted for a canonical form: for any point p
// accepted by Validate, oracleDecodeLine(oracleEncodeLine(p)) returns p and
// re-encoding yields byte-identical output. Backslashes, spaces, commas
// and equals signs in names are escaped with a backslash as in the real
// protocol.
func oracleEncodeLine(p Point) (string, error) {
	if err := p.Validate(); err != nil {
		return "", err
	}
	var b strings.Builder
	b.WriteString(oracleEscapeLP(p.Measurement))
	tagKeys := make([]string, 0, len(p.Tags))
	for k := range p.Tags {
		tagKeys = append(tagKeys, k)
	}
	sort.Strings(tagKeys)
	for _, k := range tagKeys {
		b.WriteByte(',')
		b.WriteString(oracleEscapeLP(k))
		b.WriteByte('=')
		b.WriteString(oracleEscapeLP(p.Tags[k]))
	}
	b.WriteByte(' ')
	fieldKeys := make([]string, 0, len(p.Fields))
	for k := range p.Fields {
		fieldKeys = append(fieldKeys, k)
	}
	sort.Strings(fieldKeys)
	for i, k := range fieldKeys {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(oracleEscapeLP(k))
		b.WriteByte('=')
		b.WriteString(strconv.FormatFloat(p.Fields[k], 'g', -1, 64))
	}
	fmt.Fprintf(&b, " %d", p.Time)
	return b.String(), nil
}

// oracleDecodeLine parses one line-protocol line.
func oracleDecodeLine(line string) (Point, error) {
	parts := oracleSplitUnescaped(line, ' ')
	if len(parts) != 3 {
		return Point{}, fmt.Errorf("tsdb: line protocol needs 3 sections, got %d in %q", len(parts), line)
	}
	p := Point{Tags: map[string]string{}, Fields: map[string]float64{}}
	// Section 1: measurement and tags.
	head := oracleSplitUnescaped(parts[0], ',')
	p.Measurement = unoracleEscapeLP(head[0])
	for _, kv := range head[1:] {
		pair := oracleSplitUnescaped(kv, '=')
		if len(pair) != 2 {
			return Point{}, fmt.Errorf("tsdb: bad tag %q", kv)
		}
		k, v := unoracleEscapeLP(pair[0]), unoracleEscapeLP(pair[1])
		if k == "" || v == "" {
			return Point{}, fmt.Errorf("%w: tag %q", ErrEmptyKey, kv)
		}
		if _, dup := p.Tags[k]; dup {
			return Point{}, fmt.Errorf("%w: tag %q", ErrDuplicateKey, k)
		}
		p.Tags[k] = v
	}
	// Section 2: fields.
	for _, kv := range oracleSplitUnescaped(parts[1], ',') {
		pair := oracleSplitUnescaped(kv, '=')
		if len(pair) != 2 {
			return Point{}, fmt.Errorf("tsdb: bad field %q", kv)
		}
		v, err := strconv.ParseFloat(pair[1], 64)
		if err != nil {
			return Point{}, fmt.Errorf("tsdb: bad field value %q: %v", pair[1], err)
		}
		k := unoracleEscapeLP(pair[0])
		if _, dup := p.Fields[k]; dup {
			return Point{}, fmt.Errorf("%w: field %q", ErrDuplicateKey, k)
		}
		p.Fields[k] = v
	}
	// Section 3: timestamp.
	ts, err := strconv.ParseInt(parts[2], 10, 64)
	if err != nil {
		return Point{}, fmt.Errorf("tsdb: bad timestamp %q: %v", parts[2], err)
	}
	p.Time = ts
	return p, p.Validate()
}

func oracleEscapeLP(s string) string {
	// The backslash must be escaped first (NewReplacer never rescans its
	// own output, so the ordering here is belt-and-braces documentation):
	// without it a name ending in '\' swallows the section separator on
	// decode and the line desyncs.
	r := strings.NewReplacer(`\`, `\\`, ",", `\,`, " ", `\ `, "=", `\=`)
	return r.Replace(s)
}

func unoracleEscapeLP(s string) string {
	var b strings.Builder
	for i := 0; i < len(s); i++ {
		if s[i] == '\\' && i+1 < len(s) {
			i++
		}
		b.WriteByte(s[i])
	}
	return b.String()
}

// oracleSplitUnescaped splits on sep, honouring backslash escapes.
func oracleSplitUnescaped(s string, sep byte) []string {
	var out []string
	start := 0
	for i := 0; i < len(s); i++ {
		if s[i] == '\\' {
			i++
			continue
		}
		if s[i] == sep {
			out = append(out, s[start:i])
			start = i + 1
		}
	}
	out = append(out, s[start:])
	return out
}
