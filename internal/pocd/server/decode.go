package server

import (
	"encoding/json"
	"slices"
	"strconv"
	"unicode/utf8"
)

// opDecoder decodes journaled op payloads. Its result and its error
// for each are those of json.Unmarshal(b, op) on a zero Op, for every
// input.
//
// Recovery decodes every op the journal holds, and encoding/json's
// reflection-driven decoder is most of that cost. So decode first
// tries a scanner that accepts only the shape json.Marshal(Op) writes
// (canonical), and hands anything else to json.Unmarshal. The scanner
// accepts a strict subset of what json.Unmarshal accepts and decodes
// it to the same Op, so the fallback keeps encoding/json the
// definition: of results and of error texts alike.
//
// It keeps one copy of each string it has decoded, so the member names
// a journal repeats in every flow are allocated once, and it gathers an
// array's elements in a reused buffer before copying them out at their
// final length.
type opDecoder struct {
	b     []byte
	i     int
	strs  map[string]string
	flows []FlowReq
	ids   []int64
}

// maxInterned bounds the strings an opDecoder keeps.
const maxInterned = 1 << 12

// decode decodes one op payload into *op, overwriting it; the strings
// and slices it stores in *op share no memory with b.
func (d *opDecoder) decode(b []byte, op *Op) error {
	if d.canonical(b, op) {
		return nil
	}
	*op = Op{}
	return json.Unmarshal(b, op)
}

// canonical decodes b into *op when b has the canonical shape and
// reports whether it did; *op is unspecified when it did not.
//
// The canonical shape is one object whose keys are the exact json
// tags, each at most once and in declaration order (any omitempty
// field absent or present), with no whitespace and nothing after the
// closing brace. Numbers must match the RFC 8259 grammar before strconv
// parses them: ParseFloat alone accepts .5, 5., +5, 01, inf and hex
// floats, which JSON rejects. Integer fields take no fraction or
// exponent. Strings may hold no backslash, no byte below 0x20 and no
// invalid UTF-8: those are exactly the strings encoding/json passes
// through unchanged. Arrays must be non-empty, since json.Unmarshal
// decodes [] to an empty non-nil slice and json.Marshal omits one.
func (d *opDecoder) canonical(b []byte, op *Op) bool {
	d.b, d.i = b, 0
	*op = Op{}
	fields := opFields(op)
	return d.object(fields[:]) && d.i == len(b)
}

// field pairs a json key with the destination it decodes into.
type field struct {
	key string
	dst any // *string, *int, *float64, *[]int64 or *[]FlowReq
}

// opFields lists Op's fields in declaration order.
func opFields(o *Op) [16]field {
	return [...]field{
		{"op", &o.Op}, {"name", &o.Name}, {"kind", &o.Kind}, {"router", &o.Router},
		{"flows", &o.Flows}, {"ids", &o.IDs},
		{"weight", &o.Weight}, {"price", &o.Price}, {"max_latency_km", &o.MaxLatencyKm},
		{"seconds", &o.Seconds},
		{"link", &o.Link}, {"bp", &o.BP}, {"lat", &o.Lat}, {"lon", &o.Lon},
		{"radius_km", &o.RadiusKm}, {"penalty_rate", &o.PenaltyRate},
	}
}

// flowFields lists FlowReq's fields in declaration order.
func flowFields(f *FlowReq) [4]field {
	return [...]field{{"src", &f.Src}, {"dst", &f.Dst}, {"gbps", &f.Gbps}, {"class", &f.Class}}
}

// lit consumes c if it is the next byte.
func (d *opDecoder) lit(c byte) bool {
	if d.i < len(d.b) && d.b[d.i] == c {
		d.i++
		return true
	}
	return false
}

// object scans an object whose keys are a strictly increasing
// subsequence of fields' keys.
func (d *opDecoder) object(fields []field) bool {
	if !d.lit('{') {
		return false
	}
	if d.lit('}') {
		return true
	}
	for next := 0; ; {
		key, ok := d.str()
		if !ok || !d.lit(':') {
			return false
		}
		for next < len(fields) && fields[next].key != string(key) {
			next++
		}
		if next == len(fields) || !d.value(fields[next].dst) {
			return false
		}
		next++
		if d.lit('}') {
			return true
		}
		if !d.lit(',') {
			return false
		}
	}
}

// value scans one value of dst's type into *dst.
func (d *opDecoder) value(dst any) bool {
	switch p := dst.(type) {
	case *string:
		v, ok := d.str()
		*p = d.intern(v)
		return ok
	case *float64:
		num, _, ok := d.number()
		if !ok {
			return false
		}
		f, err := strconv.ParseFloat(string(num), 64)
		*p = f
		return err == nil
	case *int:
		n, ok := d.int()
		*p = int(n)
		return ok && int64(*p) == n
	case *[]int64:
		d.ids = d.ids[:0]
		ok := d.array(func() bool {
			n, ok := d.int()
			d.ids = append(d.ids, n)
			return ok
		})
		*p = slices.Clone(d.ids)
		return ok
	case *[]FlowReq:
		d.flows = d.flows[:0]
		ok := d.array(func() bool {
			d.flows = append(d.flows, FlowReq{})
			fields := flowFields(&d.flows[len(d.flows)-1])
			return d.object(fields[:])
		})
		*p = slices.Clone(d.flows)
		return ok
	}
	return false
}

// intern returns v as a string, the same string each time for the
// first maxInterned distinct values.
func (d *opDecoder) intern(v []byte) string {
	if str, ok := d.strs[string(v)]; ok {
		return str
	}
	str := string(v)
	if len(d.strs) < maxInterned {
		if d.strs == nil {
			d.strs = make(map[string]string)
		}
		d.strs[str] = str
	}
	return str
}

// array scans a non-empty array, calling elem at each element.
func (d *opDecoder) array(elem func() bool) bool {
	if !d.lit('[') || d.lit(']') {
		return false
	}
	for {
		if !elem() {
			return false
		}
		if d.lit(']') {
			return true
		}
		if !d.lit(',') {
			return false
		}
	}
}

// str scans a string that needs no unescaping and returns its bytes.
func (d *opDecoder) str() ([]byte, bool) {
	if !d.lit('"') {
		return nil, false
	}
	b, start := d.b, d.i
	ascii := true
	for i := start; i < len(b); i++ {
		switch c := b[i]; {
		case c == '"':
			d.i = i + 1
			return b[start:i], ascii || utf8.Valid(b[start:i])
		case c == '\\' || c < 0x20:
			return nil, false
		case c >= utf8.RuneSelf:
			ascii = false
		}
	}
	return nil, false
}

// int scans a JSON number with no fraction or exponent.
func (d *opDecoder) int() (int64, bool) {
	num, isInt, ok := d.number()
	if !ok || !isInt {
		return 0, false
	}
	n, err := strconv.ParseInt(string(num), 10, 64)
	return n, err == nil
}

// number scans -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)? and
// reports whether it had neither fraction nor exponent.
func (d *opDecoder) number() (num []byte, isInt, ok bool) {
	start := d.i
	d.lit('-')
	if !d.lit('0') && d.digits() == 0 {
		return nil, false, false
	}
	isInt = true
	if d.lit('.') {
		if d.digits() == 0 {
			return nil, false, false
		}
		isInt = false
	}
	if d.lit('e') || d.lit('E') {
		if !d.lit('+') {
			d.lit('-')
		}
		if d.digits() == 0 {
			return nil, false, false
		}
		isInt = false
	}
	return d.b[start:d.i], isInt, true
}

// digits consumes a run of decimal digits and returns its length.
func (d *opDecoder) digits() int {
	b, i := d.b, d.i
	for i < len(b) && b[i]-'0' < 10 {
		i++
	}
	n := i - d.i
	d.i = i
	return n
}
