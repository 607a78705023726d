package server

import (
	"encoding/json"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

// sampleOps holds one op of each kind, with the fields apply reads.
var sampleOps = []Op{
	{Op: "attach", Name: "metro-lmp", Kind: "lmp", Router: 3},
	{Op: "start_flows", Flows: []FlowReq{{Src: "metro-lmp", Dst: "cloud-csp", Gbps: 5}}},
	{Op: "start_flows", Flows: []FlowReq{
		{Src: "metro-lmp", Dst: "cloud-csp", Gbps: 0.25, Class: "gold"},
		{Src: "cloud-csp", Dst: "metro-lmp", Gbps: 3},
	}},
	{Op: "stop_flows", IDs: []int64{1, 7, 42}},
	{Op: "publish_qos", Name: "gold", Weight: 4, Price: 2.5, MaxLatencyKm: 1000},
	{Op: "bill_epoch", Seconds: 3600},
	{Op: "chaos", Kind: "correlated-cut", Link: 2, BP: 1, Lat: 40.7, Lon: -74, RadiusKm: 150},
	{Op: "recall", Link: 1, PenaltyRate: 0.1},
	{Op: "reauction"},
}

// decodeOp decodes one payload with a fresh opDecoder, as recovery's
// first op does.
func decodeOp(b []byte, op *Op) error {
	return new(opDecoder).decode(b, op)
}

// checkDecode requires decodeOp to agree with json.Unmarshal on b:
// both fail with the same text, or both succeed with equal ops.
func checkDecode(t *testing.T, b []byte) {
	t.Helper()
	var got, want Op
	errGot := decodeOp(b, &got)
	errWant := json.Unmarshal(b, &want)
	if (errGot == nil) != (errWant == nil) {
		t.Fatalf("%q: decodeOp error %v, json.Unmarshal error %v", b, errGot, errWant)
	}
	if errWant != nil {
		if errGot.Error() != errWant.Error() {
			t.Fatalf("%q: decodeOp error %q, json.Unmarshal error %q", b, errGot, errWant)
		}
		return
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%q: decodeOp gives %+v, json.Unmarshal %+v", b, got, want)
	}
}

// nonCanonical are inputs the fast path must hand to json.Unmarshal:
// each is invalid JSON, decodes differently from its bytes, or is a
// shape json.Marshal never writes.
var nonCanonical = []string{
	`{"op":"bill_epoch","seconds":.5}`,
	`{"op":"bill_epoch","seconds":5.}`,
	`{"op":"bill_epoch","seconds":01}`,
	`{"op":"bill_epoch","seconds":-01}`,
	`{"op":"bill_epoch","seconds":+5}`,
	`{"op":"bill_epoch","seconds":1e}`,
	`{"op":"bill_epoch","seconds":1e400}`,
	`{"op":"bill_epoch","seconds":inf}`,
	`{"op":"bill_epoch","seconds":0x1p3}`,
	`{"op":"bill_epoch","seconds":"5"}`,
	`{"op":"attach","router":1.0}`,
	`{"op":"attach","router":1e2}`,
	`{"op":"attach","router":9223372036854775808}`,
	`{"op":"stop_flows","ids":[01]}`,
	`{"op":"attach","name":"\u0041"}`,
	"{\"op\":\"attach\",\"name\":\"\xff\"}",
	"{\"op\":\"attach\",\"name\":\"a\tb\"}",
	`{"op":"start_flows","flows":[]}`,
	`{"op":"stop_flows","ids":[]}`,
	`{"op":"start_flows","flows":null}`,
	`{"op":null}`,
	`{"op":"bill_epoch","seconds":1,"seconds":2}`,
	`{"seconds":1,"op":"bill_epoch"}`,
	`{"Op":"bill_epoch","seconds":1}`,
	`{"op":"bill_epoch","Seconds":1}`,
	`{"op":"bill_epoch","epoch":1}`,
	`{"op":"start_flows","flows":[{"dst":"b","src":"a","gbps":1}]}`,
	`null`,
	`[]`,
	``,
	`{ "op":"reauction"}`,
	`{"op" :"reauction"}`,
	`{"op":"reauction"} `,
	"{\"op\":\"reauction\"}\n",
	`{"op":"reauction"}x`,
	`{"op":"reauction"}{"op":"reauction"}`,
	`{"op":"reauction",}`,
	`{"op":"reauction"`,
}

func TestCanonicalRejectsOtherShapes(t *testing.T) {
	for _, in := range nonCanonical {
		if new(opDecoder).canonical([]byte(in), &Op{}) {
			t.Errorf("fast path accepted %q", in)
		}
		checkDecode(t, []byte(in))
	}
}

// randOp draws an op of random kind whose every field is zero or a
// random value, strings free of anything json.Marshal escapes.
func randOp(rng *rand.Rand) Op {
	kinds := []string{"attach", "start_flows", "stop_flows", "publish_qos", "bill_epoch", "chaos", "recall", "reauction", ""}
	str := func() string {
		if rng.Intn(3) == 0 {
			return ""
		}
		const alphabet = "abcxyz-_ ./:~09AZ'é東 \x7f"
		r := []rune(alphabet)
		var sb strings.Builder
		for n := rng.Intn(12); n > 0; n-- {
			sb.WriteRune(r[rng.Intn(len(r))])
		}
		return sb.String()
	}
	float := func() float64 {
		switch rng.Intn(8) {
		case 0:
			return 0
		case 1:
			return []float64{1e-7, 1e21, 1e-6, 999999999999999999999, 5e-324, math.MaxFloat64, math.Copysign(0, -1), 0.1}[rng.Intn(8)]
		case 2:
			return float64(rng.Intn(10000) - 5000)
		case 3:
			return math.Float64frombits(rng.Uint64() &^ (0x7ff << 52)) // finite, any sign
		default:
			return rng.NormFloat64() * math.Pow(10, float64(rng.Intn(40)-20))
		}
	}
	integer := func() int64 {
		switch rng.Intn(4) {
		case 0:
			return 0
		case 1:
			return []int64{math.MaxInt64, math.MinInt64, -1}[rng.Intn(3)]
		default:
			return rng.Int63n(1<<40) - 1<<39
		}
	}
	o := Op{
		Op: kinds[rng.Intn(len(kinds))], Name: str(), Kind: str(), Router: int(integer()),
		Weight: float(), Price: float(), MaxLatencyKm: float(), Seconds: float(),
		Link: int(integer()), BP: int(integer()), Lat: float(), Lon: float(),
		RadiusKm: float(), PenaltyRate: float(),
	}
	for n := rng.Intn(4); n > 0 && rng.Intn(2) == 0; n-- {
		o.Flows = append(o.Flows, FlowReq{Src: str(), Dst: str(), Gbps: float(), Class: str()})
	}
	for n := rng.Intn(4); n > 0 && rng.Intn(2) == 0; n-- {
		o.IDs = append(o.IDs, integer())
	}
	return o
}

// TestCanonicalRoundTrip: every json.Marshal output takes the fast
// path and decodes to what json.Unmarshal gives, also when one decoder
// runs over many ops.
func TestCanonicalRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	ops := append([]Op(nil), sampleOps...)
	for i := 0; i < 5000; i++ {
		ops = append(ops, randOp(rng))
	}
	// One decoder for every op, as recovery uses it.
	var d opDecoder
	hits := 0
	for _, o := range ops {
		b, err := json.Marshal(&o)
		if err != nil {
			t.Fatal(err)
		}
		var got, want Op
		if d.canonical(b, &got) {
			hits++
		} else {
			t.Errorf("fast path refused json.Marshal output %s", b)
		}
		if err := json.Unmarshal(b, &want); err != nil || !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: fast path gives %+v, json.Unmarshal %+v (error %v)", b, got, want, err)
		}
		checkDecode(t, b)
	}
	if hits != len(ops) {
		t.Fatalf("fast path took %d of %d json.Marshal outputs", hits, len(ops))
	}
}

// FuzzOpDecode is the differential test of decodeOp against
// json.Unmarshal: on any bytes both fail with the same text, or both
// succeed with deeply equal ops.
func FuzzOpDecode(f *testing.F) {
	for _, o := range sampleOps {
		b, err := json.Marshal(&o)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Add([]byte(`{"op":"bill_epoch","seconds":1e-7}`))
	f.Add([]byte(`{"op":"bill_epoch","seconds":1e+21}`))
	f.Add([]byte(`{"op":"bill_epoch","seconds":-0}`))
	f.Add([]byte(`{"op":"attach","router":-0}`))
	f.Add([]byte(`{"op":"attach","router":-12}`))
	f.Add([]byte(`{"op":"stop_flows","ids":[-1,0,-9223372036854775808]}`))
	for _, in := range nonCanonical {
		f.Add([]byte(in))
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		checkDecode(t, b)
	})
}
