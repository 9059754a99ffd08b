package serve

import (
	"bytes"
	"encoding/json"
	"math"
	"sort"
	"strconv"
	"testing"
)

// FuzzAppendJSON holds the Encoder to encoding/json, its oracle: a
// document with s as a string, an array element and a map key, and x as
// a float and a map value, must encode to the bytes json.NewEncoder's
// Encode writes, with a matching declared length, and to the zero Body
// exactly where encoding/json fails (NaN and ±Inf). The seeds cover the
// escapes (<, >, &, quote, backslash, control bytes with \b and \f,
// U+2028/U+2029, invalid UTF-8) and the float edges (±0, the 1e-6 and
// 1e21 format switches, subnormals, ±MaxFloat64).
func FuzzAppendJSON(f *testing.F) {
	for _, s := range []string{"", "vm01", "<a&b>", `"q"\`, "\x00\x01\x1f\x7f", "\b\f\n\r\t",
		"\xe2\x80\xa8\xe2\x80\xa9", "\xff", "a\xc3", "\xed\xa0\x80", "é😀"} {
		f.Add(s, 1.5)
	}
	for _, x := range []float64{0, math.Copysign(0, -1), 1e-6, math.Nextafter(1e-6, 0), -1e-7,
		1e21, math.Nextafter(1e21, 0), -1e21, 5e-324, 2.2250738585072014e-308, math.MaxFloat64,
		-math.MaxFloat64, 123456789.125, 1e20, 0.1, math.NaN(), math.Inf(1), math.Inf(-1)} {
		f.Add("k", x)
	}
	f.Fuzz(func(t *testing.T, s string, x float64) {
		type doc struct {
			S string             `json:"s"`
			F float64            `json:"f"`
			L []string           `json:"l"`
			N []string           `json:"n"`
			M map[string]float64 `json:"m"`
		}
		v := doc{S: s, F: x, L: []string{s, "k"}, M: map[string]float64{s: x, "k": -x}}
		var want bytes.Buffer
		oracleErr := json.NewEncoder(&want).Encode(v)

		keys := make([]string, 0, len(v.M))
		for k := range v.M {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		var e Encoder
		e.Open("")
		e.String("s", v.S)
		e.Float("f", v.F)
		e.Strings("l", v.L)
		e.Strings("n", v.N)
		e.Floats("m", keys, v.M)
		e.Close()
		b := e.Body()

		if oracleErr != nil {
			if b.OK() {
				t.Fatalf("encoding/json fails (%v) but the Encoder wrote %q", oracleErr, b.data)
			}
			return
		}
		if !b.OK() || !bytes.Equal(b.data, want.Bytes()) {
			t.Fatalf("Encoder wrote %q (OK %v), encoding/json %q", b.data, b.OK(), want.Bytes())
		}
		if b.size[0] != strconv.Itoa(len(b.data)) {
			t.Fatalf("declared length %s for %d bytes", b.size[0], len(b.data))
		}
	})
}

// TestFloatsKeyOrder pins the keyed-float writer's contract: it lists
// the map in the order of keys, skips keys the map lacks, writes null
// for a nil map, and makes the body unencodable when a key of the map
// is missing from keys rather than drop the entry.
func TestFloatsKeyOrder(t *testing.T) {
	m := map[string]float64{"a": 1, "c": 3}
	for _, tc := range []struct {
		keys []string
		m    map[string]float64
		want string
	}{
		{[]string{"a", "b", "c", "d"}, m, `{"a":1,"c":3}`},
		{nil, map[string]float64{}, `{}`},
		{[]string{"a"}, nil, `null`},
		{[]string{"a", "b"}, m, ""},
	} {
		var e Encoder
		e.Floats("", tc.keys, tc.m)
		b := e.Body()
		if got := string(b.data); tc.want == "" && b.OK() || tc.want != "" && got != tc.want+"\n" {
			t.Errorf("Floats(%v, %v) = %q (OK %v), want %q", tc.keys, tc.m, got, b.OK(), tc.want)
		}
	}
}
