// Package servetest helps test the wire writers built on serve.Encoder
// against encoding/json, their oracle.
package servetest

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"sort"

	"vmpower/internal/serve"
)

// Fill sets every exported field reachable from v, a pointer to a wire
// value, to a value no other field holds: numbers count up, strings
// carry bytes encoding/json escapes, slices get two elements and maps
// three entries. Every omitempty field is then present, so a writer
// that skips, swaps or misnames a field writes other bytes than
// encoding/json.
func Fill(v any) {
	n := 0
	fill(reflect.ValueOf(v).Elem(), &n, func() float64 { return float64(n) + 0.125 })
}

// Fills are the ways a writer test fills a wire value before holding
// its writer to encoding/json: not at all (the zero value, every
// omitempty field absent and every map and slice nil), Fill and
// FillRuns.
var Fills = []struct {
	Name string
	Fill func(v any)
}{{"zero", func(any) {}}, {"filled", Fill}, {"runs", FillRuns}}

// FillRuns is Fill with the floats, in the order Fill visits them, taken
// from a cycle of runs: 0.5 three times, then 0, -0, -0 and 0. Equal
// floats follow each other, as the shares of a host whose VMs draw the
// same watts do, and 0 sits next to -0, which encodes differently.
func FillRuns(v any) {
	runs := []float64{0.5, 0.5, 0.5, 0, math.Copysign(0, -1), math.Copysign(0, -1), 0}
	n, k := 0, 0
	fill(reflect.ValueOf(v).Elem(), &n, func() float64 {
		k++
		return runs[(k-1)%len(runs)]
	})
}

func fill(v reflect.Value, n *int, float func() float64) {
	*n++
	switch v.Kind() {
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Int:
		v.SetInt(int64(*n))
	case reflect.Float64:
		v.SetFloat(float())
	case reflect.String:
		v.SetString(fmt.Sprintf("<%d & \"\\\t\x01>", *n))
	case reflect.Slice:
		s := reflect.MakeSlice(v.Type(), 2, 2)
		for i := 0; i < s.Len(); i++ {
			fill(s.Index(i), n, float)
		}
		v.Set(s)
	case reflect.Map:
		m := reflect.MakeMap(v.Type())
		for i := 0; i < 3; i++ {
			k := reflect.New(v.Type().Key()).Elem()
			fill(k, n, float)
			e := reflect.New(v.Type().Elem()).Elem()
			fill(e, n, float)
			m.SetMapIndex(k, e)
		}
		v.Set(m)
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if v.Type().Field(i).IsExported() {
				fill(v.Field(i), n, float)
			}
		}
	default:
		panic(fmt.Sprintf("servetest: no fill for %s", v.Type()))
	}
}

// Keys lists m's keys in ascending order, encoding/json's map order.
func Keys(m map[string]float64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// Same reports whether write appends the bytes json.NewEncoder's Encode
// writes for v, trailing newline included, and returns both.
func Same(v any, write func(*serve.Encoder)) (got, want []byte, same bool) {
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(v); err != nil {
		panic(fmt.Sprintf("servetest: the oracle cannot encode %T: %v", v, err))
	}
	var e serve.Encoder
	write(&e)
	if got = e.Bytes(); got == nil {
		return nil, buf.Bytes(), false
	}
	got = append(got, '\n')
	return got, buf.Bytes(), bytes.Equal(got, buf.Bytes())
}
