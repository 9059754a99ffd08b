package serve

import (
	"math"
	"strconv"
	"unicode/utf8"
)

// Encoder appends one JSON document with the bytes json.NewEncoder's
// Encode writes for the same value: floats, strings and map order follow
// encoding/json's rules, so a body it builds is bit-identical to the
// per-request path's. It writes the per-tick bodies without reflection:
// each daemon writes its own wire types, one call per field. The
// per-request paths, and the tests as the oracle, keep encoding/json.
//
// Every method that writes a value takes the member's key; an empty key
// writes an unkeyed value, the document itself or an array element (no
// wire type has an empty field name). Omitted fields (omitempty) are the
// caller's to skip.
type Encoder struct {
	buf []byte
	bad bool // a NaN or ±Inf was written, or a map missed its key order
}

// Write returns the document write appends as a served body (see
// Body). Its buffer starts with room for last's length and an eighth
// more: given the same endpoint's body on the previous tick, a steady
// body allocates its buffer once, though its floats print a few digits
// longer.
func Write(last Body, write func(*Encoder)) Body {
	n := len(last.data)
	e := Encoder{buf: make([]byte, 0, n+n/8)}
	write(&e)
	return e.Body()
}

// member writes what comes before a value: a comma unless the value is
// the document or the first in its object or array, then the key when
// there is one.
func (e *Encoder) member(key string) {
	if n := len(e.buf); n > 0 && e.buf[n-1] != '{' && e.buf[n-1] != '[' {
		e.buf = append(e.buf, ',')
	}
	if key != "" {
		e.buf = appendString(e.buf, key)
		e.buf = append(e.buf, ':')
	}
}

// Open starts an object; Close ends it.
func (e *Encoder) Open(key string) {
	e.member(key)
	e.buf = append(e.buf, '{')
}

// Close ends the object Open started.
func (e *Encoder) Close() { e.buf = append(e.buf, '}') }

// Int writes an integer.
func (e *Encoder) Int(key string, v int) {
	e.member(key)
	e.buf = strconv.AppendInt(e.buf, int64(v), 10)
}

// Bool writes true or false.
func (e *Encoder) Bool(key string, v bool) {
	e.member(key)
	e.buf = strconv.AppendBool(e.buf, v)
}

// String writes a string with encoding/json's escaping.
func (e *Encoder) String(key, v string) {
	e.member(key)
	e.buf = appendString(e.buf, v)
}

// Float writes a float64 the way encoding/json does. A NaN or ±Inf,
// which encoding/json refuses, makes the whole body unencodable.
func (e *Encoder) Float(key string, v float64) {
	e.member(key)
	e.appendFloat(v)
}

// Strings writes an array of strings, or null for a nil slice.
func (e *Encoder) Strings(key string, v []string) {
	e.member(key)
	if v == nil {
		e.buf = append(e.buf, "null"...)
		return
	}
	e.buf = append(e.buf, '[')
	for i, s := range v {
		if i > 0 {
			e.buf = append(e.buf, ',')
		}
		e.buf = appendString(e.buf, s)
	}
	e.buf = append(e.buf, ']')
}

// Floats writes m as an object, or null for a nil map, listing its
// entries in the order of keys, which must be ascending (encoding/json's
// map order) and may hold names m lacks: a Table's keys for a subset of
// its rows, say. A key of m missing from keys makes the body
// unencodable rather than drop the entry.
func (e *Encoder) Floats(key string, keys []string, m map[string]float64) {
	e.member(key)
	if m == nil {
		e.buf = append(e.buf, "null"...)
		return
	}
	e.buf = append(e.buf, '{')
	written := 0
	for _, k := range keys {
		if written == len(m) {
			break
		}
		v, ok := m[k]
		if !ok {
			continue
		}
		if written > 0 {
			e.buf = append(e.buf, ',')
		}
		e.buf = appendString(e.buf, k)
		e.buf = append(e.buf, ':')
		e.appendFloat(v)
		written++
	}
	if written != len(m) {
		e.bad = true
	}
	e.buf = append(e.buf, '}')
}

// Raw writes v, a value encoded earlier by an Encoder (see Bytes).
func (e *Encoder) Raw(key string, v []byte) {
	e.member(key)
	e.buf = append(e.buf, v...)
}

// List writes v as an array whose elements write appends, each as an
// unkeyed value, or null for a nil slice.
func List[T any](e *Encoder, key string, v []T, write func(*Encoder, *T)) {
	e.member(key)
	if v == nil {
		e.buf = append(e.buf, "null"...)
		return
	}
	e.buf = append(e.buf, '[')
	for i := range v {
		write(e, &v[i])
	}
	e.buf = append(e.buf, ']')
}

// Bytes returns the value written so far, for Raw, and whether it can
// encode.
func (e *Encoder) Bytes() ([]byte, bool) { return e.buf, !e.bad }

// Body returns the document as a served body, with the trailing newline
// Encode writes, or the zero Body when it cannot encode: a NaN or ±Inf
// was written, exactly where encoding/json fails, or a map's key order
// missed a key.
func (e *Encoder) Body() Body {
	if e.bad {
		return Body{}
	}
	e.buf = append(e.buf, '\n')
	return Body{data: e.buf, size: []string{strconv.Itoa(len(e.buf))}}
}

// appendFloat writes f with encoding/json's format: the shortest
// representation in 'f' form, or 'e' form below 1e-6 and from 1e21 with
// a one-digit negative exponent unpadded (1e-7, not 1e-07).
func (e *Encoder) appendFloat(f float64) {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		e.bad = true
		return
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b := strconv.AppendFloat(e.buf, f, format, -1, 64)
	if format == 'e' {
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	e.buf = b
}

const hexDigits = "0123456789abcdef"

// appendString writes s quoted with encoding/json's escaping under its
// default HTML-safe setting: quote, backslash and the control bytes are
// escaped (\b, \f, \n, \r and \t by name, the rest as \u00XX), so are <,
// > and &; invalid UTF-8 becomes \ufffd and U+2028/U+2029 are escaped.
func appendString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if b := s[i]; b < utf8.RuneSelf {
			if b >= ' ' && b != '"' && b != '\\' && b != '<' && b != '>' && b != '&' {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '\\', '"':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[b>>4], hexDigits[b&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		if c == utf8.RuneError && size == 1 {
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
			i += size
			start = i
			continue
		}
		if c == '\u2028' || c == '\u2029' {
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[c&0xF])
			i += size
			start = i
			continue
		}
		i += size
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}
